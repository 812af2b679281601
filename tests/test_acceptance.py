"""Acceptance gate: one test per stated criterion, at the stated tolerance.

Each test prints ``criterion NN <slug>: PASS|FAIL (detail)`` before asserting;
the project's tee-sys capture mode passes the line through to the live
terminal, so a plain ``pytest -v`` run shows one status line per criterion.

Four checks encode published reference values or assertions that this
implementation's independently verified oracles contradict: the deepest row
of each published bound table (criteria 4 and 5), the crossing point of the
two limit laws (criterion 6), and the near-independence of the two one-sided
sup statistics (criterion 12).  They are implemented at face value and left
failing rather than loosened; the blocking analyses live in the project
decisions ledger, which is maintained outside this package.
"""

import math

import numpy as np
import scipy.integrate

from lossq.ecdf import Sample, build_ecdf, ks_statistics
from lossq.intervals import Method, interval_table
from lossq.kolmogorov import (
    LimitLaw,
    conv_cdf,
    kolmogorov_cdf,
    one_sided_cdf,
    quantile,
    width_for,
)
from lossq.moments import MomentVector, moments_empirical, moments_exponential
from lossq.recursion import CharacteristicSpec, estimate_characteristic, solve_recursion
from lossq.simulate import (
    Exponential,
    draw_samples,
    ks_law_experiment,
    simulate_busy_period,
)

from support import (
    FIXTURE_EPS_ONE,
    FIXTURE_EPS_TWO,
    FIXTURE_GAMMA_SUM,
    FIXTURE_R,
    PAIR_SLACK,
    REPORTED_ONE_SIDED,
    REPORTED_POINTS,
    REPORTED_TWO_SIDED,
    crossing_point,
    loss_probability_oracle,
    random_cdf_pairs,
)

FIXTURE_MOMENTS = MomentVector(rate=1.0, values=np.array(FIXTURE_R))
BUSY_UNIT = CharacteristicSpec.busy_period(1.0, 1.0)


def _report(num: int, slug: str, violations: list[str],
            pass_detail: str = "all within tolerance") -> None:
    status = "PASS" if not violations else "FAIL"
    detail = pass_detail if not violations else "; ".join(violations)
    print(f"criterion {num:02d} {slug}: {status} ({detail})", flush=True)
    assert not violations, detail


def test_criterion_01_limit_law_quantiles():
    violations = []
    for law, target, tol in (
        (LimitLaw.TWO_SIDED, 1.3581, 1e-3),
        (LimitLaw.ONE_SIDED, 1.224, 1e-3),
        (LimitLaw.ONE_SIDED_SUM, 2.08, 1e-2),
    ):
        z = quantile(law, 0.95)
        if abs(z - target) > tol:
            violations.append(f"{law.value}: {z:.6f} vs {target} ± {tol}")
    _report(1, "limit-law-quantiles", violations)


def test_criterion_02_widths_at_ten_thousand():
    violations = []
    for law, target in (
        (LimitLaw.TWO_SIDED, 0.013581),
        (LimitLaw.ONE_SIDED, 0.01224),
        (LimitLaw.ONE_SIDED_SUM, 0.0208),
    ):
        w = width_for(law, 0.95, 10_000)
        if abs(w - target) > 1e-4:
            violations.append(f"{law.value}: {w:.6f} vs {target} ± 1e-4")
    _report(2, "widths-at-10k", violations)


def test_criterion_03_exact_exponential_moments():
    values = moments_exponential(1.0, 1.0, 4).values
    expected = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
    violations = []
    if not np.array_equal(values, expected):
        violations.append(f"got {values.tolist()}, want {expected.tolist()} exactly")
    _report(3, "exact-exponential-moments", violations)


def test_criterion_04_two_sided_table_reproduction():
    points = estimate_characteristic(BUSY_UNIT, FIXTURE_MOMENTS, 4).natural_values
    bounds = solve_recursion(FIXTURE_MOMENTS, 4, FIXTURE_EPS_TWO, 2.0 * FIXTURE_EPS_TWO)
    violations = []
    for k in range(4):
        diff = abs(points[k + 1] - REPORTED_POINTS[k])
        if diff > 1e-3:
            violations.append(f"point T_{k + 1} off by {diff:.2e}")
        tol = 1e-5 if k == 0 else 1e-3
        low_diff = abs(bounds.lower[k] - REPORTED_TWO_SIDED[k][0])
        upp_diff = abs(bounds.upper[k] - REPORTED_TWO_SIDED[k][1])
        if low_diff > tol:
            violations.append(f"lower T_{k + 1} off by {low_diff:.2e}")
        if upp_diff > tol:
            violations.append(f"upper T_{k + 1} off by {upp_diff:.2e}")
    _report(4, "two-sided-table-reproduction", violations)


def test_criterion_05_one_sided_table_reproduction():
    bounds = solve_recursion(FIXTURE_MOMENTS, 4, FIXTURE_EPS_ONE, FIXTURE_GAMMA_SUM)
    violations = []
    for k in range(4):
        tol = 1e-5 if k == 0 else 1e-3
        low_diff = abs(bounds.lower[k] - REPORTED_ONE_SIDED[k][0])
        upp_diff = abs(bounds.upper[k] - REPORTED_ONE_SIDED[k][1])
        if low_diff > tol:
            violations.append(f"lower T_{k + 1} off by {low_diff:.2e}")
        if upp_diff > tol:
            violations.append(f"upper T_{k + 1} off by {upp_diff:.2e}")
    _report(5, "one-sided-table-reproduction", violations)


def test_criterion_06_law_crossing_point():
    x0, level = crossing_point()
    violations = []
    if abs(x0 - 1.385) > 5e-3:
        violations.append(f"x0 = {x0:.6f} vs 1.385 ± 5e-3")
    if abs(level - 0.6166) > 1e-3:
        violations.append(f"level = {level:.6f} vs 0.6166 ± 1e-3")
    _report(6, "law-crossing-point", violations)


def test_criterion_07_sum_law_closed_form_vs_quadrature():
    def by_quadrature(z: float) -> float:
        integrand = lambda x: (1.0 - math.exp(-2.0 * (z - x) ** 2)) \
            * 4.0 * x * math.exp(-2.0 * x * x)
        value, _ = scipy.integrate.quad(integrand, 0.0, z,
                                        epsabs=1e-12, epsrel=1e-12, limit=200)
        return value

    violations = []
    worst = 0.0
    for z in np.linspace(0.25, 5.0, 20):
        diff = abs(conv_cdf(float(z)) - by_quadrature(float(z)))
        worst = max(worst, diff)
        if diff > 1e-8:
            violations.append(f"z = {z:.2f} differs by {diff:.2e}")
    _report(7, "sum-law-closed-form-vs-quadrature", violations,
            pass_detail=f"max diff {worst:.2e}")


def test_criterion_08_coefficient_inequality_suite():
    checked = 0
    violations = []
    for pair in random_cdf_pairs(500, seed=101):
        checked += 1
        d_two = pair.sup_abs
        if abs(pair.r1[0] - pair.r2[0]) > d_two + PAIR_SLACK:
            violations.append(f"pair {checked}: |dr_0| exceeds d")
        if pair.r1[0] - pair.r2[0] > pair.sup_forward + PAIR_SLACK:
            violations.append(f"pair {checked}: dr_0 exceeds d_plus")
        for i in range(1, len(pair.r1)):
            if abs(pair.r1[i] - pair.r2[i]) > 2.0 * d_two + PAIR_SLACK:
                violations.append(f"pair {checked}: |dr_{i}| exceeds 2d")
            if (pair.r1[i] - pair.r2[i]
                    > pair.sup_forward + pair.sup_backward + PAIR_SLACK):
                violations.append(f"pair {checked}: dr_{i} exceeds d_plus+d_minus")
    if checked != 500:
        violations.append(f"only {checked} pairs generated")
    _report(8, "coefficient-inequality-suite", violations)


def test_criterion_09_unit_rate_oracle_and_simulation():
    moments = moments_exponential(1.0, 1.0, 4)
    violations = []

    busy = estimate_characteristic(BUSY_UNIT, moments, 4).natural_values
    served = estimate_characteristic(
        CharacteristicSpec.served_customers(1.0), moments, 4).natural_values
    lost = estimate_characteristic(
        CharacteristicSpec.lost_customers(1.0, 1.0), moments, 4).natural_values
    integers = np.arange(1.0, 6.0)
    if not np.array_equal(busy, integers):
        violations.append(f"busy chain {busy.tolist()} != 1..5 exactly")
    if not np.array_equal(served, integers):
        violations.append(f"served chain {served.tolist()} != 1..5 exactly")
    if not np.array_equal(lost, np.ones(5)):
        violations.append(f"lost chain {lost.tolist()} != 1 exactly")

    for n in range(5):
        sim = simulate_busy_period(1.0, Exponential(1.0), n, 10**6, seed=2600 + n)
        for name, stat, truth in (
            ("T", sim.busy_period, n + 1.0),
            ("nu", sim.served, n + 1.0),
            ("L", sim.lost, 1.0),
        ):
            if stat.se == 0.0:
                if stat.mean != truth:
                    violations.append(f"{name}_{n}: exact {stat.mean} != {truth}")
            elif abs(stat.mean - truth) > 3.0 * stat.se:
                violations.append(
                    f"{name}_{n}: {stat.mean:.5f} vs {truth} "
                    f"beyond 3 se = {3 * stat.se:.5f}"
                )
    _report(9, "unit-rate-oracle-and-simulation", violations)


def test_criterion_10_loss_probability_oracle():
    violations = []
    spec = CharacteristicSpec.loss_probability(1.0)
    for rho in (0.5, 1.0, 2.0):
        moments = moments_exponential(1.0, rho, 5)
        estimated = estimate_characteristic(spec, moments, 5).natural_values
        for n in range(1, 6):
            oracle = loss_probability_oracle(Exponential(rho), 1.0, n)
            diff = abs(estimated[n] - oracle)
            if diff > 1e-9:
                violations.append(f"rho {rho}, n {n}: off by {diff:.2e}")
    _report(10, "loss-probability-oracle", violations)


def test_criterion_11_interval_coverage():
    reps, n_obs, truth = 500, 2000, 5.0
    hits = {Method.TWO_SIDED_STATISTIC: 0, Method.ONE_SIDED_STATISTICS: 0}
    violations = []
    for i in range(reps):
        sample = draw_samples(Exponential(1.0), n_obs, seed=40_000 + i)
        moments = moments_empirical(build_ecdf(sample), 1.0, 4)
        tables = {
            method: interval_table(BUSY_UNIT, moments, 0.95, n_obs, method, 4)
            for method in hits
        }
        for method, table in tables.items():
            row = table.rows[4]
            if row.lower <= truth <= row.upper:
                hits[method] += 1
        two = tables[Method.TWO_SIDED_STATISTIC]
        one = tables[Method.ONE_SIDED_STATISTICS]
        for level in range(1, 5):
            width_two = two.rows[level].upper - two.rows[level].lower
            width_one = one.rows[level].upper - one.rows[level].lower
            if width_one > width_two:
                violations.append(
                    f"rep {i}, level {level}: one-sided interval wider"
                )
    for method, count in hits.items():
        coverage = count / reps
        if coverage < 0.93:
            violations.append(f"{method.value} coverage {coverage:.3f} < 0.93")
    _report(11, "interval-coverage", violations,
            pass_detail=", ".join(
                f"{m.value} coverage {hits[m] / reps:.3f}" for m in hits
            ))


def test_criterion_12_sup_statistic_limit_laws():
    res = ks_law_experiment(Exponential(1.0), 10_000, 500, seed=7)
    violations = []
    two_dist = ks_statistics(build_ecdf(Sample(res.two_sided)),
                             kolmogorov_cdf).two_sided
    minus_dist = ks_statistics(build_ecdf(Sample(res.one_sided_minus)),
                               one_sided_cdf).two_sided
    if two_dist >= 0.08:
        violations.append(f"two-sided law sup-distance {two_dist:.4f} >= 0.08")
    if minus_dist >= 0.08:
        violations.append(f"one-sided law sup-distance {minus_dist:.4f} >= 0.08")
    if abs(res.correlation) >= 0.15:
        violations.append(
            f"|corr| = {abs(res.correlation):.4f} >= 0.15 "
            f"(sup-distances: {two_dist:.4f}, {minus_dist:.4f})"
        )
    _report(12, "sup-statistic-limit-laws", violations)
