"""Poisson-weighted moment coefficients: three routes and their bounds."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from lossq import (
    MomentVector,
    Sample,
    build_ecdf,
    draw_samples,
    ks_statistics,
    moments_empirical,
    moments_exponential,
    moments_quadrature,
)
from lossq.ecdf import EmpiricalCdf
from lossq.kolmogorov import LimitLaw, width_for
from lossq.simulate import ErlangK, Exponential, Uniform

from support import exp_sup_distances, random_cdf_pairs

EXACT_EXPONENTIAL = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])


# ----------------------------------------------------------- MomentVector


def test_vector_validation():
    with pytest.raises(ValueError):
        MomentVector(rate=0.0, values=np.array([0.5]))
    with pytest.raises(ValueError):
        MomentVector(rate=1.0, values=np.array([1.5]))
    with pytest.raises(ValueError):
        MomentVector(rate=1.0, values=np.array([-0.2, 0.1]))
    with pytest.raises(ValueError):
        MomentVector(rate=1.0, values=np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        MomentVector(rate=1.0, values=np.array([]))


def test_vector_order_and_read_only():
    m = MomentVector(rate=2.0, values=np.array([0.4, 0.2, 0.1]))
    assert m.order == 2
    with pytest.raises(ValueError):
        m.values[0] = 0.9


# -------------------------------------------------------- empirical route


def test_point_mass_at_zero_gives_unit_leading_coefficient():
    # A single observation at 0 puts all weight on the zeroth kernel for
    # any rate.  Built directly (Sample requires strictly positive values).
    e = EmpiricalCdf(np.array([0.0]))
    m = moments_empirical(e, 3.7, 4)
    assert np.array_equal(m.values, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_single_observation_closed_values():
    # One observation at ln 2 with rate 1: weights are exp(-ln2) (ln2)^i / i!
    x = math.log(2.0)
    m = moments_empirical(build_ecdf(Sample([x])), 1.0, 2)
    assert m.values[0] == pytest.approx(0.5, abs=1e-15)
    assert m.values[1] == pytest.approx(0.5 * x, abs=1e-15)
    assert m.values[2] == pytest.approx(0.25 * x**2, abs=1e-15)


def test_large_exponential_sample_tracks_closed_form():
    s = draw_samples(Exponential(1.0), 10_000, seed=0)
    m = moments_empirical(build_ecdf(s), 1.0, 4)
    assert np.max(np.abs(m.values - EXACT_EXPONENTIAL)) < 0.015


def _full_array_moments(xs: np.ndarray, rate: float, order: int) -> np.ndarray:
    """The plain recurrence summed over every observation at every order."""
    ax = rate * xs
    w = np.exp(-ax)
    out = np.empty(order + 1)
    out[0] = w.mean()
    for i in range(1, order + 1):
        w = w * ax / i
        out[i] = w.mean()
    return out


def _last_nonzero(values: np.ndarray) -> int:
    nonzero = np.flatnonzero(values)
    return int(nonzero[-1]) if nonzero.size else -1


# exp(-rate x) is subnormal above rate x ~ 708 and 0 above ~ 745, and both
# loops are then wrong in the same way; keep the comparison below that
_MAX_AX = 700.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5_000),
    low=st.floats(-4.0, 2.0),
    decades=st.floats(0.0, 4.0),
    ties=st.booleans(),
    rate=st.sampled_from([0.05, 0.7, 1.0, 3.0, 40.0]),
    order=st.integers(0, 1_200),
    seed=st.integers(0, 2**32 - 1),
)
def test_windowed_sums_match_the_full_array_loop(n, low, decades, ties, rate, order, seed):
    rng = np.random.default_rng(seed)
    xs = 10.0 ** rng.uniform(low, low + decades, n)
    if ties:
        xs = rng.choice(xs[: max(1, n // 10)], n)
    xs = np.minimum(xs, _MAX_AX / rate)
    got = moments_empirical(build_ecdf(Sample(xs)), rate, order).values
    want = _full_array_moments(np.sort(xs), rate, order)
    diff = np.abs(got - want)
    normal = want >= 1e-290
    assert np.all(diff[normal] <= 8 * np.spacing(want[normal]))
    assert np.all(diff[~normal] <= 1e-300)
    assert abs(_last_nonzero(got) - _last_nonzero(want)) <= 1
    # the exact sum is at most 1; its float sum may round up
    assert float(got.sum()) <= 1.0 + 8 * np.spacing(1.0)


def test_leading_coefficient_is_the_plain_mean():
    xs = draw_samples(Exponential(0.3), 5_000, seed=4).values
    for rate in (0.1, 1.0, 25.0):
        m = moments_empirical(build_ecdf(Sample(xs)), rate, 50)
        assert m.values[0] == np.exp(-rate * np.sort(xs)).mean()


def test_high_order_stops_with_exact_zeros():
    xs = np.sort(draw_samples(Exponential(1.0), 1_000, seed=5).values)
    got = moments_empirical(build_ecdf(Sample(xs)), 1.0, 20_000).values
    want = _full_array_moments(xs, 1.0, 20_000)
    last = _last_nonzero(got)
    assert 0 < last < 1_000
    assert abs(last - _last_nonzero(want)) <= 1
    assert not np.any(got[last + 1:])
    assert not np.any(want[last + 2:])


def test_empirical_route_validates_inputs():
    e = build_ecdf(Sample([1.0]))
    with pytest.raises(ValueError):
        moments_empirical(e, 0.0, 2)
    with pytest.raises(ValueError):
        moments_empirical(e, 1.0, -1)


# ------------------------------------------------------ exponential route


def test_exponential_closed_form_is_exact_at_unit_rates():
    m = moments_exponential(1.0, 1.0, 4)
    assert np.array_equal(m.values, EXACT_EXPONENTIAL)


def test_exponential_closed_form_general_rates():
    # weighting rate 2 against a unit-rate law: r_i = 2^i / 3^(i+1)
    m = moments_exponential(2.0, 1.0, 3)
    assert m.values[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert m.values[1] == pytest.approx(2.0 / 9.0, abs=1e-15)
    assert m.values[2] == pytest.approx(4.0 / 27.0, abs=1e-15)


def test_instant_service_concentrates_on_leading_coefficient():
    m = moments_exponential(1.0, 1e9, 0)
    assert m.values[0] == pytest.approx(1.0, abs=2e-9)


def test_exponential_closed_form_is_stable_at_high_order():
    m = moments_exponential(1.0, 1.0, 200)
    assert m.values[200] == 2.0**-201
    assert float(m.values.sum()) <= 1.0


def test_exponential_route_validates_inputs():
    with pytest.raises(ValueError):
        moments_exponential(-1.0, 1.0, 2)
    with pytest.raises(ValueError):
        moments_exponential(1.0, 0.0, 2)


# ------------------------------------------------------- quadrature route


def test_quadrature_matches_exponential_closed_form():
    m = moments_quadrature(Exponential(1.0).cdf, 1.0, 4)
    assert np.max(np.abs(m.values - EXACT_EXPONENTIAL)) < 1e-8


def test_quadrature_at_high_order_matches_the_closed_form():
    # the kernel ax**i / i! overflows as a float product at order 200
    m = moments_quadrature(Exponential(1.0).cdf, 1.0, 200)
    assert np.max(np.abs(m.values - moments_exponential(1.0, 1.0, 200).values)) < 1e-9


def test_quadrature_deterministic_unit_service():
    # A unit point mass has CDF 1[x >= 1]; coefficients are e^-a a^i / i!.
    m = moments_quadrature(lambda x: np.where(np.asarray(x) >= 1.0, 1.0, 0.0), 1.0, 4)
    expected = [math.exp(-1.0) / math.factorial(i) for i in range(5)]
    assert np.max(np.abs(m.values - expected)) < 1e-9


def test_quadrature_point_mass_at_zero():
    m = moments_quadrature(lambda x: 1.0, 2.5, 3)
    assert np.max(np.abs(m.values - [1.0, 0.0, 0.0, 0.0])) < 1e-12


def test_quadrature_matches_million_draw_empirical():
    d = ErlangK(2, 2.0)
    mq = moments_quadrature(d.cdf, 1.0, 4)
    me = moments_empirical(build_ecdf(draw_samples(d, 10**6, seed=2)), 1.0, 4)
    assert np.max(np.abs(mq.values - me.values)) < 1e-3


@pytest.mark.parametrize("alpha", [0.7, 1.0, 3.2])
def test_kernel_mass_identity(alpha):
    # The order-i weighting kernel integrates to one for every order —
    # the normalization every route relies on.
    for i in range(9):
        val, _ = scipy.integrate.quad(
            lambda x, i=i: alpha * math.exp(-alpha * x) * (alpha * x) ** i / math.factorial(i),
            0.0,
            np.inf,
            limit=200,
        )
        assert val == pytest.approx(1.0, abs=1e-8)


# ------------------------------------- convergence of empirical to exact


@pytest.mark.parametrize(
    "dist,exact",
    [
        (Exponential(1.0), lambda: moments_exponential(1.0, 1.0, 4)),
        (ErlangK(2, 2.0), lambda: moments_quadrature(ErlangK(2, 2.0).cdf, 1.0, 4)),
        (Uniform(0.0, 2.0), lambda: moments_quadrature(Uniform(0.0, 2.0).cdf, 1.0, 4)),
    ],
    ids=["exponential", "erlang2", "uniform"],
)
def test_empirical_converges_to_exact_route(dist, exact):
    n = 100_000
    s = draw_samples(dist, n, seed=13)
    ecdf = build_ecdf(s)
    me = moments_empirical(ecdf, 1.0, 4)
    diff = np.max(np.abs(me.values - exact().values))
    # deterministic envelope: three 95% widths at this sample size
    assert diff < 3.0 * width_for(LimitLaw.TWO_SIDED, 0.95, n).width
    # sharp bound: twice the measured sup distance (plus quadrature noise)
    d = ks_statistics(ecdf, dist.cdf).two_sided
    assert diff <= 2.0 * d + 1e-9


# ----------------------------------------- sup-distance inequality suite


def test_coefficient_differences_bounded_by_sup_distances():
    # For every CDF pair: |dr_0| <= d, |dr_i| <= 2d with the measured
    # two-sided sup distance d, and one-sidedly dr_0 <= d_plus,
    # dr_i <= d_plus + d_minus.  150 mixed pairs here; the acceptance suite
    # runs the full 500.
    for pair in random_cdf_pairs(150, seed=21):
        d_two = pair.sup_abs
        assert abs(pair.r1[0] - pair.r2[0]) <= d_two + pair.slack
        assert pair.r1[0] - pair.r2[0] <= pair.sup_forward + pair.slack
        for i in range(1, len(pair.r1)):
            assert abs(pair.r1[i] - pair.r2[i]) <= 2.0 * d_two + pair.slack
            assert (
                pair.r1[i] - pair.r2[i]
                <= pair.sup_forward + pair.sup_backward + pair.slack
            )


def test_analytic_exponential_sup_distance_helper():
    # The closed form is exact; a dense scan can only undershoot it by the
    # grid-resolution error, so check domination plus a coarse gap.
    fwd, bwd = exp_sup_distances(0.7, 1.9)
    grid = np.linspace(1e-6, 40.0, 200_001)
    diff = np.exp(-1.9 * grid) - np.exp(-0.7 * grid)  # F_a(x) - F_b(x), a=0.7
    scan_fwd = max(float(np.max(diff)), 0.0)
    scan_bwd = max(float(np.max(-diff)), 0.0)
    assert scan_fwd - 1e-12 <= fwd <= scan_fwd + 1e-6
    assert scan_bwd - 1e-12 <= bwd <= scan_bwd + 1e-6
