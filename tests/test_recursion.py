"""Tests for the convolution recursion and characteristic point estimates."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossq import recursion
from lossq.ecdf import Sample, build_ecdf
from lossq.errors import DegeneracyError
from lossq.moments import MomentVector, moments_empirical, moments_exponential
from lossq.recursion import (
    Characteristic,
    CharacteristicSpec,
    estimate_characteristic,
    solve_recursion,
)

from support import CANONICAL_POINTS, FIXTURE_R, REPORTED_POINTS


# ---------------------------------------------------------------------------
# CharacteristicSpec construction and derived quantities
# ---------------------------------------------------------------------------


def test_factories_set_kind_and_rates():
    busy = CharacteristicSpec.busy_period(2.0, 0.5)
    assert busy.kind is Characteristic.BUSY_PERIOD
    assert busy.arrival_rate == 2.0 and busy.mean_service == 0.5

    served = CharacteristicSpec.served_customers(1.5)
    assert served.kind is Characteristic.SERVED_CUSTOMERS
    assert served.arrival_rate == 1.5 and served.mean_service is None

    lost = CharacteristicSpec.lost_customers(1.5, 2.0)
    assert lost.kind is Characteristic.LOST_CUSTOMERS

    loss = CharacteristicSpec.loss_probability(3.0)
    assert loss.kind is Characteristic.LOSS_PROBABILITY
    assert loss.service_rate == 3.0 and loss.arrival_rate is None


@pytest.mark.parametrize(
    "kind, kwargs, missing",
    [
        (Characteristic.BUSY_PERIOD, {"mean_service": 1.0}, "arrival_rate"),
        (Characteristic.BUSY_PERIOD, {"arrival_rate": 1.0}, "mean_service"),
        (Characteristic.SERVED_CUSTOMERS, {}, "arrival_rate"),
        (Characteristic.LOST_CUSTOMERS, {"arrival_rate": 1.0}, "mean_service"),
        (Characteristic.LOSS_PROBABILITY, {"arrival_rate": 1.0}, "service_rate"),
    ],
)
def test_missing_required_rate_is_rejected(kind, kwargs, missing):
    with pytest.raises(ValueError, match=missing):
        CharacteristicSpec(kind, **kwargs)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_nonpositive_or_nonfinite_rates_are_rejected(bad):
    with pytest.raises(ValueError):
        CharacteristicSpec.busy_period(bad, 1.0)
    with pytest.raises(ValueError):
        CharacteristicSpec.busy_period(1.0, bad)
    with pytest.raises(ValueError):
        CharacteristicSpec.loss_probability(bad)


def test_weighting_rate_is_arrival_side_except_for_loss_probability():
    assert CharacteristicSpec.busy_period(2.0, 0.5).weighting_rate == 2.0
    assert CharacteristicSpec.served_customers(2.0).weighting_rate == 2.0
    assert CharacteristicSpec.lost_customers(2.0, 0.5).weighting_rate == 2.0
    assert CharacteristicSpec.loss_probability(3.0).weighting_rate == 3.0


def test_seed_per_characteristic():
    assert CharacteristicSpec.busy_period(2.0, 0.5).seed == 0.5
    assert CharacteristicSpec.served_customers(2.0).seed == 1.0
    assert CharacteristicSpec.lost_customers(2.0, 0.75).seed == 0.5
    assert CharacteristicSpec.loss_probability(3.0).seed == 1.0


def test_to_natural_maps():
    assert CharacteristicSpec.busy_period(1.0, 1.0).to_natural(2.5) == 2.5
    assert CharacteristicSpec.served_customers(1.0).to_natural(2.5) == 2.5
    assert CharacteristicSpec.lost_customers(1.0, 1.0).to_natural(-0.25) == 0.75
    assert CharacteristicSpec.loss_probability(1.0).to_natural(4.0) == 0.25


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


def test_result_arrays_are_read_only():
    moments = moments_exponential(1.0, 1.0, 3)
    chains = solve_recursion(moments, 3, 0.01, 0.02)
    for arr in (chains.point, chains.lower, chains.upper, chains.clamped):
        with pytest.raises(ValueError):
            arr[0] = 9.9
    res = estimate_characteristic(CharacteristicSpec.busy_period(1.0, 1.0), moments, 3)
    with pytest.raises(ValueError):
        res.natural_values[0] = 9.9


# ---------------------------------------------------------------------------
# solve_recursion validation
# ---------------------------------------------------------------------------


def test_order_below_one_is_rejected():
    with pytest.raises(ValueError, match="at least 1"):
        solve_recursion(moments_exponential(1.0, 1.0, 3), 0)


def test_insufficient_coefficients_are_rejected():
    moments = moments_exponential(1.0, 1.0, 2)  # r_0..r_2
    with pytest.raises(ValueError, match="order"):
        solve_recursion(moments, 4)
    # order 3 needs exactly r_0..r_2 and must work
    assert solve_recursion(moments, 3).order == 3


def test_negative_widths_are_rejected():
    moments = moments_exponential(1.0, 1.0, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_recursion(moments, 3, -0.01, 0.02)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_recursion(moments, 3, 0.01, -0.02)


@pytest.mark.parametrize("eps, gamma", [(math.nan, 0.0), (0.0, math.nan),
                                        (0.01, math.nan), (math.nan, math.nan)])
def test_nan_widths_are_rejected(eps, gamma):
    # a NaN width compares false both ways; it must not pass as a width
    # and come back as NaN bounds with no clamp flag
    moments = moments_exponential(0.8, 1.0, 10)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_recursion(moments, 10, eps, gamma)


def test_zero_leading_coefficient_raises_degeneracy():
    moments = MomentVector(rate=1.0, values=np.array([0.0, 0.5, 0.25]))
    with pytest.raises(DegeneracyError):
        solve_recursion(moments, 2)


def test_zero_widths_give_the_point_chain_alone():
    moments = MomentVector(rate=1.0, values=np.array(FIXTURE_R))
    chains = solve_recursion(moments, 4)
    assert np.array_equal(chains.lower, chains.point)
    assert np.array_equal(chains.upper, chains.point)
    assert not chains.upper_infinite and not chains.clamped.any()
    # the point chain does not depend on the widths
    bounded = solve_recursion(moments, 4, 0.01, 0.02)
    assert np.array_equal(bounded.point, chains.point)


# ---------------------------------------------------------------------------
# Exact chains (all arithmetic dyadic, so equality is exact)
# ---------------------------------------------------------------------------


def test_unit_rate_exponential_busy_chain_is_integer():
    # Arrival rate 1, mean service 1, exponential service: the expected
    # busy period at buffer n is exactly n + 1.
    moments = moments_exponential(1.0, 1.0, 4)
    res = estimate_characteristic(CharacteristicSpec.busy_period(1.0, 1.0), moments, 4)
    assert np.array_equal(res.natural_values, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(solve_recursion(moments, 4).point, [2.0, 3.0, 4.0, 5.0])
    assert res.sign_anomalies == ()


def test_unit_rate_exponential_served_chain_is_integer():
    moments = moments_exponential(1.0, 1.0, 4)
    res = estimate_characteristic(CharacteristicSpec.served_customers(1.0), moments, 4)
    assert np.array_equal(res.natural_values, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_unit_rate_exponential_lost_chain_is_one():
    # At arrival rate = service rate the seed vanishes, so every recursion
    # value is 0 and the expected lost count per busy cycle is exactly 1.
    moments = moments_exponential(1.0, 1.0, 4)
    spec = CharacteristicSpec.lost_customers(1.0, 1.0)
    res = estimate_characteristic(spec, moments, 4)
    assert np.array_equal(spec.chains(moments, 4).point, np.zeros(4))
    assert np.array_equal(res.natural_values, np.ones(5))


def test_loss_probability_chain_at_balanced_rates():
    # Equal interarrival and service rates: loss probability at total
    # capacity n is exactly 1 / (n + 1).
    moments = moments_exponential(1.0, 1.0, 4)
    res = estimate_characteristic(
        CharacteristicSpec.loss_probability(1.0), moments, 4
    )
    assert np.array_equal(solve_recursion(moments, 4).point, [2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(
        res.natural_values, [1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0]
    )


def test_lost_chain_at_half_load_halves_each_level():
    # Arrival rate 1/2 against unit-mean exponential service: the expected
    # lost count per busy cycle at buffer n is 2^-(n+1).
    moments = moments_exponential(0.5, 1.0, 3)
    res = estimate_characteristic(
        CharacteristicSpec.lost_customers(0.5, 1.0), moments, 3
    )
    assert res.natural_values == pytest.approx(
        [0.5, 0.25, 0.125, 0.0625], rel=1e-12
    )


# ---------------------------------------------------------------------------
# The worked numeric fixture
# ---------------------------------------------------------------------------


def test_fixture_moment_chain_matches_frozen_points():
    moments = MomentVector(rate=1.0, values=np.array(FIXTURE_R))
    res = estimate_characteristic(CharacteristicSpec.busy_period(1.0, 1.0), moments, 4)
    assert res.natural_values[0] == 1.0
    assert res.natural_values[1:] == pytest.approx(CANONICAL_POINTS, abs=1e-9)


def test_fixture_chain_reproduces_first_reported_points():
    # The final reported level disagrees with this chain by ~1.1e-3; the
    # first three reproduce to well under 1e-3.
    moments = MomentVector(rate=1.0, values=np.array(FIXTURE_R))
    res = estimate_characteristic(CharacteristicSpec.busy_period(1.0, 1.0), moments, 4)
    for level in (1, 2, 3):
        assert res.natural_values[level] == pytest.approx(
            REPORTED_POINTS[level - 1], abs=1e-3
        )


# ---------------------------------------------------------------------------
# Algebraic structure
# ---------------------------------------------------------------------------


def _random_moments(rng, rate, order=5):
    raw = rng.uniform(0.05, 1.0, size=order + 1) * (0.5 ** np.arange(order + 1))
    raw = raw / max(1.0, raw.sum() * 1.25)  # keep the sum safely below 1
    raw[0] = max(raw[0], 0.05)
    return MomentVector(rate=rate, values=raw)


def _seeded_chain(seed, r, order):
    # the recursion run directly from Q_0 = seed, one level at a time
    q = [seed, seed / r[0]]
    for k in range(2, order + 1):
        tail = sum(r[i] * q[k - i] for i in range(2, k))
        q.append(((1.0 - r[1]) * q[k - 1] - tail) / r[0])
    return np.array(q[1:])


def test_recursion_is_linear_in_the_seed():
    rng = np.random.default_rng(5)
    moments = _random_moments(rng, 1.0)
    unit = solve_recursion(moments, 5)
    # scaling by a power of two is exact in every float operation
    assert np.array_equal(_seeded_chain(1.0, moments.values, 5), unit.point)
    assert np.array_equal(_seeded_chain(2.0, moments.values, 5), unit.scaled(2.0).point)
    assert unit.scaled(3.0).point == pytest.approx(
        _seeded_chain(3.0, moments.values, 5), rel=1e-12
    )


def test_resubstitution_recovers_each_level():
    # The defining identity: Q_k = sum_{i=0}^{k} r_i Q_{k+1-i}.
    rng = np.random.default_rng(17)
    for _ in range(50):
        rate = rng.uniform(0.3, 2.5)
        moments = _random_moments(rng, rate, order=6)
        seed = rng.uniform(0.1, 3.0)
        q = seed * np.concatenate(([1.0], solve_recursion(moments, 6).point))
        r = moments.values
        for k in range(6):
            lhs = q[k]
            rhs = sum(r[i] * q[k + 1 - i] for i in range(k + 1))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_busy_period_is_mean_service_times_served():
    # Wald's identities hold exactly, because every arrival-side
    # characteristic is the same unit chain mapped by its seed.
    rng = np.random.default_rng(23)
    for _ in range(100):
        rate = rng.uniform(0.3, 2.5)
        mean_service = rng.uniform(0.2, 4.0)
        moments = _random_moments(rng, rate)
        served = estimate_characteristic(
            CharacteristicSpec.served_customers(rate), moments, 5
        ).natural_values
        busy = estimate_characteristic(
            CharacteristicSpec.busy_period(rate, mean_service), moments, 5
        ).natural_values
        lost = estimate_characteristic(
            CharacteristicSpec.lost_customers(rate, mean_service), moments, 5
        ).natural_values
        assert np.array_equal(busy, mean_service * served)
        assert np.array_equal(lost, (rate * mean_service - 1.0) * served + 1.0)


# ---------------------------------------------------------------------------
# Overflow
# ---------------------------------------------------------------------------


def _overflowing_moments(rate):
    # 2000 unit-exponential observations at arrival rate 3: the busy chain
    # passes the largest double near level 640
    sample = Sample(np.random.default_rng(0).exponential(1.0, 2000))
    return moments_empirical(build_ecdf(sample), rate, 1000)


def test_overflowed_point_chain_stays_infinite():
    moments = _overflowing_moments(3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = estimate_characteristic(CharacteristicSpec.busy_period(3.0, 1.0), moments, 1000)
    values = res.natural_values
    assert not np.isnan(values).any()
    first = int(np.argmax(np.isinf(values)))
    assert 600 < first < 700
    assert np.all(np.isfinite(values[:first])) and np.all(values[first:] == math.inf)
    assert np.all(np.diff(values[:first]) >= 0.0)


def test_zero_seed_stays_zero_past_an_overflowed_unit_chain():
    # lost count at lambda * m = 1: the seed is exactly 0, so the recursion
    # value is 0 (natural value 1) at every level, never 0 * inf
    moments = _overflowing_moments(4.0)
    assert np.isinf(solve_recursion(moments, 1000).point[-1])
    spec = CharacteristicSpec.lost_customers(4.0, 0.25)
    assert spec.seed == 0.0
    chains = spec.chains(moments, 1000, 0.01, 0.02)
    for arr in (chains.point, chains.lower, chains.upper):
        assert np.array_equal(arr, np.zeros(1000))
    res = estimate_characteristic(spec, moments, 1000)
    assert np.array_equal(res.natural_values, np.ones(1001))


# ---------------------------------------------------------------------------
# estimate_characteristic guards and flags
# ---------------------------------------------------------------------------


def test_rate_mismatch_is_rejected():
    moments = moments_exponential(1.0, 1.0, 4)
    with pytest.raises(ValueError, match="rate"):
        estimate_characteristic(CharacteristicSpec.busy_period(2.0, 1.0), moments, 4)
    with pytest.raises(ValueError, match="rate"):
        estimate_characteristic(CharacteristicSpec.loss_probability(0.5), moments, 4)


def test_sign_anomalies_flag_negative_natural_values():
    # A heavy leading coefficient with a strongly negative seed drives the
    # recursion below -1, so the shifted lost-count values go negative.
    moments = MomentVector(rate=0.3, values=np.array([0.5, 0.0, 0.0]))
    res = estimate_characteristic(
        CharacteristicSpec.lost_customers(0.3, 1.0), moments, 2
    )
    assert res.natural_values[0] == pytest.approx(0.3)
    assert res.natural_values[1] < 0.0 and res.natural_values[2] < 0.0
    assert res.sign_anomalies == (1, 2)


def test_healthy_estimates_carry_no_anomalies():
    moments = moments_exponential(0.8, 1.0, 5)
    res = estimate_characteristic(
        CharacteristicSpec.lost_customers(0.8, 1.0), moments, 5
    )
    assert res.sign_anomalies == ()
    assert np.all(res.natural_values > 0.0)


# ---------------------------------------------------------------------------
# The bound-chain kernel against the plain three-dot-product loop
# ---------------------------------------------------------------------------


def _reference_chains(moments, order, eps, gamma):
    """solve_recursion as one loop of three full dot products per level, with
    no cache, no pinned lower chain and no support limit."""
    r = moments.values
    r0 = float(r[0])
    lead = 1.0 - float(r[1]) if order >= 2 else 0.0
    bounded = eps > 0.0 or gamma > 0.0
    upper_infinite = bounded and r0 <= eps
    point = np.ones(order + 1)
    clamped = np.zeros(order + 1, dtype=bool)
    low = upp = point
    point[1] = 1.0 / r0
    if bounded:
        low, upp = np.ones(order + 1), np.ones(order + 1)
        r_up, r_down = r + gamma, r - gamma
        div_low, div_upp = r0 + eps, r0 - eps
        lead_low, lead_upp = lead - gamma, lead + gamma
        lead_clamped = lead_low < 0.0
        lead_low = max(lead_low, 0.0)
        low[1] = 1.0 / div_low
        if upper_infinite:
            upp[1:] = math.inf
        else:
            upp[1] = 1.0 / div_upp
    for k in range(2, order + 1):
        prev = point.item(k - 1)
        point[k] = prev if prev == math.inf else (
            (lead * prev - float(np.dot(r[2:k], point[k - 2:0:-1]))) / r0
        )
        if not bounded:
            continue
        acc = lead_low * low.item(k - 1) - float(np.dot(r_up[2:k], upp[k - 2:0:-1]))
        clamped[k] = lead_clamped or acc < 0.0
        low[k] = max(acc, 0.0) / div_low
        if not upper_infinite:
            upp[k] = (lead_upp * upp.item(k - 1)
                      - float(np.dot(r_down[2:k], low[k - 2:0:-1]))) / div_upp
    return point[1:], low[1:], upp[1:], upper_infinite, clamped[1:]


def _assert_matches_reference(moments, order, eps, gamma):
    """Point, lower, clamped and upper_infinite bit-identical to the plain
    loop, upper within 1e-14 relative.  Where the loop's bounds are NaN (a
    0 * inf or inf - inf past the largest double) the kernel's lower bound is
    0 and clamped and its upper bound inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_recursion(moments, order, eps, gamma)
    with np.errstate(invalid="ignore", over="ignore"):
        point, lower, upper, upper_infinite, clamped = _reference_chains(
            moments, order, eps, gamma)
    assert np.array_equal(got.point, point)
    assert got.upper_infinite == upper_infinite
    assert not np.isnan(got.lower).any() and not np.isnan(got.upper).any()
    nan_low, nan_upp = np.isnan(lower), np.isnan(upper)
    assert np.array_equal(got.lower[~nan_low], lower[~nan_low])
    assert np.array_equal(got.clamped[~nan_low], clamped[~nan_low])
    assert np.all(got.lower[nan_low] == 0.0) and np.all(got.clamped[nan_low])
    assert np.all(got.upper[nan_upp] == math.inf)
    assert np.array_equal(np.isinf(got.upper[~nan_upp]), np.isinf(upper[~nan_upp]))
    finite = ~nan_upp & np.isfinite(upper)
    assert np.all(np.abs(got.upper[finite] - upper[finite])
                  <= 1e-14 * np.abs(upper[finite]))
    return got


_SAMPLE_LAWS = (
    lambda rng, n: rng.exponential(1.0, n),
    lambda rng, n: rng.gamma(2.0, 0.5, n),
    lambda rng, n: rng.uniform(0.0, 3.0, n),
    lambda rng, n: rng.lognormal(0.0, 1.5, n),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 20_000),
    law=st.integers(0, len(_SAMPLE_LAWS) - 1),
    rate=st.floats(0.05, 5.0),
    order=st.integers(1, 1_200),
    eps_kind=st.sampled_from(["zero", "tiny", "width", "r0", "past r0"]),
    gamma_kind=st.sampled_from(["zero", "tiny", "width"]),
    scale=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_the_plain_loop(n, law, rate, order, eps_kind, gamma_kind, scale, seed):
    rng = np.random.default_rng(seed)
    moments = moments_empirical(build_ecdf(Sample(_SAMPLE_LAWS[law](rng, n))), rate, order)
    r0 = float(moments.values[0])
    width = {"zero": 0.0, "tiny": 10.0 ** (-13.0 + 7.0 * scale),
             "width": 10.0 ** (-4.0 + 3.5 * scale), "r0": r0,
             "past r0": r0 * (1.0 + scale)}
    eps = width[eps_kind]
    gamma = width[gamma_kind] * 2.0
    _assert_matches_reference(moments, order, eps, gamma)


@pytest.mark.parametrize("eps, gamma", [(0.05, 0.0), (0.05, 0.1), (0.0, 0.02)])
def test_kernel_matches_the_plain_loop_on_an_overflowing_chain(eps, gamma):
    _assert_matches_reference(_overflowing_moments(3.0), 1000, eps, gamma)


def test_zero_coefficients_never_meet_an_infinite_upper_bound():
    # gamma = 0 keeps the coefficients past r's last nonzero order (326) at
    # exactly 0; the upper chain overflows at level 357, and the plain loop's
    # lower bounds turn NaN from level 684 (0 * inf), its upper ones after
    x = np.random.default_rng(0).gamma(2.0, 0.5, 2000)
    moments = moments_empirical(build_ecdf(Sample(x)), 3.0, 1000)
    got = _assert_matches_reference(moments, 1000, 0.05, 0.0)
    first = int(np.argmax(np.isinf(got.upper)))
    assert first == 356 and np.all(got.upper[first:] == math.inf)
    assert np.all(got.lower[first:] == 0.0) and np.all(got.clamped[first:])


def test_interior_zero_coefficients_never_meet_an_infinite_upper_bound():
    # r_2 .. r_49 are 0 and r_2 = 0 keeps the lower chain from being pinned,
    # so the lower tail runs past the upper chain's overflow at level 162;
    # the plain loop meets 0 * inf there and turns NaN from level 164
    values = np.zeros(300)
    values[[0, 1, 50]] = 0.3, 0.2, 0.5
    moments = MomentVector(rate=1.0, values=values)
    got = _assert_matches_reference(moments, 300, 0.29, 0.0)
    assert got.upper[160] < math.inf and np.all(got.upper[161:] == math.inf)
    assert np.all(got.lower[53:] == 0.0) and np.all(got.clamped[53:])


def test_an_overflowed_lower_chain_clamps_instead_of_turning_nan():
    # tiny widths keep the lower chain on the point chain until all three
    # overflow at level 323; the plain loop's lower total at level 325 is
    # inf - inf, where the kernel sees r_2 meet an infinite upper bound
    moments = moments_exponential(9.0, 1.0, 800)
    got = _assert_matches_reference(moments, 800, 1e-12, 0.0)
    assert got.lower[322] == math.inf and np.all(got.upper[322:] == math.inf)
    assert np.all(got.lower[324:] == 0.0) and np.all(got.clamped[324:])


def test_a_zero_lower_bound_with_a_zero_tail_is_not_clamped():
    # r_1 = 1 makes the leading coefficient 0, so the lower chain reaches 0 at
    # level 2 with a total of exactly 0, and r_2 = r_3 = ... = 0 keep every
    # later total at 0 as well: 0 is the value itself, not a clamp
    moments = MomentVector(rate=1.0, values=np.array([1e-10, 1.0, 0.0, 0.0, 0.0, 0.0]))
    got = _assert_matches_reference(moments, 6, 1e-11, 0.0)
    assert np.array_equal(got.lower[1:], np.zeros(5))
    assert not got.clamped.any()


# ---------------------------------------------------------------------------
# The point-chain cache
# ---------------------------------------------------------------------------


def _fresh_copy(moments):
    return MomentVector(rate=moments.rate, values=moments.values.copy())


def test_a_second_call_reuses_the_cached_point_chain():
    moments = moments_exponential(0.8, 1.0, 60)
    first = solve_recursion(moments, 60)
    entry = recursion._POINT_CHAINS[moments]
    second = solve_recursion(moments, 60, 0.01, 0.02)
    assert recursion._POINT_CHAINS[moments] is entry
    assert np.shares_memory(first.point, entry) and np.shares_memory(second.point, entry)
    assert np.array_equal(second.point, first.point)


def test_a_shorter_order_is_a_prefix_of_the_cached_chain():
    moments = moments_exponential(0.8, 1.0, 80)
    long = solve_recursion(moments, 80)
    entry = recursion._POINT_CHAINS[moments]
    short = solve_recursion(moments, 30)
    assert recursion._POINT_CHAINS[moments] is entry
    assert np.shares_memory(short.point, entry)
    assert np.array_equal(short.point, long.point[:30])
    assert np.array_equal(short.point, solve_recursion(_fresh_copy(moments), 30).point)


def test_a_longer_order_extends_the_cached_chain():
    x = np.random.default_rng(9).gamma(2.0, 0.5, 500)
    moments = moments_empirical(build_ecdf(Sample(x)), 0.8, 400)
    short = solve_recursion(moments, 30)
    long = solve_recursion(moments, 400, 0.02, 0.04)
    assert recursion._POINT_CHAINS[moments].size == 401
    assert long.point.size == 400
    assert np.array_equal(long.point[:30], short.point)
    assert np.array_equal(long.point, solve_recursion(_fresh_copy(moments), 400).point)
    _assert_matches_reference(moments, 400, 0.02, 0.04)


def test_cached_chains_are_read_only():
    moments = moments_exponential(0.8, 1.0, 20)
    chains = solve_recursion(moments, 20)
    entry = recursion._POINT_CHAINS[moments]
    for arr in (entry, chains.point):
        with pytest.raises(ValueError):
            arr[1] = 9.9


def test_a_collected_moment_vector_leaves_the_cache():
    moments = _fresh_copy(moments_exponential(0.8, 1.0, 20))
    solve_recursion(moments, 20)
    alive = weakref.ref(moments)
    size = len(recursion._POINT_CHAINS)
    del moments
    gc.collect()
    assert alive() is None
    assert len(recursion._POINT_CHAINS) <= size - 1


def test_equal_valued_vectors_do_not_share_an_entry():
    a = moments_exponential(0.8, 1.0, 20)
    b = _fresh_copy(a)
    solve_recursion(a, 20)
    solve_recursion(b, 20)
    assert recursion._POINT_CHAINS[a] is not recursion._POINT_CHAINS[b]
    assert np.array_equal(recursion._POINT_CHAINS[a], recursion._POINT_CHAINS[b])
