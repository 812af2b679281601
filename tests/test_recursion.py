"""Tests for the convolution recursion and characteristic point estimates."""

import dataclasses
import gc
import math
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
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
from lossq.simulate import Deterministic, ErlangK, Exponential, Uniform

from support import CANONICAL_POINTS, FIXTURE_R, REPORTED_POINTS


# ---------------------------------------------------------------------------
# CharacteristicSpec construction and derived quantities
# ---------------------------------------------------------------------------


def test_factories_set_kind_and_rates():
    assert [f.name for f in dataclasses.fields(CharacteristicSpec)] == [
        "kind", "weighting_rate", "mean_service"]

    busy = CharacteristicSpec.busy_period(2.0, 0.5)
    assert busy.kind is Characteristic.BUSY_PERIOD
    assert busy.weighting_rate == 2.0 and busy.mean_service == 0.5

    served = CharacteristicSpec.served_customers(1.5)
    assert served.kind is Characteristic.SERVED_CUSTOMERS
    assert served.weighting_rate == 1.5 and served.mean_service is None

    lost = CharacteristicSpec.lost_customers(1.5, 2.0)
    assert lost.kind is Characteristic.LOST_CUSTOMERS
    assert lost.weighting_rate == 1.5 and lost.mean_service == 2.0

    loss = CharacteristicSpec.loss_probability(3.0)
    assert loss.kind is Characteristic.LOSS_PROBABILITY
    assert loss.weighting_rate == 3.0 and loss.mean_service is None


def test_only_the_loss_probability_is_estimated_from_the_service_side():
    assert {kind: kind.side for kind in Characteristic} == {
        Characteristic.BUSY_PERIOD: "arrival",
        Characteristic.SERVED_CUSTOMERS: "arrival",
        Characteristic.LOST_CUSTOMERS: "arrival",
        Characteristic.LOSS_PROBABILITY: "service",
    }


@pytest.mark.parametrize(
    "kind, kwargs, missing",
    [
        (Characteristic.BUSY_PERIOD, {"mean_service": 1.0}, "arrival_rate"),
        (Characteristic.BUSY_PERIOD, {"weighting_rate": 1.0}, "mean_service"),
        (Characteristic.SERVED_CUSTOMERS, {}, "arrival_rate"),
        (Characteristic.LOST_CUSTOMERS, {"weighting_rate": 1.0}, "mean_service"),
        (Characteristic.LOSS_PROBABILITY, {}, "service_rate"),
    ],
)
def test_missing_required_rate_is_rejected(kind, kwargs, missing):
    if missing == "mean_service":
        with pytest.raises(ValueError, match=f"^{kind.value} requires mean_service$"):
            CharacteristicSpec(kind, **kwargs)
    else:
        # the side's rate is the spec's one required field, so a spec built
        # without it is refused by the constructor signature
        assert missing == f"{kind.side}_rate"
        with pytest.raises(TypeError, match="weighting_rate"):
            CharacteristicSpec(kind, **kwargs)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_nonpositive_or_nonfinite_rates_are_rejected(bad):
    # the rate is named by the side it weights
    with pytest.raises(ValueError, match="^arrival_rate must be positive and finite$"):
        CharacteristicSpec.busy_period(bad, 1.0)
    with pytest.raises(ValueError, match="^mean_service must be positive and finite$"):
        CharacteristicSpec.busy_period(1.0, bad)
    with pytest.raises(ValueError, match="^service_rate must be positive and finite$"):
        CharacteristicSpec.loss_probability(bad)


def test_a_lost_count_seed_past_the_largest_double_is_rejected():
    # lambda m - 1 = inf would meet a pinned lower chain's zeros as inf * 0
    with pytest.raises(ValueError, match=r"finite arrival_rate \* mean_service"):
        CharacteristicSpec.lost_customers(2.0, 1e308)
    # the busy period's seed is m itself, and a finite lambda m passes
    assert CharacteristicSpec.busy_period(2.0, 1e308).seed == 1e308
    assert CharacteristicSpec.lost_customers(1.0, 1e308).seed == 1e308 - 1.0


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


def test_natural_scale_maps():
    # seed * [1, chain], then + 1 for the lost count and 1 / q for the loss
    # probability; every product and sum here is exact
    chain = np.array([2.5, 4.0])
    natural = {
        CharacteristicSpec.busy_period(1.0, 2.0): [2.0, 5.0, 8.0],
        CharacteristicSpec.served_customers(1.0): [1.0, 2.5, 4.0],
        CharacteristicSpec.lost_customers(1.0, 0.5): [0.5, -0.25, -1.0],
        CharacteristicSpec.lost_customers(1.0, 1.5): [1.5, 2.25, 3.0],
        CharacteristicSpec.loss_probability(1.0): [1.0, 0.4, 0.25],
    }
    for spec, want in natural.items():
        got = spec.natural_scale(chain)
        assert got.tolist() == want
        assert chain.tolist() == [2.5, 4.0]


def test_natural_scale_of_an_overflowed_chain():
    # a product past the largest double is inf, with no warning; a zero seed
    # is the seed at every level, never 0 * inf; a zero or overflowed
    # loss-probability value inverts to inf and 0
    chain = np.array([1e308, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        busy = CharacteristicSpec.busy_period(1.0, 4.0).natural_scale(chain)
        lost = CharacteristicSpec.lost_customers(1.0, 0.5).natural_scale(chain)
        zero = CharacteristicSpec.lost_customers(1.0, 1.0).natural_scale(chain)
        loss = CharacteristicSpec.loss_probability(1.0).natural_scale(
            np.array([5e-324, 0.0, math.inf]))
    assert busy.tolist() == [4.0, math.inf, math.inf]
    assert lost.tolist() == [0.5, -5e307 + 1.0, -math.inf]
    assert zero.tolist() == [1.0, 1.0, 1.0]
    assert loss.tolist() == [1.0, math.inf, math.inf, 0.0]


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


@pytest.mark.parametrize("eps, gamma", [(math.inf, 0.02), (0.01, math.inf)])
def test_infinite_widths_are_rejected(eps, gamma):
    moments = moments_exponential(0.8, 1.0, 10)
    with pytest.raises(ValueError, match="finite"):
        solve_recursion(moments, 10, eps, gamma)


@pytest.mark.parametrize("eps", [1e-300, 0.01, 2.0])
def test_a_positive_eps_with_a_zero_gamma_is_rejected(eps):
    # the bound chains' lemma needs every tail coefficient raised by a
    # positive gamma; only the zero pair asks for the point chain alone
    moments = moments_exponential(0.8, 1.0, 10)
    with pytest.raises(ValueError, match="positive gamma"):
        solve_recursion(moments, 10, eps, 0.0)
    chains = solve_recursion(moments, 10, 0.0, 0.0)
    assert np.array_equal(chains.lower, chains.point)
    assert np.array_equal(chains.upper, chains.point)


def test_zero_leading_coefficient_raises_degeneracy():
    moments = MomentVector(rate=1.0, values=np.array([0.0, 0.5, 0.25]))
    with pytest.raises(DegeneracyError):
        solve_recursion(moments, 2)


def test_zero_widths_give_the_point_chain_alone():
    moments = MomentVector(rate=1.0, values=np.array(FIXTURE_R))
    chains = solve_recursion(moments, 4)
    assert np.array_equal(chains.lower, chains.point)
    assert np.array_equal(chains.upper, chains.point)
    assert not chains.clamped.any()
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
    assert spec.seed == 0.0
    assert np.array_equal(spec.natural_scale(spec.chains(moments, 4).point) - 1.0,
                          np.zeros(5))
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


def _mm1n_served(arrival_rate, service_rate, order):
    """sum_{j<=n} rho^j for n = 0..order at 40 digits, rho from the two
    rates exactly as given."""
    with mpmath.workdps(40):
        rho = mpmath.mpf(arrival_rate) / mpmath.mpf(service_rate)
        term, total, out = mpmath.mpf(1), mpmath.mpf(0), []
        for _ in range(order + 1):
            total += term
            term *= rho
            out.append(total)
        return out


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(0.05, 1.95),
    service_rate=st.floats(0.2, 5.0),
    order=st.integers(200, 1000),
)
@example(rho=1.0, service_rate=1.0, order=1000)
@example(rho=1.0001, service_rate=1.0, order=1000)
def test_exact_exponential_moments_give_the_mm1n_closed_forms(rho, service_rate, order):
    # M/M/1/n: busy period (1/mu) sum_{j<=n} rho^j and served count
    # sum_{j<=n} rho^j.  Every term of the tail-sum recursion is positive,
    # so nothing cancels near rho = 1 (the paper's form loses 4e-11 there,
    # where its two modes 1 and rho nearly coincide).  The largest error
    # seen is 5.3e-13, at rho = 1.56 and n = 1000: the coefficients' ratio
    # a / (a + mu) carries two roundings, which rho^n raises n-fold
    arrival_rate = rho * service_rate
    moments = moments_exponential(arrival_rate, service_rate, order)
    busy = estimate_characteristic(
        CharacteristicSpec.busy_period(arrival_rate, 1.0 / service_rate), moments, order)
    served = estimate_characteristic(
        CharacteristicSpec.served_customers(arrival_rate), moments, order)
    want = _mm1n_served(arrival_rate, service_rate, order)
    assert served.natural_values == pytest.approx([float(w) for w in want], rel=1e-12)
    assert busy.natural_values == pytest.approx(
        [float(w / service_rate) for w in want], rel=1e-12)


def _mpmath_chain(moments, levels):
    """Q_1..Q_levels of the positive recursion at 30 digits, on the vector's
    own values and tail taken exactly: the kernel's result without its
    rounding."""
    with mpmath.workdps(30):
        r = [mpmath.mpf(float(v)) for v in moments.values]
        tails = [mpmath.mpf(moments.tail)]
        for v in reversed(r[1:]):
            tails.append(tails[-1] + v)
        tails.reverse()
        d = [mpmath.mpf(0), 1 / r[0]]
        for k in range(2, levels + 1):
            d.append(mpmath.fdot(tails[1:k], d[k - 1:0:-1]) / r[0])
        return np.array([float(q) for q in np.cumsum(d[1:])])


_CHAIN_LAWS = {"exp": Exponential(1.0), "det": Deterministic(1.0),
               "erlang:2": ErlangK(2, 2.0), "uniform": Uniform(0.0, 2.0)}


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.999, 1.0001, 1.5])
@pytest.mark.parametrize("law", sorted(_CHAIN_LAWS))
def test_point_chain_matches_mpmath_across_block_edges(law, rho):
    # every law has mean 1, so the arrival rate is the load; the chain of a
    # vector of order m reaches level m + 1, so these orders put the last
    # level before, on and after each of the first block edges (32, 64)
    for order in (0, 1, 30, 31, 32, 63, 64, 999):
        moments = _CHAIN_LAWS[law].moments(rho, order)
        got = solve_recursion(moments, order + 1).point
        want = _mpmath_chain(moments, order + 1)
        # det at load 1.5 passes the largest double near level 1000
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite), order
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * want[finite]), order
        _assert_near_the_sequential_loop(moments, got)


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


def _tail_sums(moments):
    """R_1..R_m, summed from the top as the point chain sums them."""
    r = moments.values
    return np.cumsum(np.concatenate(([moments.tail], r[:1:-1]))[:moments.order])[::-1]


def _sequential_chain(moments, order, seed=1.0):
    """Q_1..Q_order of a moment vector's positive recursion from Q_0 = seed."""
    return _sequential_tail_chain(float(moments.values[0]), _tail_sums(moments), order, seed)


def _sequential_tail_chain(r0, tails, order, seed=1.0):
    """Q_1..Q_order of the positive recursion from Q_0 = seed, one level at
    a time: r_0 D_k = [k = 1] seed + sum_{i=1}^{k-1} R_i D_{k-i} and
    Q_k = D_1 + ... + D_k, with R_1.. in ``tails``.  An overflowed D stays
    inf."""
    d = np.zeros(order + 1)
    d[1] = seed / r0
    for k in range(2, order + 1):
        if d[k - 1] == math.inf:
            d[k:] = math.inf
            break
        d[k] = float(np.dot(tails[:k - 1], d[k - 1:0:-1])) / r0
    with np.errstate(over="ignore"):
        return np.cumsum(d[1:])


def _assert_near_the_sequential_loop(moments, point):
    """The blocked chain within (2k + 8) 2^-53 relative of the sequential
    loop at each level k where both are finite; an overflow may come one
    level apart, and is inf from there on in both."""
    want = _sequential_chain(moments, point.size)
    got_inf, want_inf = np.isinf(point), np.isinf(want)
    for inf in (got_inf, want_inf):
        if inf.any():
            assert np.all(inf[int(np.argmax(inf)):])
    assert abs(int(got_inf.sum()) - int(want_inf.sum())) <= 1
    both = ~got_inf & ~want_inf
    k = np.arange(1, point.size + 1)[both]
    assert np.all(np.abs(point[both] - want[both]) <= (2 * k + 8) * 2.0**-53 * want[both])


def test_recursion_is_linear_in_the_seed():
    rng = np.random.default_rng(5)
    moments = _random_moments(rng, 1.0)
    unit = solve_recursion(moments, 5)
    busy = estimate_characteristic(CharacteristicSpec.busy_period(1.0, 2.0), moments, 5)
    served = estimate_characteristic(CharacteristicSpec.served_customers(1.0), moments, 5)
    lost = estimate_characteristic(CharacteristicSpec.lost_customers(1.0, 4.0), moments, 5)
    # five levels are one sequential block, and scaling by a power of two
    # is exact in every float operation
    assert np.array_equal(_sequential_chain(moments, 5), unit.point)
    assert np.array_equal(_sequential_chain(moments, 5), served.natural_values[1:])
    assert np.array_equal(_sequential_chain(moments, 5, 2.0), busy.natural_values[1:])
    assert lost.natural_values[1:] - 1.0 == pytest.approx(
        _sequential_chain(moments, 5, 3.0), rel=1e-12
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


def test_a_subnormal_leading_coefficient_overflows_at_the_first_level():
    # 1 / r_0 is past the largest double, so every level is inf, not the
    # NaN that inf times the zero tail sum R_1 would give
    moments = MomentVector(rate=1.0, values=np.array([5e-324, 0.0, 0.0]), tail=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = solve_recursion(moments, 3).point
    assert point.tolist() == [math.inf] * 3


def test_zero_seed_stays_zero_past_an_overflowed_unit_chain():
    # lost count at lambda * m = 1: the seed is exactly 0, so the recursion
    # value is 0 (natural value 1) at every level, never 0 * inf
    moments = _overflowing_moments(4.0)
    assert np.isinf(solve_recursion(moments, 1000).point[-1])
    spec = CharacteristicSpec.lost_customers(4.0, 0.25)
    assert spec.seed == 0.0
    chains = spec.chains(moments, 1000, 0.01, 0.02)
    assert np.isinf(chains.upper[-1])
    for arr in (chains.point, chains.lower, chains.upper):
        assert np.array_equal(spec.natural_scale(arr), np.ones(1001))
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


def test_negative_natural_values_are_returned_raw():
    # A heavy leading coefficient with a strongly negative seed drives the
    # recursion below -1, so the shifted lost-count values go negative.
    moments = MomentVector(rate=0.3, values=np.array([0.5, 0.0, 0.0]))
    res = estimate_characteristic(
        CharacteristicSpec.lost_customers(0.3, 1.0), moments, 2
    )
    assert res.natural_values[0] == pytest.approx(0.3)
    assert res.natural_values[1] < 0.0 and res.natural_values[2] < 0.0


def test_healthy_estimates_carry_no_anomalies():
    moments = moments_exponential(0.8, 1.0, 5)
    res = estimate_characteristic(
        CharacteristicSpec.lost_customers(0.8, 1.0), moments, 5
    )
    assert np.all(res.natural_values > 0.0)


# ---------------------------------------------------------------------------
# The bound-chain kernel against the plain three-dot-product loop
# ---------------------------------------------------------------------------


def _reference_chains(moments, order, eps, gamma):
    """solve_recursion's bound chains for a positive gamma, as one loop of
    two full dot products per level, with no pinned lower chain."""
    r = moments.values
    r0 = float(r[0])
    lead = 1.0 - float(r[1]) if order >= 2 else 0.0
    upper_infinite = r0 <= eps
    clamped = np.zeros(order + 1, dtype=bool)
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
        acc = lead_low * low.item(k - 1) - float(np.dot(r_up[2:k], upp[k - 2:0:-1]))
        clamped[k] = lead_clamped or acc < 0.0
        low[k] = max(acc, 0.0) / div_low
        if not upper_infinite:
            upp[k] = (lead_upp * upp.item(k - 1)
                      - float(np.dot(r_down[2:k], low[k - 2:0:-1]))) / div_upp
    return low[1:], upp[1:], upper_infinite, clamped[1:]


def _assert_matches_reference(moments, order, eps, gamma):
    """The point chain within (2k + 8) 2^-53 of the sequential positive
    loop; lower and clamped bit-identical to the plain loop, every upper
    bound infinite where the loop's width swallows r_0, upper within 1e-14
    relative.  Where the loop's bounds are NaN (a 0 * inf or inf - inf past
    the largest double) the kernel's lower bound is 0 and clamped and its
    upper bound inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_recursion(moments, order, eps, gamma)
    _assert_near_the_sequential_loop(moments, got.point)
    with np.errstate(invalid="ignore", over="ignore"):
        lower, upper, upper_infinite, clamped = _reference_chains(
            moments, order, eps, gamma)
    if upper_infinite:
        assert np.all(got.upper == math.inf)
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


def _widths(r0, scale):
    """A width of each kind, from 0 to past r_0."""
    return {"zero": 0.0, "tiny": 10.0 ** (-13.0 + 7.0 * scale),
            "width": 10.0 ** (-4.0 + 3.5 * scale), "r0": r0, "past r0": r0 * (1.0 + scale)}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 20_000),
    law=st.integers(0, len(_SAMPLE_LAWS) - 1),
    rate=st.floats(0.05, 5.0),
    order=st.integers(1, 1_200),
    eps_kind=st.sampled_from(["zero", "tiny", "width", "r0", "past r0"]),
    gamma_kind=st.sampled_from(["tiny", "width"]),
    scale=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_the_plain_loop(n, law, rate, order, eps_kind, gamma_kind, scale, seed):
    rng = np.random.default_rng(seed)
    moments = moments_empirical(build_ecdf(Sample(_SAMPLE_LAWS[law](rng, n))), rate, order)
    width = _widths(float(moments.values[0]), scale)
    _assert_matches_reference(moments, order, width[eps_kind], 2.0 * width[gamma_kind])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 20_000),
    law=st.integers(0, len(_SAMPLE_LAWS) - 1),
    rate=st.floats(0.05, 5.0),
    order=st.integers(1, 1_200),
    eps_kind=st.sampled_from(["zero", "tiny", "width", "r0", "past r0"]),
    gamma_kind=st.sampled_from(["tiny", "width"]),
    scale=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_bound_chains_keep_their_positivity_lemma(
        n, law, rate, order, eps_kind, gamma_kind, scale, seed):
    # 0 <= low_k <= Q_k <= upp_k and Q_k >= 1 / r_0 >= 1, so with gamma > 0
    # a lower bound at 0 makes every later lower total negative: the kernel
    # pins the lower chain there instead of running it
    rng = np.random.default_rng(seed)
    moments = moments_empirical(build_ecdf(Sample(_SAMPLE_LAWS[law](rng, n))), rate, order)
    width = _widths(float(moments.values[0]), scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chains = solve_recursion(moments, order, width[eps_kind], 2.0 * width[gamma_kind])
    assert np.all(chains.point >= 1.0)
    assert np.all(chains.upper > 0.0)
    assert np.all(chains.lower >= 0.0)
    zero = chains.lower == 0.0
    if zero.any():
        first = int(np.argmax(zero))
        assert np.all(zero[first:]) and np.all(chains.clamped[first + 1:])


@pytest.mark.parametrize("eps, gamma", [(0.05, 0.1), (0.0, 0.02)])
def test_kernel_matches_the_plain_loop_on_an_overflowing_chain(eps, gamma):
    _assert_matches_reference(_overflowing_moments(3.0), 1000, eps, gamma)


def test_an_overflowed_lower_chain_clamps_instead_of_turning_nan():
    # tiny widths keep the lower chain on the point chain until all three
    # overflow at level 323; the plain loop's lower total at level 325 is
    # inf - inf, where the kernel's lower tail reads an infinite upper bound
    moments = moments_exponential(9.0, 1.0, 800)
    got = _assert_matches_reference(moments, 800, 1e-12, 2e-12)
    assert got.lower[322] == math.inf and np.all(got.upper[322:] == math.inf)
    assert np.all(got.lower[324:] == 0.0) and np.all(got.clamped[324:])


def test_an_overflowed_first_lower_level_clamps_instead_of_turning_nan():
    # 1 / (r_0 + eps) overflows and the lead 1 - r_1 - gamma is clamped to 0:
    # level 2 would be 0 * inf = NaN
    moments = MomentVector(rate=1.0, values=np.array([5e-324, 0.665, 0.147]))
    got = solve_recursion(moments, 3, 5e-324, 0.5)
    assert got.lower.tolist() == [math.inf, 0.0, 0.0]
    assert got.clamped.tolist() == [False, True, True]
    assert np.all(got.upper == math.inf)


# ---------------------------------------------------------------------------
# The point-chain cache
# ---------------------------------------------------------------------------


def _fresh_copy(moments):
    return MomentVector(rate=moments.rate, values=moments.values.copy(), tail=moments.tail)


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


def test_the_first_call_caches_the_chain_to_full_reach():
    # a vector of order m reaches level m + 1: the first call, at any order,
    # leaves one entry Q_0..Q_{m+1}, and every later order is a slice of it
    x = np.random.default_rng(9).gamma(2.0, 0.5, 500)
    moments = moments_empirical(build_ecdf(Sample(x)), 0.8, 400)
    short = solve_recursion(moments, 30)
    entry = recursion._POINT_CHAINS[moments]
    assert entry.size == moments.order + 2 and entry[0] == 1.0
    assert np.array_equal(short.point, entry[1:31])
    full = solve_recursion(moments, 401, 0.02, 0.04)
    assert recursion._POINT_CHAINS[moments] is entry
    assert np.shares_memory(full.point, entry) and np.array_equal(full.point, entry[1:])
    assert np.array_equal(full.point, solve_recursion(_fresh_copy(moments), 401).point)
    _assert_matches_reference(moments, 401, 0.02, 0.04)


def test_cached_chains_are_read_only():
    moments = moments_exponential(0.8, 1.0, 20)
    chains = solve_recursion(moments, 20)
    entry = recursion._POINT_CHAINS[moments]
    assert entry.size == 22
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


# ---------------------------------------------------------------------------
# The unit chain on a tail vector
# ---------------------------------------------------------------------------


@st.composite
def _tail_vectors(draw):
    """r_0 in (0, 1] and tail sums R_1..R_m in [0, 1], in any order, up to
    four blocks deep."""
    r0 = draw(st.floats(0.0, 1.0, exclude_min=True))
    size = draw(st.integers(0, 4 * recursion._BLOCK))
    tails = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    return r0, np.array(tails, dtype=float)


@settings(max_examples=200, deadline=None)
@given(vector=_tail_vectors(), data=st.data())
def test_the_unit_chain_never_falls_as_a_tail_sum_rises_or_r0_falls(vector, data):
    # D_k is a polynomial with nonnegative coefficients in R_1..R_{k-1} and
    # 1 / r_0, so every Q_k is nondecreasing in each; the lemma a box of
    # tail sums rests on.  Every rounded step is monotone too, but a block
    # that overflows in one chain alone is redone one level per step there,
    # which rounds its finite levels differently: so within rounding
    r0, tails = vector
    floor = recursion._unit_chain(r0, tails) * (1.0 - 1e-12)
    lower = data.draw(st.floats(0.0, r0, exclude_min=True), label="lower r_0")
    assert np.all(recursion._unit_chain(lower, tails) >= floor)
    if tails.size:
        i = data.draw(st.integers(0, tails.size - 1), label="i")
        raised = tails.copy()
        raised[i] = data.draw(st.floats(tails[i], 1.0), label="raised R_i")
        assert np.all(recursion._unit_chain(r0, raised) >= floor)


@pytest.mark.parametrize("r0, tails", [
    # not nonincreasing: r_i = R_{i-1} - R_i would be negative
    (0.5, 0.1 + 0.05 * (np.arange(100) % 3)),
    # r_0 + R_1 > 1: the coefficients would sum past 1
    (0.9, np.r_[0.5, np.full(99, 0.01)]),
])
def test_the_unit_chain_takes_tails_no_moment_vector_can_hold(r0, tails):
    with pytest.raises(ValueError):
        MomentVector(rate=1.0, values=np.r_[r0, 0.0, -np.diff(tails)], tail=tails[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = recursion._unit_chain(r0, tails)
    assert chain.size == tails.size + 2 and chain[0] == 1.0
    assert np.all(np.isfinite(chain)) and np.all(np.diff(chain) >= 0.0)
    want = _sequential_tail_chain(r0, tails, tails.size + 1)
    np.testing.assert_allclose(chain[1:], want, rtol=1e-12, atol=0.0)
