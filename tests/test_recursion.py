"""Tests for the convolution recursion and characteristic point estimates."""

import math
import warnings

import numpy as np
import pytest

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
