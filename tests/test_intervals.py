"""Tests for the interval-bound recursions and the interval table."""

import math

import numpy as np
import pytest

from lossq import intervals
from lossq.ecdf import build_ecdf
from lossq.intervals import Method, interval_table
from lossq.kolmogorov import LimitLaw, width_for
from lossq.moments import MomentVector, moments_empirical, moments_exponential
from lossq.recursion import (
    Characteristic,
    CharacteristicSpec,
    estimate_characteristic,
    solve_recursion,
)
from lossq.simulate import Exponential, draw_samples

from support import (
    CANONICAL_ONE_LOWER,
    CANONICAL_ONE_UPPER,
    CANONICAL_TWO_LOWER,
    CANONICAL_TWO_UPPER,
    FIXTURE_EPS_ONE,
    FIXTURE_EPS_TWO,
    FIXTURE_GAMMA_SUM,
    FIXTURE_R,
    REPORTED_ONE_SIDED,
    REPORTED_TWO_SIDED,
)

FIXTURE_MOMENTS = MomentVector(rate=1.0, values=np.array(FIXTURE_R))
BUSY_UNIT = CharacteristicSpec.busy_period(1.0, 1.0)


# ---------------------------------------------------------------------------
# The worked numeric fixture: frozen bound chains and published rows
# ---------------------------------------------------------------------------


def test_two_sided_bounds_match_frozen_chain():
    b = solve_recursion(FIXTURE_MOMENTS, 4, FIXTURE_EPS_TWO, 2.0 * FIXTURE_EPS_TWO)
    assert b.lower == pytest.approx(CANONICAL_TWO_LOWER, abs=1e-9)
    assert b.upper == pytest.approx(CANONICAL_TWO_UPPER, abs=1e-9)
    assert np.isfinite(b.upper).all()
    assert not b.clamped.any()


def test_one_sided_bounds_match_frozen_chain():
    b = solve_recursion(FIXTURE_MOMENTS, 4, FIXTURE_EPS_ONE, FIXTURE_GAMMA_SUM)
    assert b.lower == pytest.approx(CANONICAL_ONE_LOWER, abs=1e-9)
    assert b.upper == pytest.approx(CANONICAL_ONE_UPPER, abs=1e-9)
    assert np.isfinite(b.upper).all()
    assert not b.clamped.any()


@pytest.mark.parametrize(
    "method, reported, lower_chain, upper_chain",
    [
        ("two", REPORTED_TWO_SIDED, CANONICAL_TWO_LOWER, CANONICAL_TWO_UPPER),
        ("one", REPORTED_ONE_SIDED, CANONICAL_ONE_LOWER, CANONICAL_ONE_UPPER),
    ],
)
def test_early_reported_rows_reproduce(method, reported, lower_chain, upper_chain):
    # The published level-4 row disagrees with this engine by ~0.12 on the
    # lower bound; levels 1..3 reproduce, level 1 to five decimals.
    assert lower_chain[0] == pytest.approx(reported[0][0], abs=1e-5)
    assert upper_chain[0] == pytest.approx(reported[0][1], abs=1e-5)
    for level in (1, 2):
        assert lower_chain[level] == pytest.approx(reported[level][0], abs=1e-3)
        assert upper_chain[level] == pytest.approx(reported[level][1], abs=1e-3)


# ---------------------------------------------------------------------------
# Engine identities and validation
# ---------------------------------------------------------------------------


def test_two_sided_is_one_sided_with_doubled_tail_width():
    # the two-sided method runs the kernel with tail width twice eps
    spec = CharacteristicSpec.busy_period(1.0, 1.3)
    table = interval_table(spec, FIXTURE_MOMENTS, 0.95, 10_000,
                           Method.TWO_SIDED_STATISTIC, 4)
    eps = width_for(LimitLaw.TWO_SIDED, 0.95, 10_000)
    b = solve_recursion(FIXTURE_MOMENTS, 4, eps, 2.0 * eps)
    assert [row.lower for row in table.rows[1:]] == (1.3 * b.lower).tolist()
    assert [row.upper for row in table.rows[1:]] == (1.3 * b.upper).tolist()
    assert [row.clamped for row in table.rows[1:]] == b.clamped.tolist()


def test_order_and_coefficient_validation():
    with pytest.raises(ValueError, match="at least 1"):
        solve_recursion(FIXTURE_MOMENTS, 0, 0.01, 0.02)
    with pytest.raises(ValueError, match="order"):
        solve_recursion(FIXTURE_MOMENTS, 9, 0.01, 0.02)


def test_bound_arrays_are_read_only():
    b = solve_recursion(FIXTURE_MOMENTS, 4, 0.01, 0.02)
    with pytest.raises(ValueError):
        b.lower[0] = 0.0
    with pytest.raises(ValueError):
        b.upper[0] = 0.0


def test_vanishing_width_collapses_to_the_point_chain():
    points = solve_recursion(FIXTURE_MOMENTS, 4).point
    b = solve_recursion(FIXTURE_MOMENTS, 4, 1e-13, 2e-13)
    assert b.lower == pytest.approx(points, abs=1e-9)
    assert b.upper == pytest.approx(points, abs=1e-9)
    assert np.array_equal(b.point, points)


def test_zero_seed_gives_zero_bounds():
    # lost count at lambda * m = 1: every recursion value is the seed 0, so
    # every natural value is 1 and no flag of the unit chains carries over
    spec = CharacteristicSpec.lost_customers(0.5, 2.0)
    moments = moments_exponential(0.5, 1.0, 12)
    assert spec.seed == 0.0
    table = interval_table(spec, moments, 0.95, 40, Method.TWO_SIDED_STATISTIC, 12)
    eps = width_for(LimitLaw.TWO_SIDED, 0.95, 40)
    assert solve_recursion(moments, 12, eps, 2.0 * eps).clamped.any()
    for column in (table.lower, table.point, table.upper):
        assert np.array_equal(column, np.ones(13))
    assert not (table.upper_infinite | table.clamped | table.degenerate).any()


def test_negative_seed_swaps_the_unit_chains():
    # lost count with seed -0.125: the table's lower bound is the image of
    # the unit upper chain and its upper bound that of the unit lower chain;
    # scaling by -0.125 is exact, so the identity holds bit for bit
    spec = CharacteristicSpec.lost_customers(1.0, 0.875)
    assert spec.seed == -0.125
    table = interval_table(spec, FIXTURE_MOMENTS, 0.95, 10_000,
                           Method.TWO_SIDED_STATISTIC, 4)
    eps = width_for(LimitLaw.TWO_SIDED, 0.95, 10_000)
    unit = solve_recursion(FIXTURE_MOMENTS, 4, eps, 2.0 * eps)
    assert np.array_equal(table.lower[1:], -0.125 * unit.upper + 1.0)
    assert np.array_equal(table.upper[1:], -0.125 * unit.lower + 1.0)
    assert np.array_equal(table.point[1:], -0.125 * unit.point + 1.0)
    assert not (table.upper_infinite | table.clamped | table.degenerate).any()
    assert np.all(table.lower <= table.point)
    assert np.all(table.point <= table.upper)


def _random_config(rng):
    order = int(rng.integers(2, 7))
    raw = rng.uniform(0.05, 1.0, size=order) * (0.5 ** np.arange(order))
    raw = raw / max(1.0, raw.sum() * 1.25)
    raw[0] = max(raw[0], 0.1)
    moments = MomentVector(rate=float(rng.uniform(0.3, 2.5)), values=raw)
    eps = float(rng.uniform(1e-4, raw[0] / 2.0))
    gamma = float(rng.uniform(eps, 3.0 * eps))
    seed = float(rng.uniform(0.1, 3.0))
    return seed, moments, eps, gamma, order


def _natural_chains(spec, moments, order, eps, gamma):
    """The spec's lower, point and upper chains on the natural scale."""
    b = spec.chains(moments, order, eps, gamma)
    return tuple(spec.natural_scale(c) for c in (b.lower, b.point, b.upper))


def test_bounds_sandwich_the_point_chain():
    rng = np.random.default_rng(31)
    for _ in range(200):
        seed, moments, eps, gamma, order = _random_config(rng)
        spec = CharacteristicSpec.busy_period(moments.rate, seed)
        lower, point, upper = _natural_chains(spec, moments, order, eps, gamma)
        q = seed * np.concatenate(([1.0], solve_recursion(moments, order).point))
        assert np.array_equal(point, q)
        assert np.all(lower <= q + 1e-12)
        assert np.all(q <= upper + 1e-12)


def test_wider_widths_never_tighten_the_bounds():
    rng = np.random.default_rng(37)
    for _ in range(200):
        seed, moments, eps, gamma, order = _random_config(rng)
        spec = CharacteristicSpec.busy_period(moments.rate, seed)
        narrow_lower, _, narrow_upper = _natural_chains(spec, moments, order, eps, gamma)
        wide_lower, _, wide_upper = _natural_chains(spec, moments, order,
                                                    1.5 * eps, 1.5 * gamma)
        assert np.all(wide_lower <= narrow_lower + 1e-12)
        assert np.all(narrow_upper <= wide_upper + 1e-12)


def test_width_swallowing_the_leading_coefficient_makes_uppers_infinite():
    moments = MomentVector(rate=1.0, values=np.array([0.01, 0.005, 0.002]))
    b = solve_recursion(moments, 3, 0.02, 0.04)
    assert np.all(np.isinf(b.upper))
    assert math.isfinite(b.lower[0]) and math.isfinite(b.lower[1])
    # the lower chain eventually meets an infinite upper term and clamps to 0
    assert b.lower[2] == 0.0 and bool(b.clamped[2])


# ---------------------------------------------------------------------------
# interval_table: composition, transforms, flags
# ---------------------------------------------------------------------------


def test_table_rows_restate_the_engine_on_the_natural_scale():
    # Busy period with unit mean service: the natural scale is the recursion
    # scale, so rows must equal the engine outputs exactly.
    table = interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                           Method.TWO_SIDED_STATISTIC, 4)
    eps = width_for(LimitLaw.TWO_SIDED, 0.95, 10_000)
    engine = solve_recursion(FIXTURE_MOMENTS, 4, eps, 2.0 * eps)
    points = solve_recursion(FIXTURE_MOMENTS, 4).point
    assert table.order == 4
    assert table.characteristic is Characteristic.BUSY_PERIOD
    assert table.method is Method.TWO_SIDED_STATISTIC
    for k in range(1, 5):
        row = table.rows[k]
        assert row.level == k
        assert row.lower == engine.lower[k - 1]
        assert row.upper == engine.upper[k - 1]
        assert row.point == points[k - 1]
        assert row.flags() == ()


@pytest.mark.parametrize("spec", [
    CharacteristicSpec.busy_period(0.8, 0.7),
    CharacteristicSpec.served_customers(0.8),
    CharacteristicSpec.lost_customers(0.8, 0.7),
    CharacteristicSpec.lost_customers(0.8, 1.25),
    CharacteristicSpec.lost_customers(0.8, 1.5),
])
def test_table_is_the_seed_map_of_the_engine(spec):
    # one kernel run per table: the points repeat estimate_characteristic
    # exactly, and the bounds are the seed map of the unit engine chains,
    # seed * chain (+ 1 for the lost count), swapped for a negative seed
    # (lost-count seeds -0.44, 0 and 0.2 cover the swap and zero rules)
    moments = moments_exponential(0.8, 1.0, 6)
    table = interval_table(spec, moments, 0.95, 500, Method.ONE_SIDED_STATISTICS, 6)
    points = estimate_characteristic(spec, moments, 6).natural_values
    assert [row.point for row in table.rows] == points.tolist()
    eps = width_for(LimitLaw.ONE_SIDED, 0.95, 500)
    gamma = width_for(LimitLaw.ONE_SIDED_SUM, 0.95, 500)
    engine = solve_recursion(moments, 6, eps, gamma)
    shift = 1.0 if spec.kind is Characteristic.LOST_CUSTOMERS else 0.0
    lower, upper = (spec.seed * c + shift for c in (engine.lower, engine.upper))
    if spec.seed < 0.0:
        lower, upper = upper, lower
    assert [row.upper for row in table.rows[1:]] == upper.tolist()
    assert [row.lower for row in table.rows[1:]] == np.maximum(lower, 0.0).tolist()


def test_table_level_zero_is_the_seed_on_the_natural_scale():
    table = interval_table(CharacteristicSpec.lost_customers(0.5, 1.0),
                           moments_exponential(0.5, 1.0, 4),
                           0.95, 10_000, Method.ONE_SIDED_STATISTICS, 4)
    row = table.rows[0]
    assert row.level == 0
    assert row.lower == row.point == row.upper == pytest.approx(0.5)
    assert row.flags() == ()


def test_table_confidence_records_the_resolved_widths():
    # one float per limit law of the method, in the order of method.laws
    two = interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                         Method.TWO_SIDED_STATISTIC, 4)
    assert two.method.laws == (LimitLaw.TWO_SIDED,)
    assert two.widths == (width_for(LimitLaw.TWO_SIDED, 0.95, 10_000),)
    assert two.widths[0] == pytest.approx(0.013581, abs=1e-5)

    one = interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                         Method.ONE_SIDED_STATISTICS, 4)
    assert one.method.laws == (LimitLaw.ONE_SIDED, LimitLaw.ONE_SIDED_SUM)
    assert one.widths == (width_for(LimitLaw.ONE_SIDED, 0.95, 10_000),
                          width_for(LimitLaw.ONE_SIDED_SUM, 0.95, 10_000))
    assert one.widths[0] == pytest.approx(0.012239, abs=1e-5)
    assert one.widths[1] == pytest.approx(0.020730, abs=1e-5)


def test_table_with_exact_sample_size_tracks_the_frozen_chains():
    # The frozen chains use widths rounded to 4-5 decimals; the rounding
    # residual compounds level by level (the one-sided sum width 0.0208 is
    # the coarsest, off by 7e-5), so the envelope widens with depth.
    two = interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                         Method.TWO_SIDED_STATISTIC, 4)
    one = interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                         Method.ONE_SIDED_STATISTICS, 4)
    envelope = {1: 1e-5, 2: 5e-4, 3: 2e-3, 4: 5e-3}
    for k, tol in envelope.items():
        assert two.rows[k].lower == pytest.approx(CANONICAL_TWO_LOWER[k - 1], abs=tol)
        assert two.rows[k].upper == pytest.approx(CANONICAL_TWO_UPPER[k - 1], abs=tol)
        assert one.rows[k].lower == pytest.approx(CANONICAL_ONE_LOWER[k - 1], abs=tol)
        assert one.rows[k].upper == pytest.approx(CANONICAL_ONE_UPPER[k - 1], abs=tol)


def test_table_rejects_rate_mismatch():
    with pytest.raises(ValueError, match="rate"):
        interval_table(CharacteristicSpec.busy_period(2.0, 1.0), FIXTURE_MOMENTS,
                       0.95, 10_000, Method.TWO_SIDED_STATISTIC, 4)


def test_loss_probability_rows_invert_and_swap_the_bounds():
    moments = moments_exponential(1.0, 1.0, 4)
    table = interval_table(CharacteristicSpec.loss_probability(1.0), moments,
                           0.95, 10_000, Method.TWO_SIDED_STATISTIC, 4)
    eps = width_for(LimitLaw.TWO_SIDED, 0.95, 10_000)
    engine = solve_recursion(moments, 4, eps, 2.0 * eps)
    for k in range(1, 5):
        row = table.rows[k]
        assert row.lower == pytest.approx(1.0 / engine.upper[k - 1], rel=1e-12)
        assert row.upper == pytest.approx(1.0 / engine.lower[k - 1], rel=1e-12)
        assert row.lower <= row.point <= row.upper
        assert row.flags() == ()
        assert 0.0 < row.lower and row.upper <= 1.0


def test_loss_probability_degenerate_rows_carry_the_trivial_bracket():
    # With only 36 observations the widths are large enough that the lower
    # recursion chain hits zero: those rows degrade to the bracket (0, 1].
    moments = moments_exponential(1.0, 1.0, 4)
    table = interval_table(CharacteristicSpec.loss_probability(1.0), moments,
                           0.95, 36, Method.TWO_SIDED_STATISTIC, 4)
    assert table.rows[1].flags() == ()
    assert table.rows[1].lower == pytest.approx(0.273650, abs=1e-6)
    assert table.rows[1].upper == pytest.approx(0.726350, abs=1e-6)
    # level 2 only hits the cap upper <= 1
    assert table.rows[2].flags() == ("clamped",)
    assert table.rows[2].upper == 1.0
    for k in (3, 4):
        row = table.rows[k]
        assert row.degenerate and row.clamped
        assert row.lower == 0.0 and row.upper == 1.0
        assert row.point == pytest.approx(1.0 / (k + 1))
        assert "degenerate" in row.flags() and "clamped" in row.flags()


def test_lost_count_rows_floor_negative_lower_bounds():
    moments = moments_exponential(0.5, 1.0, 4)
    table = interval_table(CharacteristicSpec.lost_customers(0.5, 1.0), moments,
                           0.95, 100, Method.TWO_SIDED_STATISTIC, 4)
    assert table.rows[1].flags() == ()
    assert table.rows[1].lower == pytest.approx(0.058126, abs=1e-6)
    for k in (2, 3, 4):
        row = table.rows[k]
        assert row.clamped and not row.degenerate
        assert row.lower == 0.0
        assert row.point == pytest.approx(0.5 ** (k + 1), rel=1e-12)
        assert row.lower <= row.point <= row.upper


def test_infinite_upper_rows_are_flagged():
    moments = MomentVector(rate=1.0, values=np.array([0.01, 0.005, 0.002]))
    table = interval_table(CharacteristicSpec.busy_period(1.0, 1.0), moments,
                           0.95, 1000, Method.TWO_SIDED_STATISTIC, 3)
    for k in (1, 2, 3):
        row = table.rows[k]
        assert math.isinf(row.upper)
        assert "upper-inf" in row.flags()
    assert table.rows[3].clamped and table.rows[3].lower == 0.0


# ---------------------------------------------------------------------------
# The columnar table and its row view
# ---------------------------------------------------------------------------

_COLUMNS = ("lower", "point", "upper", "upper_infinite", "clamped", "degenerate")


def _flagged_tables():
    """Tables of every characteristic and both methods whose rows between
    them carry infinite, clamped and degenerate values."""
    swallowed = MomentVector(rate=1.0, values=np.array([0.01, 0.005, 0.002]))
    cases = [
        (CharacteristicSpec.busy_period(1.0, 1.3), swallowed, 1000, 3),
        (CharacteristicSpec.busy_period(0.8, 0.7), moments_exponential(0.8, 1.0, 30), 500, 30),
        (CharacteristicSpec.served_customers(0.8), moments_exponential(0.8, 1.0, 30), 36, 30),
        (CharacteristicSpec.lost_customers(0.5, 1.0), moments_exponential(0.5, 1.0, 8), 100, 8),
        (CharacteristicSpec.lost_customers(0.8, 0.7), moments_exponential(0.8, 1.0, 8), 100, 8),
        (CharacteristicSpec.lost_customers(0.8, 1.25), moments_exponential(0.8, 1.0, 8), 100, 8),
        (CharacteristicSpec.loss_probability(1.0), moments_exponential(1.0, 1.0, 6), 36, 6),
        (CharacteristicSpec.loss_probability(1.0), moments_exponential(1.0, 1.0, 6), 10_000, 6),
    ]
    for spec, moments, n_obs, order in cases:
        for method in Method:
            yield interval_table(spec, moments, 0.95, n_obs, method, order)


def test_table_columns_are_read_only_with_one_entry_per_level():
    table = interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                           Method.TWO_SIDED_STATISTIC, 4)
    for name in _COLUMNS:
        column = getattr(table, name)
        assert isinstance(column, np.ndarray)
        assert column.shape == (table.order + 1,)
        with pytest.raises(ValueError):
            column[0] = column[1]
    assert table.point.dtype == float and table.clamped.dtype == bool


def test_table_rows_repeat_the_columns_bit_for_bit():
    seen = set()
    for table in _flagged_tables():
        rows = table.rows
        assert [row.level for row in rows] == list(range(table.order + 1))
        for name in _COLUMNS:
            column = getattr(table, name)
            got = np.array([getattr(row, name) for row in rows], dtype=column.dtype)
            if column.dtype == bool:
                assert np.array_equal(got, column), name
                if column.any():
                    seen.add(name)
            else:
                assert np.array_equal(got.view(np.uint64), column.view(np.uint64)), name
        seen.update({table.characteristic, table.method})
    assert seen == {"upper_infinite", "clamped", "degenerate", *Characteristic, *Method}


def test_table_rows_are_built_once_and_only_when_read(monkeypatch):
    built = []

    class CountingRow(intervals.IntervalRow):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(intervals, "IntervalRow", CountingRow)
    table = interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                           Method.ONE_SIDED_STATISTICS, 4)
    assert built == []
    rows = table.rows
    assert built == [0, 1, 2, 3, 4]
    assert table.rows is rows
    assert built == [0, 1, 2, 3, 4]


def test_a_callers_columns_are_copied_and_left_writeable():
    table = interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                           Method.TWO_SIDED_STATISTIC, 4)
    fields = dict(characteristic=table.characteristic, method=table.method,
                  widths=table.widths)
    mine = {name: getattr(table, name).copy() for name in _COLUMNS}
    copy = intervals.IntervalTable(**fields, **mine)
    for name in _COLUMNS:
        assert mine[name].flags.writeable, name
        assert not np.shares_memory(getattr(copy, name), mine[name]), name
        assert not getattr(copy, name).flags.writeable, name
        assert np.array_equal(getattr(copy, name), getattr(table, name)), name
    assert copy.rows == table.rows
    short = dict(mine, upper=mine["upper"][:-1])
    with pytest.raises(ValueError, match="one length"):
        intervals.IntervalTable(**fields, **short)


def test_tables_compare_by_identity():
    make = lambda: interval_table(BUSY_UNIT, FIXTURE_MOMENTS, 0.95, 10_000,
                                  Method.TWO_SIDED_STATISTIC, 4)
    table = make()
    assert table == table and table != make()


def test_method_enum_round_trip():
    assert Method("two-sided") is Method.TWO_SIDED_STATISTIC
    assert Method("one-sided") is Method.ONE_SIDED_STATISTICS
    with pytest.raises(ValueError):
        Method("three-sided")


# ---------------------------------------------------------------------------
# Small coverage experiment (the full-size one runs in the acceptance gate)
# ---------------------------------------------------------------------------


def test_intervals_cover_the_true_busy_period():
    # Arrival rate 1, exponential unit service, buffer 4: the true expected
    # busy period is 5.  Both methods should cover it essentially always at
    # this sample size, and the one-sided method is never wider.
    reps, n_obs, truth = 300, 1200, 5.0
    covered = {Method.TWO_SIDED_STATISTIC: 0, Method.ONE_SIDED_STATISTICS: 0}
    for i in range(reps):
        sample = draw_samples(Exponential(1.0), n_obs, seed=9000 + i)
        moments = moments_empirical(build_ecdf(sample), 1.0, 4)
        rows = {}
        for method in covered:
            table = interval_table(BUSY_UNIT, moments, 0.95, n_obs, method, 4)
            row = table.rows[4]
            rows[method] = row
            if row.lower <= truth <= row.upper:
                covered[method] += 1
        two, one = rows[Method.TWO_SIDED_STATISTIC], rows[Method.ONE_SIDED_STATISTICS]
        assert (one.upper - one.lower) <= (two.upper - two.lower) + 1e-12
    for method, hits in covered.items():
        assert hits / reps >= 0.93, f"{method.value}: {hits}/{reps}"
