"""Poisson-weighted moment coefficients: the empirical kernel, the closed
form of each law, and their sup-distance bounds."""

import gc
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lossq import (
    MomentVector,
    Sample,
    build_ecdf,
    draw_samples,
    ks_statistics,
    moments_empirical,
    moments_exponential,
)
from lossq.ecdf import EmpiricalCdf
from lossq.kolmogorov import LimitLaw, width_for
from lossq.moments import _late_sums, _leaves, _pairwise, _poisson_pmf, _poisson_tails
from lossq.simulate import Deterministic, ErlangK, Exponential, Uniform

from support import PAIR_SLACK, exp_sup_distances, random_cdf_pairs

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


def test_vector_tail_defaults_to_the_mass_the_values_leave():
    # 1 - fsum(values), and 0 when the values already reach 1
    assert MomentVector(rate=1.0, values=np.array([0.5, 0.25])).tail == 0.25
    third = MomentVector(rate=1.0, values=np.full(3, 0.1))
    assert third.tail == 1.0 - math.fsum([0.1] * 3)
    assert MomentVector(rate=1.0, values=np.array([0.5, 0.5 + 1e-12])).tail == 0.0
    assert MomentVector(rate=1.0, values=np.array([0.5, 0.25]), tail=1e-300).tail == 1e-300


@pytest.mark.parametrize("tail", [-1e-300, -0.1, 1.5, math.inf, math.nan])
def test_vector_rejects_a_tail_outside_the_unit_interval(tail):
    with pytest.raises(ValueError, match="tail"):
        MomentVector(rate=1.0, values=np.array([0.5]), tail=tail)


@pytest.mark.parametrize("tail", [None, 0.0])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_vector_rejects_a_nan_coefficient(at, tail):
    # a NaN r_1 would reach only R_0, which the point chain never reads, so
    # a broken input would give a plausible chain
    values = np.array([0.5, 0.3, 0.1])
    values[at] = math.nan
    with pytest.raises(ValueError, match="coefficient"):
        MomentVector(rate=1.0, values=values, tail=tail)


def test_vector_rejects_values_and_tail_past_one():
    with pytest.raises(ValueError, match="sum to at most 1"):
        MomentVector(rate=1.0, values=np.array([0.6, 0.3]), tail=0.2)
    # within the tolerance of 1e-9 a vector is taken as it is
    ok = MomentVector(rate=1.0, values=np.array([0.6, 0.3]), tail=0.1 + 1e-10)
    assert ok.tail == 0.1 + 1e-10


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


def _block_rows(xs: np.ndarray, rate: float, order: int):
    """The kernel's arithmetic over every observation: in each block of
    orders 1-32, 33-64, ... the weights are multiplied by rate x once per
    order, and divided by the running product of the block's orders at its
    end.  Yields each order's row of unnormalised weights and that product."""
    ax = rate * xs
    u = np.exp(-ax)
    yield u, 1.0
    facts = 1.0
    for i in range(1, order + 1):
        u = u * ax
        facts *= i
        yield u, facts
        if i % 32 == 0:
            u, facts = u / facts, 1.0


def _full_array_moments(xs: np.ndarray, rate: float, order: int) -> np.ndarray:
    """The kernel's recurrence summed over every observation at every order."""
    return np.array([u.sum() / facts / xs.size for u, facts in _block_rows(xs, rate, order)])


def _exact_sums(xs: np.ndarray, rate: float, order: int) -> np.ndarray:
    """The rows of :func:`_full_array_moments`, each summed exactly by
    ``math.fsum`` and then divided by the running product and by N."""
    out = np.zeros(order + 1)
    for i, (u, facts) in enumerate(_block_rows(xs, rate, order)):
        if not u.any():
            break
        out[i] = math.fsum(u.tolist()) / facts / xs.size
    return out


def _pairwise_depth(length: int) -> int:
    """Most roundings on any path of NumPy's pairwise sum of ``length``
    terms: a block of at most 128 runs 8 accumulators of up to 16 terms
    (15 additions), joins them in 3 levels and adds up to 7 leftover terms
    one by one; each halving above 128 adds one level.  The last term is a
    margin for a reduction split into 8192-element buffers."""
    halvings = max(0, math.ceil(math.log2(length / 128))) if length > 128 else 0
    return 15 + 3 + 7 + halvings + math.ceil(length / 8192)


def _last_nonzero(values: np.ndarray) -> int:
    nonzero = np.flatnonzero(values)
    return int(nonzero[-1]) if nonzero.size else -1


# keep every exp(-rate x) normal (rate x below ~708), so that the kernel's
# weights are the loop's; observations past it are tested against mpmath
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
# the windowed sum of 240 weights lands 11 ulp from the exact sum here, the
# full-array loop 4 ulp: both within the pairwise-summation bound
@example(n=307, low=0.0, decades=3.625, ties=True, rate=40.0, order=478, seed=26491)
# one observation at rate x = 400: the coefficients sum to 1 + 4 ulp
@example(n=1, low=1.0, decades=0.0, ties=False, rate=40.0, order=571, seed=0)
def test_windowed_sums_match_the_full_array_loop(n, low, decades, ties, rate, order, seed):
    # Both loops sum bit-identical rows of unnormalised weights, in
    # different orders and the kernel over a window; each lies within
    # NumPy's pairwise-summation error of the exact sum (plus the divisions
    # by the running product and by N, and a margin for second-order
    # terms), the kernel also within the 2^-53 r_j its window cut may drop.
    rng = np.random.default_rng(seed)
    xs = 10.0 ** rng.uniform(low, low + decades, n)
    if ties:
        xs = rng.choice(xs[: max(1, n // 10)], n)
    xs = np.sort(np.minimum(xs, _MAX_AX / rate))
    got = moments_empirical(build_ecdf(Sample(xs)), rate, order).values
    want = _full_array_moments(xs, rate, order)
    exact = _exact_sums(xs, rate, order)
    normal = exact >= 1e-290
    summed = (_pairwise_depth(n) + 2) * 2.0**-53 * exact[normal]
    assert np.all(np.abs(want - exact)[normal] <= summed)
    assert np.all(np.abs(got - exact)[normal] <= summed + 2.0**-53 * exact[normal])
    assert np.all(np.abs(got - exact)[~normal] <= 1e-300)
    assert abs(_last_nonzero(got) - _last_nonzero(want)) <= 1
    # the true coefficients sum to at most 1; a weight of order j carries
    # the rounding of its exp, of one product per order and of the running
    # product it is divided by, the kernel's
    # sum and this one add their pairwise-summation error, plus the margin
    slack = 2 * order + 5 + _pairwise_depth(n) + _pairwise_depth(order + 1)
    assert float(got.sum()) <= 1.0 + slack * 2.0**-53


def _poisson_mixture(xs, rate: float, order: int) -> np.ndarray:
    """60-digit mean of the Poisson(rate x) pmfs over the observations."""
    with mpmath.workdps(60):
        ys = [mpmath.mpf(rate) * mpmath.mpf(float(x)) for x in xs]
        return np.array([
            float(mpmath.fsum(mpmath.exp(-y) * y**i for y in ys)
                  / (len(ys) * mpmath.factorial(i)))
            for i in range(order + 1)
        ])


@pytest.mark.parametrize("xs", [
    [744.0], [740.0], [800.0], [708.5], [0.25, 3.0, 744.0, 800.0], [650.0, 720.0, 900.0],
], ids=str)
def test_late_observations_carry_their_full_weight(xs):
    # exp(-rate x) is subnormal above rate x ~ 708 and 0 above ~ 745; such
    # observations must still carry their full weight at orders near rate x
    got = moments_empirical(build_ecdf(Sample(xs)), 1.0, 1_000).values
    want = _poisson_mixture(xs, 1.0, 1_000)
    assert np.max(np.abs(got - want)) <= 1e-13
    big = want >= 1e-300
    assert np.max(np.abs(got - want)[big] / want[big]) <= 1e-11
    assert float(got.sum()) <= 1.0 + 2e-13


@pytest.mark.parametrize("ax", [708.5, 720.0, 744.0, 800.0, 1000.0, 1333.3])
def test_a_late_weight_drifts_no_further_than_a_random_walk(ax):
    # each step from m, the order nearest rate x, adds two roundings: up to
    # 2 |j - m| ulps, but unbiased they add up to about sqrt(|j - m|) ulps
    got = moments_empirical(build_ecdf(Sample([ax])), 1.0, 1_000).values
    want = _poisson_mixture([ax], 1.0, 1_000)
    ulps = 3 * np.sqrt(np.abs(np.arange(1_001) - round(ax))) + 8
    normal = want >= 1e-290
    assert np.all(np.abs(got - want)[normal] <= ulps[normal] * 2.0**-53 * want[normal])


@pytest.mark.parametrize("ax, order", [(720.0, 11), (800.0, 32)])
def test_a_late_weight_far_below_its_mean_keeps_its_digits(ax, order):
    # a weight built as the exp of its log, about -708 here, kept that log's
    # absolute rounding: 339 and 443 ulps off at these points
    got = moments_empirical(build_ecdf(Sample([ax])), 1.0, order).values[order]
    want = _poisson_mixture([ax], 1.0, order)[order]
    assert abs(got - want) <= 30 * 2.0**-53 * want


def test_late_sums_are_exactly_zero_past_the_last_nonzero_order():
    # past both modes every weight steps upward and shrinks; both are 0
    # after order 1964, where the steps stop and leave the later sums at 0
    a = np.array([710.0, 712.5])
    sums = _late_sums(a, 3000)
    last = int(np.flatnonzero(sums)[-1])
    assert 713 < last < 3000
    assert not sums[last + 1:].any()
    orders, means = np.broadcast_arrays(np.arange(last + 1.0)[:, None], a)
    direct = _poisson_pmf(orders, means).sum(axis=1)
    direct[0] = 0.0  # the caller has the weights at order 0
    np.testing.assert_allclose(sums[:last + 1], direct, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("rate, order, most", [(1000.0, 10, 2.0), (1000.0, 50, 2.0),
                                               (2000.0, 400, 2.5)])
def test_late_observations_hold_few_copies_of_the_sample(rate, order, most):
    # in units of one float64 copy of the sample (8N bytes).  About half
    # the observations are late at rate 1000 and 70% at rate 2000; their
    # pmf runs in chunks, so beyond the late rate x the peak holds the kept
    # ones' m, pmf and weights, not ten late-sized temporaries at once
    n = 200_000
    ecdf = build_ecdf(Sample(np.random.default_rng(2024).exponential(1.0, n)))
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        moments_empirical(ecdf, rate, order)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= most * 8 * n, peak / (8 * n)


def _plain_loop(xs: np.ndarray, rate: float, order: int) -> np.ndarray:
    """Every observation's weight updated by w * (rate x) / i at each order."""
    ax = rate * xs
    w = np.exp(-ax)
    out = np.empty(order + 1)
    out[0] = w.mean()
    for i in range(1, order + 1):
        w = w * ax / i
        out[i] = w.mean()
    return out


_RNG = np.random.default_rng(19)


# (sample, rate, order) around the kernel's block edges
@pytest.mark.parametrize("xs, rate, order", [
    # orders that end a block early, on its last order, or one past it
    *((_RNG.gamma(2.0, 0.5, 40), 3.0, order) for order in (31, 32, 33, 63, 64, 65)),
    # a window whose block fits the row buffer, and one a row too wide for it
    (_RNG.uniform(0.2, 1.8, 1024), 1.0, 33),
    (_RNG.uniform(0.2, 1.8, 1025), 1.0, 33),
    # late observations among small rate x, and one whose mean is past the
    # order
    ([0.25, 0.5, 1.0, 2.0, 720.0, 800.0], 1.0, 900),
    ([0.25, 1.0, 3.0, 720.0, 800.0, 1e4], 1.0, 1000),
    # rate x below 1 everywhere: the run stops on an all-zero row
    (_RNG.uniform(0.0, 0.9, 30), 1.0, 400),
    (_RNG.exponential(1.0, 30), 1.0, 400),
], ids=lambda v: f"{len(v)}" if np.ndim(v) else None)
def test_block_edges_match_the_60_digit_mixture(xs, rate, order):
    xs = np.sort(np.asarray(xs, dtype=float))
    got = moments_empirical(build_ecdf(Sample(xs)), rate, order).values
    want = _poisson_mixture(xs, rate, order)
    # each order adds a rounding to the weights and to the running product.
    # A late weight steps from the pmf at m, the order nearest rate x, with
    # two roundings a step: 2 |j - m| ulps and a few
    ax = rate * xs
    levels = np.arange(order + 1)
    ulps = 2 * levels + 5
    for m in np.rint(ax[(ax > 708.0) & (ax < 1e3)]):
        ulps[1:] = np.maximum(ulps[1:], 2 * np.abs(levels[1:] - m) + 8)
    normal = want >= 1e-290
    assert np.all(np.abs(got - want)[normal] <= ulps[normal] * 2.0**-53 * want[normal])
    assert np.all(np.abs(got - want)[~normal] <= 1e-300)
    # observations past rate x ~ 708 carry no weight in the plain loop
    reference = _plain_loop(xs, rate, order) if rate * xs[-1] < 700.0 else want
    assert abs(_last_nonzero(got) - _last_nonzero(reference)) <= 1


@pytest.mark.parametrize("xs, order", [
    *((_RNG.gamma(2.0, 0.5, n), 70) for n in (5, 100, 500)),
    (_RNG.gamma(2.0, 0.5, 1024), 40),
    # every weight equal, so no cut narrows the window before the all-zero row
    (np.full(1000, 0.5), 400),
], ids=lambda v: f"{len(v)}" if np.ndim(v) else None)
def test_buffered_and_in_place_blocks_agree_bit_for_bit(monkeypatch, xs, order):
    # the same products and the same pairwise row sums, however a block
    # holds its rows: accumulated or row by row in the buffer, or in place
    ecdf = build_ecdf(Sample(xs))
    runs = []
    for buffer, accumulate in ((2**15, 128), (2**15, 0), (0, 0)):
        monkeypatch.setattr("lossq.moments._BLOCK_BUFFER", buffer)
        monkeypatch.setattr("lossq.moments._ACCUMULATE_WINDOW", accumulate)
        got = moments_empirical(ecdf, 1.0, order)
        runs.append((got.values.tobytes(), got.tail))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("leaf", [128, 2**15])
def test_leaves_add_up_as_numpys_pairwise_sum(monkeypatch, leaf):
    # NumPy sums a run of more than 128 as its two halves, the left one
    # rounded down to a multiple of 8.  Leaves of that split, added up in
    # its tree, give the bits of one np.add.reduce at every size; this
    # fails loudly if NumPy ever changes its rule
    monkeypatch.setattr("lossq.moments._LEAF", leaf)
    rng = np.random.default_rng(23)
    for size in [*range(1, 301), 2**15 - 1, 2**15 + 1, 2**16 + 7, 200_000, 1_000_003]:
        values = rng.lognormal(0.0, 3.0, size)
        bounds = _leaves(size)
        assert [a for a, _ in bounds[1:]] == [b for _, b in bounds[:-1]]
        assert bounds[0][0] == 0 and bounds[-1][1] == size
        assert all(b - a <= leaf for a, b in bounds)
        parts = [np.add.reduce(values[a:b]) for a, b in bounds]
        assert _pairwise(parts, size) == np.add.reduce(values), size


def _whole_array_moments(ecdf: EmpiricalCdf, rate: float, order: int) -> MomentVector:
    """The empirical kernel as it was before it ran in leaves, with its
    whole-array rate x and weights, each order's row summed by one
    np.add.reduce over the window."""
    with np.errstate(over="ignore"):
        ax = rate * ecdf.sorted_values
    n = ax.size
    w = np.exp(-ax)
    out = np.zeros(order + 1)
    out[0] = w.mean()
    lo, hi = 0, n - int(np.searchsorted(w[::-1], np.finfo(float).tiny))
    for i in range(1, order + 1, 32):
        end = min(order, i + 31)
        window, axw = w[lo:hi], ax[lo:hi]
        facts = np.multiply.accumulate(np.arange(i, end + 1, dtype=float))
        sums = np.zeros(facts.size)
        for k in range(facts.size):
            np.multiply(window, axw, out=window)
            sums[k] = np.add.reduce(window)
        np.divide(window, facts[-1], out=window)
        np.divide(sums / facts, n, out=out[i:end + 1])
        if sums[-1] == 0.0:
            lo = hi
            break
        cut = 2.0**-53 * window[-1] / n
        if window[0] < cut:
            lo += int(np.argmax(window >= cut))
    if hi < n:
        out += _late_sums(ax[hi:], order) / n
    tail = 0.0
    if lo < n:
        tail = math.fsum(_poisson_tails(order + 1, ax[lo:])[1].tolist()) / n
    return MomentVector(rate=rate, values=out, tail=tail)


def _assert_same_bits(got: MomentVector, want: MomentVector) -> None:
    assert got.values.tobytes() == want.values.tobytes()
    assert got.tail == want.tail


_LAWS_AT_40 = {
    "exp": lambda rng, n: rng.exponential(1.0, n),
    "gamma": lambda rng, n: rng.gamma(0.5, 2.0, n),
    # about 2.7% of these are late at rate 40, and the window is never cut
    "lognormal": lambda rng, n: rng.lognormal(0.0, 1.5, n),
}


@pytest.mark.parametrize("law", _LAWS_AT_40)
@pytest.mark.parametrize("n", [2**15 - 1, 2**15 + 1, 70_001, 200_000])
def test_leaves_give_the_whole_array_kernels_bits(law, n):
    xs = _LAWS_AT_40[law](np.random.default_rng(n), n)
    ecdf = build_ecdf(Sample(xs))
    for order in (10, 32, 33, 50, 400):
        _assert_same_bits(moments_empirical(ecdf, 40.0, order),
                          _whole_array_moments(ecdf, 40.0, order))


@pytest.mark.parametrize("inside", [0, 1, 1000])
def test_a_first_blocks_cut_inside_or_at_the_edge_of_a_leaf(inside):
    # at rate 40 the first block leaves the observations at x = 0.001 about
    # 1e-50 of the cut and keeps every later one, so the window after it
    # starts on the boundary of the second leaf, or inside it
    n = 70_001
    start = _leaves(n)[1][0] + inside
    rest = np.random.default_rng(3).uniform(1.0, 2.0, n - start)
    xs = np.concatenate([np.full(start, 0.001), rest])
    ecdf = build_ecdf(Sample(xs))
    for order in (33, 50):
        _assert_same_bits(moments_empirical(ecdf, 40.0, order),
                          _whole_array_moments(ecdf, 40.0, order))


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


@pytest.mark.parametrize("rate, order", [(1.0, 0), (1.0, 5), (0.7, 60), (3.0, 200),
                                         (0.05, 400)])
def test_window_tail_is_the_whole_sample_mean_of_the_upper_tails(rate, order):
    # the loop runs to the order; the tail over its last window and the
    # late observations is the mean of P(N_x > order) over every
    # observation.  The sample holds ties, a late observation past
    # rate x = 708, and one whose rate x overflows
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.gamma(2.0, 0.5, 3000), np.full(40, 0.75), [1200.0, 1e308]])
    ecdf = build_ecdf(Sample(xs))
    got = moments_empirical(ecdf, rate, order)
    with np.errstate(over="ignore"):
        ax = rate * ecdf.sorted_values
    want = math.fsum(_poisson_tails(order + 1, ax)[1].tolist()) / ax.size
    assert got.tail > 0.0
    assert abs(got.tail - want) <= 2.0**-52 * want


def test_window_tail_is_zero_when_the_loop_stops_early():
    xs = draw_samples(Exponential(1.0), 1_000, seed=5).values
    got = moments_empirical(build_ecdf(Sample(xs)), 1.0, 2_000)
    assert got.values[-1] == 0.0 and got.tail == 0.0
    # one order short of where the loop stops, the tail is still positive
    last = _last_nonzero(got.values)
    short = moments_empirical(build_ecdf(Sample(xs)), 1.0, last - 1)
    assert short.tail > 0.0


def test_a_first_late_observation_whose_rate_x_overflows_never_joins_silently():
    # every rate x is inf, so every observation is late with weight 0: no
    # inf - inf or inf / inf is formed, whose RuntimeWarning would reach
    # stderr (and is an error under this suite's settings)
    got = moments_empirical(build_ecdf(Sample([2.0, 3.0])), 1e308, 3)
    assert got.values.tolist() == [0.0] * 4 and got.tail == 1.0


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


# --------------------------------------------------- closed form per law


def _law_reference(dist, rate: float, order: int) -> np.ndarray:
    """The law's coefficients at 60 digits, from its own closed form."""
    with mpmath.workdps(60):
        a = mpmath.mpf(rate)
        if isinstance(dist, Exponential):
            m = mpmath.mpf(dist.rate)
            exact = [m * a**i / (a + m) ** (i + 1) for i in range(order + 1)]
        elif isinstance(dist, ErlangK):
            p, k = mpmath.mpf(dist.rate) / (a + dist.rate), dist.shape
            exact = [mpmath.binomial(i + k - 1, i) * p**k * (1 - p) ** i
                     for i in range(order + 1)]
        elif isinstance(dist, Deterministic):
            y = a * dist.value
            exact = [mpmath.exp(-y) * y**i / mpmath.factorial(i) for i in range(order + 1)]
        else:
            # the integral over [al, ah], with the digits that the
            # cancellation of its two tails costs (al / ln 10) on top of the 60
            al, ah = a * dist.low, a * dist.high
            with mpmath.workdps(60 + int(al / 2)):
                exact = [mpmath.gammainc(i + 1, al, ah, regularized=True) / (ah - al)
                         for i in range(order + 1)]
        return np.array([float(v) for v in exact])


@pytest.mark.parametrize("dist, rate, order", [
    (Exponential(1.3), 0.7, 400),
    (ErlangK(3, 2.0), 1.0, 400),
    (ErlangK(2, 0.3), 5.0, 600),
    (ErlangK(1000, 2.5), 2.0, 800),
    (Uniform(0.3, 1.7), 1.0, 400),
    (Uniform(0.0, 2.0), 3.0, 400),
    (Uniform(100.0, 400.0), 1.0, 500),
    # narrow laws, averaged by quadrature; the first one raised "coefficients
    # must sum to at most 1" on the gamma difference
    (Uniform(0.5, 0.5000001), 2.0, 60),
    (Uniform(0.5, 0.50001), 1.0, 400),
    (Uniform(3.0, 3.001), 5.0, 600),
    (Uniform(0.0, 0.01), 5.0, 300),
    (Uniform(50.0, 50.01), 2.0, 400),
    (Deterministic(1.5), 1.0, 400),
    (Deterministic(744.0), 1.0, 900),
    (Deterministic(800.0), 1.0, 1000),
], ids=lambda v: v.label() if hasattr(v, "label") else str(v))
def test_law_moments_match_the_60_digit_closed_form(dist, rate, order):
    got = dist.moments(rate, order)
    want = _law_reference(dist, rate, order)
    assert got.rate == rate and got.order == order
    assert np.max(np.abs(got.values - want)) <= 1e-13
    big = want >= 1e-300
    assert np.max(np.abs(got.values - want)[big] / want[big]) <= 1e-11


def test_erlang_coefficients_keep_their_relative_accuracy_at_a_large_shape():
    # a difference of log-gammas near 5,900 loses 3.1e-12 here; Loader's
    # binomial form keeps 3.5e-13
    got = ErlangK(1000, 2.5).moments(0.5, 1000).values
    want = _law_reference(ErlangK(1000, 2.5), 0.5, 1000)
    big = want >= 1e-300
    assert np.max(np.abs(got - want)[big] / want[big]) <= 5e-13


def test_narrow_uniform_coefficients_keep_their_relative_accuracy_far_from_zero():
    # the quadrature's pmf as exp(i log y - y - lgamma(i + 1)) loses 1.2e-12
    # here; Loader's form keeps 6.0e-14.  Between two finite points mpmath's
    # gammainc keeps 80 digits of the difference (against 460 digits, to 1e-81)
    orders = range(0, 1001, 5)
    got = Uniform(800.0, 801.0).moments(1.0, 1000).values[list(orders)]
    with mpmath.workdps(80):
        want = np.array([float(mpmath.gammainc(i + 1, 800, 801, regularized=True))
                         for i in orders])
    big = want >= 1e-300
    assert np.max(np.abs(got - want)[big] / want[big]) <= 2e-13


def _law_tail_reference(dist, rate: float, order: int) -> float:
    """P(N > order) for N ~ Poisson(rate S), S from the law, at 60 digits
    or more."""
    k = order + 1
    with mpmath.workdps(80):
        a = mpmath.mpf(rate)
        if isinstance(dist, Exponential):
            return float((a / (a + dist.rate)) ** k)
        if isinstance(dist, ErlangK):
            # fewer than `shape` service phases before the k-th arrival
            q = a / (a + dist.rate)
            return float(mpmath.fsum(mpmath.binomial(order + j, j) * q**k * (1 - q) ** j
                                     for j in range(dist.shape)))
        if isinstance(dist, Deterministic):
            return float(mpmath.gammainc(k, 0, a * dist.value, regularized=True))
        # the integral of P(Poisson(y) >= k) over [al, ah] is
        # [y P(k, y) - k P(k + 1, y)] between its ends, P regularized
        al, ah = a * dist.low, a * dist.high

        def antiderivative(y):
            return (y * mpmath.gammainc(k, 0, y, regularized=True)
                    - k * mpmath.gammainc(k + 1, 0, y, regularized=True))

        with mpmath.workdps(400):
            return float((antiderivative(ah) - antiderivative(al)) / (ah - al))


@pytest.mark.parametrize("dist, rate, order", [
    (Exponential(1.3), 0.7, 5),
    (Exponential(1.0), 1.5, 400),
    (ErlangK(2, 2.0), 1.5, 1),
    (ErlangK(2, 2.0), 1.5, 31),
    (ErlangK(2, 2.0), 0.5, 31),
    (ErlangK(2, 2.0), 1.0, 1000),
    (ErlangK(3, 0.3), 5.0, 20),
    (ErlangK(3, 0.3), 5.0, 60),
    (ErlangK(1000, 2.5), 2.0, 700),
    (ErlangK(1000, 2.5), 2.0, 850),
    (Deterministic(1.0), 1.5, 1),
    (Deterministic(1.0), 0.5, 31),
    (Deterministic(744.0), 1.0, 900),
    (Uniform(0.0, 2.0), 1.5, 1),
    (Uniform(0.0, 2.0), 1.5, 31),
    (Uniform(0.0, 2.0), 1.0, 1000),
    (Uniform(100.0, 400.0), 1.0, 200),
    (Uniform(100.0, 400.0), 1.0, 300),
    (Uniform(100.0, 400.0), 1.0, 500),
    (Uniform(0.5, 0.50001), 1.0, 3),
    (Uniform(3.0, 3.001), 5.0, 60),
], ids=lambda v: v.label() if hasattr(v, "label") else str(v))
def test_law_tails_match_mpmath(dist, rate, order):
    # both sides of each law's switch: a tail summed past the order, and a
    # tail of about a third or more taken as 1 minus the coefficients
    got = dist.moments(rate, order).tail
    want = _law_tail_reference(dist, rate, order)
    assert abs(got - want) <= 1e-13
    # the large-shape Erlang tail is summed from coefficients in Loader's
    # binomial form, each within a few ulps
    rel = 1e-14 if isinstance(dist, ErlangK) and dist.shape == 1000 else 1e-11
    if want >= 1e-300:
        assert abs(got - want) <= rel * want


def test_exponential_law_delegates_to_the_closed_form():
    assert Exponential(1.0).moments(1.0, 4).tail == 2.0**-5
    assert np.array_equal(Exponential(1.0).moments(1.0, 4).values, EXACT_EXPONENTIAL)
    assert np.array_equal(Exponential(2.5).moments(0.4, 30).values,
                          moments_exponential(0.4, 2.5, 30).values)


def test_erlang_one_matches_the_exponential_closed_form():
    for rate, law_rate in ((1.0, 1.0), (0.3, 2.0), (4.0, 0.5)):
        got = ErlangK(1, law_rate).moments(rate, 200).values
        want = moments_exponential(rate, law_rate, 200).values
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_deterministic_unit_service():
    # A unit point mass: coefficients are e^-a a^i / i!.
    m = Deterministic(1.0).moments(1.0, 4)
    expected = [math.exp(-1.0) / math.factorial(i) for i in range(5)]
    assert np.max(np.abs(m.values - expected)) < 1e-15


def test_erlang_law_matches_million_draw_empirical():
    d = ErlangK(2, 2.0)
    me = moments_empirical(build_ecdf(draw_samples(d, 10**6, seed=2)), 1.0, 4)
    assert np.max(np.abs(d.moments(1.0, 4).values - me.values)) < 1e-3


@pytest.mark.parametrize("dist", [Exponential(1.0), ErlangK(2, 1.0), Deterministic(1.0),
                                  Uniform(0.0, 1.0)], ids=lambda d: d.label())
def test_law_moments_validate_inputs(dist):
    with pytest.raises(ValueError, match="rate"):
        dist.moments(0.0, 2)
    with pytest.raises(ValueError, match="order"):
        dist.moments(1.0, -1)


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
    "dist",
    [Exponential(1.0), ErlangK(2, 2.0), Uniform(0.0, 2.0)],
    ids=["exponential", "erlang2", "uniform"],
)
def test_empirical_converges_to_exact_route(dist):
    n = 100_000
    s = draw_samples(dist, n, seed=13)
    ecdf = build_ecdf(s)
    me = moments_empirical(ecdf, 1.0, 4)
    diff = np.max(np.abs(me.values - dist.moments(1.0, 4).values))
    # deterministic envelope: three 95% widths at this sample size
    assert diff < 3.0 * width_for(LimitLaw.TWO_SIDED, 0.95, n)
    # sharp bound: twice the measured sup distance (plus rounding)
    d = ks_statistics(ecdf, dist.cdf).two_sided
    assert diff <= 2.0 * d + PAIR_SLACK


# ----------------------------------------- sup-distance inequality suite


def test_coefficient_differences_bounded_by_sup_distances():
    # For every CDF pair: |dr_0| <= d, |dr_i| <= 2d with the measured
    # two-sided sup distance d, and one-sidedly dr_0 <= d_plus,
    # dr_i <= d_plus + d_minus.  150 mixed pairs here; the acceptance suite
    # runs the full 500.
    for pair in random_cdf_pairs(150, seed=21):
        d_two = pair.sup_abs
        assert abs(pair.r1[0] - pair.r2[0]) <= d_two + PAIR_SLACK
        assert pair.r1[0] - pair.r2[0] <= pair.sup_forward + PAIR_SLACK
        for i in range(1, len(pair.r1)):
            assert abs(pair.r1[i] - pair.r2[i]) <= 2.0 * d_two + PAIR_SLACK
            assert (
                pair.r1[i] - pair.r2[i]
                <= pair.sup_forward + pair.sup_backward + PAIR_SLACK
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


# ------------------------------------------------------------ Poisson tails


def _poisson_tails_50_digits(k: int, y: float) -> tuple[float, float]:
    """(P(N < k), P(N >= k)) for N ~ Poisson(y) in 50-digit mpmath: the
    smaller tail as a sum of positive terms, the larger as 1 minus it."""
    if k == 0:
        return 0.0, 1.0
    with mpmath.workdps(50):
        y = mpmath.mpf(y)
        if y < k:
            term = total = mpmath.exp(-y) * y**k / mpmath.factorial(k)
            j = k
            while term > total * mpmath.mpf(10) ** -55:
                j += 1
                term *= y / j
                total += term
            return float(1 - total), float(total)
        term = total = mpmath.exp(-y)
        for j in range(1, k):
            term *= y / j
            total += term
        return float(total), float(1 - total)


def _tail_means(k: int) -> np.ndarray:
    # eleven decades, and the neighbourhood of the mean, where the two tails
    # are near 1/2 and the summed one has the most terms
    ys = list(np.logspace(-8, 3, 67))
    if k:
        root = math.sqrt(k)
        ys += [k + sign * d for d in (1.0, 3 * root, 6 * root) for sign in (-1, 1)]
    return np.array([y for y in ys if y > 0.0])


@pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 100, 1000, 1001])
def test_poisson_tails_match_50_digit_sums(k):
    ys = _tail_means(k)
    want = np.array([_poisson_tails_50_digits(k, float(y)) for y in ys]).T
    # a scalar k (the route the Erlang CDF takes) and an array of k (the
    # uniform law's route)
    for got in (_poisson_tails(k, ys), _poisson_tails(np.full(ys.size, k), ys)):
        for tail, exact in zip(got, want):
            err = np.abs(tail - exact)
            assert np.max(err) <= 1e-15
            big = exact >= 1e-300
            assert np.max(err[big] / exact[big], initial=0.0) <= 1e-12


def _tails_at(k, y) -> tuple[float, float]:
    return tuple(t.item() for t in _poisson_tails(k, y))


def test_poisson_tails_at_the_edges():
    for k in (1, 2, 3, 4, 50):
        # a scalar k up to 3 takes its own route; an array of k never does
        for ks in (k, np.array([k])):
            assert _tails_at(ks, 0.0) == (1.0, 0.0)
            assert _tails_at(ks, np.inf) == (0.0, 1.0)
            assert all(math.isnan(t) for t in _tails_at(ks, np.nan))
    # N >= 0 is certain at every mean
    for y in (0.0, 1e-300, 1.0, 1e300, np.inf):
        assert _tails_at(0, y) == _tails_at(np.array([0]), y) == (0.0, 1.0)


def test_poisson_tails_broadcast_and_keep_shapes():
    ks = np.arange(0, 40)[:, None]
    ys = np.logspace(-3, 2, 30)[None, :]
    lower, upper = _poisson_tails(ks, ys)
    assert lower.shape == upper.shape == (40, 30)
    # each element is its own: a row of the grid is the same call alone,
    # bit for bit, whichever elements share the call
    for k in (0, 1, 5, 39):
        row = _poisson_tails(np.full(30, k), ys[0])
        assert lower[k].tobytes() == row[0].tobytes()
        assert upper[k].tobytes() == row[1].tobytes()
    assert np.all(np.diff(upper, axis=1) >= 0.0)
    assert np.all(np.diff(upper, axis=0) <= 0.0)
    scalar = _poisson_tails(7, 3.5)
    assert scalar[0].shape == scalar[1].shape == ()
