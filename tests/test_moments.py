"""Poisson-weighted moment coefficients: the empirical kernel, the closed
form of each law, and their sup-distance bounds."""

import math

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


def _exact_sums(xs: np.ndarray, rate: float, order: int) -> np.ndarray:
    """The weights of :func:`_full_array_moments`, each order summed exactly
    by ``math.fsum`` and then divided by N."""
    ax = rate * xs
    w = np.exp(-ax)
    out = np.zeros(order + 1)
    out[0] = math.fsum(w.tolist()) / xs.size
    for i in range(1, order + 1):
        w = w * ax / i
        if not w.any():
            break
        out[i] = math.fsum(w.tolist()) / xs.size
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
# full-array loop 3 ulp: both within the pairwise-summation bound
@example(n=307, low=0.0, decades=3.625, ties=True, rate=40.0, order=478, seed=26491)
# one observation at rate x = 400: the coefficients sum to 1 + 9 ulp
@example(n=1, low=1.0, decades=0.0, ties=False, rate=40.0, order=571, seed=0)
def test_windowed_sums_match_the_full_array_loop(n, low, decades, ties, rate, order, seed):
    # Both loops sum bit-identical weights, in different orders and the
    # kernel over a window; each lies within NumPy's pairwise-summation
    # error of the exact sum (plus the division by N and a margin for
    # second-order terms), the kernel also within the 2^-53 r_j its window
    # cut may drop.
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
    # the rounding of its exp and of two operations per order, the kernel's
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
def test_late_observations_join_at_their_first_normal_weight(xs):
    # exp(-rate x) is subnormal above rate x ~ 708 and 0 above ~ 745; such
    # observations must still carry their full weight at orders near rate x
    got = moments_empirical(build_ecdf(Sample(xs)), 1.0, 1_000).values
    want = _poisson_mixture(xs, 1.0, 1_000)
    assert np.max(np.abs(got - want)) <= 1e-13
    big = want >= 1e-300
    assert np.max(np.abs(got - want)[big] / want[big]) <= 1e-11
    # a weight that joins from its log carries that log's rounding, about
    # 708 * 2^-53 relative, and passes it on to all its later orders
    assert float(got.sum()) <= 1.0 + 2e-13


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


def test_exponential_law_delegates_to_the_closed_form():
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
    assert diff < 3.0 * width_for(LimitLaw.TWO_SIDED, 0.95, n).width
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
