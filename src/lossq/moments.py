"""Poisson-weighted moment coefficients of a holding-time distribution.

The coefficient of order i is the integral of ``exp(-a x) (a x)^i / i!``
against the distribution of the holding time (service or interarrival),
where ``a`` is the opposing flow's rate.  These coefficients drive the
convolution recursion for finite-buffer characteristics.  This module
holds the exact atomic sum over an empirical CDF, the closed form for
exponential holding times, and the Poisson tail probabilities that the
other laws' closed forms (and the Erlang CDF) are made of; each law in
:mod:`lossq.simulate` gives its own closed form as
``law.moments(rate, order)``.

The atomic sum streams each pass over the sample in leaves of at most
2^15 observations, split as NumPy's pairwise sum splits an array and added
up in the same tree, so its sums keep the bits of whole-array sums.  It
holds, beyond the sorted sample, only the weights of the window of
observations that the first 32 orders leave active, and a few leaves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ecdf import EmpiricalCdf
from .errors import check_positive

__all__ = [
    "MomentVector",
    "moments_empirical",
    "moments_exponential",
]

_SUM_TOL = 1e-9
# relative size, against the weight at the window's largest observation,
# below which moments_empirical drops a weight: one unit in the last place
_WINDOW_CUT = 2.0**-53
# moments_empirical runs orders 1-32, 33-64, ... as blocks on unnormalised
# weights, keeping a block's rows in one buffer of this many doubles when
# they fit and updating the window in place otherwise
_BLOCK = 32
_BLOCK_BUFFER = 2**15
# a window of at most this many observations fills its block's rows with one
# accumulate along the orders, which is faster there than a call per row
_ACCUMULATE_WINDOW = 128
# moments_empirical takes each pass over a window in leaves of at most this
# many observations, split as NumPy's pairwise sum splits the window; at
# least 128, the longest run NumPy sums without halving it
_LEAF = 2**15
# the tail's Poisson tails and the late observations' pmf run over chunks of
# this many observations, which bounds their temporaries; each element's
# value is computed on its own (the tails summed exactly), so the chunks do
# not change a bit
_TAIL_CHUNK = 2**13
_TINY = np.finfo(float).tiny
_HALF_ULP = 2.0**-53
# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n/e)^n) at n = 0..15, where its
# asymptotic series is not yet accurate (Loader 2000, to 25 digits)
_STIRLERR = np.array([
    0.0, 0.08106146679532725822, 0.04134069595540929409, 0.02767792568499833915,
    0.02079067210376509311, 0.01664469118982119216, 0.01387612882307074800,
    0.01189670994589177010, 0.01041126526197209650, 0.009255462182712732918,
    0.008330563433362871256, 0.007573675487951840795, 0.006942840107209529866,
    0.006408994188004207068, 0.005951370112758847736, 0.005554733551962801371,
])
# bd0's series in v^2 with |v| < 0.1: the ninth term is below 2^-60 of the sum
_BD0_TERMS = 8
# a scalar k up to this takes P(N < k) as e^-y times its k-term polynomial
# (exp(-y) is still normal wherever that tail is above 1e-300) and sums
# P(N >= k) only where P(N < k) is above _POLY_CUT; elsewhere 1 - P(N < k)
# loses at most log2(_POLY_CUT / (1 - _POLY_CUT)) bits
_POLY_SHAPES = 3
_POLY_CUT = 0.9
_POLY_TERMS = 18
# _ratio_series checks which elements are done once every this many terms
_SERIES_STRIDE = 8


@dataclass(frozen=True, eq=False)
class MomentVector:
    """Coefficients r_0..r_m at a given weighting rate, and ``tail``, the
    mass beyond the last order, P(N > m) = sum_{i > m} r_i.

    Without a ``tail`` the coefficients are taken to sum to 1, so the tail
    is ``max(0, 1 - fsum(values))``: the assumption the paper's recursion
    makes through its ``1 - r_1``.  That difference loses the tail's digits
    when it is small, so each route that knows its tail passes it.
    """

    rate: float
    values: np.ndarray
    tail: float | None = None

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty 1-D collection")
        # written so that a NaN coefficient fails too
        if not np.all((arr >= -_SUM_TOL) & (arr <= 1.0 + _SUM_TOL)):
            raise ValueError("each coefficient must lie in [0, 1]")
        if self.tail is None:
            total = math.fsum(arr.tolist())
            tail = max(0.0, 1.0 - total)
        else:
            total, tail = float(arr.sum()), float(self.tail)
            # written so that a NaN tail fails too
            if not 0.0 <= tail <= 1.0:
                raise ValueError("tail must lie in [0, 1]")
        if total + tail > 1.0 + _SUM_TOL:
            raise ValueError("coefficients and tail must sum to at most 1")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "tail", tail)

    @property
    def order(self) -> int:
        return int(self.values.size - 1)


def moments_empirical(ecdf: EmpiricalCdf, rate: float, order: int) -> MomentVector:
    """Exact atomic sums over an empirical CDF.

    Each observation x contributes weight
    ``w_i(x) = exp(-rate x) (rate x)^i / i!`` divided by the number of
    observations N.  r_0 is the mean of all N weights.

    Higher orders sum an active window of the sorted observations in fixed
    blocks of 32 orders: 1-32, 33-64, and so on.  Within a block from order
    i0 the weights are kept unnormalised, with one product
    ``u <- u (rate x)`` per order, so that at order i each u is
    ``w_i(x) P_i`` with ``P_i = i0 (i0 + 1) ... i``; r_i is the row sum
    divided by P_i and then by N.  At the block's end the weights are
    divided by its last P once.  u never exceeds P_i, and a product of at
    most 32 orders below about 2^31 is below 2^992, so neither overflows:
    ``out``'s allocation already keeps the order below 2^31, and no window
    observation's ``rate x`` is above about 708.  A block whose window has
    at most ``2^15 / 32`` observations writes its rows into one reused
    buffer and sums them in one reduction; a wider window is updated in
    place and summed once per order.  Both take the same products and the
    same pairwise sums, so they give the same bits.

    Every pass over a whole window runs over leaves of at most ``2^15``
    observations: r_0 and the late boundary, each block, and the tail.
    The leaves are those of NumPy's pairwise sum, which halves a run of
    more than 128, rounding the left part down to a multiple of 8, so the
    leaves' sums added up in the same tree (``_pairwise``) have the bits
    of one ``np.add.reduce`` over the window; a window of at most 2^15
    observations is one leaf.  The first block takes ``rate x`` and the
    weights from the sorted values a leaf at a time, and keeps the weights
    of the window that survives it only when another block follows.  A
    window in one leaf keeps its ``rate x`` too; a wider one takes it
    again from the sorted values a leaf at a time, the same products.
    Beyond the sorted sample the call holds the surviving window's weights,
    at most one more copy of the sample and often far less, and a few
    leaves.

    After each block the window drops its leading run of weights below
    ``2^-53 w(x_max) / N``, where x_max is the largest observation in the
    window; observations at ``rate x = 0`` go after the first block.  The
    ratio u(x) / u(x_max) is w_i(x) / w_i(x_max), which for x < x_max falls
    as i grows, so a dropped weight stays below that cut at every later
    order, and the mass dropped from any r_j is at most ``2^-53 r_j``.
    Once every weight in the window is 0, all its higher sums are exactly 0
    and the loop stops; the window's tail beyond the order is then 0 too.

    A late observation, whose ``exp(-rate x)`` is below the smallest normal
    double (``rate x`` above about 708), never enters the window: after the
    loop its weights at orders 1..order are added in one step from Loader's
    pmf at the order nearest its mean (``_late_sums``).  The tail is the
    mean of the upper Poisson tails P(N_x > order) over the last window and
    the late observations, one exact ``math.fsum`` over every chunk's of
    ``2^13`` observations, so that their temporaries stay small.  The
    observations the window dropped sit below its cut at every order, so
    the tail they leave out is bounded as each r_j's is.
    """
    _check_rate_order(rate, order)
    x = ecdf.sorted_values
    n = x.size
    out = np.zeros(order + 1)
    parts, late = [], 0
    for a, b in _leaves(n):
        w, ax = _weights(rate, x[a:b])
        parts.append(np.add.reduce(w))
        # w is nonincreasing along the sorted observations, so the late
        # weights, those below the smallest normal double, are a trailing run
        late += int(np.searchsorted(w[::-1], _TINY))
    out[0] = _pairwise(parts, n) / n
    hi = n - late
    # the last leaf's weights and rate x serve the first block's leaves
    # that lie inside it
    stash = a, w, ax
    # the window is lo..hi; after the first block its weights are held from
    # lo on, and its rate x too (axw) only when it lies in one leaf
    lo, window, axw, buf = 0, None, None, None

    def leaf(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        if window is not None:
            if axw is None:
                return window[a:b], rate * x[lo + a:lo + b]
            return window[a:b], axw[a:b]
        start, w, ax = stash
        if start <= a and b - start <= w.size:
            return w[a - start:b - start], ax[a - start:b - start]
        return _weights(rate, x[a:b])

    for i in range(1, order + 1, _BLOCK):
        # an empty first window: every observation is late
        if lo == hi:
            break
        # orders i..end on unnormalised weights, each row sum divided by
        # i (i + 1) ... (its order) and then by N
        end = min(order, i + _BLOCK - 1)
        facts = np.multiply.accumulate(np.arange(i, end + 1, dtype=float))
        bounds = _leaves(hi - lo)
        narrow = (hi - lo) * _BLOCK <= _BLOCK_BUFFER
        if narrow and buf is None:
            buf = np.empty(_BLOCK_BUFFER)
        # the last leaf first, whose last weight sets the cut
        last = bounds[-1][0]
        w_last, ax_last = leaf(last, hi - lo)
        sums_last = _block_sums(w_last, ax_last, facts, buf if narrow else None)
        cut = _WINDOW_CUT * w_last[-1] / n
        # the first block copies the weights from the first one at or above
        # the cut when that is not in the last leaf and another block follows
        copy = window is None and end < order
        parts, first = [], None
        for a, b in bounds[:-1]:
            w, ax = leaf(a, b)
            parts.append(_block_sums(w, ax, facts, None))
            if first is None and (j := _first_at_least(w, cut)) < w.size:
                first = a + j
                if copy:
                    kept = np.empty(hi - lo - first)
            if copy and first is not None:
                kept[max(a, first) - first:b - first] = w[max(a, first) - a:]
        parts.append(sums_last)
        if first is None:
            # the last weight is never below the cut
            first = last + _first_at_least(w_last, cut)
        sums = _pairwise(parts, hi - lo)
        np.divide(sums, facts, out=sums)
        np.divide(sums, n, out=out[i:end + 1])
        # a sum of non-negative weights is 0 only if every weight is 0
        if sums[-1] == 0.0:
            lo = hi
            break
        if first >= last:
            window, axw = w_last[first - last:], ax_last[first - last:]
        elif window is not None:
            # a window wider than a leaf, so axw is None
            window = window[first:]
        elif copy:
            kept[last - first:] = w_last
            window = kept
        lo += first
        stash = None
    # the weights and every view of them are released first, so that the
    # late sums' and the tails' temporaries can reuse their memory
    stash = window = axw = buf = w = ax = w_last = ax_last = kept = None
    if hi < n:
        out += _late_sums(_scaled(rate, x[hi:]), order) / n
    tail = 0.0
    if lo < n:
        tails = (_poisson_tails(order + 1, _scaled(rate, x[a:a + _TAIL_CHUNK]))[1].tolist()
                 for a in range(lo, n, _TAIL_CHUNK))
        tail = math.fsum(itertools.chain.from_iterable(tails)) / n
    return MomentVector(rate=rate, values=out, tail=tail)


def _scaled(rate: float, x: np.ndarray) -> np.ndarray:
    """``rate x``; a product past the largest double is inf, whose weight
    is 0 at every order: the limit of the Poisson pmf as its mean grows."""
    with np.errstate(over="ignore"):
        return rate * x


def _weights(rate: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights ``exp(-rate x)`` and ``rate x``."""
    ax = _scaled(rate, x)
    w = np.negative(ax)
    np.exp(w, out=w)
    return w, ax


def _first_at_least(w: np.ndarray, cut: float) -> int:
    """The index of the first weight at or above ``cut``, or ``w.size``."""
    if w[0] >= cut:
        return 0
    above = w >= cut
    j = int(above.argmax())
    return j if above[j] else w.size


def _leaves(size: int) -> list[tuple[int, int]]:
    """The runs ``(a, b)`` of at most ``_LEAF`` items, in order, that
    NumPy's pairwise sum of ``size`` items splits them into: it halves a
    longer run, rounding the left part down to a multiple of 8."""
    if size <= _LEAF:
        return [(0, size)]
    half = size // 2 - size // 2 % 8
    return _leaves(half) + [(a + half, b + half) for a, b in _leaves(size - half)]


def _pairwise(parts: list, size: int):
    """The sums ``parts`` over ``_leaves(size)`` added up as NumPy's
    pairwise sum adds its halves: the same bits as one sum over all."""
    if size <= _LEAF:
        return parts[0]
    leaves = iter(parts)

    def total(size: int):
        if size <= _LEAF:
            return next(leaves)
        half = size // 2 - size // 2 % 8
        return total(half) + total(size - half)

    return total(size)


def _block_sums(window: np.ndarray, axw: np.ndarray, facts: np.ndarray,
                buf: np.ndarray | None) -> np.ndarray:
    """Row sums of one block's orders over the window, for weights
    u <- u (rate x) once per order; the window is left at the block's last
    order, divided by the last running product in ``facts``.  The rows go
    into ``buf`` when one is given, and otherwise the window is updated in
    place, one sum per order."""
    count = facts.size
    if buf is not None:
        rows = buf[:count * window.size].reshape(count, window.size)
        np.multiply(window, axw, out=rows[0])
        if window.size <= _ACCUMULATE_WINDOW:
            # the same products, row after row, in three calls
            rows[1:] = axw
            np.multiply.accumulate(rows, axis=0, out=rows)
        else:
            for k in range(1, count):
                np.multiply(rows[k - 1], axw, out=rows[k])
        sums = np.add.reduce(rows, axis=1)
        last = rows[-1]
    else:
        sums = np.zeros(count)
        for k in range(count):
            np.multiply(window, axw, out=window)
            sums[k] = np.add.reduce(window)
            # every row after an all-zero row is 0 too
            if sums[k] == 0.0:
                break
        last = window
    np.divide(last, facts[-1], out=window)
    return sums


def _late_sums(a: np.ndarray, order: int) -> np.ndarray:
    """Sums of the weights ``exp(-a) a^i / i!`` over ascending ``a = rate x``
    at orders 0..order, with 0 at order 0, whose weights the caller has.

    Each weight starts from ``_poisson_pmf`` at m, the order nearest a, and
    steps ``w <- (w a) / (i + 1)`` upward and ``w <- (w i) / a`` downward.
    The pmf is largest at m, so every weight shrinks away from it: none
    overflows and none starts subnormal.  Each step adds two roundings, so
    a weight is within ``2 |i - m|`` ulps plus the pmf's few; both fall on
    w's own bits, so they add up as a random walk, not one way.  (A factor
    ``i / a`` rounded first would repeat its rounding pattern along i and
    can drift by half an ulp a step; a pmf taken far below m keeps its
    exponent's rounding, hundreds of ulps.)  The weights rise up to m, so
    an observation whose pmf at the order is 0, or whose a is infinite,
    adds nothing up to the order and takes no steps.
    """
    # a is ascending, so its finite values are a prefix
    a = a[:np.searchsorted(a, math.inf)]
    kept = np.empty(a.size, dtype=bool)
    for c in range(0, a.size, _TAIL_CHUNK):
        part = a[c:c + _TAIL_CHUNK]
        kept[c:c + _TAIL_CHUNK] = _poisson_pmf(np.minimum(np.rint(part), order), part) > 0.0
    a = a[kept]
    if not (a.size and order):
        return np.zeros(order + 1)
    m = np.rint(a)
    pmf = np.empty(a.size)
    for c in range(0, a.size, _TAIL_CHUNK):
        pmf[c:c + _TAIL_CHUNK] = _poisson_pmf(m[c:c + _TAIL_CHUNK], a[c:c + _TAIL_CHUNK])
    # the steps down start at the largest m, past the order if it is larger
    sums = np.zeros(max(order, int(m[-1])) + 1)
    # m is nondecreasing, so the weights at orders at or below their m are a
    # suffix of a and those above it a prefix, both split at first[i]
    first = np.searchsorted(m, np.arange(sums.size))
    w = np.empty(a.size)
    top = a.size
    for i in range(sums.size - 1, 0, -1):
        start = first[i]
        w[top:] *= i + 1
        w[top:] /= a[top:]
        w[start:top] = pmf[start:top]
        top = start
        sums[i] = np.add.reduce(w[start:])
    w = pmf
    for i in range(int(m[0]) + 1, order + 1):
        below = first[i]
        w[:below] *= a[:below]
        w[:below] /= i
        sums[i] += np.add.reduce(w[:below])
        # past the largest m every weight steps upward, and a row of zeros
        # stays zero
        if below == a.size and sums[i] == 0.0:
            break
    return sums[:order + 1]


def moments_exponential(rate: float, service_rate: float, order: int) -> MomentVector:
    """Closed form for an exponential holding-time law.

    ``service_rate`` is the rate of the exponential law being weighted (the
    service law when weighting by arrivals; the interarrival law when
    weighting by services).  With weighting rate a and law rate m, the
    order-i coefficient is ``m a^i / (a + m)^(i+1)`` — a geometric
    sequence, computed stably as ``(m / (a + m)) * (a / (a + m))^i``; the
    tail beyond order n is ``(a / (a + m))^(n+1)``.
    """
    _check_rate_order(rate, order)
    check_positive("service_rate", service_rate)
    base = service_rate / (rate + service_rate)
    ratio = rate / (rate + service_rate)
    out = base * ratio ** np.arange(order + 1, dtype=float)
    return MomentVector(rate=rate, values=out, tail=ratio ** (order + 1))


def _check_rate_order(rate: float, order: int) -> None:
    check_positive("rate", rate)
    if order < 0:
        raise ValueError("order must be non-negative")


def _poisson_tails(k, y) -> tuple[np.ndarray, np.ndarray]:
    """Both tails of N ~ Poisson(y), ``(P(N < k), P(N >= k))``, broadcast
    over integers k >= 0 and means y in [0, inf]; a NaN mean gives NaN.

    The smaller tail is summed with positive terms and the larger one is 1
    minus it, so both are accurate in relative terms.  Below y = k that is
    the upper tail, ``pmf(k) (1 + y/(k+1) + y^2/((k+1)(k+2)) + ...)``; from
    y = k on the lower one, ``pmf(k-1) (1 + (k-1)/y + (k-1)(k-2)/y^2 +
    ...)``.  The pmf is Loader's saddle-point form (``_poisson_pmf``).  A
    scalar k of at most ``_POLY_SHAPES`` takes a cheaper route: P(N < k)
    is ``e^-y (1 + y + ... + y^(k-1)/(k-1)!)``, and the upper tail is
    summed only where P(N < k) is above ``_POLY_CUT``.
    """
    y = np.asarray(y, dtype=float)
    if np.ndim(k) == 0 and k <= _POLY_SHAPES:
        lower, upper = _small_k_tails(int(k), y.ravel())
        return lower.reshape(y.shape), upper.reshape(y.shape)
    k, y = np.broadcast_arrays(np.asarray(k, dtype=float), y)
    shape, k, y = k.shape, k.ravel(), y.ravel()
    lower = np.full(k.shape, np.nan)
    upper = np.full(k.shape, np.nan)
    sure = (k == 0.0) | (y == np.inf)
    lower[sure], upper[sure] = 0.0, 1.0
    empty = (k > 0.0) & (y == 0.0)
    lower[empty], upper[empty] = 1.0, 0.0
    inside = (k > 0.0) & (y > 0.0) & (y < np.inf)
    up, down = inside & (y < k), inside & (y >= k)
    ks, ys = k[up], y[up]
    upper[up] = _poisson_pmf(ks, ys) * _ratio_series(ys, 0.0, ks + 1.0, 1.0)
    lower[up] = 1.0 - upper[up]
    ks, ys = k[down], y[down]
    lower[down] = _poisson_pmf(ks - 1.0, ys) * _ratio_series(ks - 1.0, -1.0, ys, 0.0)
    upper[down] = 1.0 - lower[down]
    return lower.reshape(shape), upper.reshape(shape)


def _small_k_tails(k: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if k == 0:
        return np.zeros(y.shape), np.ones(y.shape)
    # past y = 1000 the factor e^-y is 0, so the clipped polynomial changes
    # nothing there and keeps 0 * inf out at y = inf
    lower = _horner([1.0 / math.factorial(j) for j in range(k)], np.minimum(y, 1e3))
    lower *= np.exp(-y)
    upper = 1.0 - lower
    near = lower > _POLY_CUT
    ys = y[near]
    # e^-y y^k / k! times sum_m y^m k! / (k+m)!, whose terms after
    # _POLY_TERMS are below 2^-60 of the sum where P(N < k) > _POLY_CUT
    scale = [1.0 / math.prod(range(k + 1, k + m + 1)) for m in range(_POLY_TERMS)]
    upper[near] = np.exp(-ys) * ys**k / math.factorial(k) * _horner(scale, ys)
    return lower, upper


def _horner(coefs: list[float], z: np.ndarray) -> np.ndarray:
    """sum_j coefs[j] z^j, elementwise."""
    acc = np.full(z.shape, coefs[-1])
    for c in coefs[-2::-1]:
        acc *= z
        acc += c
    return acc


def _ratio_series(num, num_step: float, den, den_step: float) -> np.ndarray:
    """Elementwise sum over m >= 0 of the product of the first m factors
    ``(num + j num_step) / (den + j den_step)``, j = 0, 1, ...  The factors
    must fall with j and lie in [0, 1) until one is 0.  An element is done
    once the geometric bound on the rest of its sum, ``term r / (1 - r)`` at
    the next factor r, is below half an ulp of the sum.  That is checked
    every ``_SERIES_STRIDE`` terms, and the done elements are dropped once
    they are half of those left."""
    num, den = (np.array(a, dtype=float) for a in np.broadcast_arrays(num, den))
    total = np.empty(num.shape)
    index = np.arange(num.size)
    term, acc = np.ones(num.shape), np.ones(num.shape)
    ratio = num / den
    while index.size:
        going = term * ratio > _HALF_ULP * acc * (1.0 - ratio)
        # a done element adds only zeros from here, so its sum does not
        # depend on when the others let it be dropped
        term *= going
        if 2 * np.count_nonzero(going) <= going.size:
            total[index] = acc
            index, term, acc, ratio, num, den = (
                a[going] for a in (index, term, acc, ratio, num, den))
        for _ in range(_SERIES_STRIDE):
            term *= ratio
            acc += term
            if num_step:
                num += num_step
            if den_step:
                den += den_step
            np.divide(num, den, out=ratio)
    return total


def _poisson_pmf(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """P(N = x) for N ~ Poisson(y), at integers x >= 0 and finite y >= 0.

    For x >= 1 this is Loader's (2000) ``exp(-stirlerr(x) - bd0(x, y)) /
    sqrt(2 pi x)``: both terms of the exponent are small where the pmf is
    not, so its relative error stays a few ulps at every x, where
    ``exp(x log y - y - lgamma(x + 1))`` loses about x log y ulps.
    """
    out = np.exp(-y)
    pos = x > 0.0
    xs = x[pos]
    # y far below x (x / y past the largest double, or y = 0) makes bd0
    # inf: pmf 0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-_stirlerr(xs) - _bd0(xs, y[pos])) / np.sqrt(2.0 * math.pi * xs)
    return out


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) at integers n >= 1: tabled up to
    15, Stirling's series beyond."""
    nn = n * n
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    small = n <= 15.0
    out[small] = _STIRLERR[n[small].astype(np.intp)]
    return out


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``x log(x/m) + m - x`` for x, m > 0, by its series in
    v = (x - m)/(x + m) where |v| < 0.1, so that it keeps its relative
    accuracy as x nears m (Loader 2000)."""
    d = x - m
    out = x * np.log(x / m) - d
    near = np.abs(d) < 0.1 * (x + m)
    d, xn = d[near], x[near]
    v = d / (xn + m[near])
    acc = d * v
    odd = 2.0 * xn * v
    v *= v
    for j in range(1, _BD0_TERMS + 1):
        odd *= v
        acc += odd / (2 * j + 1)
    out[near] = acc
    return out
