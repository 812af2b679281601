"""Limit laws of the scaled sup-deviation statistics and their quantiles.

Three laws are covered: the classical Kolmogorov alternating-series law of
the two-sided statistic, the one-sided law ``1 - exp(-2 z^2)``, and the law
of the *sum* of the two one-sided statistics (the convolution of the
one-sided law with itself, in closed form).  Each law is a CDF and a
survival function, and its quantiles are found by bisection on the first
up to level 0.5 and on the second above.  :func:`width_for` turns a
quantile into the additive width ``z* / sqrt(N)`` on the moment
coefficients, a plain float; the level and the sample size stay with the
caller.
"""

from __future__ import annotations

import enum
import functools
import math
import sys

__all__ = [
    "LimitLaw",
    "kolmogorov_cdf",
    "one_sided_cdf",
    "conv_cdf",
    "quantile",
    "width_for",
]

_SERIES_TOL = 1e-17
_SMALL_Z = 0.04  # K underflows to 0 below about 0.0407
_DUAL_SWITCH = 0.75
_SERIES_Z = 0.5
_BISECT_LO, _BISECT_HI = 0.0, 10.0
_BISECT_TOL = 1e-12
_BISECT_REL = 1e-10
# quantile remembers this many (law, level) pairs
_QUANTILE_CACHE = 256


class LimitLaw(enum.Enum):
    """Which scaled statistic's limit law to use."""

    TWO_SIDED = "two-sided"
    ONE_SIDED = "one-sided"
    ONE_SIDED_SUM = "one-sided-sum"


def _alternating_tail(z: float) -> float:
    """``1 - K(z)`` from the alternating series 2 sum_j (-1)^(j+1) exp(-2 j^2 z^2),
    summed until the next term falls below 1e-17; accurate for z > 0.75."""
    total = 0.0
    sign = -1.0
    j = 1
    while True:
        term = math.exp(-2.0 * j * j * z * z)
        if term < _SERIES_TOL:
            break
        total += sign * term
        sign = -sign
        j += 1
    return -2.0 * total


def kolmogorov_cdf(z: float) -> float:
    """Limit law of the scaled two-sided statistic.

    For small z the alternating series cancels catastrophically, so a
    theta-transformed form of the same function with all-positive terms is
    summed instead: its first term is always kept, so that K keeps its
    relative accuracy down to z = 0.04, below which it underflows and is
    returned as 0 (K(0.1) is about 6.6e-53).  For larger z the alternating
    series is used.  Both branches stop at the first later term below 1e-17,
    keeping the evaluation monotone and everywhere below the one-sided law
    at float resolution.
    """
    if z <= _SMALL_Z:
        return 0.0
    if z <= _DUAL_SWITCH:
        # sqrt(2 pi)/z * sum over odd j of exp(-j^2 pi^2 / (8 z^2))
        scale = math.pi * math.pi / (8.0 * z * z)
        term = math.exp(-scale)
        total = 0.0
        j = 1
        while True:
            total += term
            j += 2
            term = math.exp(-j * j * scale)
            if term < _SERIES_TOL:
                break
        return min(1.0, max(0.0, math.sqrt(2.0 * math.pi) / z * total))
    return min(1.0, max(0.0, 1.0 - _alternating_tail(z)))


def _kolmogorov_sf(z: float) -> float:
    """``1 - K(z)``, without the cancellation of ``1 - kolmogorov_cdf(z)``
    in the upper tail."""
    if z <= _DUAL_SWITCH:
        return 1.0 - kolmogorov_cdf(z)
    return _alternating_tail(z)


def one_sided_cdf(z: float) -> float:
    """Limit law of either scaled one-sided statistic: 1 - exp(-2 z^2)."""
    if z <= 0.0:
        return 0.0
    return -math.expm1(-2.0 * z * z)


def _one_sided_sf(z: float) -> float:
    return 1.0 if z <= 0.0 else math.exp(-2.0 * z * z)


def conv_cdf(z: float) -> float:
    """Law of the sum of the two independent one-sided statistics.

    Closed form: 1 - exp(-2 z^2) - sqrt(pi) z exp(-z^2) erf(z), which is
    ``1 - _conv_sf(z)``.  Below z = 0.5 the closed form cancels (the law is
    about (2/3) z^4 near 0), so the same function is summed as the
    all-positive series exp(-w) sum_{m>=2} w^m (1/m! - 1/(2m-1)!!) in
    w = 2 z^2.
    """
    if z <= 0.0:
        return 0.0
    if z < _SERIES_Z:
        w = 2.0 * z * z
        total = 0.0
        power_over_factorial = power_over_double_factorial = w
        m = 1
        while True:
            m += 1
            power_over_factorial *= w / m
            power_over_double_factorial *= w / (2 * m - 1)
            term = power_over_factorial - power_over_double_factorial
            if term <= _SERIES_TOL * total:
                break
            total += term
        return math.exp(-w) * total
    return 1.0 - _conv_sf(z)


def _conv_sf(z: float) -> float:
    """``1 - conv_cdf(z)``: exp(-2 z^2) + sqrt(pi) z exp(-z^2) erf(z), a sum
    of positive terms."""
    return min(1.0, math.exp(-2.0 * z * z)
               + math.sqrt(math.pi) * z * math.exp(-z * z) * math.erf(z))


# each law's CDF and its survival function 1 - F, which is accurate where F
# is close to 1
_LAWS = {
    LimitLaw.TWO_SIDED: (kolmogorov_cdf, _kolmogorov_sf),
    LimitLaw.ONE_SIDED: (one_sided_cdf, _one_sided_sf),
    LimitLaw.ONE_SIDED_SUM: (conv_cdf, _conv_sf),
}


def _bisect(below, lo: float, hi: float) -> float:
    """The midpoint of the bracket that bisection narrows [lo, hi] to,
    moving ``lo`` up to each midpoint where ``below(mid)`` holds and ``hi``
    down to the others, until the bracket is within 1e-12 and within 1e-10
    of ``hi`` (the relative bound decides only below about 0.006)."""
    while hi - lo > _BISECT_TOL or hi - lo > _BISECT_REL * hi:
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=_QUANTILE_CACHE)
def quantile(law: LimitLaw, p: float) -> float:
    """Solve law(z*) = p by bisection on [0, 10], to a 1e-12 bracket and a
    relative 1e-10 one.  Above p = 0.5 the bisection compares the survival
    function with 1 - p, which is exact there, so that levels close to 1
    keep their relative accuracy.  Results are memoised, so that each
    interval table reuses its levels' quantiles; an invalid level raises on
    every call."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must lie strictly between 0 and 1")
    cdf, sf = _LAWS[law]
    if p <= 0.5:
        return _bisect(lambda z: cdf(z) < p, _BISECT_LO, _BISECT_HI)
    q = 1.0 - p
    return _bisect(lambda z: sf(z) > q, _BISECT_LO, _BISECT_HI)


def width_for(law: LimitLaw, confidence: float, n_obs: int) -> float:
    """The additive width z*/sqrt(n_obs) of ``law`` at a confidence level."""
    if n_obs < 1:
        raise ValueError("n_obs must be at least 1")
    if n_obs > sys.float_info.max:
        raise ValueError("n_obs is too large to convert to a float")
    return quantile(law, confidence) / math.sqrt(n_obs)
