"""Poisson-weighted moment coefficients of a holding-time distribution.

The coefficient of order i is the integral of ``exp(-a x) (a x)^i / i!``
against the distribution of the holding time (service or interarrival),
where ``a`` is the opposing flow's rate.  These coefficients drive the
convolution recursion for finite-buffer characteristics.  This module
holds the exact atomic sum over an empirical CDF and the closed form for
exponential holding times; each law in :mod:`lossq.simulate` gives its own
closed form as ``law.moments(rate, order)``.
"""

from __future__ import annotations

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
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)


@dataclass(frozen=True, eq=False)
class MomentVector:
    """Coefficients r_0..r_m at a given weighting rate."""

    rate: float
    values: np.ndarray

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty 1-D collection")
        if np.any(arr < -_SUM_TOL) or np.any(arr > 1.0 + _SUM_TOL):
            raise ValueError("each coefficient must lie in [0, 1]")
        if float(arr.sum()) > 1.0 + _SUM_TOL:
            raise ValueError("coefficients must sum to at most 1")
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def order(self) -> int:
        return int(self.values.size - 1)


def moments_empirical(ecdf: EmpiricalCdf, rate: float, order: int) -> MomentVector:
    """Exact atomic sums over an empirical CDF.

    Each observation x contributes weight ``exp(-rate x) (rate x)^i / i!``
    divided by the number of observations N; successive orders update the
    weights in place by the recurrence w_{i+1} = w_i * (rate x) / (i + 1).

    r_0 is the mean of all N weights.  Higher orders sum an active window
    of the sorted observations.  An observation whose ``exp(-rate x)`` is
    below the smallest normal double (``rate x`` above about 708) joins the
    window at the first order whose log weight
    ``i log(rate x) - rate x - lgamma(i + 1)`` is normal, as in Fox & Glynn
    (1988), so that no weight is built from a subnormal or zero start.
    After each order the window drops its leading run of weights below
    ``2^-53 w(x_max) / N``, where x_max is the largest observation in the
    window; observations at ``rate x = 0`` go at order 1.  For x < x_max
    the ratio w_i(x) / w_i(x_max) falls as i grows, so a dropped weight
    stays below that cut at every later order, and the mass dropped from
    any r_j is at most ``2^-53 r_j``.  Once every weight in the window is 0
    and no observation is left to join, all higher coefficients are exactly
    0 and the loop stops.
    """
    _check_rate_order(rate, order)
    # a product past the largest double is inf, whose weight is 0 at every
    # order: the limit of the Poisson pmf as its mean grows
    with np.errstate(over="ignore"):
        ax = rate * ecdf.sorted_values
    n = ax.size
    w = np.negative(ax)
    np.exp(w, out=w)
    out = np.zeros(order + 1)
    out[0] = w.mean()
    # w is nonincreasing along the sorted observations, so the weights below
    # the smallest normal double are a trailing run, which joins in order
    lo, hi = 0, n - int(np.searchsorted(w[::-1], _TINY))
    for i in range(1, order + 1):
        window = w[lo:hi]
        np.multiply(window, ax[lo:hi], out=window)
        np.divide(window, i, out=window)
        if hi < n:
            joined, log_fact = hi, math.lgamma(i + 1)
            while hi < n and i * math.log(ax[hi]) - ax[hi] - log_fact >= _LOG_TINY:
                hi += 1
            new = ax[joined:hi]
            w[joined:hi] = np.exp(i * np.log(new) - new - log_fact)
            window = w[lo:hi]
        total = np.add.reduce(window)
        out[i] = total / n
        # a sum of non-negative weights is 0 only if every weight is 0
        if total == 0.0:
            if hi == n:
                break
            lo = hi
            continue
        cut = _WINDOW_CUT * window[-1] / n
        if window[0] < cut:
            # the last weight is never below the cut, so argmax finds one
            lo += int(np.argmax(window >= cut))
    return MomentVector(rate=rate, values=out)


def moments_exponential(rate: float, service_rate: float, order: int) -> MomentVector:
    """Closed form for an exponential holding-time law.

    ``service_rate`` is the rate of the exponential law being weighted (the
    service law when weighting by arrivals; the interarrival law when
    weighting by services).  With weighting rate a and law rate m, the
    order-i coefficient is ``m a^i / (a + m)^(i+1)`` — a geometric
    sequence, computed stably as ``(m / (a + m)) * (a / (a + m))^i``.
    """
    _check_rate_order(rate, order)
    check_positive("service_rate", service_rate)
    base = service_rate / (rate + service_rate)
    ratio = rate / (rate + service_rate)
    out = base * ratio ** np.arange(order + 1, dtype=float)
    return MomentVector(rate=rate, values=out)


def _check_rate_order(rate: float, order: int) -> None:
    check_positive("rate", rate)
    if order < 0:
        raise ValueError("order must be non-negative")
