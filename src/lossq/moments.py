"""Poisson-weighted moment coefficients of a holding-time distribution.

The coefficient of order i is the integral of ``exp(-a x) (a x)^i / i!``
against the distribution of the holding time (service or interarrival),
where ``a`` is the opposing flow's rate.  These coefficients drive the
convolution recursion for finite-buffer characteristics.  Three routes are
provided: an exact atomic sum over an empirical CDF, a closed form for
exponential holding times, and adaptive quadrature against an arbitrary
continuous CDF via integration by parts.

The empirical route starts from ``exp(-a x)``, which underflows to 0 for
``a x`` above about 745 (and is subnormal, with fewer significant bits,
above about 708).  Such observations then add nothing to any coefficient,
although their true weights at orders near ``a x`` are not negligible; a
log-space kernel is an open item (ROADMAP item 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ecdf import EmpiricalCdf
from .errors import NumericError

__all__ = [
    "MomentVector",
    "moments_empirical",
    "moments_exponential",
    "moments_quadrature",
]

_SUM_TOL = 1e-9
_TAIL_EPS = 1e-10
_QUAD_TOL = 1e-12
# relative size, against the weight at the window's largest observation,
# below which moments_empirical drops a weight: one unit in the last place
_WINDOW_CUT = 2.0**-53


@dataclass(frozen=True, eq=False)
class MomentVector:
    """Coefficients r_0..r_m at a given weighting rate."""

    rate: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.rate <= 0.0 or not math.isfinite(self.rate):
            raise ValueError("rate must be positive and finite")
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
    of the sorted observations.  It starts without the observations whose
    ``exp(-rate x)`` underflowed to 0.  After each order the window drops
    its leading run of weights below ``2^-53 w(x_max) / N``, where x_max is
    the largest observation in the window; observations at ``rate x = 0``
    go at order 1.  For x < x_max the ratio w_i(x) / w_i(x_max) falls as i
    grows, so a dropped weight stays below that cut at every later order,
    and the mass dropped from any r_j is at most ``2^-53 r_j``.  Once every
    weight in the window is 0, all higher coefficients are exactly 0 and
    the loop stops.
    """
    _check_rate_order(rate, order)
    ax = rate * ecdf.sorted_values
    n = ax.size
    w = np.exp(-ax)
    out = np.zeros(order + 1)
    out[0] = w.mean()
    # w is nonincreasing along the sorted observations, so its zeros from
    # exp underflow are a trailing run; the cut needs w(x_max) > 0
    lo, hi = 0, n - int(np.searchsorted(w[::-1], 0.0, side="right"))
    for i in range(1, order + 1):
        window = w[lo:hi]
        np.multiply(window, ax[lo:hi], out=window)
        np.divide(window, i, out=window)
        total = np.add.reduce(window)
        out[i] = total / n
        # a sum of non-negative weights is 0 only if every weight is 0
        if total == 0.0:
            break
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
    if service_rate <= 0.0 or not math.isfinite(service_rate):
        raise ValueError("service_rate must be positive and finite")
    base = service_rate / (rate + service_rate)
    ratio = rate / (rate + service_rate)
    out = base * ratio ** np.arange(order + 1, dtype=float)
    return MomentVector(rate=rate, values=out)


def moments_quadrature(cdf: Callable, rate: float, order: int) -> MomentVector:
    """Adaptive quadrature against an arbitrary continuous CDF.

    Integration by parts converts each coefficient into integrals of
    ``rate exp(-rate x) (rate x)^i / i! F(x)``: writing J_i for that
    integral, r_0 = J_0 and r_i = J_i - J_{i-1}.  The upper limit is chosen
    so that both the CDF tail (below 1e-10) and the Poisson kernel beyond
    it are negligible for every requested order.  A quadrature warning with
    error estimate above 1e-9 raises :class:`NumericError`.
    """
    _check_rate_order(rate, order)
    upper = _truncation_point(cdf, rate, order)
    j_values = np.empty(order + 1)
    for i in range(order + 1):
        j_values[i] = _by_parts_integral(cdf, rate, i, upper)
    out = np.empty(order + 1)
    out[0] = j_values[0]
    out[1:] = np.diff(j_values)
    # quadrature noise can leave coefficients a hair outside [0, 1]
    out = np.clip(out, 0.0, 1.0)
    return MomentVector(rate=rate, values=out)


def _check_rate_order(rate: float, order: int) -> None:
    if rate <= 0.0 or not math.isfinite(rate):
        raise ValueError("rate must be positive and finite")
    if order < 0:
        raise ValueError("order must be non-negative")


def _truncation_point(cdf: Callable, rate: float, order: int) -> float:
    x = 1.0 / rate
    cap = 1e6 / rate
    while float(cdf(x)) < 1.0 - _TAIL_EPS and x < cap:
        x *= 2.0
    # the kernel of order i peaks at x = i/rate; keep mass beyond the cut
    # below ~1e-16 for every i <= order
    return max(x, (40.0 + 5.0 * order) / rate)


def _by_parts_integral(cdf: Callable, rate: float, i: int, upper: float) -> float:
    # SciPy is imported here so that only the quadrature route loads it
    from scipy.integrate import quad

    log_fact = math.lgamma(i + 1)

    def integrand(t: float) -> float:
        ax = rate * t
        if ax <= 0.0:
            return rate * float(cdf(t)) if i == 0 else 0.0
        # the Poisson kernel in log space: ax**i / i! overflows at high orders
        return rate * math.exp(i * math.log(ax) - ax - log_fact) * float(cdf(t))

    value, abserr, *rest = quad(
        integrand, 0.0, upper, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
        limit=200, full_output=1,
    )
    if len(rest) > 1 and abserr > 1e-9 * max(1.0, abs(value)):
        raise NumericError(
            f"quadrature for coefficient order {i} did not converge: {rest[1]}"
        )
    return value
