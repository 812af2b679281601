"""Reference values computed from the paper's formulas, independently of lossq.

Every check in the benchmark compares the program's output with a value
from this module.  Nothing here imports lossq, so a change to the program
cannot move its own reference.
"""

from __future__ import annotations

import math

import numpy as np

# the published reference coefficients of the worked example (Exp(1)
# service, 10,000 observations, unit rates)
FIXTURE_MOMENTS = (0.5031, 0.2488, 0.1234, 0.0615, 0.0308)

# E[K] for the Kolmogorov law: sqrt(pi/2) * ln 2
KOLMOGOROV_MEAN = math.sqrt(math.pi / 2.0) * math.log(2.0)

def moments(values: np.ndarray, rate: float, order: int) -> np.ndarray:
    """r_i = mean over x of exp(-a x) (a x)^i / i!.

    The sample is taken in its generated (unsorted) order, so the sums
    accumulate differently from the program's and agreement is a check,
    not an identity.
    """
    ax = rate * np.asarray(values, dtype=float)
    w = np.exp(-ax)
    out = np.empty(order + 1)
    out[0] = w.mean()
    for i in range(1, order + 1):
        w *= ax / i
        out[i] = w.mean()
    return out


def seed_and_map(kind: str, rate: float, mean_service: float | None):
    """Recursion seed Q_0 and the map from the recursion to the natural scale."""
    if kind == "busy":
        return mean_service, lambda q: q
    if kind == "served":
        return 1.0, lambda q: q
    if kind == "lost":
        return rate * mean_service - 1.0, lambda q: q + 1.0
    if kind == "loss-prob":
        return 1.0, lambda q: 1.0 / q
    raise ValueError(f"unknown characteristic {kind!r}")


def chain(seed: float, r: np.ndarray, order: int) -> np.ndarray:
    """Q_0..Q_order of Q_k = [(1 - r_1) Q_{k-1} - sum_{i=2}^{k-1} r_i Q_{k-i}] / r_0."""
    q = np.empty(order + 1)
    q[0] = seed
    q[1] = seed / r[0]
    for k in range(2, order + 1):
        q[k] = ((1.0 - r[1]) * q[k - 1] - np.dot(r[2:k], q[k - 2:0:-1])) / r[0]
    return q


def points(kind: str, rate: float, mean_service: float | None,
           r: np.ndarray, order: int) -> np.ndarray:
    """Natural-scale point estimates for levels 0..order."""
    seed, to_natural = seed_and_map(kind, rate, mean_service)
    return to_natural(chain(seed, r, order))


def mm1n_busy_served(arrival_rate: float, service_rate: float, level: int):
    """M/M/1/n closed forms: busy = (1/mu) sum_{j<=n} rho^j, served = sum rho^j."""
    rho = arrival_rate / service_rate
    served = sum(rho**j for j in range(level + 1))
    return served / service_rate, served


# --- limit laws ---------------------------------------------------------------


def _kolmogorov_cdf(z: float) -> float:
    return 1.0 + 2.0 * sum((-1) ** j * math.exp(-2.0 * j * j * z * z)
                           for j in range(1, 101))


def _one_sided_cdf(z: float) -> float:
    return 1.0 - math.exp(-2.0 * z * z) if z > 0.0 else 0.0


def _sum_cdf(z: float) -> float:
    # P(A + B <= z) for independent A, B with density 4 x exp(-2 x^2),
    # by Simpson's rule on the convolution integral
    if z <= 0.0:
        return 0.0
    x = np.linspace(0.0, z, 4001)
    f = 4.0 * x * np.exp(-2.0 * x * x) * (1.0 - np.exp(-2.0 * (z - x) ** 2))
    h = z / 4000
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


LAW_CDFS = {
    "two-sided": _kolmogorov_cdf,
    "one-sided": _one_sided_cdf,
    "one-sided-sum": _sum_cdf,
}


def law_quantile(law: str, p: float) -> float:
    """Solve cdf(z) = p by bisection on [0.2, 10]."""
    cdf = LAW_CDFS[law]
    lo, hi = 0.2, 10.0
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
