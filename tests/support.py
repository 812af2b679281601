"""Shared helpers and frozen reference constants for the test suite."""

from dataclasses import dataclass
from typing import Iterator

import math

import numpy as np

from lossq import (
    build_ecdf,
    draw_samples,
    ks_statistics,
    moments_empirical,
    moments_exponential,
)
from lossq.errors import check_positive
from lossq.kolmogorov import _bisect, conv_cdf
from lossq.simulate import ErlangK, Exponential, Uniform

# Coefficient fixture rounded to four decimals, with the confidence widths
# used alongside it (two-sided statistic; one-sided pair and their sum).
FIXTURE_R = (0.5031, 0.2488, 0.1234, 0.0615, 0.0308)
FIXTURE_EPS_TWO = 0.013581
FIXTURE_EPS_ONE = 0.01224
FIXTURE_GAMMA_SUM = 0.0208

# Values this implementation produces for the fixture, frozen after an
# independent exact-rational evaluation of the same recursions (ten decimals).
CANONICAL_POINTS = (1.9876764063, 2.9678841511, 3.9439381947, 4.9179236108)
CANONICAL_TWO_LOWER = (1.9354301784, 2.7121666860, 3.2053441741, 3.1946503141)
CANONICAL_TWO_UPPER = (2.0428216269, 3.2481981847, 4.7843129806, 6.9383519766)
CANONICAL_ONE_LOWER = (1.9404664881, 2.7502556040, 3.3279321911, 3.4948380564)
CANONICAL_ONE_UPPER = (2.0372407611, 3.2040701373, 4.6336028283, 6.5517421921)

# Externally reported reference values accompanying the fixture.  The first
# three levels reproduce from the rounded coefficients; the final level of
# each bound table (and the final point, marginally) does not — the analysis
# lives in the project decisions ledger, maintained outside the package.
REPORTED_POINTS = (1.987589, 2.967558, 3.943322, 4.916821)
REPORTED_TWO_SIDED = (
    (1.935434, 2.042817),
    (2.71285, 3.248177),
    (3.206328, 4.783615),
    (3.317455, 7.057548),
)
REPORTED_ONE_SIDED = (
    (1.940466, 2.037241),
    (2.750256, 3.204070),
    (3.327933, 4.633603),
    (3.616202, 6.673106),
)


# Rounding slack of the coefficient inequalities: every pair's
# coefficients are exact closed forms or atomic sums, accurate to ~1e-16.
PAIR_SLACK = 1e-12


@dataclass(frozen=True)
class CdfPair:
    """Two CDFs, their moment coefficients, and measured sup distances."""

    r1: np.ndarray
    r2: np.ndarray
    sup_abs: float
    sup_forward: float  # sup(F1 - F2)
    sup_backward: float  # sup(F2 - F1)


def exp_sup_distances(a: float, b: float) -> tuple[float, float]:
    """Closed-form (sup(F_a - F_b), sup(F_b - F_a)) for exponential CDFs.

    For a < b the first CDF is dominated everywhere, so the forward sup is
    zero; the other sup is attained where the densities cross.
    """
    if a == b:
        return 0.0, 0.0
    x = math.log(b / a) / (b - a)
    gap = abs(math.exp(-min(a, b) * x) - math.exp(-max(a, b) * x))
    return (0.0, gap) if a < b else (gap, 0.0)


def random_cdf_pairs(count: int, seed: int, order: int = 4) -> Iterator[CdfPair]:
    """Mixed CDF pairs with exactly measured or analytic sup distances.

    Families cycle through: empirical-vs-true for exponential, Erlang-2 and
    uniform laws (sups from the exact jump enumeration, coefficients from the
    law's closed form), and analytic exponential-vs-exponential pairs
    (closed-form sups and coefficients).
    """
    rng = np.random.default_rng(seed)
    families = ("ecdf-exp", "ecdf-erlang", "ecdf-uniform", "exp-exp", "exp-exp")
    for k in range(count):
        family = families[k % len(families)]
        alpha = float(rng.uniform(0.3, 2.5))
        if family == "exp-exp":
            a, b = (float(r) for r in rng.uniform(0.3, 3.0, size=2))
            fwd, bwd = exp_sup_distances(a, b)
            yield CdfPair(
                r1=moments_exponential(alpha, a, order).values,
                r2=moments_exponential(alpha, b, order).values,
                sup_abs=max(fwd, bwd),
                sup_forward=fwd,
                sup_backward=bwd,
            )
            continue
        if family == "ecdf-exp":
            dist = Exponential(float(rng.uniform(0.5, 2.0)))
        elif family == "ecdf-erlang":
            dist = ErlangK(int(rng.integers(2, 4)), float(rng.uniform(1.0, 3.0)))
        else:
            low = float(rng.uniform(0.0, 0.5))
            dist = Uniform(low, low + float(rng.uniform(0.5, 2.0)))
        n_obs = int(rng.integers(200, 1500))
        ecdf = build_ecdf(draw_samples(dist, n_obs, seed=int(rng.integers(2**31))))
        stats = ks_statistics(ecdf, dist.cdf)
        yield CdfPair(
            r1=moments_empirical(ecdf, alpha, order).values,
            r2=dist.moments(alpha, order).values,
            sup_abs=stats.two_sided,
            sup_forward=stats.one_sided_plus,
            sup_backward=stats.one_sided_minus,
        )


def crossing_point() -> tuple[float, float]:
    """Where ``1 - exp(-x^2/2)`` crosses the sum law, and the common value.

    The difference of the two CDFs changes sign exactly once on [0.5, 3];
    bisection refines the root to a 1e-12 bracket.  Below the returned
    level, a target one-sided confidence makes the sum law the wider
    requirement; above it the two-sided law is wider.
    """

    def diff(x: float) -> float:
        return -math.expm1(-0.5 * x * x) - conv_cdf(x)

    positive_at_lo = diff(0.5) > 0.0
    x0 = _bisect(lambda x: (diff(x) > 0.0) == positive_at_lo, 0.5, 3.0)
    level = 0.5 * ((-math.expm1(-0.5 * x0 * x0)) + conv_cdf(x0))
    return x0, level


def loss_probability_oracle(interarrival, service_rate: float, buffer_total: int) -> float:
    """Blocking probability of the finite birth-death chain, in closed form.

    Valid when interarrivals are exponential (rate a): states 0..c with
    c = buffer_total carry stationary weights proportional to powers of the
    traffic intensity a / service_rate, so blocking is ``1/(c+1)`` at
    intensity 1 and ``rho^c (1-rho) / (1-rho^(c+1))`` otherwise.
    """
    if not isinstance(interarrival, Exponential):
        raise ValueError("the closed form requires exponential interarrivals")
    check_positive("service_rate", service_rate)
    if buffer_total < 1:
        raise ValueError("buffer_total must be at least 1")
    rho = interarrival.rate / service_rate
    c = buffer_total
    if rho == 1.0:
        return 1.0 / (c + 1)
    if rho > 1.0:
        # normalize from the top so large powers cannot overflow
        weights = rho ** (np.arange(c + 1, dtype=float) - c)
        return float(1.0 / weights.sum())
    return float(rho**c * (1.0 - rho) / (1.0 - rho ** (c + 1)))
