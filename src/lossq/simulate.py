"""Service laws, reproducible sampling, a busy-cycle simulator, and exact
small oracles.

Each law draws samples, evaluates its CDF, and gives its Poisson-weighted
moment coefficients in closed form (``law.moments(rate, order)``).

Sample drawing uses a PCG64 generator seeded explicitly.  The busy-cycle
simulator advances whole batches of replications in vectorized rounds (one
service completion per round) on counter-spaced Philox streams — one stream
per batch of ``REPLICATION_CHUNK`` cycles — so runs are reproducible and
batches can be split or pooled at chunk boundaries without changing any
replication's outcome.  The generator identities are part of the
reproducibility contract and are recorded in results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ecdf import EmpiricalCdf, Sample, build_ecdf, ks_statistics
from .moments import MomentVector, _check_rate_order, moments_empirical, moments_exponential

__all__ = [
    "Exponential",
    "ErlangK",
    "Deterministic",
    "Uniform",
    "ServiceDistribution",
    "parse_distribution",
    "EstimateStat",
    "SimulationResult",
    "KsLawResult",
    "REPLICATION_CHUNK",
    "SAMPLE_GENERATOR",
    "SIMULATION_GENERATOR",
    "draw_samples",
    "simulate_busy_period",
    "loss_probability_oracle",
    "ks_law_experiment",
]

# stream granularity of the busy-cycle simulator; changing it changes which
# stream serves each replication, so it is part of the reproducibility
# contract
REPLICATION_CHUNK = 16384

SAMPLE_GENERATOR = "numpy-pcg64"
SIMULATION_GENERATOR = f"numpy-philox-chunk{REPLICATION_CHUNK}"
# Uniform.moments: the width a (h - l) up to which it averages the Poisson
# pmf by Gauss-Legendre quadrature, and the number of nodes
_NARROW_WIDTH = 1.0
_NARROW_NODES = 64


def _positive(name: str, v: float) -> None:
    if v <= 0.0 or not math.isfinite(v):
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self) -> None:
        _positive("rate", self.rate)

    def mean(self) -> float:
        return 1.0 / self.rate

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    def cdf(self, x):
        xs = np.asarray(x, dtype=float)
        return np.where(xs <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(xs, 0.0)))

    def moments(self, rate: float, order: int) -> MomentVector:
        return moments_exponential(rate, self.rate, order)

    def label(self) -> str:
        return f"exp:{self.rate:g}"


@dataclass(frozen=True)
class ErlangK:
    shape: int
    rate: float

    def __post_init__(self) -> None:
        if self.shape < 1 or self.shape != int(self.shape):
            raise ValueError("shape must be a positive integer")
        _positive("rate", self.rate)

    def mean(self) -> float:
        return self.shape / self.rate

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    def cdf(self, x):
        # scipy.special is imported here and in the laws' moments, so that
        # SciPy loads only when one of them is asked for
        from scipy.special import gammainc

        xs = np.asarray(x, dtype=float)
        return gammainc(self.shape, self.rate * np.maximum(xs, 0.0))

    def moments(self, rate: float, order: int) -> MomentVector:
        """Negative binomial: r_i = C(i+k-1, i) p^k q^i with p = m/(a+m) and
        q = a/(a+m), for shape k, law rate m and weighting rate a."""
        from scipy.special import gammaln

        _check_rate_order(rate, order)
        i = np.arange(order + 1, dtype=float)
        k = self.shape
        log_p, log_q = -math.log1p(rate / self.rate), -math.log1p(self.rate / rate)
        log_r = gammaln(i + k) - gammaln(k) - gammaln(i + 1) + k * log_p + i * log_q
        return MomentVector(rate=rate, values=np.exp(log_r))

    def label(self) -> str:
        return f"erlang:{self.shape}:{self.rate:g}"


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self) -> None:
        _positive("value", self.value)

    def mean(self) -> float:
        return self.value

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def cdf(self, x):
        xs = np.asarray(x, dtype=float)
        return (xs >= self.value).astype(float)

    def moments(self, rate: float, order: int) -> MomentVector:
        # the Poisson(rate * value) pmf: the empirical sum over one atom
        return moments_empirical(EmpiricalCdf(np.array([self.value])), rate, order)

    def label(self) -> str:
        return f"det:{self.value:g}"


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0.0 or not math.isfinite(self.low):
            raise ValueError("low must be non-negative and finite")
        _positive("high", self.high)
        if not self.low < self.high:
            raise ValueError("low must be strictly below high")

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)

    def cdf(self, x):
        xs = np.asarray(x, dtype=float)
        return np.clip((xs - self.low) / (self.high - self.low), 0.0, 1.0)

    def moments(self, rate: float, order: int) -> MomentVector:
        """r_i = [Q(i+1, a l) - Q(i+1, a h)] / (a (h - l)) with Q the regularized
        upper incomplete gamma, taken on the upper tails below the order
        a (l + h) / 2 and on the lower tails from it on, so that neither term
        is a 1 - tiny cancellation.

        That difference has an absolute error of about 2^-53 / (a (h - l)),
        so when a (h - l) is at most ``_NARROW_WIDTH`` r_i is instead the
        mean of the Poisson pmf ``exp(i log y - y - lgamma(i + 1))`` over
        [a l, a h], by Gauss-Legendre quadrature with ``_NARROW_NODES``
        nodes in log space.  Against 60-digit mpmath at orders up to 1000
        both routes are within about 1e-12 relative where r_i >= 1e-300,
        except the difference on narrow laws far from 0 (2.4e-10 at
        a l = 100, a (h - l) = 1e-3); the quadrature stays within 1e-12
        there."""
        from scipy.special import gammainc, gammaincc, gammaln

        _check_rate_order(rate, order)
        al, ah = rate * self.low, rate * self.high
        width = rate * (self.high - self.low)
        if width <= _NARROW_WIDTH:
            nodes, weights = np.polynomial.legendre.leggauss(_NARROW_NODES)
            y = 0.5 * (al + ah) + 0.5 * (ah - al) * nodes
            i = np.arange(order + 1, dtype=float)[:, None]
            log_pmf = i * np.log(y) - y - gammaln(i + 1.0)
            return MomentVector(rate=rate, values=0.5 * (np.exp(log_pmf) @ weights))
        s = np.arange(1, order + 2, dtype=float)
        diff = np.where(s - 1.0 < 0.5 * (al + ah),
                        gammaincc(s, al) - gammaincc(s, ah),
                        gammainc(s, ah) - gammainc(s, al))
        return MomentVector(rate=rate, values=diff / width)

    def label(self) -> str:
        return f"uniform:{self.low:g}:{self.high:g}"


ServiceDistribution = Exponential | ErlangK | Deterministic | Uniform


def parse_distribution(text: str) -> ServiceDistribution:
    """Parse ``exp:RATE``, ``erlang:SHAPE:RATE``, ``det:VALUE`` or
    ``uniform:LOW:HIGH``."""
    parts = text.strip().split(":")
    kind, args = parts[0].lower(), parts[1:]
    try:
        if kind == "exp" and len(args) == 1:
            return Exponential(float(args[0]))
        if kind == "erlang" and len(args) == 2:
            return ErlangK(int(args[0]), float(args[1]))
        if kind == "det" and len(args) == 1:
            return Deterministic(float(args[0]))
        if kind == "uniform" and len(args) == 2:
            return Uniform(float(args[0]), float(args[1]))
    except ValueError as exc:
        raise ValueError(f"bad distribution spec {text!r}: {exc}") from None
    raise ValueError(
        f"bad distribution spec {text!r}; expected exp:RATE, erlang:SHAPE:RATE, "
        f"det:VALUE or uniform:LOW:HIGH"
    )


@dataclass(frozen=True)
class EstimateStat:
    """A Monte Carlo mean with its standard error."""

    mean: float
    se: float


@dataclass(frozen=True)
class SimulationResult:
    """Per-characteristic Monte Carlo estimates for one simulator run."""

    busy_period: EstimateStat
    served: EstimateStat
    lost: EstimateStat
    replications: int
    seed: int
    generator: str = SIMULATION_GENERATOR


@dataclass(frozen=True, eq=False)
class KsLawResult:
    """Scaled sup-statistic samples from repeated draws against a known law."""

    two_sided: np.ndarray
    one_sided_minus: np.ndarray
    one_sided_plus: np.ndarray
    correlation: float
    n_obs: int
    trials: int
    seed: int


def draw_samples(dist: ServiceDistribution, n_obs: int, seed: int) -> Sample:
    """Draw a reproducible sample: PCG64 stream keyed by the seed alone."""
    if n_obs < 1:
        raise ValueError("n_obs must be at least 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return Sample(dist.draw(rng, n_obs))


def simulate_busy_period(
    arrival_rate: float,
    dist: ServiceDistribution,
    buffer: int,
    replications: int,
    seed: int,
    first_replication: int = 0,
) -> SimulationResult:
    """Monte Carlo means of busy-period length, served and lost counts.

    Each replication is one busy cycle: it starts with a single customer
    beginning service on an empty system; while a service of length s runs,
    Poisson(arrival_rate * s) customers arrive and join as long as fewer
    than ``buffer`` are waiting (the one in service does not occupy waiting
    room), the rest are lost; the cycle ends when a service completes and
    leaves the system empty.

    Replication ``j`` is served by the Philox stream numbered
    ``(first_replication + j) // REPLICATION_CHUNK``; within one round the
    batch draws its service times first, then its arrival counts.  Runs
    therefore pool exactly across splits at chunk-aligned offsets.
    """
    _positive("arrival_rate", arrival_rate)
    if buffer < 0:
        raise ValueError("buffer must be non-negative")
    if replications < 1:
        raise ValueError("replications must be at least 1")
    if first_replication < 0 or first_replication % REPLICATION_CHUNK:
        raise ValueError(
            f"first_replication must be a non-negative multiple of "
            f"{REPLICATION_CHUNK}"
        )
    root = np.random.Philox(np.random.SeedSequence(seed))
    first_chunk = first_replication // REPLICATION_CHUNK
    sums = np.zeros(3)
    sumsq = np.zeros(3)
    done = 0
    while done < replications:
        count = min(REPLICATION_CHUNK, replications - done)
        rng = np.random.Generator(root.jumped(first_chunk + done // REPLICATION_CHUNK))
        t, served, lost = _run_cycles(rng, arrival_rate, dist, buffer, count)
        for j, arr in enumerate((t, served, lost)):
            sums[j] += arr.sum()
            sumsq[j] += float(arr @ arr)
        done += count

    means = sums / replications
    if replications > 1:
        var = np.maximum(sumsq - replications * means**2, 0.0) / (replications - 1)
        ses = np.sqrt(var / replications)
    else:
        ses = np.zeros(3)
    return SimulationResult(
        busy_period=EstimateStat(float(means[0]), float(ses[0])),
        served=EstimateStat(float(means[1]), float(ses[1])),
        lost=EstimateStat(float(means[2]), float(ses[2])),
        replications=replications,
        seed=seed,
    )


def _run_cycles(
    rng: np.random.Generator,
    arrival_rate: float,
    dist: ServiceDistribution,
    buffer: int,
    count: int,
):
    waiting = np.zeros(count, dtype=np.int64)
    t = np.zeros(count)
    served = np.zeros(count, dtype=np.int64)
    lost = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    while active.size:
        s = dist.draw(rng, active.size)
        arrivals = rng.poisson(arrival_rate * s)
        t[active] += s
        served[active] += 1
        w = waiting[active]
        joined = np.minimum(arrivals, buffer - w)
        lost[active] += arrivals - joined
        w = w + joined
        keep = w > 0
        waiting[active] = w - keep
        active = active[keep]
    return t, served.astype(float), lost.astype(float)


def loss_probability_oracle(
    interarrival: ServiceDistribution, service_rate: float, buffer_total: int
) -> float:
    """Blocking probability of the finite birth-death chain, in closed form.

    Valid when interarrivals are exponential (rate a): states 0..c with
    c = buffer_total carry stationary weights proportional to powers of the
    traffic intensity a / service_rate, so blocking is ``1/(c+1)`` at
    intensity 1 and ``rho^c (1-rho) / (1-rho^(c+1))`` otherwise.
    """
    if not isinstance(interarrival, Exponential):
        raise ValueError("the closed form requires exponential interarrivals")
    _positive("service_rate", service_rate)
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


def ks_law_experiment(
    dist: ServiceDistribution, n_obs: int, trials: int, seed: int
) -> KsLawResult:
    """Repeated draw-and-measure of the scaled sup statistics.

    Each trial draws ``n_obs`` observations from ``dist`` on its own
    spawned stream, builds the empirical CDF, and records the sup
    deviations from the true CDF scaled by sqrt(n_obs).
    """
    if n_obs < 100:
        raise ValueError("n_obs must be at least 100")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    children = np.random.SeedSequence(seed).spawn(trials)
    scale = math.sqrt(n_obs)
    two = np.empty(trials)
    minus = np.empty(trials)
    plus = np.empty(trials)
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        ecdf = build_ecdf(Sample(dist.draw(rng, n_obs)))
        stats = ks_statistics(ecdf, dist.cdf)
        two[i] = scale * stats.two_sided
        minus[i] = scale * stats.one_sided_minus
        plus[i] = scale * stats.one_sided_plus
    corr = float(np.corrcoef(minus, plus)[0, 1])
    return KsLawResult(
        two_sided=two, one_sided_minus=minus, one_sided_plus=plus,
        correlation=corr, n_obs=n_obs, trials=trials, seed=seed,
    )
