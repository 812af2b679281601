"""Service laws, reproducible sampling and a busy-cycle simulator.

Each law draws samples, evaluates its CDF, and gives its Poisson-weighted
moment coefficients in closed form (``law.moments(rate, order)``).  The
Erlang CDF and the Erlang and uniform closed forms are built from Poisson
tails and ``math.lgamma``, so the laws need NumPy alone.

Sample drawing uses a PCG64 generator seeded explicitly.  The busy-cycle
simulator runs chunks of ``REPLICATION_CHUNK`` replications, chunk c on the
SFC64 stream of ``SeedSequence(seed, spawn_key=(c,))``, the seed's c-th
spawned child, in generation rounds: a round serves every running cycle's
block, the customers present at the round's start (fewer when the round
would serve more than ``REPLICATION_CHUNK``), and draws one Poisson arrival
count per service with one call.  A round of a few cycles and few services,
which is never capped, runs on Python scalars with the same draws.  So a run
is reproducible from its seed and replication count alone.  The generator
identities are part of the reproducibility contract and are recorded in
results.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .ecdf import EmpiricalCdf, Sample, _check_positive_finite, _sup_deviations
from .errors import check_positive
from .moments import (
    MomentVector,
    _check_rate_order,
    _poisson_pmf,
    _poisson_tails,
    moments_empirical,
    moments_exponential,
)

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
    "ks_law_experiment",
]

# stream granularity of the busy-cycle simulator; changing it changes which
# stream serves each replication, so it is part of the reproducibility
# contract
REPLICATION_CHUNK = 16384

SAMPLE_GENERATOR = "numpy-pcg64"
SIMULATION_GENERATOR = f"numpy-sfc64-chunk{REPLICATION_CHUNK}-service-counts"
# a round of at most _SCALAR_TAIL cycles runs in Python when it serves at
# most min(REPLICATION_CHUNK, _SCALAR_SERVICES) services.  The limit is a
# speed choice, timed against the array rounds, and gates nothing else; a
# round's draws are the same on either side of it
_SCALAR_TAIL = 16
_SCALAR_SERVICES = 1024
# the most services a run may expect to draw (replications times the mean
# served per busy cycle).  On the same core a run draws 8.4e6 (erlang:2:2)
# to 1.5e7 (det:1) services a second in full chunks at load 0.95, buffer
# 50, and 6.7e5 to 8.4e5 in a single cycle (det:1 at load 3, buffer 5, and
# exp:1 at load 1.2, buffer 30): 7 s to 2.5 minutes
_SERVICE_BUDGET = 1e8
# the levels of the served chain that the budget check computes at most
_BUDGET_LEVELS = 1000
# a waiting count never comes near 2^62, so a larger buffer acts as this one
# and keeps ``buffer + 1`` and ``peak - buffer`` within int64
_BUFFER_CAP = 2**62
# NumPy refuses a Poisson mean above int64's largest less 10 sqrt of it
_INT64_MAX = int(np.iinfo(np.int64).max)
_POISSON_LIMIT = _INT64_MAX - 10.0 * math.sqrt(_INT64_MAX)
# KS-law experiment: the most observations held in one block of trials.  A
# block and its CDF temporaries take about 1 MB; all 1000 x 1000 trials at
# once would add about 30 MB to the peak RSS
_KS_BLOCK_VALUES = 2**14
# Uniform.moments: the width a (h - l) up to which it averages the Poisson
# pmf by Gauss-Legendre quadrature, and the number of nodes
_NARROW_WIDTH = 1.0
_NARROW_NODES = 64
# _sum_past: the first chunk of coefficients past the order, and the share
# of the tail below which the rest is dropped
_TAIL_CHUNK = 64
_TAIL_REST = 2.0**-60


def _number(x: float) -> str:
    """A law parameter as a label prints it: short (``:g``) where that reads
    back as the same float, and in full (``repr``) where it would not."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self) -> None:
        check_positive("rate", self.rate)

    def mean(self) -> float:
        return 1.0 / self.rate

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    def cdf(self, x):
        xs = np.asarray(x, dtype=float)
        # rate x past the largest double is -inf, and its CDF 1
        with np.errstate(over="ignore"):
            return np.where(xs <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(xs, 0.0)))

    def moments(self, rate: float, order: int) -> MomentVector:
        return moments_exponential(rate, self.rate, order)

    def label(self) -> str:
        return f"exp:{_number(self.rate)}"


@dataclass(frozen=True)
class ErlangK:
    shape: int
    rate: float

    def __post_init__(self) -> None:
        try:
            whole = self.shape >= 1 and math.isfinite(self.shape) and self.shape == int(self.shape)
        except OverflowError:
            raise ValueError("shape must be a positive integer within the float range") from None
        if not whole:
            raise ValueError("shape must be a positive integer")
        # 2.0 and True are shapes too; as ints they label as the parser reads
        object.__setattr__(self, "shape", int(self.shape))
        check_positive("rate", self.rate)

    def mean(self) -> float:
        return self.shape / self.rate

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    def cdf(self, x):
        # P(X <= x) = P(N >= shape) for N ~ Poisson(rate x)
        xs = np.asarray(x, dtype=float)
        return _poisson_tails(self.shape, self.rate * np.maximum(xs, 0.0))[1][()]

    def moments(self, rate: float, order: int) -> MomentVector:
        """Negative binomial: r_i = C(i+k-1, i) p^k q^i with p = m/(a+m) and
        q = a/(a+m), for shape k, law rate m and weighting rate a.  That is
        r_0 = p^k = exp(-k log1p(a/m)) and, for i >= 1, k/(i+k) times the
        binomial pmf b(k; i+k, p), which with n = i + k is a ratio of Poisson
        pmfs, ``P(k; n p) P(i; n q) / P(n; n)``, each in Loader's (2000)
        saddle-point form (``_poisson_pmf``).  Every term of their exponents
        is small where the coefficient is not, so a coefficient keeps its
        relative accuracy at large shapes, where a difference of log-gammas
        (near 5,900 at k = 1000) would lose about 1e-12.  The tail is
        ``_sum_past``'s, from the mean count k a / m."""
        _check_rate_order(rate, order)
        k = self.shape
        p, q = self.rate / (rate + self.rate), rate / (rate + self.rate)
        r0 = math.exp(-k * math.log1p(rate / self.rate))

        def coefficients(i: np.ndarray) -> np.ndarray:
            out = np.full(i.shape, r0)
            pos = i > 0.0
            j = i[pos]
            n = j + k
            out[pos] = (k / n * _poisson_pmf(np.full(j.shape, float(k)), n * p)
                        * _poisson_pmf(j, n * q) / _poisson_pmf(n, n))
            return out

        return MomentVector(rate=rate, values=coefficients(np.arange(order + 1, dtype=float)),
                            tail=_sum_past(coefficients, order, k * rate / self.rate))

    def label(self) -> str:
        return f"erlang:{self.shape}:{_number(self.rate)}"


@dataclass(frozen=True)
class Deterministic:
    value: float

    def __post_init__(self) -> None:
        check_positive("value", self.value)

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
        return f"det:{_number(self.value)}"


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0.0 or not math.isfinite(self.low):
            raise ValueError("low must be non-negative and finite")
        check_positive("high", self.high)
        if not self.low < self.high:
            raise ValueError("low must be strictly below high")

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)

    def cdf(self, x):
        xs = np.asarray(x, dtype=float)
        # a quotient past the largest double is inf, and clips to 1
        with np.errstate(over="ignore"):
            return np.clip((xs - self.low) / (self.high - self.low), 0.0, 1.0)

    def moments(self, rate: float, order: int) -> MomentVector:
        """r_i = [P(N_l <= i) - P(N_h <= i)] / (a (h - l)) for N_l ~ Poisson(a l)
        and N_h ~ Poisson(a h), taken on these lower tails below the order
        a (l + h) / 2 and on the upper tails from it on, so that neither term
        is a 1 - tiny cancellation.

        That difference has an absolute error of about 2^-53 / (a (h - l)),
        so when a (h - l) is at most ``_NARROW_WIDTH`` r_i is instead the
        mean of the Poisson pmf in Loader's form (``_poisson_pmf``) over
        [a l, a h], by Gauss-Legendre quadrature with ``_NARROW_NODES``
        nodes.  Against 60-digit mpmath at orders up to 1000 both routes
        are within about 1e-12 relative where r_i >= 1e-300 (the
        difference within 2e-13), except the difference on narrow laws far
        from 0 (6.1e-11 at a l = 100, a (h - l) = 1e-3).  The quadrature
        stays within 1.4e-13 on the narrow laws checked from a l = 0 to 800
        (6.2e-14 at a l = 800, a (h - l) = 1, order 1000, against 80-digit
        mpmath).

        The tail beyond the order is the same quadrature of the upper
        Poisson tail on narrow laws, and on wide ones ``_sum_past``'s, from
        the mean count a (l + h) / 2."""
        _check_rate_order(rate, order)
        al, ah = rate * self.low, rate * self.high
        width = rate * (self.high - self.low)
        i = np.arange(order + 1, dtype=float)
        if width <= _NARROW_WIDTH:
            nodes, weights = np.polynomial.legendre.leggauss(_NARROW_NODES)
            y = 0.5 * (al + ah) + 0.5 * (ah - al) * nodes
            pmf = _poisson_pmf(*np.broadcast_arrays(i[:, None], y))
            tail = 0.5 * float(_poisson_tails(order + 1, y)[1] @ weights)
            return MomentVector(rate=rate, values=0.5 * (pmf @ weights), tail=tail)

        def coefficients(i: np.ndarray) -> np.ndarray:
            lower_l, upper_l = _poisson_tails(i + 1.0, al)
            lower_h, upper_h = _poisson_tails(i + 1.0, ah)
            return np.where(i < 0.5 * (al + ah), lower_l - lower_h, upper_h - upper_l) / width

        return MomentVector(rate=rate, values=coefficients(i),
                            tail=_sum_past(coefficients, order, 0.5 * (al + ah)))

    def label(self) -> str:
        return f"uniform:{_number(self.low)}:{_number(self.high)}"


ServiceDistribution = Exponential | ErlangK | Deterministic | Uniform


def _sum_past(coefficients, order: int, mean: float) -> float | None:
    """sum_{i > order} coefficients(i) for coefficients that are log-concave
    in i and fall from their ``mean`` count on, for an order at or past it.
    They are summed in chunks of doubling length, from ``_TAIL_CHUNK``,
    until the geometric bound on the rest at the ratio of the chunk's last
    two terms, ``last^2 / (prev - last)``, is below ``_TAIL_REST`` of the
    sum.  Below the mean it is ``None``, MomentVector's default: 1 minus
    the coefficients' sum, which is at most about two thirds there."""
    if order < mean:
        return None
    total, start, size = 0.0, order + 1, _TAIL_CHUNK
    while math.isfinite(total):
        terms = coefficients(np.arange(start, start + size, dtype=float))
        total += math.fsum(terms.tolist())
        prev, last = terms[-2], terms[-1]
        if last == 0.0 or (last < prev and last * last < _TAIL_REST * total * (prev - last)):
            break
        start += size
        size *= 2
    return total


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
    n_obs = _integer("n_obs", n_obs)
    if n_obs < 1:
        raise ValueError("n_obs must be at least 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_integer("seed", seed))))
    return Sample(dist.draw(rng, n_obs))


def simulate_busy_period(
    arrival_rate: float,
    dist: ServiceDistribution,
    buffer: int,
    replications: int,
    seed: int,
) -> SimulationResult:
    """Monte Carlo means of busy-period length, served and lost counts.

    Each replication is one busy cycle: it starts with a single customer
    beginning service on an empty system; while a service of length s runs,
    Poisson(arrival_rate * s) customers arrive and join as long as fewer
    than ``buffer`` are waiting (the one in service does not occupy waiting
    room), the rest are lost; the cycle ends when a service completes and
    leaves the system empty.

    Replication ``j`` is served by chunk ``c = j // REPLICATION_CHUNK``,
    which draws from ``SFC64(SeedSequence(seed, spawn_key=(c,)))``.  A chunk
    runs in generation rounds (a busy period is a branching process,
    Kendall 1951).  Each round serves a block of each running cycle, the
    customers present when the round starts; the cycle cannot end before
    the block's last service.  If the blocks would add up to more than
    ``REPLICATION_CHUNK`` services, each is cut to ``REPLICATION_CHUNK``
    over the number of running cycles, rounded down (but at least one).

    A round draws the blocks' service times with one ``dist.draw`` call,
    then the Poisson arrival count of each service, with mean the arrival
    rate times its length, in replication order, with one ``rng.poisson``
    call.  Every service drawn is served.

    A round of at most ``_SCALAR_TAIL`` cycles that serves at most
    ``min(REPLICATION_CHUNK, _SCALAR_SERVICES)`` services is never capped.
    It runs on Python scalars, with the same draws in the same order, and
    serves each block one customer at a time; a larger round hands the
    cycles back to the array rounds, and a later small one takes them again.
    So the counts do not depend on where the switch happens.  Each chunk's
    cycles are pooled once, in replication order, into the sums and centred
    sums of squares behind the means and standard errors (``_Pooled``), so
    these depend only on each replication's values.

    A run is refused with :class:`ValueError` before any draw when
    ``replications`` times the expected number served per cycle exceeds
    ``_SERVICE_BUDGET`` (at load rho = arrival_rate * mean >= 1 a cycle
    serves about rho^buffer customers, so such runs would not end).  Below
    load 1 the number served per cycle is at most 1 / (1 - rho); only when
    that bound is over budget, and at load >= 1, the exact mean is taken
    from the served-customers point chain on ``dist.moments``.  That chain
    is computed up to level ``_BUDGET_LEVELS`` at most; a larger buffer is
    charged the last level times the ratio of the last two levels to the
    power of the levels left.  A drawn service time or busy time past the
    largest double ends the run with :class:`ValueError`, named as such.
    """
    check_positive("arrival_rate", arrival_rate)
    buffer = _integer("buffer", buffer)
    replications = _integer("replications", replications)
    seed = _integer("seed", seed)
    if buffer < 0:
        raise ValueError("buffer must be non-negative")
    if replications < 1:
        raise ValueError("replications must be at least 1")
    _check_budget(arrival_rate, dist, buffer, replications)
    buffer = min(buffer, _BUFFER_CAP)
    pooled = _Pooled()
    for done in range(0, replications, REPLICATION_CHUNK):
        count = min(REPLICATION_CHUNK, replications - done)
        # the seed's spawned child number done // REPLICATION_CHUNK
        child = np.random.SeedSequence(seed, spawn_key=(done // REPLICATION_CHUNK,))
        rng = np.random.Generator(np.random.SFC64(child))
        pooled.add(_run_cycles(rng, arrival_rate, dist, buffer, count))

    means, ses = pooled.mean, pooled.se
    return SimulationResult(
        busy_period=EstimateStat(float(means[0]), float(ses[0])),
        served=EstimateStat(float(means[1]), float(ses[1])),
        lost=EstimateStat(float(means[2]), float(ses[2])),
        replications=replications,
        seed=seed,
    )


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _check_budget(
    arrival_rate: float, dist: ServiceDistribution, buffer: int, replications: int
) -> None:
    load = arrival_rate * dist.mean()
    if buffer == 0:
        served = 1.0
    elif load < 1.0 and replications / (1.0 - load) <= _SERVICE_BUDGET:
        return
    else:
        served = _expected_served(arrival_rate, dist, min(buffer, _BUFFER_CAP))
    if replications * served > _SERVICE_BUDGET:
        raise ValueError(
            f"the run would draw about {replications * served:.3g} services (load "
            f"{load:.3g}, buffer {buffer}, {replications} replications), more than "
            f"the simulator's budget of {_SERVICE_BUDGET:.0e}"
        )


def _expected_served(arrival_rate: float, dist: ServiceDistribution, buffer: int) -> float:
    """The mean number served per busy cycle: the unit point chain at level
    ``buffer``, extended past ``_BUDGET_LEVELS`` at its last ratio.  The
    chain is nondecreasing, so it is inf once it overflows."""
    from .recursion import solve_recursion

    levels = min(buffer, _BUDGET_LEVELS)
    moments = dist.moments(arrival_rate, levels)
    if moments.values[0] == 0.0:
        # r_0, the chance that a service sees no arrival, underflowed
        return math.inf
    chain = solve_recursion(moments, levels).point
    last = chain[-1]
    if buffer == levels or last == math.inf:
        return float(last)
    with np.errstate(over="ignore"):
        return float(last * (last / chain[-2]) ** (buffer - levels))


class _Pooled:
    """The count, sums and centred sums of squares of (busy time, served,
    lost) over finished cycles.  Each chunk is taken in two passes, its sum
    and then its squared deviations from its mean, and chunks are combined
    by the pairwise update of Chan, Golub & LeVeque (1983), so a variance is
    never the difference of two large sums of squares.  A mean is its sum
    over the count, so a mean count is exact to the last bit.

    A row whose largest value in the first chunk is positive and outside
    [2^-256, 2^256] is pooled in units of the power of two at or below that
    value, its squares in that unit squared: a power of two scales exactly.
    Inside the band the budget's 1e8 cycles can neither overflow a sum or
    square nor push a square into subnormals, so every other row keeps unit
    1 and the bits of its plain sums; outside it the values sit in [1, 2) of
    the unit, so busy times near the largest double and far below 1 keep
    their mean and standard error."""

    __slots__ = ("count", "total", "m2", "unit")

    def __init__(self) -> None:
        self.count = 0
        self.total = np.zeros(3)
        self.m2 = np.zeros(3)
        self.unit = np.ones(3)

    @property
    def mean(self) -> np.ndarray:
        return self.total / self.count * self.unit

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(self.m2 / max(self.count - 1, 1) / self.count) * self.unit

    def add(self, values: np.ndarray) -> None:
        """Fold a (3, k) chunk: the rows are busy time, served and lost."""
        if not self.count:
            top = values.max(axis=1)
            far = (top > 2.0**256) | ((top > 0.0) & (top < 2.0**-256))
            self.unit = np.where(far, np.ldexp(1.0, np.frexp(top)[1] - 1), 1.0)
        total, m2 = self._folded(values)
        self.count += values.shape[1]
        self.total, self.m2 = total, m2

    def _folded(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The total and centred sum of squares with the chunk folded in."""
        count = values.shape[1]
        values = values / self.unit[:, None]
        total = values.sum(axis=1)
        dev = values - (total / count)[:, None]
        m2 = np.einsum("ij,ij->i", dev, dev)
        if self.count:
            delta = total / count - self.total / self.count
            m2 += delta * delta * (self.count * count / (self.count + count))
        return self.total + total, self.m2 + m2


def _run_cycles(
    rng: np.random.Generator,
    arrival_rate: float,
    dist: ServiceDistribution,
    buffer: int,
    count: int,
) -> np.ndarray:
    """Run ``count`` busy cycles in generation rounds.  Returns a (3, count)
    array whose column j holds replication j's busy time, served and lost
    count.

    A round serves a block of each running cycle: the customers present at
    its start, or ``REPLICATION_CHUNK // running`` of them (at least one)
    when the blocks would add up to more than ``REPLICATION_CHUNK``.  The
    cycle cannot end within the block, so from the w waiting when the
    block's first service starts, the waiting count before the buffer clips
    it is the walk P_j = w + a_0 + ... + a_j - j over the block's arrival
    counts a_j.  A walk clipped at a ceiling loses what its peak passes it
    by, so the block loses max(0, max_j P_j - buffer); it leaves present its
    arrivals less that loss, and the customers it did not serve.  A cycle
    ends on a block that leaves none.

    A round draws its services and sums each block's (``np.add.reduceat``),
    then draws every a_j, one per service, and walks (``_near_arrivals``).
    The walks run over one int64 running sum of the round's counts, so a
    round of blocks is refused before its counts are drawn when their
    summed mean passes the limit NumPy puts on one Poisson mean, within
    which their total stays in int64.

    The rounds add into the running cycles' columns, ``ids``.  A round of
    at most ``_SCALAR_TAIL`` cycles that serves at most
    ``min(REPLICATION_CHUNK, _SCALAR_SERVICES)`` services is never capped;
    it runs in ``_scalar_rounds``, which hands the cycles back when a round
    would serve more."""
    present = np.ones(count, dtype=np.int64)
    totals = np.zeros((3, count))
    ids = np.arange(count)
    most = min(REPLICATION_CHUNK, _SCALAR_SERVICES)
    # an arrival mean past the largest double is inf: refused, and named so
    with np.errstate(over="ignore"):
        while present.size:
            block, size = present, int(present.sum())
            if present.size <= _SCALAR_TAIL and size <= most:
                present, ids = _scalar_rounds(rng, arrival_rate, dist, buffer, present, ids,
                                              totals, most)
                continue
            if size > REPLICATION_CHUNK:
                block = np.minimum(present, max(1, REPLICATION_CHUNK // present.size))
                size = int(block.sum())
            s = dist.draw(rng, size)
            # one service a block, as in a chunk's first round
            starts = None if size == present.size else np.cumsum(block) - block
            busy = s if starts is None else np.add.reduceat(s, starts)
            # the round's arrival total is Poisson with mean the arrival rate
            # times its service sum, and the walks' running sum reaches it;
            # that sum can overflow where the blocks' own means do not
            if starts is not None and (mean := arrival_rate * busy.sum()) > _POISSON_LIMIT:
                if busy.max() == math.inf:
                    raise _past_double(dist)
                if (mean := (arrival_rate * busy).sum()) > _POISSON_LIMIT:
                    raise _past_limit("summed arrival mean of a round of blocks (arrival rate "
                                      "times its total service time)", mean)
            a = _arrival_counts(rng, arrival_rate, dist, s)
            arrived, loss = _near_arrivals(a, present, starts, buffer)
            totals[0, ids] += busy
            totals[1, ids] += block
            if loss is not None:
                totals[2, ids] += loss
                arrived = arrived - loss
            present = arrived if block is present else present - block + arrived
            keep = np.flatnonzero(present)
            if keep.size < present.size:
                # gathers by index: a boolean mask is several times slower here
                present, ids = present.take(keep), ids.take(keep)
    # the scalar rounds and the totals add busy times without a check
    if totals[0].max() == math.inf:
        raise _past_double(dist)
    return totals


def _near_arrivals(a, present, starts, buffer):
    """Arrivals and losses of the blocks whose services' arrival counts
    ``a`` lie one block after another from ``starts`` (``None`` for one
    service a block), by each block's walk.  The loss is ``None`` where no
    block reaches the buffer."""
    arrived = a if starts is None else np.add.reduceat(a, starts)
    # the walk's peak is at most its start plus every arrival, less one,
    # and is that on a block of one service
    peak = present + arrived
    if peak.max() <= buffer + 1:
        return arrived, None
    if starts is None:
        peak -= 1
    else:
        walk = np.empty(a.size + 1, dtype=np.int64)
        walk[0] = 0
        np.cumsum(np.subtract(a, 1, out=a), out=walk[1:])
        peak = present + np.maximum.reduceat(walk[1:], starts) - walk[starts]
    return arrived, np.maximum(peak - buffer, 0)


def _scalar_rounds(
    rng: np.random.Generator, arrival_rate: float, dist: ServiceDistribution, buffer: int,
    present: np.ndarray, ids: np.ndarray, totals: np.ndarray, most: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The rounds of ``_run_cycles`` on the few cycles ``present`` in
    columns ``ids`` of ``totals``, on Python scalars, while a round serves
    at most ``most``, ``min(REPLICATION_CHUNK, _SCALAR_SERVICES)``,
    services: such a round is never capped.  A round draws its services with
    one ``dist.draw`` call, then one arrival count per service with one
    call, and serves each block one customer at a time on Python integers,
    which do not wrap.  A cycle's time, served and lost go to its column
    when it ends.  When a round would serve more, the running cycles' go
    there too, and their ``(present, ids)`` are returned."""
    cycles = list(zip(present.tolist(), ids.tolist(), *totals[:, ids].tolist()))
    while cycles:
        size = sum(c[0] for c in cycles)
        if size > most:
            break
        services = dist.draw(rng, size)
        pairs = zip(services.tolist(), _arrival_counts(rng, arrival_rate, dist, services).tolist())
        running = []
        for block, j, busy, served, lost in cycles:
            waiting = block - 1
            for _ in range(block):
                s, a = next(pairs)
                busy += s
                waiting += a
                if waiting > buffer:
                    lost += waiting - buffer
                    waiting = buffer
                waiting -= 1
            if waiting < 0:
                totals[:, j] = busy, served + block, lost
            else:
                running.append((waiting + 1, j, busy, served + block, lost))
        cycles = running
    for block, j, *values in cycles:
        totals[:, j] = values
    return (np.array([c[0] for c in cycles], dtype=np.int64),
            np.array([c[1] for c in cycles], dtype=ids.dtype))


def _arrival_counts(rng: np.random.Generator, arrival_rate: float,
                    dist: ServiceDistribution, services: np.ndarray) -> np.ndarray:
    """One Poisson arrival count per service, with mean the arrival rate
    times its length, from one ``rng.poisson`` call."""
    try:
        return rng.poisson(arrival_rate * services)
    except ValueError:
        if services.max() == math.inf:
            raise _past_double(dist) from None
        raise _past_limit("largest arrival mean of a round (arrival rate times service "
                          "time)", arrival_rate * services.max()) from None


def _past_double(dist: ServiceDistribution) -> ValueError:
    """A service time or busy period past the largest double."""
    return ValueError(f"a busy period of {dist.label()} passed the largest double")


def _past_limit(what: str, mean: float) -> ValueError:
    """An arrival mean past the limit NumPy puts on a Poisson mean."""
    return ValueError(f"the {what} is {mean:.3g}, past the Poisson sampler's limit of about "
                      f"9.2e18")


def ks_law_experiment(
    dist: ServiceDistribution, n_obs: int, trials: int, seed: int
) -> KsLawResult:
    """Repeated draw-and-measure of the scaled sup statistics.

    Each trial draws ``n_obs`` observations from ``dist`` on its own
    spawned stream, builds the empirical CDF, and records the sup
    deviations from the true CDF scaled by sqrt(n_obs).  Trials are
    measured in blocks of at most ``_KS_BLOCK_VALUES`` observations: the
    block's rows are sorted in place and share one ``dist.cdf`` call.
    """
    n_obs, trials = _integer("n_obs", n_obs), _integer("trials", trials)
    seed = _integer("seed", seed)
    if n_obs < 100:
        raise ValueError("n_obs must be at least 100")
    if trials < 100:
        raise ValueError("trials must be at least 100")
    children = np.random.SeedSequence(seed).spawn(trials)
    plus = np.empty(trials)
    minus = np.empty(trials)
    block = max(1, _KS_BLOCK_VALUES // n_obs)
    rows = np.empty((min(block, trials), n_obs))
    for lo in range(0, trials, block):
        part = rows[:min(block, trials - lo)]
        for row, child in zip(part, children[lo:lo + block]):
            row[:] = dist.draw(np.random.Generator(np.random.PCG64(child)), n_obs)
        _check_positive_finite(part)
        part.sort(axis=1)
        plus[lo:lo + block], minus[lo:lo + block] = _sup_deviations(part, dist.cdf)
    scale = math.sqrt(n_obs)
    two = scale * np.maximum(minus, plus)
    minus *= scale
    plus *= scale
    # a law every draw matches alike (a point mass) leaves a statistic
    # constant, and a constant has no correlation
    if np.ptp(minus) == 0.0 or np.ptp(plus) == 0.0:
        corr = math.nan
    else:
        corr = float(np.corrcoef(minus, plus)[0, 1])
    return KsLawResult(
        two_sided=two, one_sided_minus=minus, one_sided_plus=plus,
        correlation=corr, n_obs=n_obs, trials=trials, seed=seed,
    )
