"""Point and bound chains of finite-buffer loss-system characteristics.

The expected busy period, expected served and lost counts per busy cycle,
and the stationary loss probability all satisfy the same linear convolution
recursion in the Poisson-weighted moment coefficients (the paper's form):

    Q_1 = Q_0 / r_0
    Q_k = [(1 - r_1) Q_{k-1} - sum_{i=2}^{k-1} r_i Q_{k-i}] / r_0

With the tail sums R_i = sum_{j>i} r_j = P(N > i) and the coefficients
summing to 1, the same recursion in the increments D_1 = Q_1 / Q_0,
D_k = (Q_k - Q_{k-1}) / Q_0 reads

    r_0 D_k = [k = 1] + sum_{i=1}^{k-1} R_i D_{k-i},    Q_k = Q_0 (D_1 + ... + D_k)

and every term of it is nonnegative, so Q_k >= Q_1 = 1 / r_0 >= 1.
:func:`solve_recursion` runs the point chain in this positive form from the
unit seed Q_0 = 1, and the confidence-bound chains in the paper's form
alongside it when widths are given, with a positive width on the tail
coefficients; it keeps the point chain of each moment vector for the next
call on it.  The recursion is linear in the seed, so every characteristic
is one seed map of that unit chain: ``spec.natural_scale(unit)``.  By
Wald's identity busy = m * served and lost = (lambda m - 1) * served + 1.
Estimates are returned raw: a negative value on a nonnegative
characteristic is kept, never silently clamped (the CLI flags it ``sign``).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .choices import Characteristic
from .errors import DegeneracyError, check_positive
from .moments import MomentVector

__all__ = [
    "CharacteristicSpec",
    "BoundSequences",
    "RecursionResult",
    "solve_recursion",
    "estimate_characteristic",
]


@dataclass(frozen=True)
class CharacteristicSpec:
    """Which characteristic to estimate, plus the rates that seed it.

    ``weighting_rate`` is the rate of the side ``kind.side`` names: the
    arrival rate for the busy period, served and lost counts, the service
    rate for the loss probability.  Busy period and lost also need the mean
    service time, and the lost count's seed lambda m - 1 must be finite,
    since an infinite one meets a lower chain's zeros as ``inf * 0``.  A
    mean service time given must be positive and finite, used or not.
    """

    kind: Characteristic
    weighting_rate: float
    mean_service: float | None = None

    def __post_init__(self) -> None:
        check_positive(f"{self.kind.side}_rate", self.weighting_rate)
        if self.mean_service is not None:
            check_positive("mean_service", self.mean_service)
        elif self.kind in (Characteristic.BUSY_PERIOD, Characteristic.LOST_CUSTOMERS):
            raise ValueError(f"{self.kind.value} requires mean_service")
        if (self.kind is Characteristic.LOST_CUSTOMERS
                and not math.isfinite(self.weighting_rate * self.mean_service)):
            raise ValueError(f"{self.kind.value} requires a finite arrival_rate * mean_service")

    @classmethod
    def busy_period(cls, arrival_rate: float, mean_service: float) -> "CharacteristicSpec":
        return cls(Characteristic.BUSY_PERIOD, arrival_rate, mean_service)

    @classmethod
    def served_customers(cls, arrival_rate: float) -> "CharacteristicSpec":
        return cls(Characteristic.SERVED_CUSTOMERS, arrival_rate)

    @classmethod
    def lost_customers(cls, arrival_rate: float, mean_service: float) -> "CharacteristicSpec":
        return cls(Characteristic.LOST_CUSTOMERS, arrival_rate, mean_service)

    @classmethod
    def loss_probability(cls, service_rate: float) -> "CharacteristicSpec":
        return cls(Characteristic.LOSS_PROBABILITY, service_rate)

    @property
    def seed(self) -> float:
        """Recursion seed Q_0 for this characteristic."""
        if self.kind is Characteristic.BUSY_PERIOD:
            return self.mean_service
        if self.kind is Characteristic.LOST_CUSTOMERS:
            return self.weighting_rate * self.mean_service - 1.0
        return 1.0

    def natural_scale(self, chain: np.ndarray) -> np.ndarray:
        """Levels 0..order on the characteristic's own scale, from a unit
        chain for levels 1..order.

        The recursion is linear in the seed, so the recursion-scale values
        are ``seed * [1, chain]``: a zero seed gives zeros (never
        ``0 * inf``) and a product past the largest double is infinite.  The
        lost count then adds 1 and the loss probability takes the
        reciprocal.  A negative seed and the reciprocal reverse the order
        of a lower and an upper chain.
        """
        if self.seed == 0.0:
            q = np.zeros(chain.size + 1)
        else:
            with np.errstate(over="ignore"):
                q = self.seed * np.concatenate(([1.0], chain))
        if self.kind is Characteristic.LOST_CUSTOMERS:
            return q + 1.0
        if self.kind is Characteristic.LOSS_PROBABILITY:
            with np.errstate(divide="ignore", over="ignore"):
                return 1.0 / q
        return q

    def chains(
        self, moments: MomentVector, order: int, eps: float = 0.0, gamma: float = 0.0
    ) -> "BoundSequences":
        """The unit-seed chains of :func:`solve_recursion` for levels
        1..order, once the moment vector's rate is checked against the
        rate this characteristic weights at."""
        if moments.rate != self.weighting_rate:
            raise ValueError(
                f"moment vector was built at rate {moments.rate}, but this "
                f"characteristic weights at rate {self.weighting_rate}"
            )
        return solve_recursion(moments, order, eps, gamma)


@dataclass(frozen=True, eq=False)
class BoundSequences:
    """Unit-seed point, lower and upper chains for levels 1..order;
    ``clamped`` marks levels whose lower bound is 0, which by the chains'
    lemma (see :func:`solve_recursion`) are the levels where a clamp fired.
    """

    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    clamped: np.ndarray

    def __post_init__(self) -> None:
        for name in ("point", "lower", "upper", "clamped"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def order(self) -> int:
        return int(self.lower.size)


@dataclass(frozen=True, eq=False)
class RecursionResult:
    """Natural-scale values for levels 0..order."""

    natural_values: np.ndarray

    def __post_init__(self) -> None:
        nat = np.asarray(self.natural_values, dtype=float)
        nat.setflags(write=False)
        object.__setattr__(self, "natural_values", nat)


# levels the blocked point chain solves per NumPy step
_BLOCK = 32

# unit point chains Q_0..Q_{m+1} by moment vector of order m, each computed
# once to the vector's full reach and read-only; a vector is hashed by
# identity and its values are read-only, so an entry lives as long as the
# vector and every order is a slice of it
_POINT_CHAINS: "weakref.WeakKeyDictionary[MomentVector, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


def _point_chain(moments: MomentVector) -> np.ndarray:
    """The unit point chain Q_0..Q_{m+1} of a vector of order m, cached."""
    chain = _POINT_CHAINS.get(moments)
    if chain is None:
        r = moments.values
        # R_m..R_1 summed from the top: the tail beyond m, then r_m, ..., r_2
        tails = np.cumsum(np.concatenate(([moments.tail], r[:1:-1]))[:moments.order])
        chain = _unit_chain(float(r[0]), tails[::-1].copy())
        chain.setflags(write=False)
        _POINT_CHAINS[moments] = chain
    return chain


def _unit_chain(r0: float, tails: np.ndarray) -> np.ndarray:
    """Q_0..Q_{m+1} from the positive recursion on r_0 > 0 and the tail sums
    R_1..R_m alone, solved ``_BLOCK`` levels per step (see
    :func:`solve_recursion`).  Any nonnegative tails will do, monotone or not."""
    levels = tails.size + 1  # the last level, m + 1
    d = np.zeros(levels + 1)
    stop = min(_BLOCK, levels) + 1
    overflowed = _sequential_steps(tails, r0, d, 1, stop)
    if not overflowed and stop <= levels:
        # the inverse of a block's own lower-triangular Toeplitz system is the
        # lower-triangular Toeplitz matrix of the first block's D_1..D_B
        lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
        inverse = np.where(lag >= 0, d[1 + np.maximum(lag, 0)], 0.0)
        with np.errstate(over="ignore"):
            for start in range(stop, levels + 1, _BLOCK):
                end = min(start + _BLOCK, levels + 1)
                size = end - start
                earlier = np.convolve(tails[:end - 2], d[1:start], "valid")
                block = inverse[:size, :size] @ earlier
                if np.isfinite(block).all():
                    d[start:end] = block
                elif _sequential_steps(tails, r0, d, start, end):
                    break
    chain = np.empty(levels + 1)
    chain[0] = 1.0
    with np.errstate(over="ignore"):
        np.cumsum(d[1:], out=chain[1:])
    return chain


def _sequential_steps(tails: np.ndarray, r0: float, d: np.ndarray, start: int, stop: int) -> bool:
    """D_start..D_{stop-1}, one level per step; on an overflow every later
    D is inf, and the answer is True."""
    for k in range(start, stop):
        # Python floats: an overflow is a silent inf
        dk = (float(np.dot(tails[:k - 1], d[k - 1:0:-1])) + (k == 1)) / r0
        if dk == math.inf:
            d[k:] = math.inf
            return True
        d[k] = dk
    return False


def solve_recursion(
    moments: MomentVector, order: int, eps: float = 0.0, gamma: float = 0.0
) -> BoundSequences:
    """Unit-seed chains for levels 1..order.

    The point chain is the positive recursion of the module docstring from
    Q_0 = 1, with the tail sums R_i summed from the top: the vector's
    ``tail`` plus the reverse cumulative sums of r.  Levels 1.._BLOCK take
    one step each.  Each later block of levels s..e-1 then takes two NumPy
    calls: a convolution of R_1.. with D_1..D_{s-1} gives the earlier
    blocks' part of each level, and the block's own lower-triangular
    Toeplitz system, with r_0 on its diagonal and -R_i below it, is solved
    by one product with its inverse.  That inverse is the lower-triangular
    Toeplitz matrix of D_1..D_B, the first block's solution, so it is
    nonnegative and the block solve adds no cancellation.  Every sum in the
    chain has nonnegative terms, so a level's relative rounding error is
    the sum of the roundings along its terms' paths, never amplified by a
    difference: on the laws' moments it stays within (2k + 8) 2^-53 of the
    one-level-per-step loop at level k and within 1e-13 of a 30-digit run,
    where the paper's form loses about 4e-11 near load 1.  A block whose
    result is not all finite is redone one level per step from its start;
    the unit chain is nondecreasing, so once it overflows it stays ``inf``,
    never NaN.

    A vector of order m reaches level m + 1 (R_m is its tail), and its
    point chain is computed once, to that level, and kept read-only in a
    weak-keyed cache: an entry goes with its vector, and every order is a
    slice of it.

    With widths ``eps`` on r_0 and ``gamma`` > 0 on every tail coefficient,
    the lower and upper bound chains run in the paper's form, each
    consuming the other at earlier levels: the lower chain divides by
    ``r_0 + eps`` and subtracts the tail raised by ``gamma`` times earlier
    upper values, the upper chain divides by ``r_0 - eps`` and subtracts
    the tail lowered by ``gamma`` times earlier lower values.  A width
    swallowing ``r_0`` makes every upper bound infinite; a negative leading
    coefficient ``1 - r_1 - gamma`` or lower-bound total is clamped to zero.
    ``clamped`` is ``lower == 0``: by the lemma below, a clamp pins every
    later lower bound to 0, and level 1, ``1 / (r_0 + eps)``, is never 0.
    With zero widths the bounds are the point chain itself and nothing is
    clamped; a positive ``eps`` with a zero ``gamma`` raises
    :class:`ValueError`.

    The chains rest on one lemma.  By induction on the level, 0 <= low_k
    <= Q_k <= upp_k, and Q_k >= 1 / r_0 >= 1.  So once low_{k-1} = 0 the
    lower total at level k is at most ``-gamma upp_{k-2}`` < 0: the lower
    chain is 0 and clamped from there on.  The coupled steps therefore end
    at the first level whose lower bound is 0, or whose lower tail reads an
    infinite upper bound: that tail is inf, so the total is -inf (or NaN,
    had the lower chain overflowed too).  From that level on the lower
    chain is 0 and clamped, and the upper chain's tail reads only the lower
    bounds before it, a fixed window, so one convolution gives it for every
    later level; once the upper chain overflows it stays ``inf``.  No bound
    turns NaN, even after the lower chain overflows, and even when its first
    level ``1 / (r_0 + eps)`` does.

    Needs a vector of order at least ``order - 1``; r_0 = 0 raises
    :class:`DegeneracyError` (every level divides by it).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if moments.order < order - 1:
        raise ValueError(
            f"level {order} needs coefficients up to order {order - 1}, "
            f"got {moments.order}"
        )
    # written so that a NaN width fails too
    if not (0.0 <= eps < math.inf and 0.0 <= gamma < math.inf):
        raise ValueError("widths must be finite and nonnegative")
    if eps > 0.0 and gamma == 0.0:
        raise ValueError("a positive eps needs a positive gamma")
    r = moments.values[:order]
    r0 = float(r[0])
    if r0 == 0.0:
        raise DegeneracyError("leading moment coefficient is zero; cannot divide")
    point = _point_chain(moments)[1:order + 1]
    if gamma == 0.0:
        return BoundSequences(point=point, lower=point, upper=point,
                              clamped=np.zeros(order, dtype=bool))
    lead = 1.0 - float(r[1]) if order >= 2 else 0.0
    r_up, r_down = r + gamma, r - gamma
    div_low, div_upp = r0 + eps, r0 - eps
    lead_low, lead_upp = max(lead - gamma, 0.0), lead + gamma
    # level 0 is the unit seed; an upper bound never set is inf
    low, upp = np.zeros(order + 1), np.full(order + 1, math.inf)
    low[:2] = 1.0, 1.0 / div_low
    upp[0] = 1.0
    if r0 > eps:
        upp[1] = 1.0 / div_upp
    for k in range(2, order + 1):
        if low.item(k - 1) == 0.0 or upp.item(k - 2) == math.inf:
            break
        tail = float(np.dot(r_up[2:k], upp[k - 2:0:-1]))
        # a zero lead skips its product, which is NaN once low[k - 1] overflows
        acc = (lead_low * low.item(k - 1) if lead_low else 0.0) - tail
        low[k] = max(acc, 0.0) / div_low
        u = upp.item(k - 1)
        if u != math.inf:
            upp[k] = (lead_upp * u - float(np.dot(r_down[2:k], low[k - 2:0:-1]))) / div_upp
    else:
        return BoundSequences(point=point, lower=low[1:], upper=upp[1:], clamped=low[1:] == 0.0)
    # pinned from level k: the lower chain is 0, and while the upper chain
    # is finite low[k - 1] is 0, so its tail reads low[1..k-2]
    u = upp.item(k - 1)
    if u != math.inf:
        tails = np.convolve(r_down[2:order], low[1:k - 1], "valid")
        for level, tail in enumerate(tails.tolist(), k):
            u = (lead_upp * u - tail) / div_upp
            upp[level] = u
            if u == math.inf:
                break
    return BoundSequences(point=point, lower=low[1:], upper=upp[1:], clamped=low[1:] == 0.0)


def estimate_characteristic(
    spec: CharacteristicSpec, moments: MomentVector, order: int
) -> RecursionResult:
    """Point estimates of a characteristic for buffer levels 0..order.

    The unit point chain is at least 1 at every level, so the loss
    probability's reciprocal always exists (0 where the chain overflows).
    """
    return RecursionResult(spec.natural_scale(spec.chains(moments, order).point))
