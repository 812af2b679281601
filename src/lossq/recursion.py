"""Point and bound chains of finite-buffer loss-system characteristics.

The expected busy period, expected served and lost counts per busy cycle,
and the stationary loss probability all satisfy the same linear convolution
recursion in the Poisson-weighted moment coefficients:

    Q_1 = Q_0 / r_0
    Q_k = [(1 - r_1) Q_{k-1} - sum_{i=2}^{k-1} r_i Q_{k-i}] / r_0

:func:`solve_recursion` runs it once from the unit seed Q_0 = 1, together
with the confidence-bound chains when widths are given.  The recursion is
linear in the seed, so every characteristic is one seed map of that unit
chain: ``spec.to_natural(spec.seed * unit)``.  By Wald's identity busy =
m * served and lost = (lambda m - 1) * served + 1.  Estimates are returned
raw — a negative value on a nonnegative characteristic is reported via
sign-anomaly flags, never silently clamped.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError
from .moments import MomentVector

__all__ = [
    "Characteristic",
    "CharacteristicSpec",
    "BoundSequences",
    "RecursionResult",
    "solve_recursion",
    "estimate_characteristic",
]


class Characteristic(enum.Enum):
    """Output characteristic of a finite-buffer loss system."""

    BUSY_PERIOD = "busy"
    SERVED_CUSTOMERS = "served"
    LOST_CUSTOMERS = "lost"
    LOSS_PROBABILITY = "loss-prob"


@dataclass(frozen=True)
class CharacteristicSpec:
    """Which characteristic to estimate, plus the rates that seed it.

    The arrival-side characteristics (busy period, served, lost) need the
    arrival rate; busy period and lost additionally need the mean service
    time.  The loss probability is driven from the service side and needs
    the service rate only.
    """

    kind: Characteristic
    arrival_rate: float | None = None
    mean_service: float | None = None
    service_rate: float | None = None

    def __post_init__(self) -> None:
        def positive(name: str) -> None:
            v = getattr(self, name)
            if v is None:
                raise ValueError(f"{self.kind.value} requires {name}")
            if v <= 0.0 or not math.isfinite(v):
                raise ValueError(f"{name} must be positive and finite")

        if self.kind in (Characteristic.BUSY_PERIOD, Characteristic.LOST_CUSTOMERS):
            positive("arrival_rate")
            positive("mean_service")
        elif self.kind is Characteristic.SERVED_CUSTOMERS:
            positive("arrival_rate")
        else:
            positive("service_rate")

    @classmethod
    def busy_period(cls, arrival_rate: float, mean_service: float) -> "CharacteristicSpec":
        return cls(Characteristic.BUSY_PERIOD, arrival_rate=arrival_rate,
                   mean_service=mean_service)

    @classmethod
    def served_customers(cls, arrival_rate: float) -> "CharacteristicSpec":
        return cls(Characteristic.SERVED_CUSTOMERS, arrival_rate=arrival_rate)

    @classmethod
    def lost_customers(cls, arrival_rate: float, mean_service: float) -> "CharacteristicSpec":
        return cls(Characteristic.LOST_CUSTOMERS, arrival_rate=arrival_rate,
                   mean_service=mean_service)

    @classmethod
    def loss_probability(cls, service_rate: float) -> "CharacteristicSpec":
        return cls(Characteristic.LOSS_PROBABILITY, service_rate=service_rate)

    @property
    def weighting_rate(self) -> float:
        """Rate the moment coefficients must be weighted at."""
        if self.kind is Characteristic.LOSS_PROBABILITY:
            return self.service_rate
        return self.arrival_rate

    @property
    def seed(self) -> float:
        """Recursion seed Q_0 for this characteristic."""
        if self.kind is Characteristic.BUSY_PERIOD:
            return self.mean_service
        if self.kind is Characteristic.LOST_CUSTOMERS:
            return self.arrival_rate * self.mean_service - 1.0
        return 1.0

    def to_natural(self, q):
        """Map recursion-scale values (a float or an array) to the
        characteristic's own scale."""
        if self.kind is Characteristic.LOST_CUSTOMERS:
            return q + 1.0
        if self.kind is Characteristic.LOSS_PROBABILITY:
            return 1.0 / q
        return q

    def chains(
        self, moments: MomentVector, order: int, eps: float = 0.0, gamma: float = 0.0
    ) -> "BoundSequences":
        """Recursion-scale chains of this characteristic for levels 1..order:
        the unit-seed chains of :func:`solve_recursion` scaled by the seed."""
        if moments.rate != self.weighting_rate:
            raise ValueError(
                f"moment vector was built at rate {moments.rate}, but this "
                f"characteristic weights at rate {self.weighting_rate}"
            )
        return solve_recursion(moments, order, eps, gamma).scaled(self.seed)


@dataclass(frozen=True, eq=False)
class BoundSequences:
    """Recursion-scale point, lower and upper chains for levels 1..order.

    ``upper_infinite`` reports that the divider width swallowed the leading
    coefficient, making every upper bound infinite; ``clamped`` marks levels
    where a lower-bound clamping convention fired.
    """

    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    upper_infinite: bool
    clamped: np.ndarray

    def __post_init__(self) -> None:
        for name in ("point", "lower", "upper", "clamped"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def order(self) -> int:
        return int(self.lower.size)

    def scaled(self, seed: float) -> "BoundSequences":
        """The chains for seed Q_0 = ``seed``, given the unit-seed chains.

        The recursion is linear in the seed, so a negative seed swaps the
        lower and upper chains, and a zero seed gives zero chains with no
        flags (never ``0 * inf``).
        """
        if seed == 0.0:
            zero = np.zeros(self.order)
            return BoundSequences(point=zero, lower=zero, upper=zero, upper_infinite=False,
                                  clamped=np.zeros(self.order, dtype=bool))
        with np.errstate(over="ignore"):  # a product past the largest double is inf
            point, lower, upper = seed * self.point, seed * self.lower, seed * self.upper
        if seed < 0.0:
            lower, upper = upper, lower
        return BoundSequences(
            point=point, lower=lower, upper=upper,
            upper_infinite=self.upper_infinite and seed > 0.0, clamped=self.clamped,
        )


@dataclass(frozen=True, eq=False)
class RecursionResult:
    """Natural-scale values for levels 0..order; ``sign_anomalies`` lists
    levels whose natural value is negative."""

    natural_values: np.ndarray
    order: int
    sign_anomalies: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        nat = np.asarray(self.natural_values, dtype=float)
        nat.setflags(write=False)
        object.__setattr__(self, "natural_values", nat)


def solve_recursion(
    moments: MomentVector, order: int, eps: float = 0.0, gamma: float = 0.0
) -> BoundSequences:
    """Unit-seed chains for levels 1..order.

    The point chain is the recursion from Q_0 = 1.  When a width is
    positive, the lower and upper bound chains run alongside it, each
    consuming the other at earlier levels: the lower chain divides by
    ``r_0 + eps`` and subtracts the tail raised by ``gamma`` times earlier
    upper values, the upper chain divides by ``r_0 - eps`` and subtracts the
    tail lowered by ``gamma`` times earlier lower values.  A width
    swallowing ``r_0`` makes every upper bound infinite; a negative leading
    coefficient ``1 - r_1 - gamma`` or lower-bound total is clamped to zero
    and flagged.  With zero widths the bounds are the point chain itself.

    The unit point chain is nondecreasing for coefficients summing to at
    most 1, so once it overflows it stays ``inf``.  Needs r_0..r_{order-1};
    r_0 = 0 raises :class:`DegeneracyError` (every level divides by it).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if moments.order < order - 1:
        raise ValueError(
            f"level {order} needs coefficients up to order {order - 1}, "
            f"got {moments.order}"
        )
    if eps < 0.0 or gamma < 0.0:
        raise ValueError("widths must be nonnegative")
    r = moments.values
    r0 = float(r[0])
    if r0 == 0.0:
        raise DegeneracyError("leading moment coefficient is zero; cannot divide")
    lead = 1.0 - float(r[1]) if order >= 2 else 0.0
    bounded = eps > 0.0 or gamma > 0.0
    upper_infinite = bounded and r0 <= eps
    # index 0 holds the unit seed, which the tail dot products never reach;
    # the arithmetic is on Python floats, so an overflow is a silent inf
    point = np.ones(order + 1)
    clamped = np.zeros(order + 1, dtype=bool)
    low = upp = point
    point[1] = 1.0 / r0
    if bounded:
        low, upp = np.ones(order + 1), np.ones(order + 1)
        r_up, r_down = r + gamma, r - gamma
        div_low, div_upp = r0 + eps, r0 - eps
        lead_low, lead_upp = lead - gamma, lead + gamma
        lead_clamped = lead_low < 0.0
        lead_low = max(lead_low, 0.0)
        low[1] = 1.0 / div_low
        if upper_infinite:
            upp[1:] = math.inf
        else:
            upp[1] = 1.0 / div_upp
    for k in range(2, order + 1):
        prev = point.item(k - 1)
        point[k] = prev if prev == math.inf else (
            (lead * prev - float(np.dot(r[2:k], point[k - 2:0:-1]))) / r0
        )
        if not bounded:
            continue
        acc = lead_low * low.item(k - 1) - float(np.dot(r_up[2:k], upp[k - 2:0:-1]))
        clamped[k] = lead_clamped or acc < 0.0
        low[k] = max(acc, 0.0) / div_low
        if not upper_infinite:
            upp[k] = (lead_upp * upp.item(k - 1)
                      - float(np.dot(r_down[2:k], low[k - 2:0:-1]))) / div_upp
    return BoundSequences(
        point=point[1:], lower=low[1:], upper=upp[1:],
        upper_infinite=upper_infinite, clamped=clamped[1:],
    )


def estimate_characteristic(
    spec: CharacteristicSpec, moments: MomentVector, order: int
) -> RecursionResult:
    """Point estimates of a characteristic for buffer levels 0..order.

    For the loss probability any non-positive recursion value makes the
    reciprocal meaningless and raises :class:`DegeneracyError`.
    """
    q = np.concatenate(([spec.seed], spec.chains(moments, order).point))
    if spec.kind is Characteristic.LOSS_PROBABILITY and np.any(q <= 0.0):
        raise DegeneracyError(
            "loss-probability recursion produced a non-positive value; "
            "the reciprocal estimate is undefined"
        )
    natural = spec.to_natural(q)
    return RecursionResult(
        natural_values=natural, order=order,
        sign_anomalies=tuple(np.flatnonzero(natural < 0.0).tolist()),
    )
