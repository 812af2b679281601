"""Interval estimators on top of the unit-seed recursion kernel.

:func:`lossq.recursion.solve_recursion` runs the point chain (once per
moment vector) and the coupled lower/upper bound chains.  Two methods
choose its widths: the two-sided-statistic method perturbs ``r_0`` by the
width of the two-sided statistic and the tail by twice that width; the
one-sided-statistics method uses the width of the one-sided statistic for
``r_0`` and the width of the *sum* of the two one-sided statistics for the
tail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .kolmogorov import ConfidenceSpec, LimitLaw, width_for
from .moments import MomentVector
from .recursion import Characteristic, CharacteristicSpec

__all__ = [
    "Method",
    "IntervalRow",
    "IntervalTable",
    "interval_table",
]


class Method(enum.Enum):
    """Which sup-statistic drives the confidence widths."""

    TWO_SIDED_STATISTIC = "two-sided"
    ONE_SIDED_STATISTICS = "one-sided"


@dataclass(frozen=True)
class IntervalRow:
    """One buffer level of an interval table, on the natural scale."""

    level: int
    lower: float
    point: float
    upper: float
    upper_infinite: bool = False
    clamped: bool = False
    degenerate: bool = False

    def flags(self) -> tuple[str, ...]:
        out = []
        if self.upper_infinite:
            out.append("upper-inf")
        if self.clamped:
            out.append("clamped")
        if self.degenerate:
            out.append("degenerate")
        return tuple(out)


@dataclass(frozen=True)
class IntervalTable:
    """Levels 0..order with lower/point/upper and per-row flags."""

    characteristic: Characteristic
    method: Method
    confidence: tuple[ConfidenceSpec, ...]
    rows: tuple[IntervalRow, ...]

    @property
    def order(self) -> int:
        return len(self.rows) - 1


def interval_table(
    spec: CharacteristicSpec,
    moments: MomentVector,
    confidence: float,
    n_obs: int,
    method: Method,
    order: int,
) -> IntervalTable:
    """Point and interval estimates on the natural scale for levels 0..order.

    Widths are resolved from the confidence level and sample size via the
    matching limit laws, one kernel call gives the point and bound chains on
    the recursion scale, and all three are mapped to the characteristic's
    own scale.  The loss-probability map inverts and therefore swaps the
    bounds, and caps the upper bound at 1 (flagged); rows whose
    recursion-scale values cannot be inverted are flagged degenerate and
    carry the trivial bracket (0, 1].  Lower bounds are floored at zero
    (flagged) for the nonnegative characteristics, and a row whose values
    violate lower <= point <= upper after the conventions is flagged
    degenerate rather than reordered.
    """
    if method is Method.TWO_SIDED_STATISTIC:
        widths = (width_for(LimitLaw.TWO_SIDED, confidence, n_obs),)
        eps, gamma = widths[0].width, 2.0 * widths[0].width
    else:
        widths = tuple(width_for(law, confidence, n_obs)
                       for law in (LimitLaw.ONE_SIDED, LimitLaw.ONE_SIDED_SUM))
        eps, gamma = (w.width for w in widths)
    chains = spec.chains(moments, order, eps, gamma)

    # level 0 is the seed itself, which no convention below touches
    q_low, q, q_upp = (np.concatenate(([spec.seed], c))
                       for c in (chains.lower, chains.point, chains.upper))
    clamped = np.concatenate(([False], chains.clamped))
    if spec.kind is Characteristic.LOSS_PROBABILITY:
        invalid = (q_low <= 0.0) | (q_upp <= 0.0) | (q <= 0.0)
        with np.errstate(divide="ignore"):
            lower, point, upper = (spec.to_natural(v) for v in (q_upp, q, q_low))
        capped = ~invalid & (upper > 1.0)
        lower, upper = np.where(invalid, 0.0, lower), np.where(invalid | capped, 1.0, upper)
        clamped |= capped
    else:
        invalid = False
        lower, point, upper = (spec.to_natural(v) for v in (q_low, q, q_upp))
        floored = lower < 0.0
        lower = np.where(floored, 0.0, lower)
        clamped |= floored
    degenerate = invalid | ~((lower <= point) & (point <= upper))
    rows = map(IntervalRow, range(order + 1), lower.tolist(), point.tolist(),
               upper.tolist(), np.isinf(upper).tolist(), clamped.tolist(),
               degenerate.tolist())
    return IntervalTable(
        characteristic=spec.kind, method=method,
        confidence=widths, rows=tuple(rows),
    )
