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
from functools import cached_property

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


# the columns in IntervalRow's field order, after its level
_COLUMNS = (("lower", float), ("point", float), ("upper", float),
            ("upper_infinite", bool), ("clamped", bool), ("degenerate", bool))


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Levels 0..order as read-only columns: level k is index k of each.

    ``lower``, ``point`` and ``upper`` are float arrays on the natural scale;
    ``upper_infinite``, ``clamped`` and ``degenerate`` are the per-level
    flags.  ``rows`` is the same table as :class:`IntervalRow` objects,
    built on first access.  The columns are copies: an array passed in is
    left as it was.
    """

    characteristic: Characteristic
    method: Method
    confidence: tuple[ConfidenceSpec, ...]
    lower: np.ndarray
    point: np.ndarray
    upper: np.ndarray
    upper_infinite: np.ndarray
    clamped: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self) -> None:
        size = np.shape(self.point)
        for name, dtype in _COLUMNS:
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.ndim != 1 or arr.shape != size or arr.size == 0:
                raise ValueError("columns must be non-empty 1-D arrays of one length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def order(self) -> int:
        return int(self.point.size) - 1

    @cached_property
    def rows(self) -> tuple[IntervalRow, ...]:
        """The columns as one :class:`IntervalRow` per level, built once."""
        return tuple(map(IntervalRow, range(self.order + 1),
                         *(getattr(self, name).tolist() for name, _ in _COLUMNS)))


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
    return IntervalTable(
        characteristic=spec.kind, method=method, confidence=widths,
        lower=lower, point=point, upper=upper, upper_infinite=np.isinf(upper),
        clamped=clamped, degenerate=degenerate,
    )
