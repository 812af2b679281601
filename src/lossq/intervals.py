"""Interval estimators on top of the unit-seed recursion kernel.

:func:`lossq.recursion.solve_recursion` runs the point chain (once per
moment vector) and the coupled lower/upper bound chains.  Two methods
choose its widths: the two-sided-statistic method perturbs ``r_0`` by the
width of the two-sided statistic and the tail by twice that width; the
one-sided-statistics method uses the width of the one-sided statistic for
``r_0`` and the width of the *sum* of the two one-sided statistics for the
tail.  Each width is a float from :func:`lossq.kolmogorov.width_for`, and a
table keeps one per limit law of its method.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .choices import Characteristic, Method
from .kolmogorov import width_for
from .moments import MomentVector
from .recursion import CharacteristicSpec

__all__ = [
    "IntervalRow",
    "IntervalTable",
    "interval_table",
]


# each flag column and the name a row reports it by, in report order
_FLAGS = (("upper_infinite", "upper-inf"), ("clamped", "clamped"),
         ("degenerate", "degenerate"))


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
        return tuple(name for column, name in _FLAGS if getattr(self, column))


# the columns in IntervalRow's field order, after its level
_COLUMNS = (("lower", float), ("point", float), ("upper", float),
            ("upper_infinite", bool), ("clamped", bool), ("degenerate", bool))


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """Levels 0..order as read-only columns: level k is index k of each.

    ``lower``, ``point`` and ``upper`` are float arrays on the natural scale;
    ``upper_infinite``, ``clamped`` and ``degenerate`` are the per-level
    flags.  ``widths`` are the additive widths z*/sqrt(N) of
    ``method.laws``, in that order.  ``rows`` is the same table as
    :class:`IntervalRow` objects, built on first access.  The columns are
    copies: an array passed in is left as it was.
    """

    characteristic: Characteristic
    method: Method
    widths: tuple[float, ...]
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

    def flags(self) -> list[tuple[str, ...]]:
        """Each level's flag names, as :meth:`IntervalRow.flags` gives them."""
        columns = [getattr(self, column).tolist() for column, _ in _FLAGS]
        return [tuple(name for (_, name), on in zip(_FLAGS, level) if on)
                for level in zip(*columns)]

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
    method's limit laws, one kernel call gives the unit point and bound
    chains, and :meth:`CharacteristicSpec.natural_scale` maps all three to
    the characteristic's own scale, swapping the bounds where the map
    reverses their order (a negative seed, or the loss probability).  The
    loss probability caps its upper bound at 1 (flagged); rows whose
    lower bound is pinned at 0 (no reciprocal) are flagged degenerate and
    carry the trivial bracket (0, 1].  Lower bounds are floored at zero
    (flagged) for the nonnegative characteristics, and a row whose values
    violate lower <= point <= upper after the conventions is flagged
    degenerate rather than reordered.
    """
    widths = tuple(width_for(law, confidence, n_obs) for law in method.laws)
    return _interval_table(spec, moments, method, widths, order)


def _interval_table(
    spec: CharacteristicSpec,
    moments: MomentVector,
    method: Method,
    widths: tuple[float, ...],
    order: int,
) -> IntervalTable:
    """:func:`interval_table` for widths already resolved, one per law of
    ``method.laws``."""
    if method is Method.TWO_SIDED_STATISTIC:
        eps, gamma = widths[0], 2.0 * widths[0]
    else:
        eps, gamma = widths
    chains = spec.chains(moments, order, eps, gamma)
    loss_probability = spec.kind is Characteristic.LOSS_PROBABILITY
    lower, point, upper = (spec.natural_scale(c)
                           for c in (chains.lower, chains.point, chains.upper))
    if spec.seed < 0.0 or loss_probability:
        lower, upper = upper, lower
    # level 0 is the seed itself, which no convention below touches, and a
    # zero seed makes every level the seed
    clamped = np.concatenate(([False], chains.clamped & (spec.seed != 0.0)))
    if loss_probability:
        # the seed is 1, so the unit chains are on the recursion scale, where
        # only a lower bound pinned at 0 has no reciprocal
        invalid = np.concatenate(([False], chains.lower <= 0.0))
        capped = ~invalid & (upper > 1.0)
        lower, upper = np.where(invalid, 0.0, lower), np.where(invalid | capped, 1.0, upper)
        clamped |= capped
    else:
        invalid = False
        floored = lower < 0.0
        lower = np.where(floored, 0.0, lower)
        clamped |= floored
    degenerate = invalid | ~((lower <= point) & (point <= upper))
    return IntervalTable(
        characteristic=spec.kind, method=method, widths=widths,
        lower=lower, point=point, upper=upper, upper_infinite=np.isinf(upper),
        clamped=clamped, degenerate=degenerate,
    )
