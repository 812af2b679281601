"""The named choices of the library and the CLI: which characteristic to
estimate and which interval method bounds it.

They live apart from the modules that use them so that the CLI can offer
their values as choices without importing NumPy.
"""

from __future__ import annotations

import enum

from .kolmogorov import LimitLaw

__all__ = ["Characteristic", "Method"]


class Characteristic(enum.Enum):
    """Output characteristic of a finite-buffer loss system."""

    BUSY_PERIOD = "busy"
    SERVED_CUSTOMERS = "served"
    LOST_CUSTOMERS = "lost"
    LOSS_PROBABILITY = "loss-prob"

    @property
    def side(self) -> str:
        """The side whose rate weights the sample: ``"service"`` for the loss
        probability (GI/M/1/n, interarrival times), ``"arrival"`` for the
        rest (M/GI/1/n, service times)."""
        return "service" if self is Characteristic.LOSS_PROBABILITY else "arrival"


class Method(enum.Enum):
    """Which sup-statistic drives the confidence widths."""

    TWO_SIDED_STATISTIC = "two-sided"
    ONE_SIDED_STATISTICS = "one-sided"

    @property
    def laws(self) -> tuple[LimitLaw, ...]:
        """The limit laws of this method's widths, in the order the bound
        chains take them (``r_0`` first)."""
        if self is Method.TWO_SIDED_STATISTIC:
            return (LimitLaw.TWO_SIDED,)
        return (LimitLaw.ONE_SIDED, LimitLaw.ONE_SIDED_SUM)
