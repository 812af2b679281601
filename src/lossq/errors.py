"""Exceptions and the argument check shared across the package."""

import math


class ParseError(ValueError):
    """A sample file contains a line that is not a positive number."""


class DegeneracyError(ArithmeticError):
    """A numeric degeneracy prevents producing a finite estimate."""


def check_positive(name: str, value: float) -> None:
    """Raise :class:`ValueError` unless ``value`` is positive and finite."""
    if value <= 0.0 or not math.isfinite(value):
        raise ValueError(f"{name} must be positive and finite")
