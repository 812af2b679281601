"""Exceptions shared across the package."""


class ParseError(ValueError):
    """A sample file contains a line that is not a positive number."""


class DegeneracyError(ArithmeticError):
    """A numeric degeneracy prevents producing a finite estimate."""
