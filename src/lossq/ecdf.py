"""Empirical distribution functions and sup-deviation statistics.

A sample of positive observation times defines a right-continuous step CDF
with mass 1/N at each observation.  Against a reference CDF, the two
one-sided sup deviations are enumerated exactly at the jump points
(``max_k(k/N - F(x_(k)))`` above, ``max_k(F(x_(k)) - (k-1)/N)`` below) and
the two-sided statistic is their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ParseError

__all__ = [
    "Sample",
    "EmpiricalCdf",
    "KsStatistics",
    "build_ecdf",
    "ks_statistics",
    "read_sample_file",
]


@dataclass(frozen=True, eq=False)
class Sample:
    """A batch of positive, finite observation times."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a non-empty 1-D collection")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("sample values must be positive finite numbers")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_obs(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous step CDF: 0 below the smallest observation, 1 at and
    above the largest, jumps of 1/n_obs at each sorted observation (stacked
    at ties)."""

    sorted_values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.sorted_values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("an empirical CDF needs at least one observation")
        if np.any(np.diff(arr) < 0):
            raise ValueError("observations must be sorted ascending")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "sorted_values", arr)

    @property
    def n_obs(self) -> int:
        return int(self.sorted_values.size)

    def evaluate(self, x):
        """Fraction of observations <= x; accepts scalars or arrays."""
        xs = np.asarray(x, dtype=float)
        counts = np.searchsorted(self.sorted_values, xs, side="right")
        out = counts / self.n_obs
        return float(out) if np.isscalar(x) or xs.ndim == 0 else out

    __call__ = evaluate


@dataclass(frozen=True)
class KsStatistics:
    """Sup deviations of an empirical CDF from a reference CDF."""

    two_sided: float
    one_sided_minus: float
    one_sided_plus: float

    def __post_init__(self) -> None:
        for name in ("two_sided", "one_sided_minus", "one_sided_plus"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.two_sided != max(self.one_sided_minus, self.one_sided_plus):
            raise ValueError("two_sided must equal max of the one-sided statistics")


def build_ecdf(sample: Sample) -> EmpiricalCdf:
    """Sort a sample into its empirical CDF."""
    if not isinstance(sample, Sample):
        sample = Sample(np.asarray(sample, dtype=float))
    return EmpiricalCdf(np.sort(sample.values))


def ks_statistics(ecdf: EmpiricalCdf, model_cdf: Callable) -> KsStatistics:
    """Exact sup deviations of ``ecdf`` from ``model_cdf``.

    The enumeration runs over the jump points only: with sorted observations
    x_(1) <= ... <= x_(N), the deviation above is max_k(k/N - F(x_(k))) and
    the deviation below is max_k(F(x_(k)) - (k-1)/N), both floored at zero.
    Tied observations stack naturally because k indexes positions, not
    distinct values.  ``model_cdf`` may be scalar-only or vectorized.
    """
    xs = ecdf.sorted_values
    f = _evaluate_cdf(model_cdf, xs)
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        bad = float(f[np.argmax(np.abs(f - 0.5))])
        raise ValueError(f"model CDF returned a value outside [0, 1]: {bad}")
    f = np.clip(f, 0.0, 1.0)
    n = ecdf.n_obs
    k = np.arange(1, n + 1, dtype=float)
    plus = max(float(np.max(k / n - f)), 0.0)
    minus = max(float(np.max(f - (k - 1.0) / n)), 0.0)
    return KsStatistics(
        two_sided=max(minus, plus), one_sided_minus=minus, one_sided_plus=plus
    )


def _evaluate_cdf(model_cdf: Callable, xs: np.ndarray) -> np.ndarray:
    try:
        f = np.asarray(model_cdf(xs), dtype=float)
        if f.shape == xs.shape:
            return f
    except (TypeError, ValueError):
        pass
    return np.fromiter(
        (float(model_cdf(float(x))) for x in xs), dtype=float, count=xs.size
    )


def read_sample_file(path) -> Sample:
    """Read one positive decimal per line; blank lines are ignored.

    A line that does not parse as a positive finite number raises
    :class:`ParseError` naming the offending line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    # float() strips surrounding whitespace itself, so a file without bad
    # lines converts in one pass once blank lines are dropped; Sample rejects
    # non-positive, non-finite and empty input with a ValueError
    try:
        return Sample(np.fromiter(map(float, filter(str.strip, lines)), dtype=float))
    except ValueError:
        pass
    # rescan line by line to name the offending line
    values: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError:
            raise ParseError(f"line {lineno}: not a number: {line!r}") from None
        if not np.isfinite(v) or v <= 0.0:
            raise ParseError(f"line {lineno}: observations must be positive, got {line!r}")
        values.append(v)
    if not values:
        raise ParseError(f"no observations found in {path}")
    return Sample(np.array(values))
