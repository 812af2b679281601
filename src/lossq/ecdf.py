"""Empirical distribution functions and sup-deviation statistics.

A sample of positive observation times defines a right-continuous step CDF
with mass 1/N at each observation.  Against a reference CDF, the two
one-sided sup deviations are enumerated exactly at the jump points
(``max_k(k/N - F(x_(k)))`` above, ``max_k(F(x_(k)) - (k-1)/N)`` below) and
the two-sided statistic is their maximum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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
        if np.any(arr[1:] < arr[:-1]):
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

    The fast path is NumPy's C reader (``np.loadtxt`` on a file handle this
    function opens as UTF-8 text).  Its result is kept only when every line
    held one number; anything it rejects, and any file with more than one
    number on a line, goes through the line-by-line fallback, which accepts
    exactly what :func:`float` accepts after :meth:`str.splitlines` (digit
    separators such as ``1_000`` and non-ASCII digits included).  The file
    is opened once; input that cannot be rewound (a pipe, a FIFO,
    ``/dev/stdin`` fed by a pipe) skips the fast path, because ``loadtxt``
    reads ahead of the line it rejects.  There is
    no comment syntax: a ``#`` line is an error.  Files are always read as
    plain text, never decompressed, whatever their suffix.

    A line that does not parse as a positive finite number raises
    :class:`ParseError` naming the offending line.
    """
    # a handle, not the path: a path would go through NumPy's data source
    # layer, which decompresses by suffix and fetches URLs
    with open(path, encoding="utf-8") as fh:
        # loadtxt reads ahead, so only a file that can be rewound for the
        # fallback is given to it; a pipe or FIFO is scanned line by line
        if fh.seekable():
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data", UserWarning
                    )
                    # ndmin=2 keeps a one-line "1 2" file two columns wide
                    table = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
                if table.shape[1] == 1:
                    return Sample(table.reshape(-1))
            except ValueError:
                pass
            fh.seek(0)
        # line by line, to accept what float() accepts and name a bad line
        lines = fh.read().splitlines()
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
