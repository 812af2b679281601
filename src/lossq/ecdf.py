"""Empirical distribution functions and sup-deviation statistics.

A sample of positive observation times defines a right-continuous step CDF
with mass 1/N at each observation.  Against a reference CDF, the two
one-sided sup deviations are enumerated exactly at the jump points
(``max_k(k/N - F(x_(k)))`` above, ``max_k(F(x_(k)) - (k-1)/N)`` below) and
the two-sided statistic is their maximum.
"""

from __future__ import annotations

import io
import math
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
        object.__setattr__(self, "values", _read_only(_check_positive_finite(arr).copy()))

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
        object.__setattr__(self, "sorted_values", _read_only(arr.copy()))

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


def _check_positive_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("sample values must be positive finite numbers")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _adopt(cls, field: str, arr: np.ndarray):
    """``cls(arr)`` for a fresh float array that nothing else references and
    that already passes the constructor's checks: made read-only in place
    instead of copied into ``field``, the class's one field."""
    obj = object.__new__(cls)
    object.__setattr__(obj, field, _read_only(arr))
    return obj


def build_ecdf(sample: Sample) -> EmpiricalCdf:
    """Sort a sample into its empirical CDF."""
    if not isinstance(sample, Sample):
        sample = Sample(np.asarray(sample, dtype=float))
    return _adopt(EmpiricalCdf, "sorted_values", np.sort(sample.values))


def ks_statistics(ecdf: EmpiricalCdf, model_cdf: Callable) -> KsStatistics:
    """Exact sup deviations of ``ecdf`` from ``model_cdf``.

    The enumeration runs over the jump points only: with sorted observations
    x_(1) <= ... <= x_(N), the deviation above is max_k(k/N - F(x_(k))) and
    the deviation below is max_k(F(x_(k)) - (k-1)/N), both floored at zero.
    Tied observations stack naturally because k indexes positions, not
    distinct values.  ``model_cdf`` may be scalar-only or vectorized.
    """
    plus, minus = _sup_deviations(ecdf.sorted_values, model_cdf)
    plus, minus = float(plus), float(minus)
    return KsStatistics(
        two_sided=max(minus, plus), one_sided_minus=minus, one_sided_plus=plus
    )


def _sup_deviations(xs: np.ndarray, model_cdf: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The deviations above and below (``plus``, ``minus``) of each row of
    ``xs``, sorted ascending along the last axis, from ``model_cdf``: one
    CDF call for all rows."""
    f = _evaluate_cdf(model_cdf, xs)
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        bad = float(f.flat[np.argmax(np.abs(f - 0.5))])
        raise ValueError(f"model CDF returned a value outside [0, 1]: {bad}")
    f = np.clip(f, 0.0, 1.0)
    n = xs.shape[-1]
    k = np.arange(1, n + 1, dtype=float)
    plus = np.maximum(np.max(k / n - f, axis=-1), 0.0)
    minus = np.maximum(np.max(f - (k - 1.0) / n, axis=-1), 0.0)
    return plus, minus


def _evaluate_cdf(model_cdf: Callable, xs: np.ndarray) -> np.ndarray:
    try:
        f = np.asarray(model_cdf(xs), dtype=float)
        if f.shape == xs.shape:
            return f
    except (TypeError, ValueError):
        pass
    f = np.fromiter(
        (float(model_cdf(float(x))) for x in xs.flat), dtype=float, count=xs.size
    )
    return f.reshape(xs.shape)


# The decimal kernel reads a file in blocks of _BLOCK bytes, each after a head
# of _HEAD ASCII zeros, so that every row has 24 bytes before its end to load
# as three words.  Its scratch arrays take about ten times a block, which
# keeps the read of a 2e5-line file within 1.25 float64 copies of the sample.
_HEAD = 24
_BLOCK = 1 << 15
# 10**k is exact in float64 for k <= 22 (5**22 < 2**53): Clinger's range
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1
# a row's last 24 bytes, loaded at any byte offset
_ROW_BYTES = np.dtype((np.void, 24))
# per row length up to 24: the bytes of its three words that lie in the row
_KEEP = np.array(
    [[(2**64 - 1) << (8 * min(max(end - length, 0), 8)) & (2**64 - 1)
      for end in (24, 16, 8)] for length in range(25)],
    np.uint64,
)
_U8, _U10, _U16, _U32 = (np.uint64(k) for k in (8, 10, 16, 32))
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_PAIRS = np.uint64(0x000000FF000000FF)
_PAIRS_HI = np.uint64(100 + (1000000 << 32))
_PAIRS_LO = np.uint64(1 + (10000 << 32))
_E8, _E16 = np.uint64(10**8), np.uint64(10**16)
_EXPONENT = np.uint64(0x7FF0000000000000)
# the kinds of non-digit bytes: a row ends at a newline; translate() drops
# dots and carriage returns; a row with a sign, an exponent or a blank goes
# to float(); any other byte sends the whole file to the line scan
_NEWLINE, _DOT, _CR, _FLOAT, _FOREIGN = range(5)
_KIND = np.full(256, _FOREIGN, np.uint8)
_KIND[ord("\n")], _KIND[ord(".")], _KIND[ord("\r")] = _NEWLINE, _DOT, _CR
_KIND[np.frombuffer(b" \t+-eE", np.uint8)] = _FLOAT


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: ``x = hi + lo`` exactly, each half of at most 26
    significant bits, so that products of halves are exact."""
    t = _SPLITTER * x
    hi = t - (t - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _eight_digit_words(digits: bytearray, ends: np.ndarray,
                       lengths: np.ndarray) -> np.ndarray:
    """The values of each row's last 24 digits, which end at ``ends`` in
    ``digits``, as three words of eight: the columns of a (rows, 3) array.

    A row's 24 bytes are loaded as three little-endian words, the bytes
    before the row's start are zeroed, and Lemire's SWAR step (2021) turns
    each word's eight digits into pairs, then two quadruples that one
    multiply-shift joins into the eight."""
    rows = np.ndarray((len(digits) - 23,), _ROW_BYTES, digits, 0, (1,))
    x = rows[ends - 24].view("<u8").reshape(-1, 3)
    x ^= _ASCII_ZEROS
    x &= _KEEP[np.minimum(lengths, 24)]
    t = x >> _U8
    x *= _U10
    x += t
    np.right_shift(x, _U16, out=t)
    t &= _PAIRS
    t *= _PAIRS_LO
    x &= _PAIRS
    x *= _PAIRS_HI
    x += t
    x >>= _U32
    return x


def _quotient(w: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``w / 10**p`` correctly rounded, for ``w < 10**18`` and ``p <= 22``,
    and where that is not certain (or None if nowhere): each row within
    2**-80 relative of a rounding midpoint.

    With ``w <= 2**53`` both operands are exact and the one division is
    correctly rounded (Clinger 1990).  Otherwise ``q = fl(fl(w) / 10**p)``
    is within two ulps, and the remainder ``w - q * 10**p`` is formed
    exactly: Dekker's product splits ``q * 10**p`` into ``ph + pl``,
    ``fl(w) - ph`` is exact by Sterbenz's lemma, and ``w - fl(w)`` is a
    small integer.  Only the last two additions round, so ``q + r / 10**p``
    is the true quotient to about 2**-100 relative, and rounds to the same
    double unless a midpoint lies that close."""
    d = _POW10[p]
    wh = w.astype(np.float64)
    q = wh / d
    if w.max(initial=0) <= 1 << 53:
        return q, None
    wl = w - wh.astype(np.uint64)
    wl = wl.view(np.int64).astype(np.float64)  # w - fl(w), exact
    qh, ql = _split(q)
    dh, dl = _POW10_HI[p], _POW10_LO[p]
    ph = q * d
    pl = qh * dh
    pl -= ph
    pl += qh * dl
    pl += ql * dh
    pl += ql * dl  # q * d - ph, exact
    del qh, ql, dh, dl
    wh -= ph
    wl -= pl
    wh += wl
    del ph, pl, wl
    wh /= d  # the correction to q
    out = q + wh
    # the quotient less the result against a midpoint, which sits 2**-53
    # times the power of two at or below the result away from it, or 2**-54
    # times it below a power of two: a = 2**-55 times that power
    q -= out
    q += wh
    np.abs(q, out=q)
    a = (out.view(np.uint64) & _EXPONENT).view(np.float64) * 2.0**-55
    q -= 3.0 * a
    np.abs(q, out=q)
    q -= a
    np.abs(q, out=q)
    a *= 2.0**-24
    return out, q <= a


def _row_lengths(ends: np.ndarray) -> np.ndarray:
    lengths = np.empty_like(ends)
    lengths[0] = ends[0] - _HEAD
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    lengths[1:] -= 1
    return lengths


def _decimal_block(buf: bytearray, cut: int) -> np.ndarray | None:
    """The values of the rows in ``buf[_HEAD:cut]``, which ends with a
    newline, blank rows skipped; None when the line scan must read the
    file instead."""
    b = np.frombuffer(buf, np.uint8, cut)
    pos = np.flatnonzero((b - np.uint8(48)) > 9)  # every byte but the digits
    kind = b[pos]
    nl = pos[1::2]
    blank = None
    if (pos.size % 2 == 0 and (kind[0::2] == ord(".")).all()
            and (kind[1::2] == ord("\n")).all()):
        # the common file: digits, one dot and a newline on every row
        ends = nl - np.arange(1, nl.size + 1)
        p = nl - pos[0::2] - 1
        lengths = _row_lengths(ends)
        redo = lengths == 0
    else:
        kind = _KIND[kind]
        if (kind == _FOREIGN).any():
            return None
        if (b[pos[kind == _CR] + 1] != ord("\n")).any():
            return None  # a lone \r breaks a line for the scan
        newline, dot = kind == _NEWLINE, kind == _DOT
        nl = pos[newline]
        dropped = np.cumsum(dot | (kind == _CR))
        row = np.cumsum(newline) - newline
        dot_row = row[dot]
        if (dot_row[1:] == dot_row[:-1]).any():
            return None  # two dots on one row, which float() rejects
        ends = nl - dropped[newline]
        lengths = _row_lengths(ends)
        p = np.zeros(nl.size, np.int64)
        p[dot_row] = ends[dot_row] - (pos[dot] - dropped[dot] + 1)
        has_dot = np.zeros(nl.size, bool)
        has_dot[dot_row] = True
        redo = np.zeros(nl.size, bool)
        redo[row[kind == _FLOAT]] = True
        blank = (lengths == 0) & ~has_dot & ~redo
        redo |= (lengths == 0) & has_dot
    del b, pos, kind
    x = _eight_digit_words(buf.translate(None, b".\r"), ends, lengths)
    # more than 18 significant or 22 fraction digits: float() reads the row
    redo |= (x[:, 0] >= 100) | (lengths > _HEAD) | (p > 22)
    w = np.minimum(x[:, 0], np.uint64(99))
    w *= _E16
    x[:, 1] *= _E8
    w += x[:, 1]
    w += x[:, 2]
    del x
    np.minimum(p, 22, out=p)
    values, near = _quotient(w, p)
    if near is not None:
        redo |= near
    for i in np.flatnonzero(redo).tolist():
        start = nl[i - 1] + 1 if i else _HEAD
        text = buf[start:nl[i]].strip()
        if not text:
            # only the second branch redoes a row without a dot
            blank[i] = True
            continue
        try:
            values[i] = float(text)
        except ValueError:
            return None
    if blank is not None and blank.any():
        values = values[~blank]
    if not (values > 0.0).all() or not (values < np.inf).all():
        return None
    return values


def _read_decimals(fh) -> np.ndarray | None:
    """The decimal kernel over a seekable binary handle: every row's value,
    or None when the line scan must read the file instead."""
    buf = bytearray(_HEAD + _BLOCK + 1)  # + 1: room for a last newline
    buf[:_HEAD] = b"0" * _HEAD
    view = memoryview(buf)
    lines = 0
    while got := fh.readinto(view[_HEAD:_HEAD + _BLOCK]):
        lines += np.count_nonzero(np.frombuffer(buf, np.uint8, got, _HEAD) == ord("\n"))
    fh.seek(0)
    out = np.empty(lines + 1)
    filled = 0
    end = _HEAD
    while True:
        got = fh.readinto(view[end:_HEAD + _BLOCK])
        end += got
        if got:
            cut = buf.rfind(b"\n", _HEAD, end) + 1
            if not cut:
                if end == _HEAD + _BLOCK:
                    return None  # a row longer than a block
                continue
        elif end == _HEAD:
            break
        else:
            buf[end] = ord("\n")  # the last row has no newline
            end = cut = end + 1
        values = _decimal_block(buf, cut)
        if values is None or filled + values.size > out.size:
            return None  # or the file grew since its lines were counted
        out[filled:filled + values.size] = values
        filled += values.size
        buf[_HEAD:_HEAD + end - cut] = buf[cut:end]
        end = _HEAD + end - cut
    if not filled:
        return None
    out.resize(filled, refcheck=False)
    return out


def read_sample_file(path) -> Sample:
    """Read one positive decimal per line; blank lines are ignored.

    There are two paths, and they accept the same files with the same
    values and errors:

    * The decimal kernel reads a seekable file in binary, in blocks.  It
      counts the lines to size the result, then converts each row of
      ``digits[.digits]`` exactly.  SWAR turns the row's last 24 bytes,
      dots removed, into its integer mantissa ``w``, exact below 10**18;
      ``10**p`` for ``p`` fraction digits is exact up to 22.  Where
      ``w <= 2**53`` one division is correctly rounded (Clinger); elsewhere
      a double-double remainder decides the rounding (:func:`_quotient`).
      Either way the result is the double nearest ``w * 10**-p``, which is
      what :func:`float` returns.  Rows it does not convert itself go to
      :func:`float` on their own stripped bytes: signs, exponents and
      blanks; more than 18 significant or 22 fraction digits; a quotient
      within 2**-80 relative of a rounding midpoint.
    * The line scan reads the file as UTF-8 text and accepts exactly what
      :func:`float` accepts after :meth:`str.splitlines` and
      :meth:`str.strip` (digit separators such as ``1_000`` and non-ASCII
      digits included).  It names the first bad line.

    The kernel declines the whole file, which then goes to the scan on the
    same handle, on a byte other than an ASCII digit, ``.``, ``e``, ``E``,
    ``+``, ``-``, a space, a tab or a newline; a ``\\r`` not right before
    a ``\\n``; a row :func:`float` rejects; or a value that is not positive
    and finite.  Over the bytes it accepts, its rows are the scan's lines
    and :meth:`bytes.strip` is :meth:`str.strip`, so the two paths agree.
    The file is opened once; input that cannot be rewound (a pipe, a FIFO,
    ``/dev/stdin`` fed by a pipe) goes straight to the scan.  There is no
    comment syntax: a ``#`` line is an error.  Files are always read as
    plain text, never decompressed, whatever their suffix.

    A line that does not parse as a positive finite number raises
    :class:`ParseError` naming the offending line.
    """
    with open(path, "rb") as fh:
        if fh.seekable():
            decimals = _read_decimals(fh)
            if decimals is not None:
                return _adopt(Sample, "values", decimals)
            fh.seek(0)
        # line by line, to accept what float() accepts and name a bad line
        with io.TextIOWrapper(fh, encoding="utf-8") as text:
            lines = text.read().splitlines()
    values: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError:
            raise ParseError(f"line {lineno}: not a number: {line!r}") from None
        if not math.isfinite(v) or v <= 0.0:
            raise ParseError(f"line {lineno}: observations must be positive, got {line!r}")
        values.append(v)
    if not values:
        raise ParseError(f"no observations found in {path}")
    return _adopt(Sample, "values", np.array(values))
