"""Empirical CDF construction and exact sup-deviation statistics."""

import gc
import math
import os
import threading
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lossq import (
    EmpiricalCdf,
    KsStatistics,
    Sample,
    build_ecdf,
    draw_samples,
    ks_law_experiment,
    ks_statistics,
    moments_empirical,
    read_sample_file,
)
from lossq.ecdf import _read_decimals, read_ecdf
from lossq.errors import ParseError
from lossq.kolmogorov import kolmogorov_cdf
from lossq.simulate import Exponential


def exp_cdf(x):
    return -np.expm1(-np.asarray(x, dtype=float))


# ---------------------------------------------------------------- Sample


def test_sample_rejects_empty():
    with pytest.raises(ValueError):
        Sample(np.array([]))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_sample_rejects_nonpositive_or_nonfinite(bad):
    with pytest.raises(ValueError):
        Sample(np.array([1.0, bad, 2.0]))


def test_sample_is_read_only_and_counts():
    s = Sample([3.0, 1.0, 2.0])
    assert s.n_obs == 3
    with pytest.raises(ValueError):
        s.values[0] = 9.0


# ---------------------------------------------------------- EmpiricalCdf


def test_build_ecdf_sorts_input():
    e = build_ecdf(Sample([3.0, 1.0, 2.0]))
    assert np.array_equal(e.sorted_values, [1.0, 2.0, 3.0])


def test_empirical_cdf_validates_ordering_and_derives_count():
    with pytest.raises(ValueError, match="at least one observation"):
        EmpiricalCdf(np.array([]))
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([2.0, 1.0]))
    e = EmpiricalCdf(np.array([1.0, 2.0, 2.0]))
    assert e.n_obs == 3
    with pytest.raises(AttributeError):
        e.n_obs = 4


def test_a_callers_array_is_copied_and_left_writeable():
    values = np.array([3.0, 1.0, 2.0])
    ordered = np.array([1.0, 2.0, 3.0])
    sample, ecdf = Sample(values), EmpiricalCdf(ordered)
    assert not np.shares_memory(sample.values, values)
    assert not np.shares_memory(ecdf.sorted_values, ordered)
    values[0] = ordered[0] = 9.0
    assert sample.values.tolist() == [3.0, 1.0, 2.0]
    assert ecdf.sorted_values.tolist() == [1.0, 2.0, 3.0]


def test_fresh_arrays_are_taken_over_read_only(tmp_path):
    # the reader's table and the sorted copy are nobody else's, so the Sample
    # and the ECDF keep them; they are still checked and still read-only
    path = tmp_path / "obs.txt"
    path.write_text("3\n1\n2\n")
    sample = read_sample_file(path)
    ecdf = build_ecdf(sample)
    assert isinstance(sample, Sample) and isinstance(ecdf, EmpiricalCdf)
    assert ecdf.sorted_values.tolist() == [1.0, 2.0, 3.0]
    for arr in (sample.values, ecdf.sorted_values):
        with pytest.raises(ValueError):
            arr[0] = 9.0


# ---------------------------------------------------------- KsStatistics


def test_statistics_validate_range_and_consistency():
    with pytest.raises(ValueError):
        KsStatistics(two_sided=1.5, one_sided_minus=1.5, one_sided_plus=0.1)
    with pytest.raises(ValueError):
        KsStatistics(two_sided=0.3, one_sided_minus=0.2, one_sided_plus=0.1)


def test_single_observation_against_uniform():
    # One value at 0.5 against F(x) = x: both one-sided gaps equal 0.5.
    e = build_ecdf(Sample([0.5]))
    st = ks_statistics(e, lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0))
    assert st.one_sided_plus == pytest.approx(0.5)
    assert st.one_sided_minus == pytest.approx(0.5)
    assert st.two_sided == pytest.approx(0.5)


def test_quantile_spaced_sample_gives_half_step_deviation():
    # Observations placed at the model's own (k - 0.5)/N quantiles deviate
    # by exactly 1/(2N) on both sides.
    n = 10
    xs = -np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n)
    st = ks_statistics(build_ecdf(Sample(xs)), exp_cdf)
    assert st.two_sided == pytest.approx(0.05, abs=1e-12)
    assert st.one_sided_minus == pytest.approx(0.05, abs=1e-12)
    assert st.one_sided_plus == pytest.approx(0.05, abs=1e-12)


def test_large_exponential_sample_is_close_to_its_law():
    s = draw_samples(Exponential(1.0), 10_000, seed=0)
    st = ks_statistics(build_ecdf(s), exp_cdf)
    assert st.two_sided < 0.02


@pytest.mark.parametrize("seed", range(20))
def test_two_sided_is_max_of_one_sided(seed):
    s = draw_samples(Exponential(1.0), 200, seed=seed)
    st = ks_statistics(build_ecdf(s), exp_cdf)
    assert st.two_sided == max(st.one_sided_minus, st.one_sided_plus)
    assert 0.0 <= st.one_sided_minus <= 1.0
    assert 0.0 <= st.one_sided_plus <= 1.0


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_jump_enumeration_matches_dense_grid_scan(seed):
    # Independent brute force: a 1e-4 grid over the sample range, refined at
    # the step discontinuities so the scan sees both one-sided values.
    s = draw_samples(Exponential(1.0), 50, seed=seed)
    e = build_ecdf(s)
    st = ks_statistics(e, exp_cdf)
    xs = e.sorted_values
    grid = np.arange(xs[0], xs[-1], 1e-4)
    grid = np.union1d(grid, np.union1d(xs, np.nextafter(xs, -np.inf)))
    # F_N(x), the fraction of observations at or below x
    ecdf_values = np.searchsorted(e.sorted_values, grid, side="right") / e.n_obs
    scan = float(np.max(np.abs(exp_cdf(grid) - ecdf_values)))
    assert abs(scan - st.two_sided) < 1e-6


def test_monotone_transform_invariance():
    # Squaring the observations and pre-composing the model CDF with the
    # square root leaves all three statistics unchanged.
    s = draw_samples(Exponential(1.0), 500, seed=8)
    st = ks_statistics(build_ecdf(s), exp_cdf)
    st2 = ks_statistics(
        build_ecdf(Sample(s.values**2)),
        lambda y: exp_cdf(np.sqrt(np.asarray(y, dtype=float))),
    )
    assert st2.two_sided == pytest.approx(st.two_sided, abs=1e-12)
    assert st2.one_sided_minus == pytest.approx(st.one_sided_minus, abs=1e-12)
    assert st2.one_sided_plus == pytest.approx(st.one_sided_plus, abs=1e-12)


def test_scaled_statistic_spread_follows_its_limit_law():
    # Over 200 seeded trials at N = 1e4 the empirical law of the scaled
    # two-sided statistic tracks its limit CDF.
    res = ks_law_experiment(Exponential(1.0), 10_000, 200, seed=11)
    xs = np.sort(res.two_sided)
    ranks = np.arange(1, xs.size + 1) / xs.size
    law = np.array([kolmogorov_cdf(float(z)) for z in xs])
    sup = max(
        float(np.max(np.abs(ranks - law))),
        float(np.max(np.abs(ranks - 1.0 / xs.size - law))),
    )
    assert sup < 0.1


def test_model_cdf_out_of_range_is_rejected():
    e = build_ecdf(Sample([1.0, 2.0]))
    with pytest.raises(ValueError):
        ks_statistics(e, lambda x: np.asarray(x, dtype=float) * 10.0)


def test_scalar_only_model_cdf_is_supported():
    e = build_ecdf(Sample([0.5, 1.5]))
    st_scalar = ks_statistics(e, lambda x: 1.0 - math.exp(-float(x)))
    st_vector = ks_statistics(e, exp_cdf)
    assert st_scalar == st_vector


# ------------------------------------------------------------- file I/O


def test_read_sample_file_ignores_blank_lines(tmp_path):
    p = tmp_path / "obs.txt"
    p.write_text("1.5\n\n2.5\n  \n0.25\n")
    s = read_sample_file(p)
    assert np.array_equal(s.values, [1.5, 2.5, 0.25])


def test_read_sample_file_names_bad_line(tmp_path):
    p = tmp_path / "obs.txt"
    p.write_text("1.5\nabc\n2.0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_sample_file(p)


def test_read_sample_file_rejects_nonpositive_with_line_number(tmp_path):
    p = tmp_path / "obs.txt"
    p.write_text("1.5\n2.0\n-3.0\n")
    with pytest.raises(ParseError, match="line 3"):
        read_sample_file(p)


def test_read_sample_file_rejects_empty(tmp_path):
    p = tmp_path / "obs.txt"
    p.write_text("\n\n")
    with pytest.raises(ParseError):
        read_sample_file(p)


def _line_scan(path) -> np.ndarray:
    """The reference parse: one line at a time, as the reader's fallback."""
    text = Path(path).read_text(encoding="utf-8")
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    return np.array(values)


_POSITIVE = st.floats(min_value=5e-324, max_value=1e308)
_PADDING = st.sampled_from(["", " ", "\t", "  \t ", "\u00a0", "\u2003", "\x1f", "\x0b"])


def _with_dot(digits: str, at: int) -> str:
    return f"{digits[:at]}.{digits[at:]}"


def _midpoint_string(v: float, digits: int, shift: int) -> str:
    """The exact midpoint between ``v`` and the next double up, in positional
    notation, cut to ``digits`` significant digits and moved by ``shift``
    in the last digit."""
    midpoint = Decimal(v) + Decimal(float(np.spacing(v))) / 2
    whole, _, fraction = format(midpoint, "f").partition(".")
    lead = len(whole + fraction) - len((whole + fraction).lstrip("0"))
    fraction = fraction[:max(lead + digits - len(whole), 0)]
    mantissa = str(int(whole + fraction) + shift).rjust(len(whole + fraction), "0")
    return _with_dot(mantissa, len(mantissa) - len(fraction)) if fraction else mantissa


# decimals that reach the kernel's exact-rounding branches
_DECIMALS = st.one_of(
    # 16-20 significant digits, the dot anywhere: the double-double quotient
    # and the rows too long for it
    st.builds(_with_dot, st.builds(str.__add__, st.sampled_from("123456789"),
                                   st.text("0123456789", min_size=15, max_size=19)),
              st.integers(0, 20)),
    # near and exact rounding midpoints
    st.builds(_midpoint_string, st.floats(1e-6, 2.0**64), st.integers(17, 20),
              st.integers(-1, 1)),
    # 19-22 fraction digits
    st.builds(lambda width, digits: "0." + str(digits).rjust(width, "0"),
              st.integers(19, 22), st.integers(1, 10**15)),
    st.builds("{}e{}".format, st.integers(1, 10**18), st.integers(-30, 30)),
)
_ASCII_PADDING = st.sampled_from(["", " ", "\t", "  \t "])
_VALID = st.one_of(
    _POSITIVE.map(repr),
    _POSITIVE.map(lambda v: f"{v:.6g}"),
    _POSITIVE.map(lambda v: f"{v:e}"),
    _POSITIVE.map(lambda v: f"{v:E}"),
    st.sampled_from([
        "1_000", "2_5.0_1", "+2.5", ".5", "5.", "1e-320", "4.9e-324",
        "\u0661\u0662", "\uff11.5",
    ]),
    _DECIMALS,
)
_INVALID = st.one_of(
    st.sampled_from([
        "", "   ", "1__0", "_1", "1_", "nan", "NaN", "-nan", "inf", "-inf",
        "Infinity", "1e999", "-1e999", "0", "-0", "0.0", "-0.0", "+0", "-1",
        "-2.5e3", "1e-400", "0x10", "1.2.3", "1e", "e5", "abc", "--1", "1 2",
        "#", "# 1.5", "#1.5", "1.5 # note", "1.5\x00",
    ]),
    st.text(alphabet="0123456789.eE+-_ xn\t#", max_size=8),
)
# characters that str.splitlines breaks a line at, inside what a reader
# splitting at newlines alone would take for one line
_INLINE_BREAK = st.sampled_from(
    ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
# byte sequences that are not UTF-8
_NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88"])


def _padded(lines):
    return st.tuples(_PADDING, lines, _PADDING).map("".join)


def _joined(left, right):
    return st.tuples(left, _INLINE_BREAK, right).map("".join)


def _two_numbers(numbers):
    return st.tuples(numbers, st.sampled_from([" ", "\t", " \t "]), numbers).map(
        "".join
    )


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.one_of(
        st.lists(_padded(_VALID), max_size=30),
        # rows with ASCII blanks only, which the kernel reads without declining
        st.lists(st.tuples(_ASCII_PADDING, st.one_of(_POSITIVE.map(repr), _DECIMALS),
                           _ASCII_PADDING).map("".join), max_size=30),
        # one bad line among good ones: the kernel alone must decline it
        st.tuples(
            st.lists(_padded(_VALID), max_size=15), _padded(_INVALID),
            st.lists(_padded(_VALID), max_size=15),
        ).map(lambda parts: parts[0] + [parts[1]] + parts[2]),
        st.lists(_padded(st.one_of(_VALID, _INVALID)), max_size=30),
        # every line a comment, or commented lines among good ones
        st.lists(_VALID.map("#".__add__), min_size=1, max_size=10),
        st.lists(st.one_of(_padded(_VALID), _VALID.map("# ".__add__)), max_size=30),
        # two numbers on every line: a two-column table, not a sample
        st.lists(_padded(_two_numbers(_VALID)), min_size=1, max_size=20),
        st.lists(_padded(_two_numbers(st.one_of(_VALID, _INVALID))),
                 min_size=1, max_size=20),
        # a line break for splitlines inside what a newline split takes for one line
        st.lists(
            _padded(st.one_of(
                _VALID,
                _joined(_VALID, _VALID),
                _joined(_VALID, st.just("")),
                _joined(st.just(""), _VALID),
                _joined(_VALID, _INVALID),
            )),
            max_size=30,
        ),
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
    # an optional non-UTF-8 byte sequence, spliced in at a relative position
    splice=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0), _NOT_UTF8)),
)
def test_read_sample_file_matches_the_line_scan(tmp_path, lines, newline, trailing,
                                                splice):
    p = tmp_path / "obs.txt"
    data = (newline.join(lines) + (newline if trailing else "")).encode("utf-8")
    if splice is not None:
        at = int(splice[0] * len(data))
        data = data[:at] + splice[1] + data[at:]
    p.write_bytes(data)
    try:
        expected = _line_scan(p)
    except (ParseError, UnicodeDecodeError) as exc:
        with pytest.raises(type(exc)) as got:
            read_sample_file(p)
        assert str(got.value) == str(exc)
    else:
        assert read_sample_file(p).values.tobytes() == expected.tobytes()


def _kernel_matches_the_line_scan(path):
    with open(path, "rb") as fh:
        values = _read_decimals(fh)
    assert values is not None, "the kernel declined the file"
    assert values.tobytes() == _line_scan(path).tobytes()


def test_the_kernel_reads_reprs_over_many_scales_as_the_line_scan(tmp_path):
    values = np.exp(np.random.default_rng(18).uniform(-40.0, 40.0, 200_000))
    p = tmp_path / "obs.txt"
    p.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    _kernel_matches_the_line_scan(p)


def test_the_kernel_reads_midpoint_decimals_as_the_line_scan(tmp_path):
    rng = np.random.default_rng(19)
    values = np.exp(rng.uniform(-14.0, 44.0, 10_000)).tolist()
    digits, shifts = rng.integers(17, 21, 10_000), rng.integers(-1, 2, 10_000)
    p = tmp_path / "obs.txt"
    p.write_text("".join(f"{_midpoint_string(v, int(d), int(s))}\n"
                         for v, d, s in zip(values, digits, shifts)))
    _kernel_matches_the_line_scan(p)


def test_read_sample_file_never_decompresses(tmp_path):
    # a .gz suffix on a plain-text file changes nothing
    p = tmp_path / "obs.txt.gz"
    p.write_text("1.5\n2.5\n")
    assert np.array_equal(read_sample_file(p).values, [1.5, 2.5])


def test_read_sample_file_does_not_read_a_one_line_table_as_two_values(tmp_path):
    p = tmp_path / "obs.txt"
    p.write_text("1 2\n")
    with pytest.raises(ParseError) as got:
        read_sample_file(p)
    assert str(got.value) == "line 1: not a number: '1 2'"


def test_read_sample_file_rejects_comment_lines(tmp_path):
    p = tmp_path / "obs.txt"
    p.write_text("1.5\n# 2.5\n3.5\n")
    with pytest.raises(ParseError) as got:
        read_sample_file(p)
    assert str(got.value) == "line 2: not a number: '# 2.5'"


def _kernel_declines(path) -> None:
    with open(path, "rb") as fh:
        assert _read_decimals(fh) is None, "the kernel read the file"


@pytest.mark.parametrize("data, expected", [
    # a lone \r ends a line for the line scan, so the kernel leaves it there
    (b"1.5\r2.5\n3.5\n", [1.5, 2.5, 3.5]),
    # a row longer than the kernel's 32 KB block
    (b"0" * 40_000 + b"1.5\n", [1.5]),
])
def test_the_line_scan_reads_what_the_kernel_declines(tmp_path, data, expected):
    p = tmp_path / "obs.txt"
    p.write_bytes(data)
    _kernel_declines(p)
    assert read_sample_file(p).values.tolist() == expected


def test_two_dots_on_one_row_are_declined_and_named_by_line(tmp_path):
    p = tmp_path / "obs.txt"
    p.write_bytes(b"1.5\n1.2.5\n3.5\n")
    _kernel_declines(p)
    with pytest.raises(ParseError) as got:
        read_sample_file(p)
    assert str(got.value) == "line 2: not a number: '1.2.5'"


@pytest.mark.parametrize("text", ["", "\n", "\n\n", "  \n\t\n", "\r\n \r\n"])
def test_read_sample_file_empty_or_blank_raises_without_a_warning(tmp_path, text):
    p = tmp_path / "obs.txt"
    p.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError) as got:
            read_sample_file(p)
    assert str(got.value) == f"no observations found in {p}"
    assert caught == []


def _read_through_fifo(tmp_path, data: bytes):
    """``read_sample_file`` on a FIFO fed ``data`` by a writer thread: input
    that can be read only once, as from a pipe or ``<(zcat obs.gz)``."""
    fifo = tmp_path / "obs.fifo"
    os.mkfifo(fifo)
    outcome = {}

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass  # the reader closed early; its result is what is checked

    def read():
        try:
            outcome["sample"] = read_sample_file(fifo)
        except Exception as exc:
            outcome["error"] = exc

    # the reader runs in a thread too: opening the FIFO a second time would
    # block for ever, as no writer is left to open it
    threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads), "the FIFO read blocked"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["sample"]


@pytest.mark.parametrize(
    "data, message",
    [
        (b"x\n1.5\n", "line 1: not a number: 'x'"),
        (b"1.5\n" * 20_000 + b"oops\n" + b"2.5\n" * 100,
         "line 20001: not a number: 'oops'"),
        (b"12345.678\n" * 20_000 + b"-1\n",
         "line 20001: observations must be positive, got '-1'"),
    ],
    ids=["header", "bad-line-past-the-read-ahead", "negative-past-the-read-ahead"],
)
def test_read_sample_file_names_the_bad_line_of_a_fifo(tmp_path, data, message):
    with pytest.raises(ParseError) as got:
        _read_through_fifo(tmp_path, data)
    assert str(got.value) == message


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"1_000\n2.5\n", [1000.0, 2.5]),
        (b"12345.678\n" * 20_000 + b"1_000\n", [12345.678] * 20_000 + [1000.0]),
        (b"\xd9\xa3\n" + b"12345.678\n" * 20_000, [3.0] + [12345.678] * 20_000),
        (b"1.5\n2\x0c5\n", [1.5, 2.0, 5.0]),
    ],
    ids=["digit-separator", "digit-separator-last", "arabic-digit-first", "form-feed"],
)
def test_read_sample_file_reads_a_fifo_in_full(tmp_path, data, expected):
    # the kernel declines each of these after reading ahead; a FIFO cannot
    # be rewound, so it must go to the line scan from the start
    assert _read_through_fifo(tmp_path, data).values.tolist() == expected


def test_read_sample_file_fifo_matches_a_regular_file(tmp_path):
    values = np.random.default_rng(7).exponential(1.0, 5_000).tolist()
    data = "".join(f"{v!r}\n" for v in values)
    p = tmp_path / "obs.txt"
    p.write_text(data)
    from_fifo = _read_through_fifo(tmp_path, data.encode())
    assert from_fifo.values.tobytes() == read_sample_file(p).values.tobytes()


# ---------------------------------------------------------- memory


def _traced_peak(fn, *args):
    """Result of ``fn(*args)`` and the most memory traced at once during the
    call: everything allocated since tracing started and still held."""
    tracemalloc.reset_peak()
    out = fn(*args)
    return out, tracemalloc.get_traced_memory()[1]


@pytest.fixture()
def large_sample_file(tmp_path):
    n = 200_000
    values = np.random.default_rng(2024).exponential(1.0, n)
    p = tmp_path / "large.txt"
    p.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    return p, n


def test_ingest_holds_few_copies_of_the_sample(large_sample_file):
    # in units of one float64 copy of the sample (8N bytes).  Reading holds
    # the block reader's preallocated result, which the Sample takes over
    # uncopied, plus about 0.2 x 8N of block scratch; sorting the Sample
    # and its sorted copy, which the ECDF takes over (each plus a boolean
    # check temporary of N bytes).  The moments, beyond the ECDF they are
    # given once the Sample is dropped, hold the window that survives the
    # first block and a few leaves of 2^15 observations: at order 400 a
    # small window (about 0.8 x 8N), at order 10 no window, and the tail's
    # temporaries over chunks of 2^13 observations stay below the first
    # pass's leaves (about 0.8 x 8N at this N)
    path, n = large_sample_file
    copy = 8 * n
    gc.collect()
    tracemalloc.start()
    try:
        sample, read_peak = _traced_peak(read_sample_file, path)
        ecdf, ecdf_peak = _traced_peak(build_ecdf, sample)
        del sample
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        moments_peaks = {order: _traced_peak(moments_empirical, ecdf, 1.0, order)[1] - held
                         for order in (400, 10)}
    finally:
        tracemalloc.stop()
    assert ecdf.n_obs == n
    assert read_peak <= 1.25 * copy, read_peak / copy
    assert ecdf_peak <= 2.25 * copy, ecdf_peak / copy
    assert moments_peaks[400] <= 1.5 * copy, moments_peaks[400] / copy
    assert moments_peaks[10] <= 1.0 * copy, moments_peaks[10] / copy


def test_read_ecdf_holds_one_copy_of_the_sample(large_sample_file):
    # the reader's result is sorted in place and adopted, so the peak is the
    # read's own: that result and the block scratch
    path, n = large_sample_file
    gc.collect()
    tracemalloc.start()
    try:
        ecdf, peak = _traced_peak(read_ecdf, path)
    finally:
        tracemalloc.stop()
    assert ecdf.n_obs == n
    assert peak <= 1.25 * 8 * n, peak / (8 * n)


def test_read_ecdf_matches_build_ecdf(large_sample_file):
    path, _ = large_sample_file
    ecdf = read_ecdf(path)
    want = build_ecdf(read_sample_file(path)).sorted_values
    assert ecdf.sorted_values.tobytes() == want.tobytes()
    assert not ecdf.sorted_values.flags.writeable


@pytest.mark.parametrize("text", ["3.5\n1.25\n2\n", "3.5\n1_0\n2\n"],
                         ids=["decimal-kernel", "line-scan"])
def test_read_ecdf_sorts_what_either_reader_path_returns(tmp_path, text):
    p = tmp_path / "obs.txt"
    p.write_text(text)
    ecdf = read_ecdf(p)
    assert ecdf.sorted_values.tolist() == sorted(read_sample_file(p).values.tolist())
    assert not ecdf.sorted_values.flags.writeable
