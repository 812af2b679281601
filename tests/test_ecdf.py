"""Empirical CDF construction and exact sup-deviation statistics."""

import gc
import math
import os
import threading
import tracemalloc
import warnings
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


def test_single_point_step():
    e = build_ecdf(Sample([1.0]))
    assert e.evaluate(0.5) == 0.0
    assert e.evaluate(1.0) == 1.0


def test_tie_stacking():
    e = build_ecdf(Sample([1.0, 2.0, 2.0, 3.0]))
    assert e.evaluate(2.0) == 0.75


def test_zero_below_minimum_one_at_and_above_maximum():
    e = build_ecdf(Sample([2.0, 4.0, 6.0]))
    assert e.evaluate(1.999999) == 0.0
    assert e.evaluate(6.0) == 1.0
    assert e.evaluate(100.0) == 1.0


def test_right_continuity_at_jumps():
    e = build_ecdf(Sample([1.0, 2.0, 3.0]))
    below = np.nextafter(2.0, -np.inf)
    assert e.evaluate(below) == pytest.approx(1.0 / 3.0)
    assert e.evaluate(2.0) == pytest.approx(2.0 / 3.0)


def test_build_ecdf_sorts_input():
    e = build_ecdf(Sample([3.0, 1.0, 2.0]))
    assert np.array_equal(e.sorted_values, [1.0, 2.0, 3.0])


def test_evaluate_vectorized_matches_scalar():
    e = build_ecdf(Sample([1.0, 2.0, 3.0]))
    xs = np.array([0.5, 1.0, 2.5, 3.0])
    vec = e.evaluate(xs)
    assert np.array_equal(vec, [e.evaluate(float(x)) for x in xs])
    assert e(2.5) == e.evaluate(2.5)


def test_empirical_cdf_validates_ordering_and_derives_count():
    with pytest.raises(ValueError):
        EmpiricalCdf(np.array([2.0, 1.0]))
    e = EmpiricalCdf(np.array([1.0, 2.0, 2.0]))
    assert e.n_obs == 3
    with pytest.raises(AttributeError):
        e.n_obs = 4


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
    scan = float(np.max(np.abs(exp_cdf(grid) - e.evaluate(grid))))
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
_VALID = st.one_of(
    _POSITIVE.map(repr),
    _POSITIVE.map(lambda v: f"{v:.6g}"),
    _POSITIVE.map(lambda v: f"{v:e}"),
    _POSITIVE.map(lambda v: f"{v:E}"),
    st.sampled_from([
        "1_000", "2_5.0_1", "+2.5", ".5", "5.", "1e-320", "4.9e-324",
        "\u0661\u0662", "\uff11.5",
    ]),
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
# characters that str.splitlines breaks a line at but NumPy's reader reads
# as whitespace inside one line
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
        # one bad line among good ones: the fast path alone must reject it
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
        # a line break for splitlines inside what NumPy reads as one line
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
    # the C reader rejects each of these after reading ahead; a FIFO cannot
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
    # the C reader's table and the Sample's own copy; sorting the Sample, its
    # sorted copy and the ECDF's copy; the moments the ECDF, rate*x and the
    # weights once the Sample is dropped, with no fourth copy for -rate*x
    path, n = large_sample_file
    copy = 8 * n
    gc.collect()
    tracemalloc.start()
    try:
        sample, read_peak = _traced_peak(read_sample_file, path)
        ecdf, ecdf_peak = _traced_peak(build_ecdf, sample)
        del sample
        gc.collect()
        _, moments_peak = _traced_peak(moments_empirical, ecdf, 1.0, 400)
    finally:
        tracemalloc.stop()
    assert ecdf.n_obs == n
    assert read_peak <= 3 * copy, read_peak / copy
    assert ecdf_peak <= 4 * copy, ecdf_peak / copy
    assert moments_peak <= 3.5 * copy, moments_peak / copy
