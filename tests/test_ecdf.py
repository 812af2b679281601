"""Empirical CDF construction and exact sup-deviation statistics."""

import math
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
    ]),
    st.text(alphabet="0123456789.eE+-_ xn\t", max_size=8),
)


def _padded(lines):
    return st.tuples(_PADDING, lines, _PADDING).map("".join)


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
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
    trailing=st.booleans(),
)
def test_read_sample_file_matches_the_line_scan(tmp_path, lines, newline, trailing):
    p = tmp_path / "obs.txt"
    p.write_bytes((newline.join(lines) + (newline if trailing else "")).encode("utf-8"))
    try:
        expected = _line_scan(p)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            read_sample_file(p)
        assert str(got.value) == str(exc)
    else:
        assert read_sample_file(p).values.tobytes() == expected.tobytes()
