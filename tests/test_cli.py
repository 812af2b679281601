"""End-to-end tests of the command-line interface (in-process via main)."""

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lossq.ecdf
import lossq.moments
from lossq.cli import SEED_ENV_VAR, _fmt, _render_text_table, build_parser, main
from lossq.ecdf import build_ecdf
from lossq.intervals import Method, interval_table
from lossq.kolmogorov import LimitLaw, width_for
from lossq.moments import MomentVector, moments_empirical, moments_exponential
from lossq.recursion import Characteristic, CharacteristicSpec, estimate_characteristic
from lossq.simulate import Exponential, draw_samples


@pytest.fixture()
def unit_exp_sample(tmp_path):
    """A 10^4-observation unit-exponential sample file plus its values."""
    sample = draw_samples(Exponential(1.0), 10_000, seed=77)
    path = tmp_path / "sample.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in sample.values))
    return path, sample


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "law, z",
    [
        ("two-sided", "1.358099"),
        ("one-sided", "1.223873"),
        ("one-sided-sum", "2.073026"),
    ],
)
def test_quantile_values(capsys, law, z):
    assert main(["quantile", "--law", law, "--p", "0.95"]) == 0
    assert capsys.readouterr().out == f"z* = {z}\n"


def test_quantile_with_sample_size_prints_width(capsys):
    assert main(["quantile", "--law", "two-sided", "--p", "0.95",
                 "--n", "10000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["z* = 1.358099", "width = 0.013581"]


def test_quantile_rejects_unknown_law(capsys):
    assert main(["quantile", "--law", "sideways", "--p", "0.95"]) == 1


def test_quantile_rejects_degenerate_level(capsys):
    assert main(["quantile", "--law", "two-sided", "--p", "1.0"]) == 1
    assert "lossq: error:" in capsys.readouterr().err


def test_quantile_rejects_an_empty_sample_before_printing(capsys):
    assert main(["quantile", "--law", "two-sided", "--p", "0.95", "--n", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lossq: error:" in captured.err


def test_quantile_rejects_a_sample_size_past_the_largest_float(capsys):
    # the width divides by sqrt(N), which would overflow converting N
    huge = "1" + "0" * 400
    assert main(["quantile", "--law", "two-sided", "--p", "0.95", "--n", huge]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lossq: error: n_obs is too large to convert to a float\n"


@pytest.mark.parametrize("option, enum", [("--characteristic", Characteristic),
                                          ("--method", Method)])
def test_estimate_choices_are_the_enum_values(option, enum):
    estimate = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices["estimate"]
    action = next(a for a in estimate._actions if option in a.option_strings)
    assert list(action.choices) == [member.value for member in enum]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_output_matches_the_library(capsys, unit_exp_sample):
    path, sample = unit_exp_sample
    assert main(["moments", "--input", str(path), "--rate", "1.0",
                 "--order", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    vector = moments_empirical(build_ecdf(sample), 1.0, 4)
    assert out[0] == "r_0,r_1,r_2,r_3,r_4"
    assert out[1] == ",".join(repr(float(v)) for v in vector.values)


def test_moments_reports_the_offending_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot-a-number\n2.0\n")
    assert main(["moments", "--input", str(path), "--rate", "1.0",
                 "--order", "2"]) == 1
    assert "line 2" in capsys.readouterr().err


def test_moments_past_the_exp_underflow_exit_zero(capsys, tmp_path):
    # exp(-744) is subnormal: the observation is late, and r_744 is the
    # Poisson(744) pmf at its mode
    path = tmp_path / "late.txt"
    path.write_text("744\n")
    assert main(["moments", "--input", str(path), "--rate", "1",
                 "--order", "800"]) == 0
    r = [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")]
    assert len(r) == 801
    assert r[744] == pytest.approx(math.exp(744 * math.log(744) - 744 - math.lgamma(745)),
                                   rel=1e-12)
    assert sum(r) <= 1.0


def test_moments_past_the_largest_rate_product_are_zero_without_a_warning(
        capsys, tmp_path):
    # rate * x overflows to inf, whose Poisson weight is 0 at every order;
    # the estimate then has no leading coefficient and exits 2
    path = tmp_path / "obs.txt"
    path.write_text("1.5\n2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["moments", "--input", str(path), "--rate", "1e308",
                     "--order", "2"]) == 0
        assert capsys.readouterr() == ("r_0,r_1,r_2\n0.0,0.0,0.0\n", "")
        assert main(["estimate", "--system", "mg1n", "--characteristic", "busy",
                     "--rate", "1e308", "--mean-service", "1", "--n", "3",
                     "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("lossq: error: ")


def test_moments_missing_file(capsys, tmp_path):
    assert main(["moments", "--input", str(tmp_path / "nope.txt"),
                 "--rate", "1.0", "--order", "2"]) == 1


@pytest.mark.parametrize("text", ["", " \n\t\n\n"], ids=["empty", "blank"])
@pytest.mark.parametrize("argv", [
    ["moments", "--rate", "1.0", "--order", "2"],
    ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "0.8",
     "--mean-service", "1.0", "--n", "3", "--confidence", "0.95"],
], ids=["moments", "estimate"])
def test_an_input_without_observations_is_one_error_line(capsys, tmp_path, text, argv):
    path = tmp_path / "obs.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lossq: error: no observations found in {path}\n"


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 7.28 TiB for an array with shape (1000000000001,)",
     "Unable to allocate 7.28 TiB for an array with shape (1000000000001,)"),
    ("", "MemoryError"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("argv", [
    ["moments", "--rate", "1.0", "--order", "100000000000"],
    ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "1",
     "--mean-service", "1", "--n", "1000000000000"],
], ids=["moments", "estimate"])
def test_running_out_of_memory_is_one_error_line(capsys, monkeypatch, tmp_path, argv,
                                                 message, shown):
    # the moments are where a huge order first allocates; the stand-in
    # raises at once, so nothing is allocated
    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(lossq.moments, "moments_empirical", refuse)
    path = tmp_path / "obs.txt"
    path.write_text("1.0\n2.0\n")
    assert main(argv + ["--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lossq: error: {shown}\n"


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_points_csv_round_trips(capsys, unit_exp_sample):
    path, sample = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "busy",
                 "--rate", "1.0", "--mean-service", "1.0", "--n", "4",
                 "--input", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,estimate,flags"
    got = [float(line.split(",")[1]) for line in lines[1:]]
    moments = moments_empirical(build_ecdf(sample), 1.0, 4)
    spec = CharacteristicSpec.busy_period(1.0, 1.0)
    expected = estimate_characteristic(spec, moments, 4).natural_values
    assert got == [float(v) for v in expected]  # repr round-trip is exact
    assert all(line.endswith(",") for line in lines[1:])  # no flag


def test_estimate_points_table_format(capsys, unit_exp_sample):
    path, sample = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "served",
                 "--rate", "1.0", "--mean-service", "1.0", "--n", "3",
                 "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "estimate", "flags"]
    assert len(lines) == 5  # header + levels 0..3
    assert lines[1].split() == ["0", "1.000000"]


def test_estimate_flags_each_negative_point_sign(capsys, tmp_path):
    # the lost count at the sample's own mean service is 1 minus a number
    # that tends to 1, so deep levels round below 0: each such level is
    # flagged, in every format, and no other level is
    values = np.random.default_rng(3).exponential(1.0, 10_000)
    path = tmp_path / "exp.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    argv = ["estimate", "--system", "mg1n", "--characteristic", "lost", "--rate", "0.5",
            "--mean-service", repr(float(values.mean())), "--n", "60", "--input", str(path)]
    assert main([*argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    negative = [row["level"] for row in rows if row["point"] < 0.0]
    assert negative and negative[-1] == 60
    assert [row["level"] for row in rows if row["flags"] == ["sign"]] == negative
    assert all(row["flags"] in ([], ["sign"]) for row in rows)
    assert main([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,estimate,flags"
    assert [int(line.split(",")[0]) for line in lines[1:] if line.endswith(",sign")] == negative
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split()[0]) for line in lines[1:] if line.split()[-1] == "sign"] == negative


def test_estimate_intervals_json_matches_the_library(capsys, unit_exp_sample):
    path, sample = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "busy",
                 "--rate", "1.0", "--mean-service", "1.0", "--n", "4",
                 "--input", str(path), "--confidence", "0.95",
                 "--method", "one-sided", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    moments = moments_empirical(build_ecdf(sample), 1.0, 4)
    spec = CharacteristicSpec.busy_period(1.0, 1.0)
    table = interval_table(spec, moments, 0.95, 10_000,
                           Method.ONE_SIDED_STATISTICS, 4)
    assert payload["characteristic"] == "busy"
    assert payload["system"] == "mg1n"
    assert payload["method"] == "one-sided"
    assert payload["n_obs"] == 10_000
    assert payload["confidence"] == [
        {"law": law.value, "confidence": 0.95, "n_obs": 10_000,
         "width": width_for(law, 0.95, 10_000)}
        for law in (LimitLaw.ONE_SIDED, LimitLaw.ONE_SIDED_SUM)
    ]
    for row, expected in zip(payload["rows"], table.rows):
        assert row["level"] == expected.level
        assert row["lower"] == expected.lower
        assert row["point"] == expected.point
        assert row["upper"] == expected.upper
        assert row["flags"] == list(expected.flags())


def test_estimate_intervals_csv_flags_column(capsys, unit_exp_sample):
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "busy",
                 "--rate", "1.0", "--mean-service", "1.0", "--n", "4",
                 "--input", str(path), "--confidence", "0.95",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,lower,point,upper,flags"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0


def test_estimate_requires_mean_service_for_arrival_side(capsys, unit_exp_sample):
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "busy",
                 "--rate", "1.0", "--n", "4", "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "lossq: error: missing --mean-service (required for mg1n)\n")


def test_estimate_rejects_a_lost_seed_past_the_largest_double(capsys, tmp_path):
    # 2 x 1e308 is inf: the seed lambda m - 1 once met the pinned lower
    # chain's zeros and printed nan lower bounds from level 5 on
    path = tmp_path / "e1.txt"
    draws = np.random.default_rng(0).exponential(1.0, 1000)
    path.write_text("".join(f"{float(v)!r}\n" for v in draws))
    assert main(["estimate", "--system", "mg1n", "--characteristic", "lost",
                 "--rate", "2", "--mean-service", "1e308", "--n", "40",
                 "--input", str(path), "--confidence", "0.95", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lossq: error: lost requires a finite arrival_rate * mean_service\n"


def test_estimate_rejects_loss_probability_on_the_arrival_side(
        capsys, unit_exp_sample):
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "mg1n",
                 "--characteristic", "loss-prob", "--rate", "1.0",
                 "--mean-service", "1.0", "--n", "4",
                 "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "lossq: error: loss-prob is estimated from the service side; "
        "use --system gim1n\n")


def test_estimate_rejects_busy_period_on_the_service_side(
        capsys, unit_exp_sample):
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "gim1n", "--characteristic", "busy",
                 "--rate", "1.0", "--n", "4", "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "lossq: error: busy is estimated from the arrival side; "
        "use --system mg1n\n")


def test_estimate_rejects_zero_buffer(capsys, unit_exp_sample):
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "served",
                 "--rate", "1.0", "--n", "0", "--input", str(path)]) == 1
    assert "--n" in capsys.readouterr().err


def test_estimate_takes_its_moment_order_from_n(capsys, unit_exp_sample):
    # the recursion to level n reads r_0..r_{n-1}, so --n fixes the order and
    # there is no --order to set
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "served",
                 "--rate", "1.0", "--n", "4", "--input", str(path),
                 "--order", "4"]) == 1
    assert "unrecognized arguments: --order 4" in capsys.readouterr().err


def test_estimate_loss_probability_near_the_balanced_value(
        capsys, unit_exp_sample):
    # Interarrival sample at rate 1 against service rate 1, capacity 3: the
    # estimate should sit near the balanced-load value 1/4.
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "gim1n",
                 "--characteristic", "loss-prob", "--rate", "1.0",
                 "--n", "3", "--input", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][3]["point"] == pytest.approx(0.25, abs=0.02)


def test_estimate_degenerate_moments_exit_with_code_two(
        capsys, unit_exp_sample):
    # An astronomically large weighting rate drives every coefficient to
    # zero, so the recursion cannot divide.
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "served",
                 "--rate", "1e9", "--mean-service", "1.0", "--n", "3",
                 "--input", str(path)]) == 2
    assert "lossq: error:" in capsys.readouterr().err


@pytest.fixture()
def overflow_sample(tmp_path):
    """2000 unit-exponential observations: at arrival rate 3 the busy chain
    passes the largest double near level 640."""
    values = np.random.default_rng(0).exponential(1.0, 2000)
    path = tmp_path / "overflow.txt"
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    return path


def _deep_csv(capsys, path, characteristic, rate, mean_service, *extra):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate", "--system", "mg1n", "--characteristic",
                     characteristic, "--rate", rate, "--mean-service", mean_service,
                     "--n", "1000", "--input", str(path), "--format", "csv",
                     *extra]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.splitlines()[1:]


def test_estimate_overflowed_chain_prints_inf_not_nan(capsys, overflow_sample):
    points = _deep_csv(capsys, overflow_sample, "busy", "3", "1")
    values = [line.split(",")[1] for line in points]
    assert "nan" not in values
    first = values.index("inf")
    assert 600 < first < 700 and set(values[first:]) == {"inf"}

    rows = _deep_csv(capsys, overflow_sample, "busy", "3", "1", "--confidence", "0.95")
    assert not any("nan" in row for row in rows)
    assert rows[first:] == [f"{k},0.0,inf,inf,upper-inf;clamped"
                            for k in range(first, 1001)]


def test_estimate_zero_seed_stays_at_one_past_an_overflowed_chain(
        capsys, overflow_sample):
    # lost count at lambda * m = 1 while the unit chain at rate 4 overflows
    points = _deep_csv(capsys, overflow_sample, "lost", "4", "0.25")
    assert [line.split(",")[1] for line in points] == ["1.0"] * 1001
    rows = _deep_csv(capsys, overflow_sample, "lost", "4", "0.25",
                     "--confidence", "0.95")
    assert rows == [f"{k},1.0,1.0,1.0," for k in range(1001)]


# ---------------------------------------------------------------------------
# The level-table renderer against the renderers it replaced
# ---------------------------------------------------------------------------


def _reference_render_points(args, natural_values):
    """The point renderer as it was written before the level-table renderer,
    with the flags column it has since gained: ``sign`` at a negative
    point."""
    flags = [["sign"] if v < 0.0 else [] for v in natural_values]
    if args.format == "table":
        rows = [[str(k), _fmt(float(v)), ",".join(f)]
                for k, (v, f) in enumerate(zip(natural_values, flags))]
        return _render_text_table(["n", "estimate", "flags"], rows)
    if args.format == "csv":
        lines = ["n,estimate,flags"]
        lines += [f"{k},{float(v)!r},{';'.join(f)}"
                  for k, (v, f) in enumerate(zip(natural_values, flags))]
        return "\n".join(lines)
    payload = {
        "characteristic": args.characteristic,
        "system": args.system,
        "rows": [
            {"level": k, "point": float(v), "flags": f}
            for k, (v, f) in enumerate(zip(natural_values, flags))
        ],
    }
    return json.dumps(payload, indent=2)


def _reference_render_intervals(args, table, n_obs):
    """The interval renderer as it was written over table.rows, one
    IntervalRow per level."""
    if args.format == "table":
        rows = [
            [str(r.level), _fmt(r.lower), _fmt(r.point), _fmt(r.upper),
             ",".join(r.flags())]
            for r in table.rows
        ]
        return _render_text_table(["n", "lower", "point", "upper", "flags"], rows)
    if args.format == "csv":
        lines = ["n,lower,point,upper,flags"]
        lines += [
            f"{r.level},{r.lower!r},{r.point!r},{r.upper!r},"
            + ";".join(r.flags())
            for r in table.rows
        ]
        return "\n".join(lines)
    payload = {
        "characteristic": table.characteristic.value,
        "system": args.system,
        "method": table.method.value,
        "n_obs": n_obs,
        "confidence": [
            {
                "law": law.value,
                "confidence": args.confidence,
                "n_obs": n_obs,
                "width": width,
            }
            for law, width in zip(table.method.laws, table.widths)
        ],
        "rows": [
            {
                "level": r.level,
                "lower": r.lower,
                "point": r.point,
                "upper": r.upper,
                "flags": list(r.flags()),
            }
            for r in table.rows
        ],
    }
    return json.dumps(payload, indent=2)


def _render_cases():
    """(system, spec, moments, n_obs, order) covering all four
    characteristics, with infinite, clamped and degenerate rows among them."""
    values = np.random.default_rng(0).exponential(1.0, 2000)
    ecdf = build_ecdf(values)
    swallowed = MomentVector(rate=1.0, values=np.array([0.01, 0.005, 0.002]))
    yield "mg1n", CharacteristicSpec.busy_period(1.0, 1.3), swallowed, 1000, 3
    yield ("mg1n", CharacteristicSpec.busy_period(3.0, 1.0),
           moments_empirical(ecdf, 3.0, 1000), 2000, 1000)
    yield ("mg1n", CharacteristicSpec.served_customers(0.8),
           moments_empirical(ecdf, 0.8, 40), 2000, 40)
    for mean_service in (0.7, 1.0, 1.25):
        yield ("mg1n", CharacteristicSpec.lost_customers(0.8, mean_service),
               moments_exponential(0.8, 1.0, 8), 100, 8)
    for n_obs in (36, 10_000):
        yield ("gim1n", CharacteristicSpec.loss_probability(1.0),
               moments_empirical(ecdf, 1.0, 6), n_obs, 6)


def _estimate_output(monkeypatch, capsys, fmt, system, spec, moments, n_obs, order,
                     *interval):
    """What ``lossq estimate`` prints for these moments: the file is not read
    and the moments are stubbed, so any vector and sample size can go in."""
    monkeypatch.setattr(lossq.ecdf, "read_sample_file", lambda path: None)
    monkeypatch.setattr(lossq.ecdf, "build_ecdf", lambda sample: SimpleNamespace(n_obs=n_obs))
    monkeypatch.setattr(lossq.moments, "moments_empirical", lambda ecdf, rate, n: moments)
    argv = ["estimate", "--system", system, "--characteristic", spec.kind.value,
            "--rate", repr(spec.weighting_rate), "--n", str(order), "--input", "unread",
            "--format", fmt, *interval]
    if system == "mg1n":
        argv += ["--mean-service", repr(spec.mean_service or 1.0)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return out[:-1]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_interval_renderer_matches_the_row_based_renderer(monkeypatch, capsys, fmt):
    flags = set()
    for system, spec, moments, n_obs, order in _render_cases():
        for method in Method:
            table = interval_table(spec, moments, 0.95, n_obs, method, order)
            args = argparse.Namespace(format=fmt, system=system, confidence=0.95)
            want = _reference_render_intervals(args, table, n_obs)
            assert _estimate_output(monkeypatch, capsys, fmt, system, spec, moments, n_obs,
                                    order, "--confidence", "0.95",
                                    "--method", method.value) == want
            flags.update(f for row in table.rows for f in row.flags())
    assert flags == {"upper-inf", "clamped", "degenerate"}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_point_renderer_matches_the_reference_renderer(monkeypatch, capsys, fmt):
    signs = 0
    for system, spec, moments, n_obs, order in _render_cases():
        result = estimate_characteristic(spec, moments, order)
        args = argparse.Namespace(format=fmt, system=system,
                                  characteristic=spec.kind.value)
        want = _reference_render_points(args, result.natural_values)
        assert _estimate_output(monkeypatch, capsys, fmt, system, spec, moments, n_obs,
                                order) == want
        signs += len(result.sign_anomalies)
    assert signs > 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_json_payload(capsys):
    assert main(["simulate", "--dist", "exp:1", "--rate", "1.0", "--n", "2",
                 "--replications", "2000", "--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generator"] == "numpy-philox-chunk16384-generations"
    assert payload["seed"] == 9
    assert payload["replications"] == 2000
    assert payload["distribution"] == "exp:1"
    assert payload["buffer"] == 2
    assert payload["busy_period"]["se"] > 0.0
    assert payload["served"]["mean"] >= 1.0


def test_simulate_is_reproducible_by_seed(capsys):
    argv = ["simulate", "--dist", "erlang:2:2", "--rate", "0.8", "--n", "1",
            "--replications", "500", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_simulate_rejects_bad_distribution(capsys):
    assert main(["simulate", "--dist", "gamma:1", "--rate", "1.0", "--n", "1",
                 "--replications", "10"]) == 1
    assert "bad distribution spec" in capsys.readouterr().err


def test_simulate_rejects_an_erlang_shape_past_the_float_range(capsys):
    assert main(["simulate", "--dist", "erlang:" + "9" * 400 + ":1", "--rate", "0.5",
                 "--n", "2", "--replications", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("lossq: error: bad distribution spec")
    assert captured.err.endswith("shape must be a positive integer within the float range\n")


def test_simulate_refuses_a_run_that_cannot_finish(capsys):
    assert main(["simulate", "--dist", "det:1", "--rate", "5", "--n", "30",
                 "--replications", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "lossq: error: the run would draw about 5.07e+64 services (load 5, buffer 30, "
        "1 replications), more than the simulator's budget of 1e+08\n"
    )


def test_emitted_samples_round_trip(capsys, tmp_path):
    out_path = tmp_path / "emitted.txt"
    assert main(["simulate", "--dist", "exp:1", "--rate", "1.0", "--n", "1",
                 "--replications", "100", "--seed", "13",
                 "--emit-samples", str(out_path), "--n-obs", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["emitted"] == {
        "path": str(out_path), "n_obs": 50, "generator": "numpy-pcg64",
    }
    expected = draw_samples(Exponential(1.0), 50, seed=13)
    lines = out_path.read_text().splitlines()
    assert lines == [repr(float(v)) for v in expected.values]
    # the emitted file parses straight back in through the moments command
    assert main(["moments", "--input", str(out_path), "--rate", "1.0",
                 "--order", "2"]) == 0


def test_seed_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "123")
    assert main(["simulate", "--dist", "exp:1", "--rate", "1.0", "--n", "1",
                 "--replications", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 123


def test_invalid_seed_environment_variable(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    assert main(["simulate", "--dist", "exp:1", "--rate", "1.0", "--n", "1",
                 "--replications", "100"]) == 1
    assert SEED_ENV_VAR in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--dist", "exp:1", "--rate", "0.5", "--n", "2", "--replications", "10",
     "--seed", "-1"],
    ["reproduce", "--seed", "-1"],
])
def test_a_negative_seed_names_its_flag(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err == "lossq: error: a seed must be non-negative, got --seed -1\n"


def test_a_negative_seed_environment_variable_names_it(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "-1")
    assert main(["simulate", "--dist", "exp:1", "--rate", "0.5", "--n", "2",
                 "--replications", "10"]) == 1
    err = capsys.readouterr().err
    assert err == f"lossq: error: a seed must be non-negative, got {SEED_ENV_VAR}='-1'\n"


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_theoretical_columns(capsys):
    assert main(["reproduce", "--theoretical"]) == 0
    out = capsys.readouterr().out
    lines = [line.split() for line in out.splitlines() if line]
    # exact dyadic moment coefficients
    assert ["0", "0.500000"] in lines
    assert ["4", "0.031250"] in lines
    # the integer busy-period chain
    for n in range(5):
        assert [str(n), f"{n + 1}.000000"] in lines


def test_reproduce_fixture_reproduces_published_cells(capsys):
    assert main(["reproduce", "--fixture", "published"]) == 0
    out = capsys.readouterr().out
    assert "0.503100" in out            # leading reference coefficient
    assert "1.987676" in out            # level-1 point estimate
    assert "1.935430" in out and "2.042822" in out  # two-sided level-1 bounds
    assert "1.940466" in out and "2.037241" in out  # one-sided level-1 bounds
    assert "eps = 0.013581" in out
    assert "eps = 0.01224, gamma = 0.0208" in out


def test_reproduce_fixture_alias(capsys):
    assert main(["reproduce", "--fixture", "reference"]) == 0
    first = capsys.readouterr().out
    assert main(["reproduce", "--fixture", "published"]) == 0
    assert capsys.readouterr().out == first


def test_reproduce_sampled_run_names_its_source(capsys):
    assert main(["reproduce", "--n-obs", "2000", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "simulated sample (N = 2000, seed = 5)" in out
    assert "one-sided-statistics method" in out


@pytest.mark.parametrize("n_obs, seed", [(2000, 5), (30, 2)])
def test_reproduce_sampled_bounds_are_the_interval_tables(capsys, n_obs, seed):
    # each bound block prints the columns of interval_table at confidence
    # 0.95 on the sample's own size, next to the closed-form chain
    assert main(["reproduce", "--n-obs", str(n_obs), "--seed", str(seed)]) == 0
    blocks = capsys.readouterr().out.split("\n\n")[1:]
    busy = CharacteristicSpec.busy_period(1.0, 1.0)
    moments = moments_empirical(build_ecdf(draw_samples(Exponential(1.0), n_obs, seed)),
                                1.0, 4)
    theory = estimate_characteristic(busy, moments_exponential(1.0, 1.0, 4), 4).natural_values
    for method, block in zip(Method, blocks, strict=True):
        table = interval_table(busy, moments, 0.95, n_obs, method, 4)
        columns = zip(theory.tolist(), table.point.tolist(), table.lower.tolist(),
                      table.upper.tolist())
        want = [[str(k), *map(_fmt, row)] for k, row in enumerate(columns)]
        assert [line.split() for line in block.splitlines()[2:]] == want


# ---------------------------------------------------------------------------
# Exit codes under fuzzed arguments
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Input paths by kind: a good sample, empty, blank-only, a bad line, a
    non-positive value, non-UTF-8 bytes, a directory and a missing file."""
    root = tmp_path_factory.mktemp("fuzz")
    good = np.random.default_rng(3).exponential(1.0, 200)
    texts = {"good": "".join(f"{float(v)!r}\n" for v in good), "empty": "",
             "blank": " \n\n", "bad": "1.0\nx\n", "negative": "1.0\n-2\n"}
    paths = {}
    for name, text in texts.items():
        paths[name] = root / f"{name}.txt"
        paths[name].write_text(text)
    paths["binary"] = root / "binary.txt"
    paths["binary"].write_bytes(b"1.0\n\xff\xfe\n")
    paths["directory"] = root
    paths["missing"] = root / "missing.txt"
    paths["emit"] = root / "emitted.txt"
    paths["emit-nowhere"] = root / "no-such-dir" / "emitted.txt"
    return {name: str(path) for name, path in paths.items()}


_BAD_REALS = ["0", "-1", "1e308", "nan", "inf", "-inf", "x", "", "0x10"]
_BAD_LEVELS = ["-5", "-1", "0", "2.5", "x", ""]
_BAD_PROBABILITIES = ["0", "1", "1.5", "-0.1", "nan", "x"]
_BAD_INPUTS = ["empty", "blank", "bad", "negative", "binary", "directory", "missing"]

# per subcommand and option: (values accepted on their own, values that are
# not); None leaves the option out, True gives a switch.  The simulator's
# loads and buffers either run in well under a second (a cycle at load 3 and
# buffer 2 serves a few hundred customers) or go over its service budget and
# are refused (load 1.5 and buffer 60: about 1e11 customers a cycle)
_OPTIONS = {
    "quantile": {
        "--law": (["two-sided", "one-sided", "one-sided-sum"], ["sideways", None]),
        "--p": (["0.95", "0.5"], _BAD_PROBABILITIES + [None]),
        "--n": ([None, "1", "10000"], _BAD_LEVELS + ["1" + "0" * 400]),
    },
    "moments": {
        "--input": (["good"], _BAD_INPUTS + [None]),
        "--rate": (["1", "0.8", "1e-300", "1e9"], _BAD_REALS + [None]),
        "--order": (["0", "1", "40"], ["-1", "2.5", "x", None]),
    },
    "estimate": {
        "--system": (["mg1n", "gim1n"], ["mm1", None]),
        "--characteristic": (["busy", "served", "lost", "loss-prob"], ["idle", None]),
        "--rate": (["0.8", "1", "3", "1e9"], _BAD_REALS + [None]),
        "--mean-service": (["1", "0.7", "1e308"], _BAD_REALS + [None]),
        "--n": (["1", "3", "40"], _BAD_LEVELS + [None]),
        "--input": (["good"], _BAD_INPUTS + [None]),
        "--confidence": ([None, "0.95", "0.5"], _BAD_PROBABILITIES),
        "--method": ([None, "two-sided", "one-sided"], ["three-sided"]),
        "--format": ([None, "table", "csv", "json"], ["xml"]),
    },
    "simulate": {
        "--dist": (["exp:1", "erlang:2:2", "det:1", "uniform:0:2"],
                   ["exp:0", "exp:-1", "erlang:0:1", "uniform:2:1", "det", "gamma:1",
                    "exp:x", "", None]),
        "--rate": (["0.5", "1", "1.5", "3"], ["0", "-1", "nan", "inf", "x", "", None]),
        "--n": (["0", "1", "2", "60"], ["-1", "x", None]),
        "--replications": (["1", "20"], ["0", "-1", "x", None]),
        "--seed": ([None, "0", "7"], ["-1", "x"]),
        "--emit-samples": ([None, "emit"], ["emit-nowhere", "directory"]),
        "--n-obs": ([None, "1", "50"], ["0", "-1", "x"]),
    },
    "reproduce": {
        "--n-obs": ([None, "50"], ["0", "-1", "x"]),
        "--seed": ([None, "0"], ["-1", "x"]),
        "--fixture": ([None, "published", "reference"], ["fabricated"]),
        "--theoretical": ([None, True], []),
    },
}


@st.composite
def _fuzz_argv(draw):
    """A subcommand line with valid options, up to two of them replaced by a
    bad value or left out, and maybe a stray argument.  ``--input`` and
    ``--emit-samples`` name a path by its kind in ``fuzz_inputs``."""
    sub = draw(st.sampled_from([*_OPTIONS, "frobnicate", None]))
    if sub not in _OPTIONS:
        return [] if sub is None else [sub]
    options = _OPTIONS[sub]
    chosen = {name: draw(st.sampled_from(good)) for name, (good, _) in options.items()}
    fuzzed = [name for name, (_, bad) in options.items() if bad]
    for name in draw(st.lists(st.sampled_from(fuzzed), max_size=2, unique=True)):
        chosen[name] = draw(st.sampled_from(options[name][1]))
    argv = [sub]
    for name, value in chosen.items():
        if value is True:
            argv.append(name)
        elif value is not None:
            argv += [name, value]
    return argv + draw(st.sampled_from([[], ["--bogus"], ["extra"]]))


@settings(max_examples=300, deadline=None)
@given(argv=_fuzz_argv())
# a lost seed lambda m - 1 past the largest double once printed NaN bounds
@example(argv=["estimate", "--system", "mg1n", "--characteristic", "lost", "--rate", "2",
               "--mean-service", "1e308", "--n", "40", "--input", "good",
               "--confidence", "0.95", "--format", "csv"])
def test_fuzzed_arguments_exit_zero_one_or_two(fuzz_inputs, argv):
    argv = [fuzz_inputs.get(arg, arg) if option in ("--input", "--emit-samples") else arg
            for option, arg in zip(["", *argv], argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code != 0:
        # usage errors of a subcommand name it, as in "lossq estimate: error:"
        assert re.search(r"^lossq( [a-z]+)?: error: ", err.getvalue(), re.M), (argv, err.getvalue())
    else:
        assert err.getvalue() == "", (argv, err.getvalue())
        assert not re.search(r"\bnan\b", out.getvalue(), re.I), (argv, out.getvalue())


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_unknown_subcommand_fails(capsys):
    assert main(["frobnicate"]) == 1


def test_no_arguments_fails(capsys):
    assert main([]) == 1


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from lossq.cli import main; raise SystemExit(main(['quantile', "
         "'--law', 'two-sided', '--p', '0.95']))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "z* = 1.358099\n"
