"""End-to-end tests of the command-line interface (in-process via main)."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lossq.cli import SEED_ENV_VAR, main
from lossq.ecdf import build_ecdf
from lossq.intervals import Method, interval_table
from lossq.moments import moments_empirical
from lossq.recursion import CharacteristicSpec, estimate_characteristic
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
    # exp(-744) is subnormal: the observation joins at its first normal
    # weight, and r_744 is the Poisson(744) pmf at its mode
    path = tmp_path / "late.txt"
    path.write_text("744\n")
    assert main(["moments", "--input", str(path), "--rate", "1",
                 "--order", "800"]) == 0
    r = [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")]
    assert len(r) == 801
    assert r[744] == pytest.approx(math.exp(744 * math.log(744) - 744 - math.lgamma(745)),
                                   rel=1e-12)
    assert sum(r) <= 1.0


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


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_points_csv_round_trips(capsys, unit_exp_sample):
    path, sample = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "busy",
                 "--rate", "1.0", "--mean-service", "1.0", "--n", "4",
                 "--input", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,estimate"
    got = [float(line.split(",")[1]) for line in lines[1:]]
    moments = moments_empirical(build_ecdf(sample), 1.0, 4)
    spec = CharacteristicSpec.busy_period(1.0, 1.0)
    expected = estimate_characteristic(spec, moments, 4).natural_values
    assert got == [float(v) for v in expected]  # repr round-trip is exact


def test_estimate_points_table_format(capsys, unit_exp_sample):
    path, sample = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "served",
                 "--rate", "1.0", "--mean-service", "1.0", "--n", "3",
                 "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "estimate"]
    assert len(lines) == 5  # header + levels 0..3
    assert lines[1].split() == ["0", "1.000000"]


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
    assert [c["law"] for c in payload["confidence"]] == [
        "one-sided", "one-sided-sum"
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
    assert "mean-service" in capsys.readouterr().err


def test_estimate_rejects_loss_probability_on_the_arrival_side(
        capsys, unit_exp_sample):
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "mg1n",
                 "--characteristic", "loss-prob", "--rate", "1.0",
                 "--mean-service", "1.0", "--n", "4",
                 "--input", str(path)]) == 1
    assert "gim1n" in capsys.readouterr().err


def test_estimate_rejects_busy_period_on_the_service_side(
        capsys, unit_exp_sample):
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "gim1n", "--characteristic", "busy",
                 "--rate", "1.0", "--n", "4", "--input", str(path)]) == 1
    assert "mg1n" in capsys.readouterr().err


def test_estimate_rejects_zero_buffer(capsys, unit_exp_sample):
    path, _ = unit_exp_sample
    assert main(["estimate", "--system", "mg1n", "--characteristic", "served",
                 "--rate", "1.0", "--n", "0", "--input", str(path)]) == 1
    assert "--n" in capsys.readouterr().err


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
# simulate
# ---------------------------------------------------------------------------


def test_simulate_json_payload(capsys):
    assert main(["simulate", "--dist", "exp:1", "--rate", "1.0", "--n", "2",
                 "--replications", "2000", "--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generator"] == "numpy-philox-chunk16384"
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
