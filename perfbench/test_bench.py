"""Tests of the benchmark itself (not part of the lossq test suite).

    python -m pytest perfbench/test_bench.py

They run the benchmark as a user does, from the root of a checkout, so
they take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

COUNTS = ("import.modules", "kolmogorov.calls", "moments.terms", "recursion.levels",
          "intervals.madds", "simulate.cycles")


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload):
    first = last_json(run_bench(workload, 5, 1))
    second = last_json(run_bench(workload, 5, 1))
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed5-trace1.json").read_text())
    assert record["counts_repeat_across_cycles"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_run_reports_every_metric(workload):
    result = last_json(run_bench(workload, 6, 0))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_inputs_depend_on_the_seed_alone(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = workloads.build("cli-small", 9, a)
    second = workloads.build("cli-small", 9, b)
    other = workloads.build("cli-small", 10, c)
    assert [r["sha256"] for r in first[2]] == [r["sha256"] for r in second[2]]
    assert [r["sha256"] for r in first[2]] != [r["sha256"] for r in other[2]]
    for key, value in first[1].items():
        np.testing.assert_array_equal(value, second[1][key])


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cli-small", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
