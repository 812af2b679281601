"""Slices of the golden CLI grid, run through ``tools/golden_grid.py``'s own
sample files and runner, so that the grid keeps working as the CLI changes.

The full grid (about 4,600 calls) is the gate for refactors and compares
two trees with ``python tools/golden_grid.py --against REV``; these slices
only check that every call in them still runs to a digest and an exit code.  They store no digests.
"""

import importlib.util
import math
import re
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_grid.py"

# rate x above which exp(-rate x) is below the smallest normal double
_LATE = -math.log(sys.float_info.min)


@pytest.fixture()
def grid(monkeypatch, tmp_path):
    """The tool as a module, run in a directory holding its sample files."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src
    spec = importlib.util.spec_from_file_location("golden_grid", TOOL)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(grid.SEED_ENV_VAR, raising=False)
    for name, text in grid._sample_files().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return grid


def _runs_to_a_digest_and_an_exit_code(grid, calls):
    for env, argv in calls:
        digest, code = grid._run(env, argv)
        assert re.fullmatch("[0-9a-f]{64}", digest), argv
        assert code in (0, 1, 2), argv


def test_every_25th_grid_call_runs_to_a_digest_and_an_exit_code(grid):
    calls = list(grid._calls())[::25]
    assert len(calls) > 100
    _runs_to_a_digest_and_an_exit_code(grid, calls)


def test_every_late_observation_grid_call_runs_to_a_digest_and_an_exit_code(grid):
    # every call whose sample holds an observation past the exp underflow at
    # its rate, so that a traceback on that path fails here
    largest = {}
    for name, text in grid._sample_files().items():
        try:
            largest[name] = max(map(float, text.split()))
        except ValueError:
            pass  # empty, or not all numbers
    calls = []
    for env, argv in grid._calls():
        if "--input" in argv and "--rate" in argv:
            top = largest.get(argv[argv.index("--input") + 1], 0.0)
            if float(argv[argv.index("--rate") + 1]) * top > _LATE:
                calls.append((env, argv))
    assert len(calls) >= 10
    _runs_to_a_digest_and_an_exit_code(grid, calls)


def test_each_cached_call_prints_the_same_cold_warm_and_uncached(grid, monkeypatch, tmp_path):
    # the file is past 8 MiB, so the reader's blocks are 2^16 bytes
    assert (tmp_path / "cached.txt").stat().st_size >= 8 << 20
    for i, argv in enumerate(grid._cached_calls()):
        home = tmp_path / f"cache-home-{i}"
        monkeypatch.setenv("XDG_CACHE_HOME", str(home))
        cold = grid._run({}, argv)
        assert cold[1] == 0, argv
        assert len(list((home / "lossq").iterdir())) == 1
        assert grid._run({}, argv) == cold, argv
        # a regular file where the cache would go: the plain read
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cached.txt"))
        assert grid._run({}, argv) == cold, argv
