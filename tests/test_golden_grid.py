"""A slice of the golden CLI grid, run through ``tools/golden_grid.py``'s own
sample files and runner, so that the grid keeps working as the CLI changes.

The full grid (about 4,400 calls) is the gate for refactors and is compared
between two checkouts by hand; this slice only checks that every call still
runs to a digest and an exit code.  It stores no digests.
"""

import importlib.util
import re
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden_grid.py"


def test_every_25th_grid_call_runs_to_a_digest_and_an_exit_code(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src
    spec = importlib.util.spec_from_file_location("golden_grid", TOOL)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(grid.SEED_ENV_VAR, raising=False)
    for name, text in grid._sample_files().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    calls = list(grid._calls())[::25]
    assert len(calls) > 100
    for env, argv in calls:
        digest, code = grid._run(env, argv)
        assert re.fullmatch("[0-9a-f]{64}", digest), argv
        assert code in (0, 1, 2), argv
