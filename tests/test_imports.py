"""Every exported name resolves; SciPy stays off the import and every CLI
subcommand, and the laws' closed forms load only ``scipy.special``.

The SciPy checks run in a fresh interpreter, because the test process
itself has SciPy loaded already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRINT_SCIPY_MODULES = (
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.'))))"
)


def _run(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


MODULES = ["lossq", "lossq.cli", "lossq.ecdf", "lossq.intervals",
           "lossq.kolmogorov", "lossq.moments", "lossq.recursion", "lossq.simulate"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # tools that walk __all__ (a tracer wrapping the public functions, say)
    # abort on a stale name
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("module", ["lossq", "lossq.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert _run(f"import json, sys, {module}\n{PRINT_SCIPY_MODULES}") == []


def test_cli_runs_leave_scipy_unloaded(tmp_path):
    # every subcommand, with each output format and interval method
    sample = tmp_path / "sample.txt"
    sample.write_text("".join(f"{0.1 * (i % 17) + 0.05}\n" for i in range(400)))
    emitted = tmp_path / "emitted.txt"
    runs = [
        ["quantile", "--law", "two-sided", "--p", "0.95"],
        ["quantile", "--law", "one-sided-sum", "--p", "0.9", "--n", "500"],
        ["moments", "--input", str(sample), "--rate", "1", "--order", "40"],
        ["estimate", "--system", "mg1n", "--characteristic", "lost", "--rate", "0.8",
         "--mean-service", "0.9", "--n", "6", "--input", str(sample),
         "--confidence", "0.95", "--method", "one-sided", "--format", "json"],
        ["estimate", "--system", "gim1n", "--characteristic", "loss-prob", "--rate",
         "1.5", "--n", "4", "--input", str(sample), "--format", "csv"],
        ["simulate", "--dist", "erlang:2:2", "--rate", "0.8", "--n", "2",
         "--replications", "200", "--seed", "1", "--emit-samples", str(emitted)],
        ["simulate", "--dist", "uniform:0.2:1.4", "--rate", "0.8", "--n", "2",
         "--replications", "200", "--seed", "1"],
        ["reproduce", "--n-obs", "500", "--seed", "3"],
        ["reproduce", "--fixture", "published"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from lossq.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"{PRINT_SCIPY_MODULES}"
    )
    assert _run(code) == []


def test_law_moments_load_only_scipy_special():
    code = (
        "import json, sys\n"
        "from lossq.simulate import ErlangK, Uniform\n"
        "ErlangK(3, 2.0).moments(1.0, 50)\n"
        "Uniform(0.3, 1.7).moments(1.0, 50)\n"
        f"{PRINT_SCIPY_MODULES}"
    )
    loaded = _run(code)
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.integrate")]
