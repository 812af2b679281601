"""Every exported name resolves; SciPy stays off the import and the CLI,
and the quadrature route loads it.

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


def test_cli_runs_leave_scipy_unloaded():
    code = (
        "import json, sys\n"
        "from lossq.cli import main\n"
        "assert main(['quantile', '--law', 'two-sided', '--p', '0.95']) == 0\n"
        "assert main(['simulate', '--dist', 'erlang:2:2', '--rate', '0.8', '--n', '2',\n"
        "             '--replications', '200', '--seed', '1']) == 0\n"
        f"{PRINT_SCIPY_MODULES}"
    )
    assert _run(code) == []


def test_quadrature_loads_scipy_and_matches_the_closed_form():
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from lossq import moments_exponential, moments_quadrature\n"
        "from lossq.simulate import Exponential\n"
        "q = moments_quadrature(Exponential(1.0).cdf, 1.0, 4)\n"
        "e = moments_exponential(1.0, 1.0, 4)\n"
        "print(json.dumps({'loaded': 'scipy.integrate' in sys.modules,\n"
        "                  'error': float(np.max(np.abs(q.values - e.values)))}))"
    )
    result = _run(code)
    assert result["loaded"]
    assert result["error"] < 1e-12
