"""Every exported name resolves, each submodule exports only the classes and
functions it defines, and the package's lazy re-exports are the defining
modules' objects; SciPy stays off the import, every CLI subcommand,
the laws, the simulator and the KS-law experiment; NumPy stays off
``import lossq`` and ``lossq quantile``, ``dataclasses`` off ``lossq
quantile``, and the simulator off the
subcommands that estimate from a file or the fixture; reading a sample file
loads no decompressor.

The import checks run in a fresh interpreter, because the test process
itself has SciPy and NumPy loaded already.
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


MODULES = ["lossq", "lossq.choices", "lossq.cli", "lossq.ecdf", "lossq.intervals",
           "lossq.kolmogorov", "lossq.moments", "lossq.recursion", "lossq.simulate"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # tools that walk __all__ (a tracer wrapping the public functions, say)
    # abort on a stale name
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "lossq"])
def test_every_exported_class_and_function_is_defined_by_its_module(module):
    # a submodule exports what it defines; a name it imports is exported by
    # its own module (the package re-exports lazily, by design)
    mod = importlib.import_module(module)
    foreign = [name for name in mod.__all__
               if callable(value := getattr(mod, name)) and value.__module__ != module]
    assert foreign == []


def test_package_exports_are_the_defining_modules_objects():
    import lossq

    for name in lossq.__all__:
        value = getattr(lossq, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
        # the first access leaves the name in the package, so the next is a
        # plain lookup
        assert vars(lossq)[name] is value, name


def test_enums_keep_their_old_homes():
    import lossq.choices
    import lossq.intervals
    import lossq.recursion

    assert lossq.recursion.Characteristic is lossq.choices.Characteristic
    assert lossq.intervals.Method is lossq.choices.Method


def test_dir_and_star_import_cover_the_exports():
    import lossq

    assert set(lossq.__all__) <= set(dir(lossq))
    assert {"simulate", "cli", "kolmogorov"} <= set(dir(lossq))
    namespace = {}
    exec("from lossq import *", namespace)
    assert set(lossq.__all__) <= set(namespace)


def test_unknown_attribute_names_itself():
    import lossq

    with pytest.raises(AttributeError, match="no_such_name"):
        lossq.no_such_name


def test_submodules_resolve_as_attributes():
    code = (
        "import json, sys, lossq\n"
        "print(json.dumps([lossq.simulate is sys.modules['lossq.simulate'],\n"
        "                  lossq.kolmogorov.__name__]))"
    )
    assert _run(code) == [True, "lossq.kolmogorov"]


PRINT_LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m in ('numpy', 'lossq.simulate'))))"
)


def test_import_leaves_numpy_unloaded():
    assert _run(f"import json, sys, lossq\n{PRINT_LOADED}") == []


@pytest.mark.parametrize("argv", [
    ["--help"],
    *(["quantile", "--law", law, "--p", "0.95", *n]
      for law in ("two-sided", "one-sided", "one-sided-sum") for n in ([], ["--n", "500"])),
], ids=lambda argv: " ".join(argv))
def test_quantile_and_help_leave_numpy_unloaded(argv):
    code = (
        "import contextlib, io, json, sys\n"
        "from lossq.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"{PRINT_LOADED}"
    )
    assert _run(code) == []


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["quantile", "--law", "one-sided-sum", "--p", "0.95", "--n", "500"],
], ids=lambda argv: " ".join(argv))
def test_quantile_and_help_load_no_dataclasses(argv):
    # dataclasses imports inspect, and inspect ast, dis and tokenize: about
    # 10 ms of a quantile call's startup
    code = (
        "import contextlib, io, json, sys\n"
        "from lossq.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m in\n"
        "    ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize'))))"
    )
    assert _run(code) == []


def test_file_and_fixture_runs_leave_the_simulator_unloaded(tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_text("".join(f"{0.1 * (i % 17) + 0.05}\n" for i in range(400)))
    estimate = ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "0.8",
                "--mean-service", "0.9", "--n", "6", "--input", str(sample)]
    runs = [
        estimate,
        estimate + ["--confidence", "0.95", "--method", "one-sided", "--format", "json"],
        ["moments", "--input", str(sample), "--rate", "1", "--order", "40"],
        ["reproduce", "--fixture", "published"],
        ["reproduce", "--theoretical"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from lossq.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"{PRINT_LOADED}"
    )
    assert _run(code) == ["numpy"]


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


def test_laws_simulator_and_ks_experiment_load_no_scipy():
    # every law's draw, cdf and moments (both Erlang routes, both uniform
    # ones), the budget check above load 1, which takes the laws' moments,
    # and a CLI run that it refuses
    code = (
        "import contextlib, io, json, sys\n"
        "import numpy as np\n"
        "from lossq.cli import main\n"
        "from lossq.simulate import (Deterministic, ErlangK, Exponential, Uniform,\n"
        "                            ks_law_experiment, simulate_busy_period)\n"
        "rng = np.random.default_rng(1)\n"
        "for law in (Exponential(1.0), ErlangK(2, 2.0), ErlangK(50, 3.0), Deterministic(1.0),\n"
        "            Uniform(0.3, 1.7), Uniform(0.5, 0.5001)):\n"
        "    law.cdf(law.draw(rng, 50))\n"
        "    law.moments(1.0, 50)\n"
        "for law in (ErlangK(2, 2.0), Uniform(0.0, 2.0)):\n"
        "    simulate_busy_period(1.5, law, 8, 200, 7)\n"
        "ks_law_experiment(ErlangK(2, 2.0), 100, 100, 1)\n"
        "argv = ['simulate', '--dist', 'erlang:2:2', '--rate', '5', '--n', '30',\n"
        "        '--replications', '1']\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "    assert main(argv) == 1 and 'budget' in err.getvalue()\n"
        f"{PRINT_SCIPY_MODULES}"
    )
    assert _run(code) == []


def test_reading_sample_files_loads_no_decompressor(tmp_path):
    # NumPy's own import brings in bz2 and lzma (through shutil), so the
    # check is that reading, on the fast path and the fallback, adds none of
    # them to what importing the reader's module loads, and that gzip, which
    # only NumPy's path-based reader imports, stays out altogether
    fast = tmp_path / "fast.txt.gz"
    fast.write_text("".join(f"{0.1 * (i % 17) + 0.05}\n" for i in range(400)))
    fallback = tmp_path / "fallback.txt.bz2"
    fallback.write_text("1_000\n2.5\n")
    runs = [
        ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "0.8",
         "--mean-service", "0.9", "--n", "6", "--input", str(path),
         "--confidence", "0.95"]
        for path in (fast, fallback)
    ] + [["moments", "--input", str(fallback), "--rate", "1", "--order", "4"]]
    code = (
        "import contextlib, io, json, sys\n"
        "import lossq.ecdf\n"
        "from lossq.cli import main\n"
        "codecs = ('gzip', 'bz2', 'lzma')\n"
        "before = sorted(m for m in codecs if m in sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(json.dumps([before, sorted(m for m in codecs if m in sys.modules)]))"
    )
    before, after = _run(code)
    assert "gzip" not in after
    assert after == before


def test_estimate_on_a_plain_file_loads_nothing_beyond_its_layers(tmp_path):
    # reading a sample needs only numpy, io and os, so an estimate's startup
    # cannot grow; argparse's messages load locale through gettext
    sample = tmp_path / "sample.txt"
    sample.write_text("".join(f"{0.1 * (i % 17) + 0.05}\n" for i in range(400)))
    argv = ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "0.8",
            "--mean-service", "0.9", "--n", "6", "--input", str(sample)]
    code = (
        "import contextlib, io, json, sys\n"
        "import lossq.cli, lossq.ecdf, lossq.intervals, lossq.moments, lossq.recursion\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert lossq.cli.main({argv!r}) == 0\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert set(_run(code)) <= {"_locale", "locale"}


def test_cached_estimates_on_a_large_file_load_only_the_builtin_blake2(tmp_path):
    # the cache key is a digest from the built-in _blake2 module; hashlib's
    # import would map OpenSSL into every large read
    sample = tmp_path / "sample.txt"
    sample.write_text("".join(f"{0.1 * (i % 17) + 0.05!r}\n" for i in range(200_000)))
    argv = ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "0.8",
            "--mean-service", "0.9", "--n", "6", "--input", str(sample)]
    code = (
        "import contextlib, io, json, os, sys\n"
        "import lossq.cli, lossq.ecdf, lossq.intervals, lossq.moments, lossq.recursion\n"
        "before = set(sys.modules)\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert lossq.cli.main({argv!r}) == 0\n"
        "entries = os.listdir(os.path.join(os.environ['XDG_CACHE_HOME'], 'lossq'))\n"
        "print(json.dumps([len(entries), sorted(set(sys.modules) - before)]))"
    )
    entries, loaded = _run(code)
    assert entries == 1
    assert "_blake2" in loaded
    assert set(loaded) <= {"_blake2", "_locale", "locale"}
