"""Golden grid of CLI outputs: a digest per call and one for the whole grid.

Runs every subcommand in-process through ``lossq.cli.main`` on seeded sample
files written to a temporary directory, and prints, per call, the sha256 of
its stdout, stderr and exit code, followed by the sha256 of all those lines.
A refactor that must not change behaviour gives the same output before and
after.

The package is imported from the ``src`` directory next to this file, or
from the one named by the only argument.  ``--against REV`` exports REV's
``src`` with ``git archive`` into a temporary directory, runs this file's
calls on both trees, prints each call that differs and ends with
``identical over N calls`` or ``K of N calls differ``; it exits 1 on any
difference:

    python tools/golden_grid.py --against HEAD
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import zipfile
from decimal import Decimal
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=_ROOT / "src",
                        help="the src directory to import the package from")
    parser.add_argument("--against", metavar="REV",
                        help="compare every call with the package at git revision REV")
    return parser.parse_args()


_ARGS = _arguments() if __name__ == "__main__" else None
sys.path.insert(0, str((_ARGS.src if _ARGS else _ROOT / "src").resolve()))

from lossq.cli import SEED_ENV_VAR, main  # noqa: E402


def _sample_files() -> dict[str, str]:
    """Seeded sample files by name.  They are written to the working
    directory, so that file names in error messages are the same on every
    run."""
    rng = np.random.default_rng(20091)

    def lines(values) -> str:
        return "".join(f"{float(v)!r}\n" for v in values)

    return {
        "exp.txt": lines(rng.exponential(1.0, 2000)),
        "small.txt": lines(rng.uniform(0.2, 3.0, 36)),
        "heavy.txt": lines(rng.lognormal(0.0, 1.5, 1000)),
        "det.txt": lines(np.full(200, 1.0)),
        "far.txt": lines(np.full(10, 1000.0)),
        "empty.txt": "",
        "bad.txt": "1.0\nabc\n2.0\n",
        "negative.txt": "1.0\n-2.0\n",
        # several leaves of the moment kernel, late observations at rate 40
        # and a window no cut narrows
        "heavy-40k.txt": lines(np.random.default_rng(20093).lognormal(0.0, 1.5, 40_000)),
        **_parse_edge_files(),
    }


# sample files that take the reader's less common branches: line endings,
# padding, signs and exponents, decimals too long or too close to a rounding
# midpoint to convert directly, forms only the line scan reads, a large file
# spanning many blocks, NumPy's savetxt default, blank and whitespace-only
# rows, and rows float() rejects: two dots, a lone dot
_PARSE_EDGES = ("crlf.txt", "no-final-newline.txt", "trailing-blank.txt", "padded.txt",
                "signed.txt", "long.txt", "midpoints.txt", "forms.txt", "large.txt",
                "savetxt.txt", "blank-rows.txt", "blank-rows-crlf.txt", "space-rows.txt",
                "two-dots.txt", "lone-dot.txt")


def _parse_edge_files() -> dict[str, str]:
    rng = np.random.default_rng(20092)
    values = rng.exponential(1.0, 400).tolist()
    reprs = [repr(v) for v in values]
    pads = (" ", "\t", "  \t", "")
    signed = [
        (f"+{v!r}", f"{v:e}", f"{v * 1e3:.10g}E-3", f"+{v:.4e}")[i % 4]
        for i, v in enumerate(values)
    ]
    long = [_truncated(Decimal(v), 19 + i % 2) for i, v in enumerate(values)]
    return dict(zip(_PARSE_EDGES, (
        "\r\n".join(reprs) + "\r\n",
        "\n".join(reprs),
        "\n".join(reprs) + "\n\n",
        "".join(f"{pads[i % 4]}{s}{pads[(i + 1) % 4]}\n" for i, s in enumerate(reprs)),
        "\n".join(signed) + "\n",
        "\n".join(long) + "\n",
        "".join(f"{s}\n" for s in _midpoints(values)),
        "1.\n.5\n1_000\n" + "\n".join(reprs[:50]) + "\n",
        "".join(f"{v!r}\n" for v in rng.exponential(1.0, 200_000).tolist()),
        "".join(f"{v:.18e}\n" for v in values),
        "\n\n".join(reprs) + "\n",
        "\r\n\r\n".join(reprs) + "\r\n",
        "".join(f"{s}\n{pads[i % 3]}\n" for i, s in enumerate(reprs)),
        "\n".join(reprs[:200] + ["1.2.3"] + reprs[200:]) + "\n",
        "\n".join(reprs[:200] + ["."] + reprs[200:]) + "\n",
    ), strict=True))


def _truncated(exact: Decimal, digits: int) -> str:
    """``exact`` in positional notation, cut to ``digits`` significant digits."""
    text = format(exact, "f")
    whole, _, fraction = text.partition(".")
    lead = len(whole + fraction) - len((whole + fraction).lstrip("0"))
    keep = max(lead + digits - len(whole), 0)
    return f"{whole}.{fraction[:keep]}" if keep else whole


def _midpoints(values: list[float]) -> list[str]:
    """The exact midpoint above each value, cut to 17-20 significant digits,
    then moved by -1, 0 or +1 in its last digit."""
    out = []
    for i, v in enumerate(values):
        text = _truncated(Decimal(v) + Decimal(float(np.spacing(v))) / 2, 17 + i % 4)
        whole, _, fraction = text.partition(".")
        mantissa = str(int(whole + fraction) + (i % 3) - 1).rjust(len(whole + fraction), "0")
        cut = len(mantissa) - len(fraction)
        out.append(f"{mantissa[:cut]}.{mantissa[cut:]}" if fraction else mantissa)
    return out


_SAMPLES = ("exp.txt", "small.txt", "heavy.txt", "det.txt")
_FORMATS = ("table", "csv", "json")
_INTERVALS = ((), ("--confidence", "0.95"), ("--confidence", "0.9", "--method", "one-sided"),
              ("--confidence", "0.95", "--method", "two-sided"),
              ("--confidence", "0.5", "--method", "one-sided"))


def _estimate_calls():
    # (rate, mean services giving a negative, zero and positive lost seed)
    rates = ((0.5, (1.0, 2.0, 4.0)), (0.8, (0.625, 1.25, 2.5)), (2.0, (0.25, 0.5, 1.0)))
    for sample, (rate, services), n, interval, fmt in itertools.product(
            _SAMPLES, rates, ("1", "4", "50", "200"), _INTERVALS, _FORMATS):
        common = ["--rate", repr(rate), "--n", n, "--input", sample, "--format", fmt,
                  *interval]
        yield ["estimate", "--system", "mg1n", "--characteristic", "busy",
               "--mean-service", repr(services[1]), *common]
        yield ["estimate", "--system", "mg1n", "--characteristic", "served",
               "--mean-service", repr(services[1]), *common]
        for service in services:
            yield ["estimate", "--system", "mg1n", "--characteristic", "lost",
                   "--mean-service", repr(service), *common]
        yield ["estimate", "--system", "gim1n", "--characteristic", "loss-prob", *common]
    # deep levels, where the bound chains' upper bounds overflow partway
    for sample, rate, method, characteristic in itertools.product(
            _SAMPLES, ("0.8", "2.0", "3"), ("two-sided", "one-sided"),
            ("busy", "lost", "loss-prob")):
        if characteristic == "loss-prob":
            system = ["--system", "gim1n"]
        else:
            system = ["--system", "mg1n", "--mean-service", "1"]
        yield ["estimate", *system, "--characteristic", characteristic, "--rate", rate,
               "--n", "1000", "--input", sample, "--format", "json", "--confidence", "0.95",
               "--method", method]
    # levels below 0.5, where each law's quantile bisects on its CDF, whose
    # widths the JSON header prints at full precision; at 0.05 the sum law's
    # bisection evaluates both its series below z = 0.5 and its closed form
    for confidence, method in itertools.product(("0.05", "0.3"), ("two-sided", "one-sided")):
        yield ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "0.8",
               "--mean-service", "1.25", "--n", "4", "--input", "exp.txt", "--format", "json",
               "--confidence", confidence, "--method", method]
    base = ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "0.8",
            "--mean-service", "1.25", "--input", "exp.txt"]
    for extra in (["--n", "28"], ["--n", "29"], ["--n", "30"],
                  ["--n", "300"], ["--confidence", "0.95", "--n", "31"]):
        yield base + extra
    # r_0 = 0 (exit 2), bad inputs, bad options, cross-option errors
    yield ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "5",
           "--mean-service", "1", "--n", "4", "--input", "far.txt"]
    yield ["estimate", "--system", "gim1n", "--characteristic", "loss-prob", "--rate", "5",
           "--n", "4", "--input", "far.txt", "--confidence", "0.95"]
    for sample in ("empty.txt", "bad.txt", "negative.txt", "missing.txt"):
        yield ["estimate", "--system", "mg1n", "--characteristic", "served", "--rate", "1",
               "--n", "4", "--input", sample]
    # the served count takes no mean service time
    yield ["estimate", "--system", "mg1n", "--characteristic", "served", "--rate", "0.8",
           "--n", "4", "--input", "exp.txt", "--format", "json"]
    # a mean service time the characteristic does not use must still be valid
    yield ["estimate", "--system", "mg1n", "--characteristic", "served", "--rate", "0.8",
           "--mean-service", "-5", "--n", "4", "--input", "exp.txt"]
    yield ["estimate", "--system", "gim1n", "--characteristic", "loss-prob", "--rate", "0.8",
           "--mean-service", "nan", "--n", "4", "--input", "exp.txt"]
    for bad in (["--n", "0"], ["--confidence", "1.5"], ["--rate", "0"], ["--rate", "nan"],
                ["--characteristic", "loss-prob"], ["--method", "three-sided"]):
        argv = ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate", "1",
                "--mean-service", "1", "--n", "4", "--input", "exp.txt", "--confidence",
                "0.95"]
        yield argv + bad
    yield ["estimate", "--system", "gim1n", "--characteristic", "busy", "--rate", "1",
           "--n", "4", "--input", "exp.txt"]
    yield ["estimate", "--system", "mg1n", "--characteristic", "lost", "--rate", "1",
           "--n", "4", "--input", "exp.txt"]
    # a lost seed lambda m - 1 past the largest double
    yield ["estimate", "--system", "mg1n", "--characteristic", "lost", "--rate", "2",
           "--mean-service", "1e308", "--n", "40", "--input", "exp.txt", "--confidence",
           "0.95", "--format", "csv"]
    # a served chain past the largest double from level 2: the point chain
    # overflows within its first block and skips the blocked solves
    for interval in ((), ("--confidence", "0.95", "--method", "one-sided")):
        yield ["estimate", "--system", "mg1n", "--characteristic", "served", "--rate", "700",
               "--n", "40", "--input", "det.txt", *interval]


def _calls():
    """(environment overrides, argv) for every call of the grid."""
    for law, p, n in itertools.product(("two-sided", "one-sided", "one-sided-sum"),
                                       ("0.5", "0.9", "0.95", "0.99"), (None, "1", "10000")):
        yield {}, ["quantile", "--law", law, "--p", p] + ([] if n is None else ["--n", n])
    yield {}, ["quantile", "--law", "two-sided", "--p", "1.5"]
    yield {}, ["quantile", "--law", "two-sided", "--p", "0.95", "--n", "0"]
    for sample, rate, order in itertools.product(_SAMPLES, ("0.5", "1", "3"), ("0", "4", "40")):
        yield {}, ["moments", "--input", sample, "--rate", rate, "--order", order]
    # deep orders: blocks of many rows, the stop on an all-zero row, the tail
    for sample, rate, order in itertools.product(_SAMPLES, ("0.5", "3"), ("300", "1000")):
        yield {}, ["moments", "--input", sample, "--rate", rate, "--order", order]
    for sample in ("empty.txt", "bad.txt", "missing.txt"):
        yield {}, ["moments", "--input", sample, "--rate", "1", "--order", "4"]
    for argv in _estimate_calls():
        yield {}, argv
    for dist, rate, n in itertools.product(("exp:1", "erlang:2:2", "det:1", "uniform:0:2"),
                                           ("0.5", "0.9"), ("0", "3")):
        yield {}, ["simulate", "--dist", dist, "--rate", rate, "--n", n,
                   "--replications", "200", "--seed", "7"]
    yield {SEED_ENV_VAR: "3"}, ["simulate", "--dist", "exp:1", "--rate", "0.5", "--n", "2",
                                "--replications", "50", "--emit-samples", "emitted.txt",
                                "--n-obs", "20"]
    # a sample path that cannot be opened: the same error before or after the run
    yield {}, ["simulate", "--dist", "exp:1", "--rate", "0.95", "--n", "50",
               "--replications", "2000", "--emit-samples", "no-such-dir/x.txt"]
    yield {SEED_ENV_VAR: "x"}, ["simulate", "--dist", "exp:1", "--rate", "0.5", "--n", "2",
                                "--replications", "50"]
    yield {SEED_ENV_VAR: "-1"}, ["simulate", "--dist", "exp:1", "--rate", "0.5", "--n", "2",
                                 "--replications", "50"]
    yield {}, ["simulate", "--dist", "exp:1", "--rate", "0.5", "--n", "2",
               "--replications", "50", "--seed", "-1"]
    # an arrival mean past NumPy's Poisson limit, on Python scalars and on arrays
    for replications in ("1", "100"):
        yield {}, ["simulate", "--dist", "det:1e10", "--rate", "1e10", "--n", "0",
                   "--replications", replications]
    yield {}, ["simulate", "--dist", "gamma:1", "--rate", "0.5", "--n", "2",
               "--replications", "50"]
    # few enough cycles that every round runs on Python scalars
    yield {}, ["simulate", "--dist", "det:1", "--rate", "3", "--n", "2",
               "--replications", "20", "--seed", "5"]
    # load 0.95, buffer 50: full array rounds, with blocks of many services
    # that draw one arrival count each
    yield {}, ["simulate", "--dist", "exp:1", "--rate", "0.95", "--n", "50",
               "--replications", "2000", "--seed", "7"]
    yield {}, ["simulate", "--dist", "uniform:0:2", "--rate", "0.95", "--n", "50",
               "--replications", "100000", "--seed", "7"]
    # load 1.5, buffer 5, one cycle past a chunk: the blocks of the first
    # chunk's cycles outgrow REPLICATION_CHUNK, so a round is capped
    yield {}, ["simulate", "--dist", "exp:1", "--rate", "1.5", "--n", "5",
               "--replications", "16385", "--seed", "3"]
    # busy times near the largest double, whose plain sum overflows
    yield {}, ["simulate", "--dist", "det:1e308", "--rate", "1e-300", "--n", "0",
               "--replications", "3", "--seed", "7"]
    # a narrow law far from zero, whose standard error a sum of squares
    # less N mean^2 cancels
    yield {}, ["simulate", "--dist", "uniform:1000000:1000000.001", "--rate", "5e-7",
               "--n", "0", "--replications", "20000", "--seed", "3"]
    # above load 1, where the budget check takes the law's moments: a run
    # within the service budget, and one far over it
    for dist in ("exp:1", "erlang:2:2", "uniform:0:2"):
        yield {}, ["simulate", "--dist", dist, "--rate", "1.5", "--n", "8",
                   "--replications", "200", "--seed", "7"]
    for dist in ("det:1", "erlang:2:2", "uniform:0:2"):
        yield {}, ["simulate", "--dist", dist, "--rate", "5", "--n", "30",
                   "--replications", "1"]
    for extra in ([], ["--theoretical"], ["--fixture", "published"], ["--fixture", "reference"],
                  ["--n-obs", "2000", "--seed", "5"], ["--n-obs", "100", "--seed", "1"],
                  ["--n-obs", "1", "--seed", "2"], ["--n-obs", "0"]):
        yield {}, ["reproduce", *extra]
    yield {SEED_ENV_VAR: "9"}, ["reproduce", "--n-obs", "500"]
    yield {SEED_ENV_VAR: "x"}, ["reproduce"]
    yield {}, ["reproduce", "--seed", "-1"]
    for argv in ([], ["frobnicate"], ["--help"], ["quantile", "--help"]):
        yield {}, argv
    for sample in _PARSE_EDGES:
        yield {}, ["moments", "--input", sample, "--rate", "1", "--order", "10"]
        yield {}, ["estimate", "--system", "mg1n", "--characteristic", "busy", "--rate",
                   "0.8", "--mean-service", "1.25", "--n", "50", "--input", sample,
                   "--confidence", "0.95", "--format", "json"]
    # late observations, whose exp(-rate x) is subnormal: about 2.7% of
    # heavy.txt at rate 40, and all of far.txt at rate 0.72 (rate x 720)
    for order in ("50", "300", "1000"):
        yield {}, ["moments", "--input", "heavy.txt", "--rate", "40", "--order", order]
    for system in (["--system", "mg1n", "--characteristic", "busy", "--mean-service", "1"],
                   ["--system", "gim1n", "--characteristic", "loss-prob"]):
        yield {}, ["estimate", *system, "--rate", "40", "--n", "50", "--input", "heavy.txt",
                   "--confidence", "0.95", "--format", "json"]
    for order in ("4", "720", "1000"):
        yield {}, ["moments", "--input", "far.txt", "--rate", "0.72", "--order", order]
    for order in ("10", "50"):
        yield {}, ["moments", "--input", "heavy-40k.txt", "--rate", "40", "--order", order]
    yield {}, ["estimate", "--system", "mg1n", "--characteristic", "busy", "--mean-service", "1",
               "--rate", "40", "--n", "50", "--input", "heavy-40k.txt", "--confidence", "0.95",
               "--format", "json"]


def _run(env: dict, argv: list[str]) -> tuple[str, int]:
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    blob = b"\0".join((out.getvalue().encode(), err.getvalue().encode(), str(code).encode()))
    return hashlib.sha256(blob).hexdigest(), code


def run_grid() -> list[str]:
    """One line per call, ``digest exit-code [env] argv``, in grid order."""
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to this width
    os.environ.pop(SEED_ENV_VAR, None)
    lines = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in _sample_files().items():
                Path(name).write_text(text, encoding="utf-8")
            for env, argv in _calls():
                digest, code = _run(env, argv)
                lines.append(f"{digest} {code} {json.dumps([env, argv])}")
        finally:
            os.chdir(home)
    return lines


def _against(rev: str) -> int:
    """Run the grid here and on ``rev``'s ``src``, print each call whose
    digest or exit code differs, and return 1 on any difference (2 if
    ``rev`` cannot be exported or run)."""
    archive = subprocess.run(["git", "-C", str(_ROOT), "archive", "--format=zip", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        sys.stderr.write(archive.stderr.decode())
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        zipfile.ZipFile(io.BytesIO(archive.stdout)).extractall(tmp)
        # two packages named lossq cannot share a process; the other tree's
        # runs alongside this one
        other = subprocess.Popen([sys.executable, __file__, str(Path(tmp) / "src")],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        here = run_grid()
        out, err = other.communicate()
    if other.returncode:
        sys.stderr.write(err)
        return 2
    there = out.splitlines()[:-1]  # without the total line
    differ = 0
    for before, after in zip(there, here, strict=True):
        if before != after:
            differ += 1
            _, code_before, call = before.split(" ", 2)
            print(f"exit {code_before} -> {after.split(' ', 2)[1]} {call}")
    print(f"{differ} of {len(here)} calls differ" if differ
          else f"identical over {len(here)} calls")
    return 1 if differ else 0


if __name__ == "__main__":
    if _ARGS.against is not None:
        sys.exit(_against(_ARGS.against))
    grid = run_grid()
    print("\n".join(grid))
    total = hashlib.sha256("\n".join(grid).encode()).hexdigest()
    print(f"total {total} over {len(grid)} calls")
