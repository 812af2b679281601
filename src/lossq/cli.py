"""Command-line surface tying the modules together.

Subcommands: ``quantile`` (limit-law quantiles and widths), ``moments``
(coefficients from a sample file), ``estimate`` (point/interval tables from
a sample file to buffer level ``--n``, which is also the moment order),
``simulate`` (busy-cycle Monte Carlo), and ``reproduce`` (the standard
worked example: exponential service at unit rates, buffer levels 0..4, with
the interval tables of both methods at the sample's size or at the
published widths).  ``moments`` and ``estimate`` keep the sorted sample of
each large file in a cache directory (``_cache_dir``), so that reading the
same bytes again neither parses nor sorts.

Exit codes: 0 success, 1 validation/usage/parse errors and an allocation
refused for want of memory (say, a huge ``--n`` or ``--order``), 2 numeric
degeneracy that prevents any output.  The default seed is 0 and can be
overridden with the ``LOSSQ_SEED`` environment variable.

The module itself imports only the standard library and the NumPy-free
modules (``kolmogorov``, ``choices``, ``errors``); each handler imports what
it calls.  So ``quantile`` and ``--help`` load no NumPy, and only
``simulate`` and a sampled ``reproduce`` load the simulator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .choices import Characteristic, Method
from .errors import DegeneracyError
from .kolmogorov import LimitLaw, quantile, width_for

__all__ = ["main"]

SEED_ENV_VAR = "LOSSQ_SEED"

# the standard worked example: published reference coefficients for an
# Exp(1) service sample of 10,000 at confidence 0.95, with the widths used
# alongside them
FIXTURE_MOMENTS = (0.5031, 0.2488, 0.1234, 0.0615, 0.0308)
FIXTURE_WIDTHS = {
    LimitLaw.TWO_SIDED: 0.013581,
    LimitLaw.ONE_SIDED: 0.01224,
    LimitLaw.ONE_SIDED_SUM: 0.0208,
}

# the system whose sample each side's characteristics are estimated from
_SYSTEMS = {"arrival": "mg1n", "service": "gim1n"}


def _characteristic_spec(args: argparse.Namespace):
    """Cross-validate the estimate arguments and build the characteristic spec.

    ``--system`` must be the system of the characteristic's side, and
    ``--rate`` is the rate of that side.  The spec itself says which
    characteristics need ``--mean-service``.
    """
    from .recursion import CharacteristicSpec

    characteristic = Characteristic(args.characteristic)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    if args.confidence is not None and not 0.0 < args.confidence < 1.0:
        raise ValueError("--confidence must lie strictly between 0 and 1")
    system = _SYSTEMS[characteristic.side]
    if args.system != system:
        raise ValueError(f"{characteristic.value} is estimated from the "
                         f"{characteristic.side} side; use --system {system}")
    return CharacteristicSpec(characteristic, args.rate, args.mean_service)


def _seed(args: argparse.Namespace) -> int:
    """``--seed``, else the ``LOSSQ_SEED`` environment variable, else 0; a
    seed must be non-negative, as NumPy's seeding takes it."""
    if args.seed is not None:
        seed, source = args.seed, f"--seed {args.seed}"
    else:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed, source = int(raw), f"{SEED_ENV_VAR}={raw!r}"
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ValueError(f"a seed must be non-negative, got {source}")
    return seed


def _cache_dir() -> str | None:
    """Where ``moments`` and ``estimate`` keep sorted samples:
    ``$XDG_CACHE_HOME/lossq``, or ``~/.cache/lossq`` when that variable is
    unset, empty or relative (as the XDG spec asks); None without a home."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "lossq") if os.path.isabs(base) else None


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _render_text_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _render_levels(columns: dict[str, list], fmt: str = "table",
                   header: dict | None = None, index: str = "n") -> str:
    """A table with one row per level 0..order, as text, CSV or JSON.

    ``columns`` maps each column's heading to its values per level: floats,
    or for ``flags`` a tuple of flag names, joined with "," in the text
    table and ";" in CSV and listed in JSON.  The text and CSV tables head
    the level column ``index``.  In JSON, ``header`` gives the fields before
    ``rows``, each row starts with its ``level``, and the ``estimate``
    column is keyed ``point``.
    """
    levels = range(len(next(iter(columns.values()))))
    if fmt == "json":
        keys = ["point" if h == "estimate" else h for h in columns]
        rows = [
            {"level": k, **{key: list(v[k]) if key == "flags" else v[k]
                            for key, v in zip(keys, columns.values())}}
            for k in levels
        ]
        return json.dumps({**(header or {}), "rows": rows}, indent=2)
    cell, join = (_fmt, ",") if fmt == "table" else (repr, ";")
    rows = [
        [str(k)] + [join.join(v[k]) if h == "flags" else cell(v[k])
                    for h, v in columns.items()]
        for k in levels
    ]
    if fmt == "table":
        return _render_text_table([index, *columns], rows)
    return "\n".join(",".join(row) for row in [[index, *columns], *rows])


# --- subcommand handlers ---------------------------------------------------


def _run_quantile(args: argparse.Namespace) -> int:
    law = LimitLaw(args.law)
    z = quantile(law, args.p)
    width = None if args.n is None else width_for(law, args.p, args.n)
    print(f"z* = {z:.6f}")
    if width is not None:
        print(f"width = {width:.6f}")
    return 0


def _run_moments(args: argparse.Namespace) -> int:
    from .ecdf import read_ecdf
    from .moments import moments_empirical

    ecdf = read_ecdf(args.input, _cache_dir())
    vector = moments_empirical(ecdf, args.rate, args.order)
    print(",".join(f"r_{i}" for i in range(vector.order + 1)))
    print(",".join(repr(float(v)) for v in vector.values))
    return 0


def _run_estimate(args: argparse.Namespace) -> int:
    from .ecdf import read_ecdf
    from .intervals import interval_table
    from .moments import moments_empirical
    from .recursion import estimate_characteristic

    spec = _characteristic_spec(args)
    ecdf = read_ecdf(args.input, _cache_dir())
    moments = moments_empirical(ecdf, spec.weighting_rate, args.n)
    header = {"characteristic": spec.kind.value, "system": args.system}

    if args.confidence is None:
        values = estimate_characteristic(spec, moments, args.n).natural_values.tolist()
        flags = [("sign",) if v < 0.0 else () for v in values]
        print(_render_levels({"estimate": values, "flags": flags}, args.format, header))
        return 0
    table = interval_table(
        spec, moments, args.confidence, ecdf.n_obs, Method(args.method), args.n,
    )
    header.update(method=table.method.value, n_obs=ecdf.n_obs, confidence=[
        {"law": law.value, "confidence": args.confidence, "n_obs": ecdf.n_obs, "width": width}
        for law, width in zip(table.method.laws, table.widths)
    ])
    columns = {name: getattr(table, name).tolist() for name in ("lower", "point", "upper")}
    print(_render_levels({**columns, "flags": table.flags()}, args.format, header))
    return 0


def _run_simulate(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .simulate import (SAMPLE_GENERATOR, draw_samples, parse_distribution,
                           simulate_busy_period)

    dist = parse_distribution(args.dist)
    seed = _seed(args)
    if args.emit_samples is not None and args.n_obs < 1:
        # draw_samples's own check, made before the run rather than after it
        raise ValueError("n_obs must be at least 1")
    # opened before the run, so that a path that cannot be written fails at
    # once rather than after the whole simulation
    with (nullcontext() if args.emit_samples is None
          else open(args.emit_samples, "w", encoding="utf-8")) as fh:
        result = simulate_busy_period(
            args.rate, dist, args.n, args.replications, seed
        )
        if fh is not None:
            for v in draw_samples(dist, args.n_obs, seed).values:
                fh.write(f"{float(v)!r}\n")
    payload = {
        "generator": result.generator,
        "seed": result.seed,
        "replications": result.replications,
        "distribution": dist.label(),
        "arrival_rate": args.rate,
        "buffer": args.n,
        "busy_period": {"mean": result.busy_period.mean, "se": result.busy_period.se},
        "served": {"mean": result.served.mean, "se": result.served.se},
        "lost": {"mean": result.lost.mean, "se": result.lost.se},
    }
    if fh is not None:
        payload["emitted"] = {
            "path": args.emit_samples,
            "n_obs": args.n_obs,
            "generator": SAMPLE_GENERATOR,
        }
    print(json.dumps(payload, indent=2))
    return 0


def _run_reproduce(args: argparse.Namespace) -> int:
    from .intervals import _interval_table
    from .moments import MomentVector, moments_exponential
    from .recursion import CharacteristicSpec, estimate_characteristic

    order = 4
    busy = CharacteristicSpec.busy_period(1.0, 1.0)
    theory = moments_exponential(1.0, 1.0, order)
    theory_chain = estimate_characteristic(busy, theory, order).natural_values

    if args.theoretical:
        empirical = None
        source = None
    elif args.fixture is not None:
        empirical = MomentVector(rate=1.0, values=FIXTURE_MOMENTS)
        source = "reference coefficients"
    else:
        from .ecdf import build_ecdf
        from .moments import moments_empirical
        from .simulate import Exponential, draw_samples

        seed = _seed(args)
        sample = draw_samples(Exponential(1.0), args.n_obs, seed)
        empirical = moments_empirical(build_ecdf(sample), 1.0, order)
        source = f"simulated sample (N = {args.n_obs}, seed = {seed})"
    coefficients = {"theoretical": theory.values.tolist()}
    if empirical is not None:
        coefficients[source] = empirical.values.tolist()
    print("moment coefficients (weighting rate 1):")
    print(_render_levels(coefficients, index="i"))

    if empirical is None:
        print()
        print("expected busy period (exponential service, unit rates):")
        print(_render_levels({"theoretical": theory_chain.tolist()}))
        return 0

    for method in (Method.TWO_SIDED_STATISTIC, Method.ONE_SIDED_STATISTICS):
        widths = tuple(FIXTURE_WIDTHS[law] if args.fixture else width_for(law, 0.95, args.n_obs)
                       for law in method.laws)
        table = _interval_table(busy, empirical, method, widths, order)
        detail = ", ".join(f"{name} = {width:g}" for name, width in zip(("eps", "gamma"), widths))
        columns = {name: getattr(table, name).tolist() for name in ("point", "lower", "upper")}
        print()
        print(f"busy-period bounds, {method.name.lower().replace('_', '-')} method "
              f"({detail}):")
        print(_render_levels({"theoretical": theory_chain.tolist(), **columns,
                              "flags": table.flags()}))
    return 0


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossq",
        description=(
            "Point and interval estimates for finite-buffer loss-queue "
            "characteristics from observed samples."
        ),
        epilog=(
            f"Exit codes: 0 success, 1 validation error, 2 numeric "
            f"degeneracy. Set {SEED_ENV_VAR} to change the default seed."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "quantile", help="limit-law quantile z* and width z*/sqrt(N)"
    )
    p.add_argument("--law", choices=[l.value for l in LimitLaw], required=True)
    p.add_argument("--p", type=float, required=True, help="confidence level in (0,1)")
    p.add_argument("--n", type=int, help="sample size for the width")
    p.set_defaults(handler=_run_quantile)

    p = sub.add_parser(
        "moments", help="Poisson-weighted moment coefficients of a sample"
    )
    p.add_argument("--input", required=True, help="file with one observation per line")
    p.add_argument("--rate", type=float, required=True, help="weighting rate")
    p.add_argument("--order", type=int, required=True, help="highest coefficient order")
    p.set_defaults(handler=_run_moments)

    p = sub.add_parser(
        "estimate", help="point/interval estimates from a sample file"
    )
    p.add_argument("--system", choices=tuple(_SYSTEMS.values()), required=True)
    p.add_argument(
        "--characteristic", choices=[c.value for c in Characteristic], required=True
    )
    p.add_argument(
        "--rate", type=float, required=True,
        help="arrival rate for mg1n; service rate for gim1n",
    )
    p.add_argument("--mean-service", type=float, help="mean service time (busy and lost)")
    p.add_argument("--n", type=int, required=True,
                   help="largest buffer level, which is also the moment order")
    p.add_argument("--input", required=True, help="file with one observation per line")
    p.add_argument("--confidence", type=float, help="confidence level for intervals")
    p.add_argument(
        "--method", choices=[m.value for m in Method], default=Method.TWO_SIDED_STATISTIC.value
    )
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.set_defaults(handler=_run_estimate)

    p = sub.add_parser("simulate", help="busy-cycle Monte Carlo")
    p.add_argument("--dist", required=True,
                   help="exp:RATE | erlang:SHAPE:RATE | det:VALUE | uniform:LOW:HIGH")
    p.add_argument("--rate", type=float, required=True, help="arrival rate")
    p.add_argument("--n", type=int, required=True, help="waiting-room size")
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--seed", type=int, help=f"default 0 or {SEED_ENV_VAR}")
    p.add_argument("--emit-samples", help="also write a sample file drawn from --dist")
    p.add_argument("--n-obs", type=int, default=10000,
                   help="observations for --emit-samples")
    p.set_defaults(handler=_run_simulate)

    p = sub.add_parser(
        "reproduce",
        help="worked example: exponential service at unit rates, levels 0..4",
    )
    p.add_argument("--n-obs", type=int, default=10000)
    p.add_argument("--seed", type=int, help=f"default 0 or {SEED_ENV_VAR}")
    p.add_argument(
        "--fixture", choices=["published", "reference"],
        help="use the published reference coefficients instead of sampling",
    )
    p.add_argument(
        "--theoretical", action="store_true",
        help="print only the closed-form columns",
    )
    p.set_defaults(handler=_run_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error (argparse's code 2) is a code 1 here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except DegeneracyError as exc:
        print(f"lossq: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        # a MemoryError may carry no message; its name then says what failed
        print(f"lossq: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
