"""Command-line surface tying the modules together.

Subcommands: ``quantile`` (limit-law quantiles and widths), ``moments``
(coefficients from a sample file), ``estimate`` (point/interval tables from
a sample file to buffer level ``--n``, which is also the moment order),
``simulate`` (busy-cycle Monte Carlo), and ``reproduce`` (the standard
worked example: exponential service at unit rates, buffer levels 0..4, with
the interval tables of both methods at the sample's size or at the
published widths).

Exit codes: 0 success, 1 validation/usage/parse errors, 2 numeric
degeneracy that prevents any output.  The default seed is 0 and can be
overridden with the ``LOSSQ_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .ecdf import build_ecdf, read_sample_file
from .errors import DegeneracyError
from .intervals import IntervalTable, Method, _interval_table, interval_table
from .kolmogorov import ConfidenceSpec, LimitLaw, quantile, width_for
from .moments import MomentVector, moments_empirical, moments_exponential
from .recursion import Characteristic, CharacteristicSpec, estimate_characteristic
from .simulate import (
    SAMPLE_GENERATOR,
    Exponential,
    draw_samples,
    parse_distribution,
    simulate_busy_period,
)

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

_SYSTEMS = ("mg1n", "gim1n")
_ARRIVAL_SIDE = (
    Characteristic.BUSY_PERIOD,
    Characteristic.SERVED_CUSTOMERS,
    Characteristic.LOST_CUSTOMERS,
)


def _characteristic_spec(args: argparse.Namespace) -> CharacteristicSpec:
    """Cross-validate the estimate arguments and build the characteristic spec."""
    characteristic = Characteristic(args.characteristic)
    if args.system not in _SYSTEMS:
        raise ValueError(f"unknown system {args.system!r}")
    if args.n is None or args.n < 1:
        raise ValueError("--n must be at least 1")
    if args.confidence is not None and not 0.0 < args.confidence < 1.0:
        raise ValueError("--confidence must lie strictly between 0 and 1")
    if args.rate is None:
        raise ValueError("missing --rate")
    if args.system == "mg1n":
        if characteristic not in _ARRIVAL_SIDE:
            raise ValueError(
                "loss-prob is estimated from the service side; "
                "use --system gim1n"
            )
        if args.mean_service is None:
            raise ValueError("missing --mean-service (required for mg1n)")
        if characteristic is Characteristic.BUSY_PERIOD:
            return CharacteristicSpec.busy_period(args.rate, args.mean_service)
        if characteristic is Characteristic.LOST_CUSTOMERS:
            return CharacteristicSpec.lost_customers(args.rate, args.mean_service)
        return CharacteristicSpec.served_customers(args.rate)
    if characteristic is not Characteristic.LOSS_PROBABILITY:
        raise ValueError(
            f"{characteristic.value} is estimated from the arrival "
            f"side; use --system mg1n"
        )
    return CharacteristicSpec.loss_probability(args.rate)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
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


# --- subcommand handlers ---------------------------------------------------


def _run_quantile(args: argparse.Namespace) -> int:
    law = LimitLaw(args.law)
    z = quantile(law, args.p)
    width = None if args.n is None else width_for(law, args.p, args.n).width
    print(f"z* = {z:.6f}")
    if width is not None:
        print(f"width = {width:.6f}")
    return 0


def _run_moments(args: argparse.Namespace) -> int:
    ecdf = build_ecdf(read_sample_file(args.input))
    vector = moments_empirical(ecdf, args.rate, args.order)
    print(",".join(f"r_{i}" for i in range(vector.order + 1)))
    print(",".join(repr(float(v)) for v in vector.values))
    return 0


def _run_estimate(args: argparse.Namespace) -> int:
    spec = _characteristic_spec(args)
    # the unsorted sample is dropped once sorted, before the moments run
    ecdf = build_ecdf(read_sample_file(args.input))
    moments = moments_empirical(ecdf, spec.weighting_rate, args.n)

    if args.confidence is None:
        result = estimate_characteristic(spec, moments, args.n)
        print(_render_points(args, result.natural_values))
        return 0
    table = interval_table(
        spec, moments, args.confidence, ecdf.n_obs, Method(args.method), args.n,
    )
    print(_render_intervals(args, table, ecdf.n_obs))
    return 0


def _render_points(args: argparse.Namespace, natural_values: np.ndarray) -> str:
    if args.format == "table":
        rows = [[str(k), _fmt(float(v))] for k, v in enumerate(natural_values)]
        return _render_text_table(["n", "estimate"], rows)
    if args.format == "csv":
        lines = ["n,estimate"]
        lines += [f"{k},{float(v)!r}" for k, v in enumerate(natural_values)]
        return "\n".join(lines)
    payload = {
        "characteristic": args.characteristic,
        "system": args.system,
        "rows": [
            {"level": k, "point": float(v)} for k, v in enumerate(natural_values)
        ],
    }
    return json.dumps(payload, indent=2)


def _render_intervals(args: argparse.Namespace, table: IntervalTable, n_obs: int) -> str:
    columns = (range(table.order + 1), table.lower.tolist(), table.point.tolist(),
               table.upper.tolist(), table.flags())
    if args.format == "table":
        rows = [
            [str(k), _fmt(lower), _fmt(point), _fmt(upper), ",".join(f)]
            for k, lower, point, upper, f in zip(*columns)
        ]
        return _render_text_table(["n", "lower", "point", "upper", "flags"], rows)
    if args.format == "csv":
        lines = ["n,lower,point,upper,flags"]
        lines += [
            f"{k},{lower!r},{point!r},{upper!r}," + ";".join(f)
            for k, lower, point, upper, f in zip(*columns)
        ]
        return "\n".join(lines)
    payload = {
        "characteristic": table.characteristic.value,
        "system": args.system,
        "method": table.method.value,
        "n_obs": n_obs,
        "confidence": [
            {
                "law": c.law.value,
                "confidence": c.confidence,
                "n_obs": c.n_obs,
                "width": c.width,
            }
            for c in table.confidence
        ],
        "rows": [
            {"level": k, "lower": lower, "point": point, "upper": upper, "flags": list(f)}
            for k, lower, point, upper, f in zip(*columns)
        ],
    }
    return json.dumps(payload, indent=2)


def _run_simulate(args: argparse.Namespace) -> int:
    dist = parse_distribution(args.dist)
    seed = args.seed if args.seed is not None else _default_seed()
    result = simulate_busy_period(
        args.rate, dist, args.n, args.replications, seed
    )
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
    if args.emit_samples is not None:
        sample = draw_samples(dist, args.n_obs, seed)
        with open(args.emit_samples, "w", encoding="utf-8") as fh:
            for v in sample.values:
                fh.write(f"{float(v)!r}\n")
        payload["emitted"] = {
            "path": args.emit_samples,
            "n_obs": args.n_obs,
            "generator": SAMPLE_GENERATOR,
        }
    print(json.dumps(payload, indent=2))
    return 0


def _run_reproduce(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    order = 4
    busy = CharacteristicSpec.busy_period(1.0, 1.0)
    theory = moments_exponential(1.0, 1.0, order)
    theory_chain = estimate_characteristic(busy, theory, order).natural_values

    if args.theoretical:
        empirical = None
        source = None
    elif args.fixture is not None:
        empirical = MomentVector(rate=1.0, values=np.array(FIXTURE_MOMENTS))
        source = "reference coefficients"
    else:
        sample = draw_samples(Exponential(1.0), args.n_obs, seed)
        empirical = moments_empirical(build_ecdf(sample), 1.0, order)
        source = f"simulated sample (N = {args.n_obs}, seed = {seed})"

    headers = ["i", "theoretical"] + ([source] if empirical is not None else [])
    rows = []
    for i in range(order + 1):
        row = [str(i), _fmt(float(theory.values[i]))]
        if empirical is not None:
            row.append(_fmt(float(empirical.values[i])))
        rows.append(row)
    print("moment coefficients (weighting rate 1):")
    print(_render_text_table(headers, rows))

    if empirical is None:
        print()
        print("expected busy period (exponential service, unit rates):")
        chain_rows = [[str(k), _fmt(float(v))] for k, v in enumerate(theory_chain)]
        print(_render_text_table(["n", "theoretical"], chain_rows))
        return 0

    for method in Method:
        if args.fixture is None:
            table = interval_table(busy, empirical, 0.95, args.n_obs, method, order)
        else:
            widths = tuple(ConfidenceSpec(0.95, 10_000, law, FIXTURE_WIDTHS[law])
                           for law in method.laws)
            table = _interval_table(busy, empirical, method, widths, order)
        detail = ", ".join(f"{name} = {c.width:g}"
                           for name, c in zip(("eps", "gamma"), table.confidence))
        columns = zip(theory_chain.tolist(), table.point.tolist(), table.lower.tolist(),
                      table.upper.tolist())
        block = [[str(k)] + [_fmt(v) for v in row] for k, row in enumerate(columns)]
        print()
        print(f"busy-period bounds, {method.name.lower().replace('_', '-')} method "
              f"({detail}):")
        print(_render_text_table(["n", "theoretical", "point", "lower", "upper"], block))
    return 0


# --- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--system", choices=_SYSTEMS, required=True)
    p.add_argument(
        "--characteristic", choices=[c.value for c in Characteristic], required=True
    )
    p.add_argument(
        "--rate", type=float, required=True,
        help="arrival rate for mg1n; service rate for gim1n",
    )
    p.add_argument("--mean-service", type=float, help="mean service time (mg1n)")
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
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except DegeneracyError as exc:
        print(f"lossq: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"lossq: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
