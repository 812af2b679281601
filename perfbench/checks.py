"""Correctness checks on every operation's output.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  References come from ``reference`` (the paper's formulas,
computed by the benchmark), never from the program under test.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference

# the CLI prints tables at 6 decimals and csv/json at full precision
TABLE_ATOL = 1.5e-6
FULL_RTOL = 1e-8
FULL_ATOL = 1e-9
# Monte Carlo means must sit within this many standard errors
SIM_SE = 5.0


def _close(got, want, rtol: float, atol: float) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def _parse_estimate(text: str, fmt: str, bounds: bool) -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = text.strip().splitlines()
    rows = []
    for line in lines[1:]:
        cells = line.split(",") if fmt == "csv" else line.split()
        if not bounds:
            rows.append({"level": int(cells[0]), "point": float(cells[1])})
            continue
        flags = cells[4].split(";" if fmt == "csv" else ",") if len(cells) > 4 else []
        rows.append({"level": int(cells[0]), "lower": float(cells[1]),
                     "point": float(cells[2]), "upper": float(cells[3]),
                     "flags": [f for f in flags if f]})
    return rows


def _ordered(rows: list[dict], slack: float) -> str | None:
    for r in rows:
        if r["flags"]:
            continue
        lo, pt, up = r["lower"], r["point"], r["upper"]
        tol = slack * max(1.0, abs(pt))
        if not (lo - tol <= pt <= up + tol):
            return f"unflagged level {r['level']} has point {pt} outside [{lo}, {up}]"
    return None


def check_estimate(check: dict, stdout: str, refs) -> str | None:
    try:
        rows = _parse_estimate(stdout, check["format"], check["bounds"])
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable estimate output: {exc!r}"
    n = check["n"]
    if [r["level"] for r in rows] != list(range(n + 1)):
        return f"expected levels 0..{n}, got {len(rows)} rows"
    want = refs[check["ref"]]
    loss_prob = "/loss-prob/" in check["ref"]
    if check["format"] == "table":
        rtol, atol = FULL_RTOL, TABLE_ATOL
    else:
        rtol, atol = FULL_RTOL, 0.0 if loss_prob else FULL_ATOL
    got = [r["point"] for r in rows]
    if not _close(got, want, rtol, atol):
        worst = int(np.argmax(np.abs(np.asarray(got) - want)))
        return f"point at level {worst} is {got[worst]!r}, reference {want[worst]!r}"
    if check["bounds"]:
        return _ordered(rows, TABLE_ATOL if check["format"] == "table" else 1e-12)
    return None


def check_quantile(check: dict, stdout: str) -> str | None:
    lines = stdout.strip().splitlines()
    expected = 2 if check["n"] is not None else 1
    if len(lines) != expected or not lines[0].startswith("z* = "):
        return f"unexpected quantile output {stdout!r}"
    z = float(lines[0][5:])
    if abs(z - check["z"]) > TABLE_ATOL:
        return f"z* = {z}, reference {check['z']:.9f}"
    if check["n"] is not None:
        width = float(lines[1].removeprefix("width = "))
        if abs(width - check["z"] / math.sqrt(check["n"])) > TABLE_ATOL:
            return f"width = {width}, reference {check['z'] / math.sqrt(check['n']):.9f}"
    return None


def check_moments(check: dict, stdout: str, refs) -> str | None:
    lines = stdout.strip().splitlines()
    want = refs[check["ref"]]
    header = ",".join(f"r_{i}" for i in range(want.size))
    if len(lines) != 2 or lines[0] != header:
        return f"unexpected moments output {stdout[:80]!r}"
    got = [float(v) for v in lines[1].split(",")]
    if not _close(got, want, 1e-9, 0.0):
        return "moment coefficients differ from the reference"
    return None


def check_reproduce(check: dict, stdout: str, refs) -> str | None:
    """Worked example at unit rates: a 5-row moment table, then two bound
    tables for levels 0..4."""
    rows = []
    for line in stdout.splitlines():
        cells = line.split()
        if cells and cells[0].isdigit():
            rows.append([float(c) for c in cells[1:]])
    if len(rows) != 15 or any(len(r) != 2 for r in rows[:5]) \
            or any(len(r) != 4 for r in rows[5:]):
        return f"unexpected reproduce layout ({len(rows)} numeric rows)"
    r = refs[check["ref"]]
    theory_r = [0.5 ** (i + 1) for i in range(5)]
    if not _close([row[0] for row in rows[:5]], theory_r, 0.0, TABLE_ATOL):
        return "theoretical coefficients differ from 2^-(i+1)"
    if not _close([row[1] for row in rows[:5]], r, 0.0, TABLE_ATOL):
        return "sample coefficients differ from the reference"
    points = reference.points("busy", 1.0, 1.0, r, 4)
    for block in (rows[5:10], rows[10:15]):
        theory, point, lower, upper = (np.array(c) for c in zip(*block))
        if not _close(theory, np.arange(1.0, 6.0), 0.0, TABLE_ATOL):
            return "theoretical busy periods differ from n + 1"
        if not _close(point, points, 0.0, 2 * TABLE_ATOL):
            return "busy-period points differ from the reference"
        if np.any(lower > point + TABLE_ATOL) or np.any(point > upper + TABLE_ATOL):
            return "a busy-period point lies outside its bounds"
    return None


def check_cli(check: dict, stdout: str, refs) -> str | None:
    what = check["what"]
    if what == "estimate":
        return check_estimate(check, stdout, refs)
    if what == "quantile":
        return check_quantile(check, stdout)
    if what == "moments":
        return check_moments(check, stdout, refs)
    return check_reproduce(check, stdout, refs)


def check_job(check: dict, estimate, tables, refs) -> str | None:
    """Points agree with the reference chain; every table repeats the points
    exactly; every unflagged row brackets its point."""
    want = refs[check["ref"]]
    got = estimate.natural_values
    atol = 0.0 if "/loss-prob/" in check["ref"] else FULL_ATOL
    if not _close(got, want, FULL_RTOL, atol):
        worst = int(np.argmax(np.abs(got - want)))
        return f"point at level {worst} is {got[worst]!r}, reference {want[worst]!r}"
    for table in tables:
        if len(table.rows) != got.size:
            return f"{table.method.value} table has {len(table.rows)} rows, expected {got.size}"
        rows = []
        for row in table.rows:
            if row.point != got[row.level]:
                return (f"{table.method.value} table point at level {row.level} "
                        f"differs from estimate_characteristic")
            rows.append({"level": row.level, "lower": row.lower, "point": row.point,
                         "upper": row.upper, "flags": row.flags()})
        reason = _ordered(rows, 1e-12)
        if reason:
            return f"{table.method.value}: {reason}"
    return None


def check_mm1n(lossq, arrival_rate: float, service_rate: float, level: int) -> str | None:
    """Exact M/M/1/n moments through the recursion against the closed form."""
    m = lossq.moments_exponential(arrival_rate, service_rate, level)
    busy = lossq.estimate_characteristic(
        lossq.CharacteristicSpec.busy_period(arrival_rate, 1.0 / service_rate), m, level)
    served = lossq.estimate_characteristic(
        lossq.CharacteristicSpec.served_customers(arrival_rate), m, level)
    want = [reference.mm1n_busy_served(arrival_rate, service_rate, k) for k in range(level + 1)]
    if not _close(busy.natural_values, [w[0] for w in want], 1e-9, 0.0):
        return "M/M/1/n busy periods differ from (1/mu) sum rho^j"
    if not _close(served.natural_values, [w[1] for w in want], 1e-9, 0.0):
        return "M/M/1/n served counts differ from sum rho^j"
    return None


def check_sim(sim: dict, result) -> str | None:
    """Exponential service: within SIM_SE standard errors of the exact chain.
    Other laws: Wald's identity, busy = E[S] * served."""
    busy, served = result.busy_period, result.served
    if result.replications != sim["replications"]:
        return f"{result.replications} replications, expected {sim['replications']}"
    if sim["law"] == "exp":
        want_busy, want_served = reference.mm1n_busy_served(
            sim["rho"], sim["params"][0], sim["buffer"])
        for name, stat, want in (("busy", busy, want_busy), ("served", served, want_served)):
            if abs(stat.mean - want) > SIM_SE * stat.se:
                return f"{name} mean {stat.mean:.5f} vs exact {want:.5f} (se {stat.se:.5f})"
        return None
    mean_service = sim["mean_service"]
    margin = SIM_SE * (busy.se + mean_service * served.se) + 1e-12 * busy.mean
    if abs(busy.mean - mean_service * served.mean) > margin:
        return (f"Wald: busy {busy.mean:.5f} vs E[S]*served "
                f"{mean_service * served.mean:.5f}")
    return None


def check_ks(ks: dict, result) -> str | None:
    """The mean scaled two-sided statistic lies near E[K] = 0.8687; the
    allowance is SIM_SE standard errors plus 1/sqrt(N) for finite-N bias."""
    two = np.asarray(result.two_sided)
    if two.size != ks["trials"] or result.n_obs != ks["n_obs"]:
        return "KS experiment returned the wrong number of trials"
    allowance = SIM_SE * two.std(ddof=1) / math.sqrt(two.size) + 1.0 / math.sqrt(ks["n_obs"])
    if abs(two.mean() - reference.KOLMOGOROV_MEAN) > allowance:
        return f"mean KS statistic {two.mean():.4f} far from E[K] {reference.KOLMOGOROV_MEAN:.4f}"
    return None
