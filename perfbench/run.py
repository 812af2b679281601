"""lossq benchmark: four workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lossq checkout.  The benchmark generates its inputs
from ``--seed``, spawns one worker process (the single closed-loop client)
three times to time set-up, and lets the last one run whole cycles of the
workload's operations for about ``--seconds``.  Every operation's output is
checked against references the benchmark computes itself.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles of the same operations and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, inputs with their sha256, latency by operation kind, counts
per cycle) goes to ``.perfbench/results/`` and the trace's spans next to it.
"""

import os

# one BLAS/OpenMP thread in this process and, through the environment, in
# every worker and CLI process it starts
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3          # worker spawns per run; setup_s is their median
PROBES = 5          # bare-interpreter starts per traced run
RUN_LIMIT_S = 170   # a run must end within 180 s

E2E_UNITS = {
    "latency_p50_s": "s", "latency_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "cpu_per_op_s": "s", "obs_per_s": "1/s",
}
LAYER_UNITS = {
    "proc.startup_s": "s", "import.wall_s": "s", "import.scipy_s": "s",
    "import.modules": "count", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "ecdf.self_s": "s", "kolmogorov.self_s": "s", "moments.self_s": "s",
    "recursion.self_s": "s", "intervals.self_s": "s", "simulate.self_s": "s",
    "ecdf.read_s": "s", "ecdf.build_s": "s", "kolmogorov.width_s": "s",
    "moments.empirical_s": "s", "recursion.solve_s": "s", "recursion.estimate_s": "s",
    "intervals.table_self_s": "s", "intervals.bounds_s": "s", "simulate.busy_s": "s",
    "simulate.ks_s": "s", "simulate.draw_s": "s",
    "kolmogorov.calls": "count", "moments.terms": "count", "recursion.levels": "count",
    "intervals.madds": "count", "simulate.cycles": "count",
    "ecdf.lines_per_s": "1/s", "moments.terms_per_s": "1/s",
    "intervals.informative_ratio": "ratio", "levels_per_s": "1/s", "cycles_per_s": "1/s",
    "ks_trials_per_s": "1/s", "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}
RATE_UNITS = {"levels_per_s": "levels", "cycles_per_s": "cycles",
              "ks_trials_per_s": "ks_trials", "obs_per_s": "obs"}

# scratch figures from the project roadmap, for the record's comparison
ROADMAP_BASELINES = (
    ("cli-small", "quantile:", "CLI quantile", 1.0),
    ("estimate-bulk", ":200000", "CLI estimate on 2e5 lines", 1.45),
    ("simulate", "sim:exp:rho0.95:n50", "simulate rho=0.95 n=50 1e5 reps in process", 0.7),
)


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LOSSQ_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "loadavg_start": os.getloadavg(),
        "clients": 1,
        "threads": {var: os.environ[var] for var in PINNED_THREADS},
    }


def spawn_worker(plan_path: Path, env: dict):
    """Start a worker and wait for its ready line; return (process, seconds, ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if not line:
        proc.wait()
        raise RuntimeError(f"worker exited with {proc.returncode} during set-up")
    return proc, elapsed, json.loads(line)


def probe_imports(env: dict) -> dict:
    """Bare interpreter start, and `import lossq` under -X importtime."""
    starts = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        starts.append(time.perf_counter() - t0)
    scipy_s, modules = [], set()
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import sys; n = len(sys.modules); import lossq; print(len(sys.modules) - n)"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        modules.add(int(proc.stdout))
        total = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                name = parts[2].strip()
                if name == "scipy" or name.startswith("scipy."):
                    total += int(parts[0].split(":")[1])
        scipy_s.append(total / 1e6)
    return {"proc.startup_s": statistics.median(starts),
            "import.scipy_s": statistics.median(scipy_s),
            "import.modules": max(modules), "import.modules_seen": sorted(modules)}


def tail(latencies: list) -> dict:
    """The highest percentile with at least ten samples beyond it, but never
    below p75: with fewer than 40 samples, a quarter of them lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n // 4)
    return {"value": ordered[n - 1 - beyond], "percentile": 100.0 * (n - beyond) / n,
            "beyond": beyond, "samples": n}


def rates(records: list) -> dict:
    wall = sum(r["wall"] for r in records)
    return {name: sum(r["units"].get(unit, 0) for r in records) / wall
            for name, unit in RATE_UNITS.items()}


def end_to_end(records: list, setups: list, peak_kb: int) -> tuple[dict, dict]:
    walls = [r["wall"] for r in records]
    t = tail(walls)
    r = rates(records)
    metrics = {
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": t["value"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
        "cpu_per_op_s": sum(r["cpu"] for r in records) / len(records),
        "obs_per_s": r["obs_per_s"],
    }
    return metrics, {"tail": t, "rates": r}


def per_layer(result: dict, probes: dict, import_times: list, plan: dict) -> tuple[dict, dict]:
    trace = result["trace"]
    records = [r for r in result["records"] if r.get("timed", True)]
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n = len(traced)
    traced_wall = sum(r["wall"] for r in traced)
    times = trace["times"]
    cycles = trace["cycle_counts"]
    per_cycle = cycles[0]
    total = {}
    for counts in cycles:
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    cli = plan["type"] == "cli"

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "proc.startup_s": probes["proc.startup_s"],
        "import.wall_s": times.get("import.self", 0.0) / n if cli
        else statistics.median(import_times),
        "import.scipy_s": probes["import.scipy_s"],
        "import.modules": probes["import.modules"],
        "cli.self_s": times.get("cli.self", 0.0) / n,
        "cli.output_bytes": trace["output_bytes"] / n,
    }
    for layer in tracer.SELF_LAYERS[2:]:
        m[f"{layer}.self_s"] = times.get(f"{layer}.self", 0.0) / n
    for name in (*tracer.INCLUSIVE, "intervals.table_self_s"):
        m[name] = times.get(name, 0.0) / n
    for name in ("kolmogorov.calls", "moments.terms", "recursion.levels", "intervals.madds",
                 "simulate.cycles"):
        m[name] = per_cycle.get(name, 0)
    m["ecdf.lines_per_s"] = ratio(total.get("ecdf.lines", 0), times.get("ecdf.read_s", 0.0))
    m["moments.terms_per_s"] = ratio(total.get("moments.terms", 0),
                                     times.get("moments.empirical_s", 0.0))
    m["intervals.informative_ratio"] = ratio(total.get("intervals.informative_rows", 0),
                                             total.get("intervals.rows", 0))
    r = rates(untraced)
    m["levels_per_s"] = r["levels_per_s"]
    m["cycles_per_s"] = r["cycles_per_s"]
    m["ks_trials_per_s"] = r["ks_trials_per_s"]
    m["trace.overhead_ratio"] = traced_wall / sum(x["wall"] for x in untraced)
    layer_self = {layer: times.get(f"{layer}.self", 0.0) / n for layer in tracer.SELF_LAYERS}
    if not cli:
        layer_self["import"] = 0.0  # imported once at set-up, not per operation
    startup = probes["proc.startup_s"] if cli else 0.0
    m["trace.accounted_ratio"] = (sum(layer_self.values()) + startup) / (traced_wall / n)
    shares = {k: v / (traced_wall / n) for k, v in layer_self.items()}
    if cli:
        shares["proc.startup"] = startup / (traced_wall / n)
    extra = {
        "layer_share_of_op_wall": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "counts_per_cycle": cycles,
        "counts_repeat_across_cycles": all(c == per_cycle for c in cycles),
        "traced_ops": n, "spans": trace["spans"],
        "import.modules_seen": probes["import.modules_seen"],
    }
    return m, extra


def at_reference_speed_per_op(records: list, calibration: list) -> list:
    """Each operation's wall and CPU time divided by the host-speed factor
    measured around it: the median of the five kernel timings nearest its
    midpoint, over the reference kernel time."""
    out = []
    for r in records:
        mid = r["start"] + r["wall"] / 2
        nearest = sorted(calibration, key=lambda c: abs(c[0] - mid))[:5]
        factor = statistics.median(s for _, s in nearest) / hostspeed.REFERENCE_S
        out.append({**r, "wall": r["wall"] / factor, "cpu": r["cpu"] / factor})
    return out


def at_reference_speed(metrics: dict, units: dict, factor: float) -> dict:
    """Divide times by the host-speed factor and multiply rates by it."""
    scale = {"s": 1.0 / factor, "1/s": factor}
    return {k: v * scale.get(units[k], 1.0) for k, v in metrics.items()}


def by_kind(records: list) -> dict:
    kinds: dict = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["wall"])
    return {k: {"median_s": statistics.median(v), "ops": len(v)} for k, v in kinds.items()}


def run(args) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = worker_env()
    state = ROOT / ".perfbench"
    results = state / "results"
    work = state / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    # the worker, its CLI processes and the host-speed kernel share one CPU,
    # so that the kernel measures the speed the operations run at
    record["environment"]["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["environment"]["pinned_cpu"]})
    workers = []
    try:
        # users run from a warm bytecode cache
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        ops, arrays, inputs = workloads.build(args.workload, args.seed, work)
        np.savez(work / "refs.npz", **{k.replace("/", ":"): v for k, v in arrays.items()})
        nominal = workloads.NOMINAL_CYCLE_S[args.workload]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        plan = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "type": "cli" if ops[0]["type"] == "cli" else "library",
            "cycles": max(1, round(args.seconds / nominal)),
            "pairs": max(1, round(args.seconds / (2 * nominal))),
            "ops": ops, "root": str(ROOT), "workdir": str(work),
            "refs": str(work / "refs.npz"), "spans_out": str(results / f"{tag}-spans.jsonl"),
            "warmup_argv": ["estimate", "--system", "mg1n", "--characteristic", "busy",
                            "--rate", "0.8", "--mean-service", "1.0", "--n", "4",
                            "--input", workloads.warmup_file(work, args.seed),
                            "--confidence", "0.95"],
            "warmup_sample": workloads.Inputs(args.seed, work)
            .sample("warmup", "erlang2", 1000).tolist(),
        }
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        record["inputs"] = inputs
        if args.trace:
            record["pairs"] = plan["pairs"]
        else:
            record["cycles"] = plan["cycles"]
        probes = probe_imports(env) if args.trace else None

        setups, import_times, setup_calibration = [], [], []
        for i in range(SETUPS):
            setup_calibration.append(hostspeed.kernel_s())
            proc, elapsed, ready = spawn_worker(plan_path, env)
            workers.append(proc)
            setups.append(elapsed)
            import_times.append(ready["import_s"])
            if i < SETUPS - 1:
                proc.communicate("quit\n", timeout=30)
        out, _ = proc.communicate("run\n", timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    records = result["records"]
    # set-up is scaled by the kernel timed before each spawn, operations by
    # the kernel timed between operations
    setup_factor = statistics.median(setup_calibration) / hostspeed.REFERENCE_S
    factor = statistics.median(s for _, s in result["calibration_s"]) / hostspeed.REFERENCE_S
    failures = [{"kind": r["kind"], "reason": r["reason"]} for r in records if r["reason"]]
    timed = [r for r in records if r.get("timed", True)]
    measured = [r for r in timed if not r["traced"]]
    record.update(
        attempted=len(records), failed=len(failures), failures=failures[:20],
        error_rate=len(failures) / len(records), setup_runs_s=setups,
        import_s=import_times, latency_by_kind=by_kind(measured),
    )
    if args.trace:
        raw, extra = per_layer(result, probes, import_times, plan)
        units = LAYER_UNITS
        metrics = at_reference_speed(raw, units, factor)
    else:
        raw, extra = end_to_end(measured, setups, result["peak_rss_kb"])
        units = E2E_UNITS
        metrics, _ = end_to_end(at_reference_speed_per_op(measured, result["calibration_s"]),
                                [s / setup_factor for s in setups], result["peak_rss_kb"])
        record["roadmap_baselines"] = [
            {"what": what, "roadmap_s": base,
             "measured_median_s": statistics.median(
                 [r["wall"] for r in measured if key in r["kind"]])}
            for workload, key, what, base in ROADMAP_BASELINES if workload == args.workload]
    record.update(extra, metrics=metrics, raw_metrics=raw, host={
        "reference_s": hostspeed.REFERENCE_S, "factor": factor, "setup_factor": setup_factor,
        "kernel_s": result["calibration_s"], "setup_kernel_s": setup_calibration})
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(records)} ops, "
          f"{len(failures)} failed, error_rate {record['error_rate']:g}, "
          f"host speed factor {factor:.3f}")
    for failure in failures[:5]:
        print(f"  FAILED {failure['kind']}: {failure['reason']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in extra["layer_share_of_op_wall"].items()
                           if v >= 0.005)
        print(f"  layer share of op wall: {shares}")
    else:
        t = extra["tail"]
        print(f"  tail is p{t['percentile']:.1f} of {t['samples']} ops "
              f"({t['beyond']} beyond); error_rate {record['error_rate']:g}")
        for b in record["roadmap_baselines"]:
            print(f"  {b['what']}: median {b['measured_median_s']:.3f} s "
                  f"(roadmap scratch ~{b['roadmap_s']} s)")
    print(f"  full record: {(results / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": len(records), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lossq" / "__init__.py").is_file():
        print(f"perfbench: no lossq sources under {ROOT / 'src'}; "
              f"run from the root of a lossq checkout", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
