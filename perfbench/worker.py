"""Benchmark worker: the one closed-loop client, in its own process.

    python perfbench/worker.py PLAN_JSON

Set-up: import lossq, run one small warm-up call, then print a ``ready``
line.  The parent times spawn to ready as ``setup_s``.  The worker then
reads one command from stdin: ``quit`` ends it, ``run`` runs the plan's
operations, each only after the previous one has finished, and prints one
JSON result line.

CLI operations start a fresh ``python -m lossq.cli`` each, or, when traced,
``cli_driver.py``.  Library operations call lossq in this process.  Every
operation's output is checked after its timing ends.
"""

import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OP_TIMEOUT_S = 150
CALIBRATE_EVERY_S = 0.5   # host-speed kernel between operations, at most this often


def warm_up(plan: dict) -> None:
    """One small call through the layers the workload uses."""
    if plan["workload"] in ("cli-small", "estimate-bulk"):
        import contextlib
        import io

        import lossq.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = lossq.cli.main(plan["warmup_argv"])
        if code != 0:
            raise RuntimeError(f"warm-up CLI call exited {code}")
        return
    import lossq
    if plan["workload"] == "library-deep":
        spec = lossq.CharacteristicSpec.busy_period(0.8, 1.0)
        ecdf = lossq.build_ecdf(lossq.Sample(plan["warmup_sample"]))
        m = lossq.moments_empirical(ecdf, 0.8, 50)
        lossq.estimate_characteristic(spec, m, 50)
        lossq.interval_table(spec, m, 0.95, ecdf.n_obs, lossq.Method.TWO_SIDED_STATISTIC, 50)
    else:
        lossq.simulate_busy_period(0.5, lossq.Exponential(1.0), 5, 2000, 1)
        lossq.ks_law_experiment(lossq.Exponential(1.0), 100, 100, 1)


def make_dist(lossq, law: str, params: list):
    cls = {"exp": lossq.Exponential, "erlang": lossq.ErlangK,
           "det": lossq.Deterministic, "uniform": lossq.Uniform}[law]
    return cls(*params)


def make_spec(lossq, job: dict):
    spec = lossq.CharacteristicSpec
    kind, rate = job["kind"], job["rate"]
    if kind == "busy":
        return spec.busy_period(rate, job["mean_service"])
    if kind == "served":
        return spec.served_customers(rate)
    if kind == "lost":
        return spec.lost_customers(rate, job["mean_service"])
    return spec.loss_probability(rate)


class Client:
    def __init__(self, plan: dict, lossq, checks, refs, tracer_mod, hostspeed):
        self.plan = plan
        self.hostspeed = hostspeed
        self.calibration: list[tuple[float, float]] = []   # (time taken, seconds)
        self.last_calibration = float("-inf")
        self.lossq = lossq
        self.checks = checks
        self.refs = refs
        self.tracer_mod = tracer_mod
        self.tracer = tracer_mod.Tracer()
        self.seq = 0
        self.cycle = 0
        self.records: list[dict] = []
        self.cycle_counts: list[dict] = []
        self.output_bytes = 0

    # --- one operation ---------------------------------------------------

    def run_cli(self, op: dict, traced: bool) -> dict:
        spans_path = os.path.join(self.plan["workdir"], "spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_driver.py"), spans_path,
                   str(self.seq)] + op["argv"]
        else:
            cmd = [sys.executable, "-m", "lossq.cli"] + op["argv"]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=self.plan["root"], timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"wall": time.perf_counter() - start, "cpu": 0.0,
                    "reason": f"timed out after {OP_TIMEOUT_S} s"}
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        rec = {"wall": wall, "cpu": cpu}
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            rec["reason"] = f"exit {proc.returncode}: {last}"
            return rec
        rec["reason"] = self.checks.check_cli(op["check"], proc.stdout, self.refs)
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                dumped = json.load(fh)
            os.remove(spans_path)
            offset = len(self.tracer.spans)
            self.tracer.spans.extend(
                (name, s, e, p + offset if p >= 0 else -1, o)
                for name, s, e, p, o in dumped["spans"])
            self.tracer.counts.update(dumped["counts"])
            self.output_bytes += len(proc.stdout.encode())
        return rec

    def call_library(self, op: dict):
        lossq = self.lossq
        if op["type"] == "job":
            job = op["job"]
            spec = make_spec(lossq, job)
            sample = lossq.Sample(self.refs[job["sample"]])
            ecdf = lossq.build_ecdf(sample)
            m = lossq.moments_empirical(ecdf, spec.weighting_rate, job["order"])
            est = lossq.estimate_characteristic(spec, m, job["order"])
            tables = [lossq.interval_table(spec, m, job["confidence"], sample.n_obs,
                                           method, job["order"])
                      for method in lossq.Method]
            return est, tables
        # a traced cycle repeats the seeds of the untraced cycle it is paired
        # with, so that the two time the same work
        seed = self.plan["seed"] * 100_003 + self.cycle * 1000 + op["id"]
        if op["type"] == "sim":
            sim = op["sim"]
            dist = make_dist(lossq, sim["law"], sim["params"])
            return lossq.simulate_busy_period(sim["rho"], dist, sim["buffer"],
                                              sim["replications"], seed)
        ks = op["ks"]
        dist = make_dist(lossq, ks["law"], ks["params"])
        return lossq.ks_law_experiment(dist, ks["n_obs"], ks["trials"], seed)

    def run_library(self, op: dict, traced: bool) -> dict:
        self.tracer.op = self.seq
        start = time.perf_counter()
        cpu0 = time.process_time()
        try:
            if traced:
                with self.tracer.span("bench.op"):
                    result = self.call_library(op)
            else:
                result = self.call_library(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            return {"wall": time.perf_counter() - start, "cpu": time.process_time() - cpu0,
                    "reason": f"{type(exc).__name__}: {exc}"}
        rec = {"wall": time.perf_counter() - start, "cpu": time.process_time() - cpu0}
        if op["type"] == "job":
            rec["reason"] = self.checks.check_job(op["check"], *result, self.refs)
        elif op["type"] == "sim":
            rec["reason"] = self.checks.check_sim(op["sim"], result)
        else:
            rec["reason"] = self.checks.check_ks(op["ks"], result)
        return rec

    def calibrate(self) -> None:
        seconds = self.hostspeed.kernel_s()
        self.last_calibration = time.perf_counter()
        self.calibration.append((self.last_calibration, seconds))

    def run_cycle(self, cycle: int, traced: bool) -> None:
        self.cycle = cycle
        if traced and self.plan["type"] == "library":
            self.tracer.install()
        before = dict(self.tracer.counts)
        try:
            for op in self.plan["ops"]:
                if time.perf_counter() - self.last_calibration >= CALIBRATE_EVERY_S:
                    self.calibrate()
                run = self.run_cli if op["type"] == "cli" else self.run_library
                start = time.perf_counter()
                rec = run(op, traced)
                rec.update(kind=op["kind"], traced=traced, units=op["units"], start=start)
                self.records.append(rec)
                self.seq += 1
        finally:
            self.tracer.uninstall()
        if traced:
            self.cycle_counts.append({k: v - before.get(k, 0)
                                      for k, v in self.tracer.counts.items()})

    # --- the run ---------------------------------------------------------

    def run(self) -> dict:
        if self.plan["trace"]:
            for cycle in range(self.plan["pairs"]):
                self.run_cycle(cycle, traced=False)
                self.run_cycle(cycle, traced=True)
        else:
            for cycle in range(self.plan["cycles"]):
                self.run_cycle(cycle, traced=False)
        self.calibrate()
        if self.plan["workload"] == "library-deep":
            # one untimed job with exact exponential moments
            self.records.append({"kind": "mm1n-closed-form", "timed": False,
                                 "reason": self.checks.check_mm1n(self.lossq, 0.8, 1.0, 200)})
        who = resource.RUSAGE_CHILDREN if self.plan["type"] == "cli" else resource.RUSAGE_SELF
        out = {"records": self.records, "calibration_s": self.calibration,
               "peak_rss_kb": resource.getrusage(who).ru_maxrss}
        if self.plan["trace"]:
            with open(self.plan["spans_out"], "w", encoding="utf-8") as fh:
                for span in self.tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            out["trace"] = {
                "times": self.tracer_mod.span_times(self.tracer.spans),
                "cycle_counts": self.cycle_counts,
                "output_bytes": self.output_bytes,
                "spans": len(self.tracer.spans),
            }
        return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    import lossq
    import_s = time.perf_counter() - start
    warm_up(plan)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    # the benchmark's own modules import NumPy, so they load only after the
    # import of lossq has been timed
    import numpy as np

    import checks
    import hostspeed
    import tracer
    with np.load(plan["refs"]) as npz:
        refs = {key.replace(":", "/"): npz[key] for key in npz.files}
    result = Client(plan, lossq, checks, refs, tracer, hostspeed).run()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
