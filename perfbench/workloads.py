"""The four workloads: their inputs, operation lists and reference values.

Everything here is generated from the run's seed with NumPy's own
``Generator``, never with ``lossq.draw_samples``, so a change to the program
cannot change its inputs.  The seed draws the data; the shape of each
workload (file sizes, moment orders, buffer levels of the bulk and deep
jobs) is fixed, so that runs on different seeds do the same amount of work.

A workload is a list of operations, its *cycle*.  A run executes whole
cycles, so every run of a commit measures the same mix of operations.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("cli-small", "estimate-bulk", "library-deep", "simulate")

# wall seconds of one untraced cycle at the commit that added the benchmark
# (one vCPU of a 2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4, SciPy 1.17).
# A run does round(seconds / nominal) cycles, at least one, so its length
# is about --seconds and its mix of operations is the same on every commit.
NOMINAL_CYCLE_S = {
    "cli-small": 10.0,
    "estimate-bulk": 10.0,
    "library-deep": 0.5,
    "simulate": 4.8,
}

ARRIVAL_RATE = 0.8     # mg1n: Poisson arrivals against unit-mean service
SERVICE_RATE = 1.0     # gim1n: exponential service against mean-1.25 gaps
MEAN_SERVICE = 1.0
CONFIDENCE = 0.95

# law of each generated sample: mean 1 service times or mean 1.25 gaps
LAWS = {
    "erlang2": lambda rng, n: rng.gamma(2.0, 0.5, n),
    "uniform": lambda rng, n: rng.uniform(0.2, 1.8, n),
    "exp-gap": lambda rng, n: rng.exponential(1.25, n),
}


class Inputs:
    """Seeded generator of sample files and in-memory samples.

    Each sample gets its own child stream, keyed by its name, so adding a
    sample never changes another one.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.records: list[dict] = []
        self.arrays: dict[str, np.ndarray] = {}

    def _draw(self, name: str, law: str, n: int) -> np.ndarray:
        key = [int(b) for b in hashlib.sha256(name.encode()).digest()[:4]]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, *key])))
        values = LAWS[law](rng, n)
        self.arrays[name] = values
        return values

    def file(self, name: str, law: str, n: int) -> str:
        """Write ``n`` draws one per line, as the CLI reads them; return the path."""
        values = self._draw(name, law, n)
        text = "\n".join(map(repr, values.tolist())) + "\n"
        path = self.workdir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        self.records.append({
            "name": name, "law": law, "lines": n, "bytes": len(text),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        })
        return str(path)

    def sample(self, name: str, law: str, n: int) -> np.ndarray:
        """An in-memory sample for library operations."""
        values = self._draw(name, law, n)
        self.records.append({
            "name": name, "law": law, "lines": n,
            "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
        })
        return values


def _rate(kind: str) -> float:
    return SERVICE_RATE if kind == "loss-prob" else ARRIVAL_RATE


def _system(kind: str) -> str:
    return "gim1n" if kind == "loss-prob" else "mg1n"


class _Refs:
    """Reference point chains, shared by operations on the same input."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.arrays: dict[str, np.ndarray] = {}
        self._moments: dict[tuple, np.ndarray] = {}

    def points(self, sample: str, kind: str, order: int) -> str:
        key = f"points/{sample}/{kind}/{order}"
        if key not in self.arrays:
            r = self.moments(sample, _rate(kind), order)
            self.arrays[key] = reference.points(kind, _rate(kind), MEAN_SERVICE, r, order)
        return key

    def moments(self, sample: str, rate: float, order: int) -> np.ndarray:
        key = (sample, rate, order)
        if key not in self._moments:
            self._moments[key] = reference.moments(self.inputs.arrays[sample], rate, order)
        return self._moments[key]


def _estimate_op(refs: _Refs, path: str, sample: str, kind: str, n: int,
                 method: str | None, fmt: str, lines: int) -> dict:
    argv = ["estimate", "--system", _system(kind), "--characteristic", kind,
            "--rate", repr(_rate(kind))]
    if kind != "loss-prob":
        argv += ["--mean-service", repr(MEAN_SERVICE)]
    argv += ["--n", str(n), "--input", path, "--format", fmt]
    if method is not None:
        argv += ["--confidence", repr(CONFIDENCE), "--method", method]
    label = f"estimate:{_system(kind)}:{kind}:{method or 'points'}:{fmt}:{lines}"
    return {
        "type": "cli", "kind": label, "argv": argv,
        "check": {"what": "estimate", "ref": refs.points(sample, kind, n),
                  "format": fmt, "bounds": method is not None, "n": n},
        "units": {"obs": lines, "levels": n + 1 if method else 0},
    }


def _cli_small(inputs: Inputs, refs: _Refs, rng: np.random.Generator) -> list[dict]:
    n_obs = 10_000
    svc = inputs.file("svc", "erlang2", n_obs)
    svc_u = inputs.file("svc-uniform", "uniform", n_obs)
    gaps = inputs.file("gaps", "exp-gap", n_obs)
    levels = [int(v) for v in rng.integers(4, 11, size=6)]
    repro_seed = int(rng.integers(0, 2**31))
    refs.arrays["moments/cli"] = refs.moments("svc", ARRIVAL_RATE, 10)
    # the sampled worked example draws Exp(1) on a PCG64 stream keyed by its
    # --seed alone; that convention is part of the CLI's reproducibility
    # contract, so the reference redraws the same sample here
    refs.arrays["repro/sampled"] = reference.moments(
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(repro_seed)))
        .exponential(1.0, n_obs), 1.0, 4)
    refs.arrays["repro/fixture"] = np.array(reference.FIXTURE_MOMENTS)

    def quantile(law: str, p: float, n: int | None) -> dict:
        argv = ["quantile", "--law", law, "--p", repr(p)]
        if n is not None:
            argv += ["--n", str(n)]
        return {"type": "cli", "kind": f"quantile:{law}", "argv": argv,
                "check": {"what": "quantile",
                          "z": reference.law_quantile(law, p), "n": n},
                "units": {}}

    def reproduce(fixture: bool) -> dict:
        argv = ["reproduce"] + (["--fixture", "published"] if fixture else
                                ["--n-obs", str(n_obs), "--seed", str(repro_seed)])
        ref = "repro/fixture" if fixture else "repro/sampled"
        return {"type": "cli", "kind": f"reproduce:{'fixture' if fixture else 'sampled'}",
                "argv": argv, "check": {"what": "reproduce", "ref": ref},
                "units": {"obs": 0 if fixture else n_obs, "levels": 10}}

    return [
        quantile("two-sided", 0.95, 10_000),
        _estimate_op(refs, svc, "svc", "busy", levels[0], "two-sided", "table", n_obs),
        reproduce(False),
        _estimate_op(refs, gaps, "gaps", "loss-prob", levels[1], "one-sided", "csv", n_obs),
        quantile("one-sided", 0.9, 2_500),
        {"type": "cli", "kind": "moments",
         "argv": ["moments", "--input", svc, "--rate", repr(ARRIVAL_RATE), "--order", "10"],
         "check": {"what": "moments", "ref": "moments/cli"}, "units": {"obs": n_obs}},
        _estimate_op(refs, svc_u, "svc-uniform", "served", levels[2], "one-sided", "json", n_obs),
        reproduce(True),
        _estimate_op(refs, svc, "svc", "lost", levels[3], "two-sided", "csv", n_obs),
        quantile("one-sided-sum", 0.99, None),
        _estimate_op(refs, gaps, "gaps", "loss-prob", levels[4], "two-sided", "json", n_obs),
        _estimate_op(refs, svc_u, "svc-uniform", "busy", levels[5], None, "table", n_obs),
    ]


def _estimate_bulk(inputs: Inputs, refs: _Refs, rng: np.random.Generator) -> list[dict]:
    big, small = 1_000_000, 200_000
    svc_big = inputs.file("svc-1e6", "erlang2", big)
    gaps_big = inputs.file("gaps-1e6", "exp-gap", big)
    svc_small = inputs.file("svc-2e5", "erlang2", small)
    gaps_small = inputs.file("gaps-2e5", "exp-gap", small)
    return [
        _estimate_op(refs, svc_big, "svc-1e6", "busy", 50, "two-sided", "csv", big),
        _estimate_op(refs, svc_small, "svc-2e5", "served", 400, "one-sided", "json", small),
        _estimate_op(refs, gaps_big, "gaps-1e6", "loss-prob", 50, "one-sided", "json", big),
        _estimate_op(refs, gaps_small, "gaps-2e5", "loss-prob", 400, "two-sided", "csv", small),
        _estimate_op(refs, svc_small, "svc-2e5", "lost", 400, "two-sided", "table", small),
    ]


# (observations, moment order = buffer level, characteristic, law); the
# characteristic cycles over all four, and the shapes span small N with
# high order, against estimate-bulk's large N with low order.  An odd
# number of jobs puts the run's median latency in the middle of one job's
# samples rather than between two jobs.
DEEP_JOBS = (
    (4_000, 700, "served", "erlang2"),
    (10_000, 1000, "busy", "erlang2"),
    (2_000, 1000, "served", "uniform"),
    (5_000, 600, "lost", "erlang2"),
    (8_000, 800, "loss-prob", "exp-gap"),
    (2_000, 200, "busy", "uniform"),
    (10_000, 400, "served", "erlang2"),
    (3_000, 1000, "lost", "uniform"),
    (6_000, 300, "loss-prob", "exp-gap"),
)


def _library_deep(inputs: Inputs, refs: _Refs, rng: np.random.Generator) -> list[dict]:
    ops = []
    for i, (n_obs, order, kind, law) in enumerate(DEEP_JOBS):
        name = f"deep-{i}"
        inputs.sample(name, law, n_obs)
        refs.arrays[f"sample/{name}"] = inputs.arrays[name]
        ops.append({
            "type": "job", "kind": f"job:{kind}:{order}:{n_obs}",
            "job": {"sample": f"sample/{name}", "kind": kind, "order": order,
                    "rate": _rate(kind), "mean_service": MEAN_SERVICE,
                    "confidence": CONFIDENCE},
            "check": {"what": "job", "ref": refs.points(name, kind, order)},
            "units": {"obs": n_obs, "levels": 2 * (order + 1)},
        })
    return ops


SIM_LAWS = (("exp", (1.0,)), ("erlang", (2, 2.0)), ("det", (1.0,)), ("uniform", (0.0, 2.0)))
SIM_REPLICATIONS = 100_000
KS_N_OBS = KS_TRIALS = 1000


def _simulate(inputs: Inputs, refs: _Refs, rng: np.random.Generator) -> list[dict]:
    # every law has mean service 1, so the arrival rate is the load rho.
    # Three KS-law experiments sit between the groups: a cycle then
    # interleaves long and short calls, and the run's median latency falls
    # in the middle of one law's rho=0.95, n=5 calls, not between two laws.
    ops = []
    for law, params in SIM_LAWS:
        for rho, buffer in ((0.5, 5), (0.95, 50), (0.95, 5), (0.5, 50)):
            ops.append({
                "type": "sim", "kind": f"sim:{law}:rho{rho}:n{buffer}",
                "sim": {"law": law, "params": list(params), "rho": rho,
                        "buffer": buffer, "replications": SIM_REPLICATIONS,
                        "mean_service": MEAN_SERVICE},
                "check": {"what": "sim"},
                "units": {"cycles": SIM_REPLICATIONS},
            })
        if law != "det":
            ops.append({
                "type": "ks", "kind": f"ks:{law}",
                "ks": {"law": law, "params": list(params), "n_obs": KS_N_OBS,
                       "trials": KS_TRIALS},
                "check": {"what": "ks"},
                "units": {"obs": KS_N_OBS * KS_TRIALS, "ks_trials": KS_TRIALS},
            })
    return ops


_BUILDERS = {
    "cli-small": _cli_small,
    "estimate-bulk": _estimate_bulk,
    "library-deep": _library_deep,
    "simulate": _simulate,
}


def build(workload: str, seed: int, workdir: Path) -> tuple[list[dict], dict, list[dict]]:
    """Generate a workload's inputs; return its cycle, reference arrays and
    input records (name, law, lines, sha256)."""
    inputs = Inputs(seed, workdir)
    refs = _Refs(inputs)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    ops = _BUILDERS[workload](inputs, refs, rng)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops, refs.arrays, inputs.records


def warmup_file(workdir: Path, seed: int) -> str:
    """A 1,000-line sample for the set-up warm-up call."""
    inputs = Inputs(seed, workdir)
    return inputs.file("warmup", "erlang2", 1000)
