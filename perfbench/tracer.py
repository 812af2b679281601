"""Spans around the calls into each lossq module's public functions.

The tracer lives in the benchmark, not in the program: ``install`` wraps
every function a module lists in ``__all__`` and rebinds the wrapper in
every ``lossq`` namespace that holds the original, including the modules
that imported it by name (``lossq.cli``, ``lossq.intervals``,
``lossq.simulate``) and the package's own re-exports.  ``uninstall`` puts
the originals back, so untraced operations run the unmodified program.

A span is ``(name, start, end, parent, op)``: ``parent`` indexes the span
list (-1 for a root) and ``op`` identifies the operation.  Spans stay in
memory until the benchmark writes them out.  At the same boundaries the
wrappers record counts computed from the call's arguments and result.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

# layer name -> module whose public functions make up the layer
LAYERS = {
    "ecdf": "lossq.ecdf",
    "kolmogorov": "lossq.kolmogorov",
    "moments": "lossq.moments",
    "recursion": "lossq.recursion",
    "intervals": "lossq.intervals",
    "simulate": "lossq.simulate",
    "cli": "lossq.cli",
}


def _bound_chain_madds(counts, args, result):
    # level k >= 3 of each of the two chains takes a dot of length k - 2
    order = result.order
    counts["intervals.madds"] += max(order - 2, 0) * (order - 1)


def _table_rows(counts, args, result):
    counts["intervals.rows"] += len(result.rows)
    counts["intervals.informative_rows"] += sum(1 for r in result.rows if not r.flags())


# counts computed at the boundary of one public function
COUNTERS = {
    "ecdf.read_sample_file": lambda c, a, r: c.update({"ecdf.lines": r.n_obs}),
    "moments.moments_empirical":
        lambda c, a, r: c.update({"moments.terms": a[0].n_obs * r.values.size}),
    "recursion.solve_recursion": lambda c, a, r: c.update({"recursion.levels": r.order}),
    "intervals.bounds_one_sided": _bound_chain_madds,
    "intervals.interval_table": _table_rows,
    "simulate.simulate_busy_period":
        lambda c, a, r: c.update({"simulate.cycles": r.replications}),
    "simulate.ks_law_experiment": lambda c, a, r: c.update({"simulate.ks_trials": r.trials}),
}


class Tracer:
    """In-memory span recorder and the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (an operation, an import)."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        layer_calls = name.split(".", 1)[0] + ".calls"
        counter = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.op)
            counts[layer_calls] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions wherever lossq holds them."""
        wrappers = {}
        for layer, module_name in LAYERS.items():
            __import__(module_name)
            module = sys.modules[module_name]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module_name:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "lossq" and not module_name.startswith("lossq."):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._saved.append((module, attr, value))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# per-layer metric -> the functions whose outermost spans it sums
INCLUSIVE = {
    "ecdf.read_s": ("ecdf.read_sample_file",),
    "ecdf.build_s": ("ecdf.build_ecdf",),
    "kolmogorov.width_s": ("kolmogorov.width_for",),
    "moments.empirical_s": ("moments.moments_empirical",),
    "recursion.solve_s": ("recursion.solve_recursion",),
    "recursion.estimate_s": ("recursion.estimate_characteristic",),
    "intervals.bounds_s": ("intervals.bounds_one_sided", "intervals.bounds_two_sided"),
    "simulate.busy_s": ("simulate.simulate_busy_period",),
    "simulate.ks_s": ("simulate.ks_law_experiment",),
    "simulate.draw_s": ("simulate.draw_samples",),
}

SELF_LAYERS = ("import", "cli", "ecdf", "kolmogorov", "moments", "recursion",
               "intervals", "simulate")


def span_times(spans: list) -> dict[str, float]:
    """Total self time per layer, inclusive time per INCLUSIVE metric, and
    the self time of ``interval_table``.

    Self time is a span's duration minus the durations of its children;
    inclusive time counts only the outermost span of a group, so a call
    that delegates within the group is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    group_of = {fn: metric for metric, fns in INCLUSIVE.items() for fn in fns}
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        layer = name.split(".", 1)[0]
        out[f"{layer}.self"] += duration - child_time[i]
        if name == "intervals.interval_table":
            out["intervals.table_self_s"] += duration - child_time[i]
        metric = group_of.get(name)
        if metric and not (parent >= 0 and group_of.get(spans[parent][0]) == metric):
            out[metric] += duration
    return out
