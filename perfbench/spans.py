"""Per-layer tracing from outside the package.

Timing wrappers replace public csim functions in every csim module that
binds them, so a call reaches the wrapper whichever module it goes
through.  Each thread keeps its own span stack (the sweep runs its trials
on a worker pool); spans stay in memory as compact arrays and are reduced
to per-layer self times after the traced pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np

# (home module, function, span name).  Functions that share a span name
# are one layer operation: both dictionary families are "build", both
# filter solves are "filter_solve".
TARGETS = (
    ("csim.solver", "solve", "solver.solve"),
    ("csim.solver", "x_update", "solver.x_update"),
    ("csim.solver", "projection", "solver.projection"),
    ("csim.solver", "s_update_backtracking", "solver.s_update_backtracking"),
    ("csim.solver", "z_update", "solver.z_update"),
    ("csim.solver", "multipliers_update", "solver.multipliers_update"),
    ("csim.solver", "effective_config", "solver.effective_config"),
    ("csim.solver", "soft_threshold", "solver.soft_threshold"),
    ("csim.core", "csim_stats", "core.csim_stats"),
    ("csim.baselines", "fista_solve", "baselines.fista_solve"),
    ("csim.baselines", "iht_adaptive_solve", "baselines.iht_adaptive_solve"),
    ("csim.baselines", "hard_threshold", "baselines.hard_threshold"),
    ("csim.dictionaries", "spectral_norm_sq", "dictionaries.spectral_norm_sq"),
    ("csim.dictionaries", "dct_dictionary", "dictionaries.build"),
    ("csim.dictionaries", "haar_wp_dictionary", "dictionaries.build"),
    ("csim.paramselect", "mutual_coherence", "paramselect.mutual_coherence"),
    ("csim.signals", "substream", "signals.substream"),
    ("csim.signals", "random_mask", "signals.random_mask"),
    ("csim.signals", "synth_sparse_signal", "signals.synth_sparse_signal"),
    ("csim.signals", "apply_mask", "signals.apply_mask"),
    ("csim.signals", "extract_patches", "signals.extract_patches"),
    ("csim.signals", "reassemble", "signals.reassemble"),
    ("csim.denoise", "denoise_image", "denoise.denoise_image"),
    ("csim.denoise", "empirical_stats", "denoise.empirical_stats"),
    ("csim.denoise", "apply_fir", "denoise.apply_fir"),
    ("csim.denoise", "mse_filter", "denoise.filter_solve"),
    ("csim.denoise", "csim_filter", "denoise.filter_solve"),
    ("csim.metrics", "psnr", "metrics.psnr"),
    ("csim.metrics", "ssim_global", "metrics.ssim_global"),
    ("csim.metrics", "relative_error", "metrics.relative_error"),
    ("csim.experiments", "image_ssim", "experiments.image_ssim"),
    ("csim.experiments", "sweep_sr", "experiments.sweep_sr"),
    ("csim.experiments", "run_solver", "experiments.run_solver"),
    ("csim.fileio", "load_pgm", "fileio.load_pgm"),
    ("csim.fileio", "save_pgm", "fileio.save_pgm"),
    ("csim.cli", "main", "cli.main"),
)

# Counts read from return values, keyed by span name.
COUNTERS = {
    "solver.solve": lambda r: {"solver.iterations": r.iterations},
    "solver.s_update_backtracking": lambda r: {"solver.s_retries": r[2]},
    "baselines.fista_solve": lambda r: {"baselines.fista_iterations": r.iterations},
    "denoise.empirical_stats": lambda r: {"denoise.floored_patches": int(r.floored)},
}

# Every span name, in TARGETS order; each reports its self time.
_SELF = tuple(dict.fromkeys(name for _, _, name in TARGETS))
_CALLS = (
    "solver.solve", "baselines.fista_solve", "baselines.iht_adaptive_solve",
    "dictionaries.spectral_norm_sq", "signals.substream",
)

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    [(f"{name}.self_s", "s") for name in _SELF]
    + [(f"{name}.calls", "count") for name in _CALLS]
    + [
        ("solver.per_iter_us", "us"),
        ("solver.iterations", "count"),
        ("solver.s_retries", "count"),
        ("baselines.fista_restarts", "count"),
        ("denoise.floored_patches", "count"),
        ("cli.log_bytes", "bytes"),
        ("trace.overhead_s", "s"),
    ]
)


class ThreadSpans:
    """Spans recorded on one thread, in start order.

    ``parents[i]`` is the index of the enclosing span on the same thread,
    or -1 at the top level.
    """

    def __init__(self):
        self.names = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def add(self, name_id: int, parent: int, start: float, end: float) -> int:
        self.names.append(name_id)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return len(self.names) - 1


class Tracer:
    """Span recorder shared by every wrapper of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[ThreadSpans] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def thread_spans(self) -> ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self.threads.append(spans)
        return spans

    def wrap(self, name: str, fn, counter=None):
        name_id = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.thread_spans()
            parent = spans.stack[-1] if spans.stack else -1
            index = spans.add(name_id, parent, 0.0, 0.0)
            spans.stack.append(index)
            spans.starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.ends[index] = clock()
                spans.stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    spans.counts[key] = spans.counts.get(key, 0) + int(value)
            return result

        return traced

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for spans in self.threads:
            for key, value in spans.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def save(self, path) -> None:
        """Write every span as flat arrays (thread, name, parent, start, end)."""
        columns = {"thread": [], "name": [], "parent": [], "start": [], "end": []}
        for t, spans in enumerate(self.threads):
            columns["thread"].append(np.full(len(spans.names), t, dtype=np.int32))
            columns["name"].append(np.asarray(spans.names, dtype=np.int32))
            columns["parent"].append(np.asarray(spans.parents, dtype=np.int64))
            columns["start"].append(np.asarray(spans.starts))
            columns["end"].append(np.asarray(spans.ends))
        arrays = {
            key: np.concatenate(parts) if parts else np.zeros(0)
            for key, parts in columns.items()
        }
        np.savez_compressed(path, names=np.array(self.names), **arrays)


def layer_times(threads, n_names: int):
    """Per name id: (calls, inclusive seconds, self seconds), summed over threads.

    A span's self time is its duration minus the durations of its child
    spans on the same thread.  Children of one span run one after
    another, so their durations never overlap.  Work a span hands to
    another thread is not its child, so it stays in the span's self time.
    """
    calls = np.zeros(n_names, dtype=np.int64)
    inclusive = np.zeros(n_names)
    self_time = np.zeros(n_names)
    for spans in threads:
        ids = np.asarray(spans.names, dtype=np.intp)
        if ids.size == 0:
            continue
        parents = np.asarray(spans.parents, dtype=np.intp)
        duration = np.asarray(spans.ends) - np.asarray(spans.starts)
        covered = np.zeros(ids.size)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        np.add.at(calls, ids, 1)
        np.add.at(inclusive, ids, duration)
        np.add.at(self_time, ids, duration - covered)
    return calls, inclusive, self_time


def child_calls(threads, child: int, parent: int) -> int:
    """Number of spans named ``child`` whose direct parent is named ``parent``."""
    total = 0
    for spans in threads:
        ids = np.asarray(spans.names, dtype=np.intp)
        parents = np.asarray(spans.parents, dtype=np.intp)
        nested = (ids == child) & (parents >= 0)
        total += int(np.count_nonzero(ids[parents[nested]] == parent))
    return total


def per_layer_metrics(tracer: Tracer, log_bytes: int, overhead_s: float) -> dict:
    """Every PER_LAYER metric from one traced pass; layers the pass never
    entered read 0."""
    for name in _SELF:
        tracer.name_id(name)
    calls, inclusive, self_time = layer_times(tracer.threads, len(tracer.names))
    ids = {name: i for i, name in enumerate(tracer.names)}
    counts = tracer.counts()
    values = {f"{name}.self_s": float(self_time[ids[name]]) for name in _SELF}
    values.update({f"{name}.calls": int(calls[ids[name]]) for name in _CALLS})
    iterations = counts.get("solver.iterations", 0)
    solve_s = float(inclusive[ids["solver.solve"]])
    values["solver.per_iter_us"] = solve_s / iterations * 1e6 if iterations else 0.0
    values["solver.iterations"] = iterations
    values["solver.s_retries"] = counts.get("solver.s_retries", 0)
    values["baselines.fista_restarts"] = (
        child_calls(tracer.threads, ids["solver.soft_threshold"], ids["baselines.fista_solve"])
        - counts.get("baselines.fista_iterations", 0)
    )
    values["denoise.floored_patches"] = counts.get("denoise.floored_patches", 0)
    values["cli.log_bytes"] = int(log_bytes)
    values["trace.overhead_s"] = float(overhead_s)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every TARGETS function for its traced wrapper in each csim
    module that binds it; restore the originals on exit."""
    for home, _, _ in TARGETS:
        importlib.import_module(home)
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "csim" or name.startswith("csim."))
    ]
    patched = []
    try:
        for home, attr, name in TARGETS:
            original = getattr(sys.modules[home], attr)
            wrapper = tracer.wrap(name, original, COUNTERS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in reversed(patched):
            setattr(module, key, original)
