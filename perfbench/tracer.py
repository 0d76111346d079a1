"""Span recorder for the traced benchmark run.

Timing wrappers go on the entpick functions in ``TARGETS`` at every name a
caller looks them up by: ``pipeline.execute_grasp`` and
``experiments.execute_grasp`` are separate bindings of ``sim.execute_grasp``
because both modules import it with ``from .sim import``, so patching
``sim.execute_grasp`` alone would record nothing. ``install`` checks that
every binding still is the same function before it patches, so a refactor
that adds a new lookup site fails loudly instead of going unmeasured, and it
restores every binding on exit.

Each call becomes a span ``[name, start, end, parent, root]`` kept in memory.
Spans started by one top-level call share its index as ``root``. The
program is single-threaded, so the direct children of a span never overlap
and its self time is its duration minus theirs.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

from entpick import select

# (home module, qualified name, modules whose binding the callers read)
TARGETS = (
    ("select", "select_grasp", ("pipeline", "experiments")),
    ("sim", "batch_unit_medians", ("select",)),
    ("mdn", "train", ("mdn",)),
    ("mdn", "augment", ("mdn",)),
    ("mdn", "features_from_rows", ("mdn",)),
    ("mdn", "Dataset.to_jsonl", ("mdn",)),
    ("mdn", "Dataset.from_jsonl", ("mdn",)),
    ("mdn", "save_checkpoint", ("mdn",)),
    ("mdn", "load_checkpoint", ("mdn",)),
    ("sim", "init_heap", ("sim", "pipeline", "experiments")),
    ("sim", "apply_pregrasp", ("pipeline", "experiments")),
    ("sim", "execute_grasp", ("pipeline", "experiments")),
    ("sim", "release_mass", ("pipeline", "experiments")),
    ("sim", "observe_patch", ("pipeline", "select")),
    ("sim", "local_median_height", ("pipeline", "select")),
    ("pipeline", "run_postgrasp", ("pipeline",)),
    ("pipeline", "run_inference_episode", ("pipeline",)),
    ("pipeline", "run_collection", ("pipeline",)),
    ("experiments", "bootstrap", ("experiments",)),
)

# functions reported with calls, ms and self_ms
TIMED = (
    "select.select_grasp", "sim.batch_unit_medians", "mdn.train", "mdn.augment",
    "mdn.features_from_rows", "mdn.Dataset.to_jsonl", "mdn.Dataset.from_jsonl",
    "sim.init_heap", "sim.apply_pregrasp", "sim.execute_grasp", "sim.release_mass",
    "sim.observe_patch", "pipeline.run_postgrasp", "pipeline.run_inference_episode",
    "pipeline.run_collection", "experiments.bootstrap",
)

# spans the benchmark opens around its own calls into the program
BENCH_SPANS = ("cli.collect", "cli.train") + tuple(
    f"experiments.run_experiment.TABLE{i}" for i in range(1, 5))


def _module(name):
    return importlib.import_module(f"entpick.{name}")


def _binding(module_name, qualname):
    """(owner object, attribute name) of a dotted name inside a module."""
    owner = _module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _function(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._n_candidates = {}

    def open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, time.perf_counter(), None, parent, root])
        self._stack.append(idx)
        return idx

    def close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(rec, args, result)
            return result
        return timed

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "root"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)


class NullRecorder:
    """Stands in for a Recorder in untraced runs: spans cost nothing."""

    @contextmanager
    def span(self, name):
        yield


# ---------------------------------------------------------------------------
# counters taken from arguments and results
# ---------------------------------------------------------------------------

def _after_select(rec, args, result):
    heap, config = args[1], args[2]
    key = (heap.tray_mm, config.stride_px, config.margin_px, config.z_candidates_cm)
    if key not in rec._n_candidates:
        rec._n_candidates[key] = len(select.enumerate_candidates(heap.tray_mm, config))
    rec.counts["select.select_grasp.candidates"] += rec._n_candidates[key]
    if result is None:
        rec.counts["select.select_grasp.none"] += 1


def _after_train(rec, args, result):
    rec.counts["mdn.train.epochs"] += len(result.training_log["epochs"]) - 1


def _after_to_jsonl(rec, args, result):
    rec.counts["mdn.Dataset.to_jsonl.bytes"] += os.path.getsize(args[1])


def _after_postgrasp(rec, args, result):
    rec.counts["pipeline.run_postgrasp.steps"] += len(result[1])


def _after_episode(rec, args, result):
    rec.counts["pipeline.retries"] += result.retries
    rec.counts["pipeline.placed"] += result.status == "placed"


AFTER = {
    "select.select_grasp": _after_select,
    "mdn.train": _after_train,
    "mdn.Dataset.to_jsonl": _after_to_jsonl,
    "pipeline.run_postgrasp": _after_postgrasp,
    "pipeline.run_inference_episode": _after_episode,
}


@contextmanager
def install(rec: Recorder):
    """Patch every binding in TARGETS with a timing wrapper; restore all of
    them on exit, also when the body raises."""
    plan = []
    for home, qualname, sites in TARGETS:
        name = f"{home}.{qualname}"
        owner, attr = _binding(home, qualname)
        original = _function(vars(owner)[attr])
        for site in sites:
            owner, attr = _binding(site, qualname)
            raw = vars(owner)[attr]
            if _function(raw) is not original:
                raise RuntimeError(f"entpick.{site}.{qualname} is no longer {name}; "
                                   "update perfbench/tracer.py TARGETS")
            plan.append((owner, attr, raw, name))
    wrappers = {}
    patched = []
    try:
        for owner, attr, raw, name in plan:
            if name not in wrappers:
                wrappers[name] = rec.wrap(name, _function(raw), AFTER.get(name))
            new = wrappers[name]
            if isinstance(raw, classmethod):
                new = classmethod(new)
            setattr(owner, attr, new)
            patched.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(patched):
            setattr(owner, attr, raw)


def bindings():
    """Every patchable binding as {"module.qualname": object}, for checking
    that a traced run left the originals in place."""
    out = {}
    for home, qualname, sites in TARGETS:
        for site in sites:
            owner, attr = _binding(site, qualname)
            out[f"{site}.{qualname}"] = vars(owner)[attr]
    return out


def wrapper_cost_us(n=20000) -> float:
    """Measured cost of one wrapped call over a bare call, in microseconds."""
    def bare(x):
        return x
    wrapped = Recorder().wrap("calibration", bare)
    best = []
    for fn in (bare, wrapped):
        t = time.perf_counter()
        for i in range(n):
            fn(i)
        best.append(time.perf_counter() - t)
    return max(best[1] - best[0], 0.0) / n * 1e6


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(rec: Recorder, wall_s: float, episodes: int) -> tuple:
    """(metrics {name: (value, unit)}, coverage dict) from one traced unit."""
    spans = rec.spans
    child_ms = [0.0] * len(spans)
    calls = collections.Counter()
    total_ms = collections.Counter()
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        dur = (end - start) * 1e3
        total_ms[name] += dur
        if parent >= 0:
            child_ms[parent] += dur
    self_ms = collections.Counter()
    for (name, start, end, _, _), inner in zip(spans, child_ms):
        self_ms[name] += (end - start) * 1e3 - inner

    m = {}
    for name in TIMED:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.ms"] = (total_ms[name], "ms")
        m[f"{name}.self_ms"] = (self_ms[name], "ms")
    c = rec.counts
    epochs = c["mdn.train.epochs"]
    m["select.select_grasp.candidates"] = (c["select.select_grasp.candidates"], "count")
    m["select.select_grasp.none"] = (c["select.select_grasp.none"], "count")
    m["mdn.train.epochs"] = (epochs, "count")
    m["mdn.train.epoch_ms"] = (total_ms["mdn.train"] / epochs if epochs else 0.0, "ms")
    m["mdn.Dataset.to_jsonl.bytes"] = (c["mdn.Dataset.to_jsonl.bytes"], "B")
    m["mdn.save_checkpoint.ms"] = (total_ms["mdn.save_checkpoint"], "ms")
    m["mdn.load_checkpoint.ms"] = (total_ms["mdn.load_checkpoint"], "ms")
    m["sim.local_median_height.calls"] = (calls["sim.local_median_height"], "count")
    m["pipeline.run_postgrasp.steps"] = (c["pipeline.run_postgrasp.steps"], "count")
    m["pipeline.retries"] = (c["pipeline.retries"], "count")
    grasps = _grasps_in_episodes(spans)
    m["pipeline.grasp_yield"] = (c["pipeline.placed"] / grasps if grasps else 0.0, "ratio")
    m["experiments.heaps_per_episode"] = (calls["sim.init_heap"] / episodes, "ratio")
    for name in BENCH_SPANS:
        m[f"{name}.ms"] = (total_ms[name], "ms")

    top = collections.Counter()
    for name, start, end, parent, _ in spans:
        if parent < 0:
            top[name] += (end - start) * 1e3
    covered = sum(top.values())
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.uncovered_ms"] = (wall_s * 1e3 - covered, "ms")
    m["trace.spans"] = (len(spans), "count")
    coverage = {"wall_ms": wall_s * 1e3, "top_level_ms": dict(top),
                "covered_ms": covered, "uncovered_ms": wall_s * 1e3 - covered}
    return m, coverage


def _grasps_in_episodes(spans) -> int:
    """execute_grasp calls made inside a run_inference_episode call."""
    n = 0
    for name, _, _, parent, _ in spans:
        if name != "sim.execute_grasp":
            continue
        while parent >= 0 and spans[parent][0] != "pipeline.run_inference_episode":
            parent = spans[parent][3]
        n += parent >= 0
    return n


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    rec = Recorder()
    names, _ = layer_metrics(rec, 1.0, 1)
    return [(name, unit) for name, (_, unit) in names.items()]
