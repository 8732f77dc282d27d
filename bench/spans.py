"""Timing wrappers around the layers' public functions, for traced runs.

The benchmark measures each layer from outside: :func:`install` wraps
the functions and methods below and accumulates their time into a
:class:`Spans` object.  ``from module import name`` copies a function
into the importing module, so a function is replaced in every ``repro``
module namespace that holds it, not only where it is defined.

Spans are inclusive: a compile's time also contains the simulator
calls it makes.  Nothing here runs unless a traced run installs it;
end-to-end numbers always come from untraced runs.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

from loadgen import percentile

#: (defining module, function name, span name) of plain timed functions.
TIMED_FUNCTIONS = (
    ("repro.core.compiler", "compile_broadcast", "compiler.compile"),
    ("repro.core.symmetry", "compile_class", "symmetry.compile_class"),
    ("repro.sim.engine", "run_reactive", "sim.run_reactive"),
    ("repro.sim.engine", "run_reactive_multi", "sim.multi"),
    ("repro.sim.engine", "run_reactive_batch", "sim.batch"),
    ("repro.sim.metrics", "compute_metrics", "metrics.compute"),
    ("repro.topology.builder", "make_topology", "topology.build"),
    ("repro.service.wire", "request_from_dict", "wire.parse"),
    ("repro.service.wire", "result_to_dict", "wire.encode"),
)

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    "service.wire.parse_us": "us",
    "service.wire.encode_us": "us",
    "service.runtime.queue_wait_ms_p50": "ms",
    "service.runtime.queue_wait_ms_p99": "ms",
    "service.runtime.batch_size_mean": "count",
    "service.runtime.ticks": "count",
    "service.engine.batch_ms_p50": "ms",
    "service.engine.batch_ms_p99": "ms",
    "service.engine.us_per_query": "us",
    "service.engine.via_store": "fraction",
    "service.engine.via_memory": "fraction",
    "service.engine.via_compile": "fraction",
    "service.engine.via_class": "fraction",
    "service.engine.coalesced": "count",
    "core.cache.lookup_us": "us",
    "core.cache.hit_ratio": "fraction",
    "core.store.get_us": "us",
    "core.store.rebuild_us": "us",
    "core.store.put_ms": "ms",
    "core.store.puts": "count",
    "core.store.put_share": "fraction",
    "core.compiler.calls": "count",
    "core.compiler.compile_ms": "ms",
    "core.symmetry.classes": "count",
    "core.symmetry.compile_class_ms": "ms",
    "sim.engine.run_reactive_calls": "count",
    "sim.engine.run_reactive_ms": "ms",
    "sim.engine.multi_ms": "ms",
    "sim.engine.batch_calls": "count",
    "sim.engine.batch_ms": "ms",
    "sim.metrics.compute_us": "us",
    "topology.build_ms": "ms",
}


class Spans:
    """Thread-safe span accumulator: seconds and calls per name, plus
    raw samples where a percentile is wanted.

    The lock is re-entrant because the traced server dumps from a signal
    handler, which runs on the main thread between any two bytecodes,
    possibly while that same thread holds the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._batch_of: Dict[int, tuple] = {}
        self._engine = None
        self._coalesced_mark = 0
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.samples: Dict[str, List[float]] = defaultdict(list)

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += 1

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.calls[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def engine_batch(self, engine, queries, results, t0: float,
                     t1: float) -> None:
        with self._lock:
            self._engine = engine
            self.samples["engine.batch"].append(t1 - t0)
            self.calls["engine.queries"] += len(queries)
            for result in results:
                via = result.via.split(":", 1)[0]
                self.calls[f"engine.via.{via}"] += 1
            for query in queries:
                self._batch_of[id(query)] = (t0, t1)

    def pop_batch(self, query):
        """``(start, end)`` of the engine batch that served *query*."""
        return self._batch_of.pop(id(query), None)

    def dump(self) -> dict:
        """Everything accumulated since the last dump, then reset."""
        with self._lock:
            coalesced = 0 if self._engine is None else self._engine.coalesced
            snap = {"seconds": dict(self.seconds),
                    "calls": dict(self.calls),
                    "samples": {k: list(v) for k, v in self.samples.items()},
                    "coalesced": coalesced - self._coalesced_mark}
            self._coalesced_mark = coalesced
            self.reset()
        return snap


def _timed(fn, name: str, spans: Spans):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.add(name, perf_counter() - t0)
    return wrapper


def _replace_everywhere(original, replacement) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(spans: Spans) -> None:
    """Wrap every traced function and method so it reports to *spans*."""
    import importlib

    import repro.analysis.robustness  # noqa: F401 - importers to patch
    import repro.cli  # noqa: F401
    import repro.service.server as server
    from repro.core.cache import ScheduleCache
    from repro.core.store import ArtifactStore, StoredEntry
    from repro.service.engine import QueryEngine
    from repro.service.runtime import AsyncRuntime

    for module_name, attr, name in TIMED_FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _replace_everywhere(original, _timed(original, name, spans))

    for cls, attr, name in ((ArtifactStore, "get", "store.get"),
                            (ArtifactStore, "put", "store.put"),
                            (ArtifactStore, "store_class_profile",
                             "store.put"),
                            (StoredEntry, "metrics", "store.rebuild")):
        setattr(cls, attr, _timed(getattr(cls, attr), name, spans))

    # The server calls only json.loads / json.dumps.
    server.json = types.SimpleNamespace(
        loads=_timed(json.loads, "wire.loads", spans),
        dumps=_timed(json.dumps, "wire.dumps", spans))

    lookup = ScheduleCache.cached_metrics

    @functools.wraps(lookup)
    def cached_metrics(self, *args, **kwargs):
        t0 = perf_counter()
        metrics = lookup(self, *args, **kwargs)
        spans.add("cache.lookup", perf_counter() - t0)
        if metrics is not None:
            spans.count("cache.hit")
        return metrics

    ScheduleCache.cached_metrics = cached_metrics

    batch = QueryEngine.query_batch

    @functools.wraps(batch)
    def query_batch(self, queries):
        t0 = perf_counter()
        results = batch(self, queries)
        spans.engine_batch(self, queries, results, t0, perf_counter())
        return results

    QueryEngine.query_batch = query_batch

    query = AsyncRuntime.query

    @functools.wraps(query)
    async def runtime_query(self, q):
        # Bench requests carry no timeout, so the runtime hands this
        # very object to the engine and ``id`` links the two spans.
        t_in = perf_counter()
        try:
            return await query(self, q)
        finally:
            served = spans.pop_batch(q)
            if served is not None:
                spans.add("runtime.queue", served[0] - t_in)
                spans.add("runtime.engine", served[1] - served[0])
                spans.sample("runtime.queue", served[0] - t_in)

    AsyncRuntime.query = runtime_query

    # One call per dispatcher tick, with the whole drained batch.
    split = AsyncRuntime._split_groups

    def split_groups(batch_items):
        spans.count("runtime.tick")
        spans.sample("runtime.batch_size", len(batch_items))
        return split(batch_items)

    AsyncRuntime._split_groups = staticmethod(split_groups)


def _percentile(values, q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(snap: dict, wall_s: float) -> Dict[str, float]:
    """The span-derived per-layer metrics of one dump.

    Totals cover the dump's window; *wall_s* is that window's length.
    A layer the workload never entered reports 0.
    """
    sec, calls, smp = snap["seconds"], snap["calls"], snap["samples"]

    def per_call(*names: str, scale: float) -> float:
        n = calls.get(names[0], 0)
        return sum(sec.get(k, 0.0) for k in names) / n * scale if n else 0.0

    queries = calls.get("engine.queries", 0)
    lookups = calls.get("cache.lookup", 0)
    batches = smp.get("engine.batch", [])
    sizes = smp.get("runtime.batch_size", [])
    queue = smp.get("runtime.queue", [])

    def via(tier: str) -> float:
        return calls.get(f"engine.via.{tier}", 0) / queries if queries else 0.0

    return {
        "service.wire.parse_us": per_call("wire.parse", "wire.loads",
                                          scale=1e6),
        "service.wire.encode_us": per_call("wire.encode", "wire.dumps",
                                           scale=1e6),
        "service.runtime.queue_wait_ms_p50": _percentile(queue, 50) * 1e3,
        "service.runtime.queue_wait_ms_p99": _percentile(queue, 99) * 1e3,
        "service.runtime.batch_size_mean": (sum(sizes) / len(sizes)
                                            if sizes else 0.0),
        "service.runtime.ticks": calls.get("runtime.tick", 0),
        "service.engine.batch_ms_p50": _percentile(batches, 50) * 1e3,
        "service.engine.batch_ms_p99": _percentile(batches, 99) * 1e3,
        "service.engine.us_per_query": (sum(batches) / queries * 1e6
                                        if queries else 0.0),
        "service.engine.via_store": via("store"),
        "service.engine.via_memory": via("memory"),
        "service.engine.via_compile": via("compile"),
        "service.engine.via_class": via("class"),
        "service.engine.coalesced": snap.get("coalesced", 0),
        "core.cache.lookup_us": per_call("cache.lookup", scale=1e6),
        "core.cache.hit_ratio": (calls.get("cache.hit", 0) / lookups
                                 if lookups else 0.0),
        "core.store.get_us": per_call("store.get", scale=1e6),
        "core.store.rebuild_us": per_call("store.rebuild", scale=1e6),
        "core.store.put_ms": sec.get("store.put", 0.0) * 1e3,
        "core.store.puts": calls.get("store.put", 0),
        "core.store.put_share": sec.get("store.put", 0.0) / wall_s,
        "core.compiler.calls": calls.get("compiler.compile", 0),
        "core.compiler.compile_ms": sec.get("compiler.compile", 0.0) * 1e3,
        "core.symmetry.classes": calls.get("symmetry.compile_class", 0),
        "core.symmetry.compile_class_ms":
            sec.get("symmetry.compile_class", 0.0) * 1e3,
        "sim.engine.run_reactive_calls": calls.get("sim.run_reactive", 0),
        "sim.engine.run_reactive_ms": sec.get("sim.run_reactive", 0.0) * 1e3,
        "sim.engine.multi_ms": sec.get("sim.multi", 0.0) * 1e3,
        "sim.engine.batch_calls": calls.get("sim.batch", 0),
        "sim.engine.batch_ms": sec.get("sim.batch", 0.0) * 1e3,
        "sim.metrics.compute_us": per_call("metrics.compute", scale=1e6),
        "topology.build_ms": sec.get("topology.build", 0.0) * 1e3,
    }


def stage_budget(snap: dict, late_ms: float, e2e_ms: float
                 ) -> Dict[str, float]:
    """Per-request stage means of one serve phase.

    *late_ms* and *e2e_ms* are the generator's means (due -> sent, due ->
    answer); the server stages come from *snap*.  Whatever the measured
    stages leave of the end-to-end mean is ``unexplained``, so the
    stages add up to ``stage.e2e_ms`` by construction.
    """
    sec, calls = snap["seconds"], snap["calls"]

    def mean_ms(count_name: str, *names: str) -> float:
        n = calls.get(count_name, 0)
        return sum(sec.get(k, 0.0) for k in names) / n * 1e3 if n else 0.0

    stages = {
        "stage.late_ms": late_ms,
        "stage.parse_ms": mean_ms("wire.parse", "wire.parse", "wire.loads"),
        "stage.queue_ms": mean_ms("runtime.queue", "runtime.queue"),
        "stage.engine_ms": mean_ms("runtime.engine", "runtime.engine"),
        "stage.encode_ms": mean_ms("wire.encode", "wire.encode",
                                   "wire.dumps"),
    }
    stages["stage.unexplained_ms"] = e2e_ms - sum(stages.values())
    stages["stage.e2e_ms"] = e2e_ms
    return stages
