"""Query-service benchmark: cold vs warm throughput, coalescing, fidelity.

Measures the :class:`~repro.service.engine.QueryEngine` on the fleet
shape of the sweep benchmark (2D-4, 32x16 = 512 sources) and writes
``BENCH_service.json``:

* ``cold`` — a fresh engine with an empty store answers every source as
  a single query: each pays a fixpoint compile.
* ``warm`` — the store is bulk-precomputed (``engine.warm``, timed
  into ``warm_summary`` as ``seconds`` / ``sources_per_second``), then a
  *fresh* engine instance (empty memory tier) answers the same queries
  from persisted counts: no compile, no schedule replay.
* ``coalescing`` — >= 64 concurrent same-symmetry-class queries go
  through one ``query_batch`` against an empty store; the
  ``compile_call_count`` delta is asserted to be exactly 1 (one
  representative compile serves the whole class).
* ``async_warm`` — sequential warm queries through
  :class:`~repro.service.runtime.AsyncRuntime`, interleaved chunk by
  chunk with the same queries as direct one-query ``query_batch``
  calls: ``us_per_query`` vs ``engine_us_per_query``, and their
  ``overhead_ratio`` (what the runtime adds to a warm hit).
* fidelity — warm-hit metrics are equality-asserted against direct
  compilation, and the stored schedule is replayed through the normal
  cache path to cross-check the persisted counts (the differential
  verification path).

Run as a script::

    PYTHONPATH=src python benchmarks/perf_service.py
    PYTHONPATH=src python benchmarks/perf_service.py \
        --topology 2D-4 --shape 32 16 --out BENCH_service.json

``tests/test_bench_artifact.py`` validates the committed artefact's
schema and floors (warm >= 10x cold, coalescing compiles == 1, async
warm overhead ratio <= 2).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.cache import ScheduleCache
from repro.core.compiler import compile_call_count
from repro.core.registry import protocol_for
from repro.core.symmetry import group_sources
from repro.radio.energy import PAPER_PACKET_BITS, PAPER_RADIO_MODEL
from repro.service import AsyncRuntime, Query, QueryEngine
from repro.sim.metrics import compute_metrics
from repro.topology.builder import make_topology

SCHEMA = "repro-wsn/bench-service/v1"
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: The coalescing section must exercise at least this many same-class
#: concurrent queries (the acceptance floor mirrors it).
COALESCE_QUERIES = 64

#: Queries per timed chunk of the async section; runtime and engine
#: chunks alternate so host-speed drift hits both alike.
ASYNC_CHUNK = 32


def _queries(label: str, shape, sources) -> List[Query]:
    return [Query(topology=label, source=tuple(src), shape=tuple(shape))
            for src in sources]


def _largest_class(topology, protocol) -> List[tuple]:
    sources = [topology.coord(i) for i in range(topology.num_nodes)]
    groups, _ = group_sources(topology, protocol, sources)
    if not groups:
        raise SystemExit(
            "topology/protocol pair has no symmetry classes — the "
            "coalescing section needs a class-capable protocol")
    members = max(groups.values(), key=len)
    return [sources[pos] for pos in members]


def _async_warm(store_dir: Path, queries: List[Query], expected,
                repeats: int) -> dict:
    """Warm queries one at a time through :class:`AsyncRuntime` versus
    direct ``engine.query_batch([q])`` calls on the same engine."""
    engine = QueryEngine(store_dir)
    engine.query_batch(queries)  # topology LRU built; all store hits

    async def run():
        runtime_s = engine_s = 0.0
        answers = []
        async with AsyncRuntime(engine) as runtime:
            for _ in range(max(1, repeats)):
                for start in range(0, len(queries), ASYNC_CHUNK):
                    chunk = queries[start:start + ASYNC_CHUNK]
                    t0 = time.perf_counter()
                    for query in chunk:
                        answers.append(await runtime.query(query))
                    t1 = time.perf_counter()
                    for query in chunk:
                        engine.query_batch([query])
                    engine_s += time.perf_counter() - t1
                    runtime_s += t1 - t0
        return runtime_s, engine_s, answers

    runtime_s, engine_s, answers = asyncio.run(run())
    assert all(a.via == "store" for a in answers), (
        "async warm queries must all be served by the artifact store")
    assert all(a.metrics == e.metrics for a, e in
               zip(answers, expected * max(1, repeats))), (
        "async warm metrics diverged from direct compiles")
    n = len(answers)
    return {
        "queries": n,
        "us_per_query": round(runtime_s / n * 1e6, 1),
        "engine_us_per_query": round(engine_s / n * 1e6, 1),
        "overhead_ratio": round(runtime_s / engine_s, 2),
    }


def run_benchmark(topology_label: str = "2D-4",
                  shape: Sequence[int] = (32, 16),
                  repeats: int = 1) -> dict:
    """Benchmark the service engine; return the BENCH_service.json payload."""
    topology = make_topology(topology_label, shape=tuple(shape))
    protocol = protocol_for(topology)
    sources = [topology.coord(i) for i in range(topology.num_nodes)]
    queries = _queries(topology_label, shape, sources)

    entries = {}
    with tempfile.TemporaryDirectory(prefix="repro-svc-bench-") as tmp:
        # -- cold: every single query pays a compile --------------------
        best = None
        for rep in range(max(1, repeats)):
            engine = QueryEngine(Path(tmp) / f"cold-{rep}")
            t0 = time.perf_counter()
            cold_results = [engine.query(q) for q in queries]
            secs = time.perf_counter() - t0
            if best is None or secs < best[1]:
                best = (cold_results, secs)
        cold_results, secs = best
        assert all(r.via == "compile" for r in cold_results)
        entries["cold"] = {
            "queries": len(queries),
            "seconds": round(secs, 4),
            "queries_per_second": round(len(queries) / secs, 1),
        }

        # -- warm: bulk precompute, then serve from stored counts -------
        store_dir = Path(tmp) / "warm"
        warmer = QueryEngine(store_dir)
        t0 = time.perf_counter()
        warm_summary = warmer.warm([(topology_label, tuple(shape))])
        secs = time.perf_counter() - t0
        warm_summary["seconds"] = round(secs, 4)
        warm_summary["sources_per_second"] = round(len(sources) / secs, 1)
        best = None
        for _ in range(max(1, repeats)):
            engine = QueryEngine(store_dir)  # fresh memory tier
            t0 = time.perf_counter()
            warm_results = [engine.query(q) for q in queries]
            secs = time.perf_counter() - t0
            if best is None or secs < best[1]:
                best = (warm_results, secs)
        warm_results, secs = best
        assert all(r.via == "store" for r in warm_results), (
            "warm queries must all be served by the artifact store")
        entries["warm"] = {
            "queries": len(queries),
            "seconds": round(secs, 4),
            "queries_per_second": round(len(queries) / secs, 1),
        }

        # Fidelity: the warm answers are the cold answers.
        metrics_equal = all(
            w.metrics == c.metrics
            for w, c in zip(warm_results, cold_results))
        assert metrics_equal, "warm metrics diverged from direct compiles"

        # Replay verification: recompiling through the store replays the
        # persisted schedule; its trace metrics must match the
        # counts-derived warm metrics.
        replay_cache = ScheduleCache(store_dir)
        replay_verified = True
        for src, warm in zip(sources[:32], warm_results[:32]):
            compiled = protocol.compile(topology, src, cache=replay_cache)
            replayed = compute_metrics(compiled.trace, topology,
                                       PAPER_RADIO_MODEL, PAPER_PACKET_BITS)
            if replayed != warm.metrics:
                replay_verified = False
                break
        assert replay_verified, "stored counts diverged from schedule replay"

        async_warm = _async_warm(store_dir, queries, cold_results, repeats)

        # -- coalescing: one class, one compile -------------------------
        members = _largest_class(topology, protocol)
        n = max(COALESCE_QUERIES, min(len(members), 2 * COALESCE_QUERIES))
        class_sources = [members[i % len(members)] for i in range(n)]
        engine = QueryEngine(Path(tmp) / "coalesce")
        calls0 = compile_call_count()
        t0 = time.perf_counter()
        class_results = engine.query_batch(
            _queries(topology_label, shape, class_sources))
        secs = time.perf_counter() - t0
        compile_calls = compile_call_count() - calls0
        assert compile_calls == 1, (
            f"{len(class_sources)} same-class queries took "
            f"{compile_calls} compiles (expected 1)")
        assert all(r.via.startswith("class:") for r in class_results)
        coalescing = {
            "queries": len(class_sources),
            "class_size": len(members),
            "seconds": round(secs, 4),
            "compile_calls": compile_calls,
            "coalesced": engine.coalesced,
        }

    warm_speedup = (entries["cold"]["seconds"]
                    / entries["warm"]["seconds"])
    return {
        "schema": SCHEMA,
        "topology": topology_label,
        "shape": list(shape),
        "sources": len(sources),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "entries": entries,
        "warm_summary": warm_summary,
        "warm_speedup_vs_cold": round(warm_speedup, 2),
        "coalescing": coalescing,
        "async_warm": async_warm,
        "metrics_equal": metrics_equal,       # asserted above
        "replay_verified": replay_verified,   # asserted above
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topology", default="2D-4")
    parser.add_argument("--shape", type=int, nargs="+", default=[32, 16])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    payload = run_benchmark(topology_label=args.topology, shape=args.shape,
                            repeats=args.repeats)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    for label, entry in payload["entries"].items():
        print(f"{label:>5}: {entry['seconds']:8.3f}s "
              f"({entry['queries_per_second']:9.1f} queries/s)")
    print(f"warm speedup vs cold: {payload['warm_speedup_vs_cold']}x")
    ws = payload["warm_summary"]
    print(f"store warm: {ws['seconds']}s "
          f"({ws['sources_per_second']} sources/s)")
    co = payload["coalescing"]
    print(f"coalescing: {co['queries']} same-class queries -> "
          f"{co['compile_calls']} compile ({co['seconds']}s)")
    aw = payload["async_warm"]
    print(f"async warm: {aw['us_per_query']} us/query through the runtime, "
          f"{aw['engine_us_per_query']} us direct "
          f"({aw['overhead_ratio']}x)")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
