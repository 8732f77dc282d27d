"""Chaos benchmark: availability and answer fidelity under injected faults.

Runs the canonical fault schedule (:func:`repro.faults.canonical_plan`)
against a live ``BackgroundServer`` and writes ``BENCH_faults.json``:

* ``baseline`` — a fault-free engine answers every source in-process
  (the oracle: its metrics rows are the ground truth).
* ``chaos`` — the same query set over the wire while the plan drops
  connections, garbles responses, tears store writes and stalls
  compiles; the retrying :class:`~repro.service.client.ServiceClient`
  must keep **availability >= 0.99** and every answered query must
  equal the oracle row exactly.
* ``shard_retry`` — the canonical worker murder (shard 1, attempt 0)
  under the same armed plan; the retried sharded summary must be
  bit-identical to the unsharded run.
* ``demotion`` — two ``engine="auto"`` runs: the first meets a mid-run
  compiled-backend fault, the second a native build failure at
  construction; both ride the circuit-breaker demotion to the dense
  batch tier and must equal it.
* ``deadline`` — an already-expired query must shed *before* burning a
  compile (the structured-refusal fast path).

Every floor — including "every seam fired at least once" (the two
native seams only where the native kernel builds) — is asserted before
the artefact is written, and
``tests/test_bench_artifact.py`` re-validates the committed file, so a
hand-edited artefact cannot claim resilience the run did not show.

Run as a script::

    PYTHONPATH=src python benchmarks/perf_faults.py
    PYTHONPATH=src python benchmarks/perf_faults.py \
        --topology 2D-4 --shape 8 8 --out BENCH_faults.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro import faults
from repro.core.compiler import compile_call_count
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.service import (BackgroundServer, DeadlineExceeded, Query,
                           QueryEngine, RetryPolicy, ServiceClient)
from repro.sim import (native_available, run_reactive_batch,
                       run_reactive_batch_sharded)
from repro.sim.backend import BREAKER
from repro.topology.builder import make_topology

SCHEMA = "repro-wsn/bench-faults/v1"
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

#: The committed artefact's floors (mirrored by the validator).
AVAILABILITY_FLOOR = 0.99


def _norm_row(row: dict) -> dict:
    return json.loads(json.dumps({**row, "source": list(row["source"])}))


def _summaries_equal(a, b) -> bool:
    return (np.array_equal(a.first_rx, b.first_rx)
            and np.array_equal(a.tx_count, b.tx_count)
            and np.array_equal(a.rx_count, b.rx_count)
            and np.array_equal(a.collisions, b.collisions)
            and a.dropped_forced == b.dropped_forced)


def run_benchmark(topology_label: str = "2D-4",
                  shape: Sequence[int] = (8, 8)) -> dict:
    """Run the chaos schedule; return the BENCH_faults.json payload."""
    topology = make_topology(topology_label, shape=tuple(shape))
    sources = [topology.coord(i) for i in range(topology.num_nodes)]
    queries = [Query(topology=topology_label, source=tuple(src),
                     shape=tuple(shape), timeout_ms=60_000.0)
               for src in sources]

    BREAKER.reset()

    # -- baseline: the fault-free oracle --------------------------------
    oracle = QueryEngine()
    t0 = time.perf_counter()
    expected = [_norm_row(oracle.query(q).metrics.as_row())
                for q in queries]
    baseline_secs = time.perf_counter() - t0

    plan = faults.canonical_plan()
    with tempfile.TemporaryDirectory(prefix="repro-faults-bench-") as tmp:
        chaos_engine = QueryEngine(Path(tmp) / "store")
        with plan.arm():
            # -- chaos leg: the full query set over a faulty wire -------
            with BackgroundServer(chaos_engine, port=0) as srv:
                client = ServiceClient(
                    port=srv.port,
                    retry=RetryPolicy(attempts=6, base_delay=0.01,
                                      seed=42))
                t0 = time.perf_counter()
                responses = [client.query(q) for q in queries]
                chaos_secs = time.perf_counter() - t0
                client_retries = client.retries
                client_reconnects = client.reconnects
                client.close()

            # -- shard leg: canonical worker murder, bit-identity -------
            mesh = make_topology(topology_label, shape=(5, 4))
            relay = np.ones(mesh.num_nodes, dtype=bool)
            kwargs = dict(trials=6, summary=True,
                          loss=BernoulliBatchLoss(
                              0.2, trial_seeds(0, 0.2, 6)))
            t0 = time.perf_counter()
            unsharded = run_reactive_batch(mesh, 0, relay, **kwargs)
            sharded = run_reactive_batch_sharded(mesh, 0, relay,
                                                 workers=3, **kwargs)
            shard_secs = time.perf_counter() - t0
            shard_identical = _summaries_equal(unsharded, sharded)

            # -- demotion leg: mid-run fault, then build fault ----------
            calm = run_reactive_batch(mesh, 0, relay, engine="batch",
                                      trials=4, summary=True)
            chaotic = [run_reactive_batch(mesh, 0, relay, engine="auto",
                                          trials=4, summary=True)
                       for _ in range(2)]
            demotion_equal = all(_summaries_equal(calm, c)
                                 for c in chaotic)

    # -- deadline leg: shed costs no compile ----------------------------
    shed_engine = QueryEngine()
    calls0 = compile_call_count()
    try:
        shed_engine.query(Query(topology=topology_label,
                                source=tuple(sources[0]),
                                shape=tuple(shape),
                                deadline=time.monotonic() - 1.0))
    except DeadlineExceeded:
        pass
    compiles_burned = compile_call_count() - calls0
    shed = shed_engine.stats()["shed"]

    breaker_state = BREAKER.state()
    BREAKER.reset()

    ok = [r for r in responses if r.get("ok")]
    availability = len(ok) / len(queries)
    answers_equal = all(
        response["metrics"] == want
        for response, want in zip(responses, expected)
        if response.get("ok"))
    stats = plan.stats()
    fired_total = sum(s["fired"] for s in stats.values())
    native = native_available()
    native_seams = {faults.NATIVE_BUILD, faults.BACKEND_RESOLVE}
    unfired = [seam for seam in faults.SEAMS
               if stats.get(seam, {}).get("fired", 0) < 1
               and (native or seam not in native_seams)]

    # The floors, asserted before anything is written.
    assert availability >= AVAILABILITY_FLOOR, (
        f"availability {availability:.3f} under the canonical plan")
    assert answers_equal, "an answered chaos query diverged from the oracle"
    assert shard_identical, "shard retry was not bit-identical"
    assert demotion_equal, "tier demotion changed the answers"
    assert not unfired, f"seams that never fired: {unfired}"
    assert compiles_burned == 0 and shed == 1, (
        "an expired query reached the compiler")

    return {
        "schema": SCHEMA,
        "topology": topology_label,
        "shape": list(shape),
        "sources": len(sources),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "plan_seed": plan.seed,
        "native_available": native,
        "entries": {
            "baseline": {
                "queries": len(queries),
                "seconds": round(baseline_secs, 4),
                "queries_per_second": round(
                    len(queries) / baseline_secs, 1),
            },
            "chaos": {
                "queries": len(queries),
                "seconds": round(chaos_secs, 4),
                "queries_per_second": round(len(queries) / chaos_secs, 1),
            },
        },
        "availability": round(availability, 4),
        "availability_floor": AVAILABILITY_FLOOR,
        "answers_equal": answers_equal,
        "client": {"retries": client_retries,
                   "reconnects": client_reconnects},
        "shard_retry": {"identical": shard_identical, "workers": 3,
                        "seconds": round(shard_secs, 4)},
        "demotion": {"answers_equal": demotion_equal},
        "deadline": {"shed": shed, "compiles_burned": compiles_burned},
        "store_errors": chaos_engine.cache.store_errors,
        "breaker": breaker_state,
        "faults": stats,
        "faults_fired_total": fired_total,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topology", default="2D-4")
    parser.add_argument("--shape", type=int, nargs="+", default=[8, 8])
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    payload = run_benchmark(topology_label=args.topology, shape=args.shape)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    for label, entry in payload["entries"].items():
        print(f"{label:>8}: {entry['seconds']:8.3f}s "
              f"({entry['queries_per_second']:9.1f} queries/s)")
    print(f"availability under chaos: {payload['availability']:.4f} "
          f"(floor {payload['availability_floor']})")
    print(f"client retries/reconnects: {payload['client']['retries']}/"
          f"{payload['client']['reconnects']}")
    fired = {seam: s["fired"] for seam, s in payload["faults"].items()
             if s["fired"]}
    print(f"faults fired: {fired}")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
