"""Sweep-throughput benchmark: serial / cold-cache / warm-cache / parallel.

Times a full source sweep of one topology four ways and writes the
results to ``BENCH_sweep.json`` (repo root by default):

* ``serial``   — plain in-process sweep, no cache.  This is the number the
  vectorised engine is judged on against the seed implementation.
* ``cold``     — serial sweep through a *fresh* on-disk
  :class:`~repro.core.cache.ScheduleCache` (pays compilation + persist).
* ``warm``     — the same sweep again through a *fresh* cache instance on
  the same store directory, so every source is served from the sharded
  artifact store's precomputed counts (no compile, no replay).  One warm
  sweep lasts tens of milliseconds, so back-to-back warm sweeps are
  timed for at least ``WARM_MIN_SECONDS`` and the entry reports the time
  per sweep (``sweeps`` says how many were timed).
* ``parallel`` — ``workers=N`` process-pool sweep, no cache.

The parallel sweep's metrics are asserted bit-for-bit equal to the serial
sweep's before anything is written — a benchmark that silently diverged
from the serial semantics would be measuring the wrong thing.

Run as a script::

    PYTHONPATH=src python benchmarks/perf_sweep.py
    PYTHONPATH=src python benchmarks/perf_sweep.py \
        --topology 2D-4 --shape 32 16 --workers 4 --out BENCH_sweep.json

``benchmarks/test_perf_sweep.py`` smoke-tests this module on a small grid
in tier-2 runs and validates the committed artefact's schema.
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

from repro.analysis.sweep import (available_cpus, effective_workers,
                                  sweep_sources)
from repro.core.cache import ScheduleCache
from repro.core.registry import protocol_for
from repro.topology.builder import make_topology

SCHEMA = "repro-wsn/bench-sweep/v2"
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Least total time the warm mode's back-to-back sweeps are timed for.
WARM_MIN_SECONDS = 0.5


def _timed_sweep(topology, **kwargs):
    # symmetry=False pins the direct per-source path: this benchmark is
    # the *baseline* the symmetry-reduced sweep (perf_symmetry.py) is
    # measured against, so its modes must keep compiling every source.
    t0 = time.perf_counter()
    result = sweep_sources(topology, symmetry=False, **kwargs)
    return result, time.perf_counter() - t0


def run_benchmark(topology_label: str = "2D-4",
                  shape: Sequence[int] = (32, 16),
                  workers: int = 2,
                  cache_dir: Optional[str] = None,
                  repeats: int = 1) -> dict:
    """Time the four sweep modes; return the BENCH_sweep.json payload.

    *repeats* > 1 re-times each mode and keeps the fastest run (warm-up
    noise suppression); the equality check runs on the first pass.
    """
    topology = make_topology(topology_label, shape=tuple(shape))
    protocol = protocol_for(topology)
    num_sources = topology.num_nodes

    own_tmp = cache_dir is None
    if own_tmp:
        tmp = tempfile.TemporaryDirectory(prefix="repro-sched-cache-")
        cache_dir = tmp.name

    try:
        entries = {}
        serial_metrics = None
        for label in ("serial", "cold", "warm", "parallel"):
            best = None
            sweeps = 1
            for rep in range(max(1, repeats)):
                if label == "serial":
                    result, secs = _timed_sweep(topology, protocol=protocol)
                elif label == "cold":
                    # Fresh disk dir every repeat: always pays compilation.
                    cold_dir = Path(cache_dir) / f"cold-{rep}"
                    result, secs = _timed_sweep(
                        topology, protocol=protocol,
                        cache=ScheduleCache(cold_dir))
                elif label == "warm":
                    warm_dir = Path(cache_dir) / "warm"
                    if rep == 0:
                        sweep_sources(topology, protocol=protocol,
                                      cache=ScheduleCache(warm_dir),
                                      symmetry=False)
                    # Fresh instance per sweep: empty memory tier, every
                    # source a store hit served from persisted counts (no
                    # replay).
                    runs, total = 0, 0.0
                    while total < WARM_MIN_SECONDS:
                        result, secs = _timed_sweep(
                            topology, protocol=protocol,
                            cache=ScheduleCache(warm_dir))
                        runs, total = runs + 1, total + secs
                    secs = total / runs
                    if best is None or secs < best[1]:
                        sweeps = runs
                else:
                    result, secs = _timed_sweep(
                        topology, protocol=protocol, workers=workers)
                if best is None or secs < best[1]:
                    best = (result, secs)
            result, secs = best
            if label == "serial":
                serial_metrics = result.metrics
            else:
                assert result.metrics == serial_metrics, (
                    f"{label} sweep diverged from the serial sweep")
            entries[label] = {
                "seconds": round(secs, 4),
                "sources_per_second": round(num_sources / secs, 1),
            }
            if label == "warm":
                entries[label]["sweeps"] = sweeps
    finally:
        if own_tmp:
            tmp.cleanup()

    return {
        "schema": SCHEMA,
        "topology": topology_label,
        "shape": list(shape),
        "sources": num_sources,
        "workers": workers,
        # single-CPU hosts degrade parallel requests to serial; the
        # "parallel" entry then times the serial path
        "workers_effective": effective_workers(workers),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_available": available_cpus(),
        "entries": entries,
        "parallel_matches_serial": True,  # asserted above
        "warm_speedup_vs_cold": round(
            entries["cold"]["seconds"] / entries["warm"]["seconds"], 2),
        # v2: warm hits serve metrics from stored counts (no replay), so a
        # warm sweep must beat even the cache-less serial sweep — this is
        # the regression v1 artefacts exhibited (warm 0.87s vs serial
        # 0.65s) and the store layer exists to fix.
        "warm_speedup_vs_serial": round(
            entries["serial"]["seconds"] / entries["warm"]["seconds"], 2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topology", default="2D-4")
    parser.add_argument("--shape", type=int, nargs="+", default=[32, 16])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    payload = run_benchmark(
        topology_label=args.topology, shape=args.shape,
        workers=args.workers, repeats=args.repeats)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    for label, entry in payload["entries"].items():
        print(f"{label:>9}: {entry['seconds']:8.3f}s "
              f"({entry['sources_per_second']:9.1f} sources/s)")
    print(f"warm speedup vs cold: {payload['warm_speedup_vs_cold']}x")
    print(f"warm speedup vs serial: {payload['warm_speedup_vs_serial']}x")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
