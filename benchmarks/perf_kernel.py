"""Engine-tier throughput benchmark: serial / batch / compiled.

Times the slot-resolve tiers (:mod:`repro.sim.backend`) on two
workloads and writes ``BENCH_kernel.json`` (repo root by default):

* ``sweep`` — the BENCH_robustness reference workload (2D-4 32x16 loss
  degradation, 8 rates x 32 trials) run through the one-trial baseline
  (:mod:`serial_baseline`), every engine and a trial-sharded pass, so
  the tier numbers are directly comparable to the committed robustness
  baseline.
* ``large_grid`` — one 256-trial Monte-Carlo cell on a 64x64 lattice,
  where the cffi/C word-space resolve (64 nodes per uint64 op) with its
  pair-sparse loss draws separates from the dense gather + full-matrix
  Bernoulli draws.  This is the cell the ``compiled_speedup_vs_batch``
  >= 3x acceptance floor is measured on.
* ``recovery_grid`` — the same lattice with the closed-loop recovery
  layer enabled, on the protocol's compiled relay plan (the workload
  the analysis sweeps run).  The recovery update is tiered alongside
  the slot resolve (:mod:`repro.sim.recovery_packed`: word-packed
  known-edge bitsets, due-slot buckets and C inner loops on
  ``compiled``), so this cell carries its own enforced floor —
  ``compiled`` >= 5x vs batch — asserted here before the artefact is
  written.

v4 drops the pure-numpy ``packed`` tier: the ladder is compiled ->
batch, so the entries are ``batch``, ``compiled`` (where the native
kernel builds) and ``compiled-mt``.

v3 adds the intra-process thread pool of the compiled tier: the
``compiled`` entries pin ``threads=1`` (the single-thread baseline the
v2 floors were measured against), and hosts with >= 2 cores also time
``compiled-mt`` — the same kernel at the default thread width — and
record ``mt_speedup_vs_compiled``.  The multi-thread floors are
*conditional on core count*: they are asserted only when the benchmark
actually has :data:`MT_MIN_CORES` cores to scale across, and the
artefact records the effective ``threads`` / ``cores_available`` so the
tier-1 validator can distinguish "single-core host, floors not
measurable" from "floors silently dropped".

Every engine's results are asserted **bit-identical** to the batch
engine, and a forced multi-shard pass (``run_reactive_batch_sharded``
with explicit worker counts, so the check runs even on one CPU) is
asserted bit-identical to the unsharded run, before anything is
written — the speedups are only meaningful because the tiers are
exactly equivalent.

Run as a script::

    PYTHONPATH=src python benchmarks/perf_kernel.py
    PYTHONPATH=src python benchmarks/perf_kernel.py \
        --grid-shape 48 48 --grid-trials 64 --profile

``--profile`` additionally captures per-phase timings (CSR gather,
bincount, word resolve, loss RNG, commit, and the recovery phases
``recovery-pre`` / ``recovery-post`` / ``recovery-election``) for each
engine via :mod:`repro.profiling` and records them under
``"profile"``; profiles are captured with sharding disabled (the
accumulator is per-process).

``tests/test_bench_artifact.py`` validates the committed artefact's
schema in tier 1; ``tests/test_perf_smoke.py`` keeps a tiny-budget
engine-agreement run inside tier-1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro import profiling
from repro.analysis.robustness import loss_degradation
from repro.core.registry import protocol_for
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.sim import (native_available, native_reason,
                       run_reactive_batch, run_reactive_batch_sharded)
from repro.sim.native import default_native_threads
from repro.sim.recovery import RecoveryPolicy
from repro.topology.builder import make_topology
from serial_baseline import loss_curve

SCHEMA = "repro-wsn/bench-kernel/v4"
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
DEFAULT_LOSS_RATES = (0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3)

#: Enforced speedup vs batch on the recovery cell (64x64, loss 0.2,
#: t2r2b1k2); applies only when the native tier builds on the host.
RECOVERY_FLOORS = {"compiled": 5.0}

#: Enforced speedups of the multi-threaded compiled run over its own
#: single-thread baseline (``compiled-mt`` vs ``compiled``), per grid
#: section.  Asserted only when the host exposes at least
#: :data:`MT_MIN_CORES` cores — below that the pool has nothing to
#: scale across, so the floor is recorded in the artefact but the
#: assertion is skipped (and the tier-1 validator checks the same
#: condition instead of silently passing).
MT_FLOORS = {"large_grid": 2.0, "recovery_grid": 1.5}
MT_MIN_CORES = 4


def _cores_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _engines() -> List[str]:
    tiers = ["batch"]
    if native_available():
        tiers.append("compiled")
    return tiers


def _summaries_equal(a, b) -> bool:
    return (np.array_equal(a.first_rx, b.first_rx)
            and np.array_equal(a.tx_count, b.tx_count)
            and np.array_equal(a.rx_count, b.rx_count)
            and np.array_equal(a.collisions, b.collisions))


def run_sweep(topology_label: str = "2D-4",
              shape: Sequence[int] = (32, 16),
              loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
              trials: int = 32,
              workers: int = 2,
              seed: int = 0,
              repeats: int = 1) -> dict:
    """BENCH_robustness reference workload through every engine tier."""
    topology = make_topology(topology_label, shape=tuple(shape))
    source = tuple(max(1, s // 2) for s in shape)
    n_sims = len(loss_rates) * trials

    entries = {}
    reference = None
    modes = [("serial", loss_curve, {})]
    modes += [(e, loss_degradation, dict(engine=e)) for e in _engines()]
    modes.append(("sharded", loss_degradation,
                  dict(engine="auto", workers=workers)))
    for label, curve, kwargs in modes:
        best = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            points = curve(topology, source, loss_rates, trials=trials,
                           seed=seed, **kwargs)
            secs = time.perf_counter() - t0
            if best is None or secs < best[1]:
                best = (points, secs)
        points, secs = best
        if reference is None:
            reference = points
        else:
            assert points == reference, (
                f"{label} degradation curve diverged from serial")
        entries[label] = {
            "seconds": round(secs, 4),
            "simulations_per_second": round(n_sims / secs, 1),
        }
    return {
        "topology": topology_label,
        "shape": list(shape),
        "loss_rates": list(loss_rates),
        "trials": trials,
        "simulations": n_sims,
        "workers": workers,
        "entries": entries,
    }


def run_large_grid(topology_label: str = "2D-4",
                   shape: Sequence[int] = (64, 64),
                   trials: int = 256,
                   loss_rate: float = 0.2,
                   recovery: bool = False,
                   workers: int = 2,
                   seed: int = 0,
                   repeats: int = 1,
                   profile: bool = False) -> dict:
    """One Monte-Carlo cell on a large lattice, per engine tier."""
    topology = make_topology(topology_label, shape=tuple(shape))
    source_coord = tuple(s // 2 for s in shape)
    source = topology.index(source_coord)
    if recovery:
        # The recovery floors protect the workload the analysis sweeps
        # actually run: the protocol's compiled relay plan with guardian
        # episodes on the relay set.  An all-relays flood would make
        # every node a guardian and swamp the resolve with dense
        # retransmission slots — a workload nothing in the repo issues.
        relay = protocol_for(topology_label).relay_plan(
            topology, source_coord).relay_mask
    else:
        relay = np.ones(topology.num_nodes, dtype=bool)
    policy = (RecoveryPolicy(timeout=2, max_retries=2, backoff=1,
                             suppression_k=2) if recovery else None)
    loss = BernoulliBatchLoss(loss_rate, trial_seeds(seed, loss_rate,
                                                     trials))
    common = dict(loss=loss, trials=trials, recovery=policy, summary=True)

    # The compiled tier pins threads=1 so its entry stays the
    # single-thread baseline the v2 floors were measured against;
    # compiled-mt re-runs the same kernel at the default thread width
    # (only worth timing when the host actually has >= 2 cores).
    mt_threads = default_native_threads()
    modes = []
    for engine in _engines():
        kwargs = dict(engine=engine)
        if engine == "compiled":
            kwargs["threads"] = 1
        modes.append((engine, kwargs))
    if native_available() and mt_threads >= 2:
        modes.append(("compiled-mt",
                      dict(engine="compiled", threads=mt_threads)))

    entries = {}
    profiles = {}
    reference = None
    for label, kwargs in modes:
        best = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            summary = run_reactive_batch(topology, source, relay,
                                         **kwargs, **common)
            secs = time.perf_counter() - t0
            if best is None or secs < best[1]:
                best = (summary, secs)
        summary, secs = best
        if reference is None:
            reference = summary
        else:
            assert _summaries_equal(summary, reference), (
                f"{label} diverged from batch on the large grid")
        entries[label] = {
            "seconds": round(secs, 4),
            "simulations_per_second": round(trials / secs, 1),
        }
        if "threads" in kwargs:
            entries[label]["threads"] = kwargs["threads"]
        if profile:
            profiling.start()
            run_reactive_batch(topology, source, relay, **kwargs,
                               **common)
            profiles[label] = {k: round(v, 4) for k, v in
                               sorted(profiling.stop().items())}

    # Forced multi-shard equivalence: explicit worker counts spin up
    # real process pools regardless of visible CPU count.  With a
    # recovery policy this also proves the per-tier recovery state
    # rides trial shards without changing the merged summary.
    for shard_engine in _engines()[1:] or ["batch"]:
        for w in (2, workers):
            sharded = run_reactive_batch_sharded(
                topology, source, relay, engine=shard_engine, workers=w,
                **common)
            assert _summaries_equal(sharded, reference), (
                f"{shard_engine} workers={w} shard merge diverged from "
                f"the unsharded run")

    out = {
        "topology": topology_label,
        "shape": list(shape),
        "nodes": topology.num_nodes,
        "trials": trials,
        "loss_rate": loss_rate,
        "recovery": ({"timeout": 2, "max_retries": 2, "backoff": 1,
                      "suppression_k": 2} if recovery else None),
        "entries": entries,
    }
    if "compiled" in entries:
        out["compiled_speedup_vs_batch"] = round(
            entries["batch"]["seconds"] / entries["compiled"]["seconds"], 2)
    if "compiled-mt" in entries:
        out["mt_speedup_vs_compiled"] = round(
            entries["compiled"]["seconds"]
            / entries["compiled-mt"]["seconds"], 2)
    if profile:
        out["profile"] = profiles
    return out


def run_benchmark(sweep_shape: Sequence[int] = (32, 16),
                  grid_shape: Sequence[int] = (64, 64),
                  grid_trials: int = 256,
                  recovery_trials: int = 64,
                  trials: int = 32,
                  workers: int = 2,
                  seed: int = 0,
                  repeats: int = 1,
                  profile: bool = False) -> dict:
    sweep = run_sweep(shape=sweep_shape, trials=trials, workers=workers,
                      seed=seed, repeats=repeats)
    grid = run_large_grid(shape=grid_shape, trials=grid_trials,
                          workers=workers, seed=seed, repeats=repeats,
                          profile=profile)
    recovery_grid = run_large_grid(shape=grid_shape,
                                   trials=recovery_trials, recovery=True,
                                   workers=workers, seed=seed,
                                   repeats=repeats, profile=profile)
    # Recovery floors: the whole point of the tiered recovery state.
    # Enforced at the reference scale only — tiny --grid-shape /
    # --recovery-trials drives have too little work to amortize the
    # word-space setup (the tier-1 artefact validator independently holds
    # any *committed* artefact to the floors regardless of scale).
    at_reference_scale = (recovery_grid["nodes"] >= 4096
                          and recovery_grid["trials"] >= 64)
    cores = _cores_available()
    mt_exercised = (at_reference_scale and cores >= MT_MIN_CORES
                    and "mt_speedup_vs_compiled" in grid)
    if mt_exercised:
        # Multi-thread floors: only measurable when there are cores to
        # scale across; a 1-core run records no compiled-mt entry at
        # all, which the artefact validator checks explicitly.
        for section, section_grid in (("large_grid", grid),
                                      ("recovery_grid", recovery_grid)):
            mt = section_grid.get("mt_speedup_vs_compiled")
            if mt is not None:
                assert mt >= MT_FLOORS[section], (
                    f"{section} compiled-mt speedup {mt}x below the "
                    f"{MT_FLOORS[section]}x floor on {cores} cores")
    if at_reference_scale and "compiled_speedup_vs_batch" in recovery_grid:
        assert (recovery_grid["compiled_speedup_vs_batch"]
                >= RECOVERY_FLOORS["compiled"]), (
            f"recovery cell compiled speedup "
            f"{recovery_grid['compiled_speedup_vs_batch']}x below the "
            f"{RECOVERY_FLOORS['compiled']}x floor")
    recovery_grid["speedup_floors"] = dict(RECOVERY_FLOORS)
    return {
        "schema": SCHEMA,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cores_available": cores,
        "threads": default_native_threads(),
        "mt_speedup_floors": {**MT_FLOORS, "min_cores": MT_MIN_CORES},
        # False on hosts below min_cores: the entries are recorded, the
        # multi-thread floors are not exercised.
        "mt_floors_exercised": mt_exercised,
        "native_available": native_available(),
        "native_reason": None if native_available() else native_reason(),
        "engines_equal": True,     # asserted in run_sweep/run_large_grid
        "shard_invariant": True,   # asserted in run_large_grid
        "sweep": sweep,
        "large_grid": grid,
        "recovery_grid": recovery_grid,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep-shape", type=int, nargs=2,
                        default=[32, 16])
    parser.add_argument("--grid-shape", type=int, nargs=2,
                        default=[64, 64])
    parser.add_argument("--grid-trials", type=int, default=256)
    parser.add_argument("--recovery-trials", type=int, default=64)
    parser.add_argument("--trials", type=int, default=32)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--profile", action="store_true",
                        help="capture per-phase timings (gather, "
                             "bincount, resolve, loss-rng, commit, "
                             "recovery-pre/-post/-election) for each "
                             "engine")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    payload = run_benchmark(
        sweep_shape=args.sweep_shape, grid_shape=args.grid_shape,
        grid_trials=args.grid_trials,
        recovery_trials=args.recovery_trials, trials=args.trials,
        workers=args.workers, seed=args.seed, repeats=args.repeats,
        profile=args.profile)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print("sweep (vs BENCH_robustness workload):")
    for label, entry in payload["sweep"]["entries"].items():
        print(f"{label:>9}: {entry['seconds']:8.3f}s "
              f"({entry['simulations_per_second']:9.1f} sims/s)")
    for section in ("large_grid", "recovery_grid"):
        grid = payload[section]
        rec = " + recovery" if grid["recovery"] else ""
        print(f"{section} ({grid['nodes']} nodes, {grid['trials']} "
              f"trials{rec}):")
        for label, entry in grid["entries"].items():
            print(f"{label:>9}: {entry['seconds']:8.3f}s "
                  f"({entry['simulations_per_second']:9.1f} sims/s)")
        if "compiled_speedup_vs_batch" in grid:
            print(f"  compiled speedup vs batch: "
                  f"{grid['compiled_speedup_vs_batch']}x")
        if "mt_speedup_vs_compiled" in grid:
            width = grid["entries"]["compiled-mt"]["threads"]
            print(f"  compiled-mt ({width} threads) speedup vs "
                  f"compiled: {grid['mt_speedup_vs_compiled']}x")
        for engine, phases in grid.get("profile", {}).items():
            print(f"  profile[{engine}]: " + ", ".join(
                f"{k}={v:.3f}s" for k, v in phases.items()))
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
