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
  the slot resolve (:class:`repro.sim.backend.NativeRecoveryState`:
  word-packed known-edge bitsets and a due calendar, the whole machine
  in the C kernel on ``compiled``), so this cell carries its own enforced floor —
  ``compiled`` >= 5x vs batch — asserted here before the artefact is
  written.
* ``replay_grid`` — B=32 faulty schedule replays (2 % dead nodes per
  trial, summary mode) of the protocol's compiled broadcast from the
  centre of a 48x32 2D-4 lattice, ``batch`` against ``compiled``.  A
  replay is a forced-only wave of the same slot loop as the cells
  above; this cell times that path.  No floor.
* ``b1_trace`` — one-trial trace-mode waves (the schedule compiler's
  call) from the centre of 2D-4 48x32, 2D-8 12x12 and 3D-6 5x5x5 on the
  protocol's relay plan: the ``compiled`` tier at B=1 against
  ``serial``, the one-trial entry point ``run_reactive``, traces
  asserted equal before timing.  Each shape records the ratio
  compiled / serial and whether it meets the 10 % gate for routing the
  one-trial entry points through B=1 (:data:`B1_GATE`); the gate is
  reported, not enforced.  The committed v7 figures timed ``serial``
  on the serial slot loop; that gate was met, the loop deleted, and
  ``run_reactive`` is now itself a B=1 call on ``engine="auto"``, so a
  rerun times the compiled wave against itself plus the one-trial
  call's set-up.

v7 adds ``b1_trace``.  v6 added ``replay_grid``.  v5 dropped the
``compiled-mt`` entries and the multi-thread floors with the kernel's
thread pool: the compiled kernel is single-threaded, and the entries
are ``batch`` and ``compiled`` (where the native kernel builds).  Multi-core runs shard
trials across processes, which the equivalence pass below covers.

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
``recovery-pre`` / ``recovery-post`` / ``recovery-election``; a compiled
run is one kernel call, timed as ``resolve``) for each engine via
:mod:`repro.profiling` and records them under
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
from repro.analysis.robustness import _failure_dead_masks, loss_degradation
from repro.core import compile_broadcast
from repro.core.registry import protocol_for
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.sim import (native_available, native_reason, replay_batch,
                       resolve_engine, run_reactive, run_reactive_batch,
                       run_reactive_batch_sharded)
from repro.sim.recovery import RecoveryPolicy
from repro.topology.builder import make_topology
from serial_baseline import loss_curve

SCHEMA = "repro-wsn/bench-kernel/v7"
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
DEFAULT_LOSS_RATES = (0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3)

#: Enforced speedup vs batch on the recovery cell (64x64, loss 0.2,
#: t2r2b1k2); applies only when the native tier builds on the host.
RECOVERY_FLOORS = {"compiled": 5.0}
#: The replay cell: 2 % dead nodes per trial on a 2D-4 lattice, timed
#: over this many back-to-back replays.
REPLAY_TOPOLOGY = "2D-4"
REPLAY_DEAD_FRACTION = 0.02
REPLAY_CALLS = 20
#: The B=1 trace cell: shapes (centre source, the protocol's relay
#: plan), interleaved rounds and back-to-back waves per timing, and the
#: gate on compiled / serial.
B1_SHAPES = (("2D-4", (48, 32)), ("2D-8", (12, 12)), ("3D-6", (5, 5, 5)))
B1_ROUNDS = 9
B1_CALLS = 20
B1_GATE = 1.10


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

    entries = {}
    profiles = {}
    reference = None
    for label in _engines():
        kwargs = dict(engine=label)
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
    if profile:
        out["profile"] = profiles
    return out


def run_replay_grid(shape: Sequence[int] = (48, 32),
                    trials: int = 32,
                    seed: int = 0,
                    repeats: int = 1) -> dict:
    """B faulty summary replays of one compiled 2D-4 schedule, per
    engine tier; each timing is the best of *repeats* runs of
    :data:`REPLAY_CALLS` replays."""
    topology = make_topology(REPLAY_TOPOLOGY, shape=tuple(shape))
    coord = tuple(s // 2 for s in shape)
    source = topology.index(coord)
    schedule = compile_broadcast(
        topology, source,
        protocol_for(REPLAY_TOPOLOGY).relay_plan(topology, coord)).schedule
    dead = max(1, round(REPLAY_DEAD_FRACTION * topology.num_nodes))
    dead_masks = _failure_dead_masks(topology, dead, trials, seed, source)

    entries = {}
    reference = None
    for label in _engines():
        def run():
            return replay_batch(topology, schedule, source,
                                dead_masks=dead_masks, summary=True,
                                engine=label)
        summary = run()
        if reference is None:
            reference = summary
        else:
            assert _summaries_equal(summary, reference), (
                f"{label} replay diverged from batch")
        secs = min(_timed(run, REPLAY_CALLS)
                   for _ in range(max(1, repeats)))
        entries[label] = {
            "seconds": round(secs, 6),
            "simulations_per_second": round(trials / secs, 1),
        }
    out = {
        "topology": REPLAY_TOPOLOGY,
        "shape": list(shape),
        "nodes": topology.num_nodes,
        "trials": trials,
        "dead_nodes": dead,
        "transmissions": schedule.num_transmissions,
        "entries": entries,
    }
    if "compiled" in entries:
        out["compiled_speedup_vs_batch"] = round(
            entries["batch"]["seconds"] / entries["compiled"]["seconds"], 2)
    return out


def run_b1_trace() -> dict:
    """One-trial trace waves per :data:`B1_SHAPES` shape, serial against
    the ``compiled`` tier at B=1.  Traces are asserted equal first; each
    side's time is the median, over :data:`B1_ROUNDS` interleaved
    rounds, of :data:`B1_CALLS` back-to-back waves."""
    cells = []
    for label, shape in B1_SHAPES:
        topology = make_topology(label, shape=shape)
        coord = tuple(s // 2 for s in shape)
        source = topology.index(coord)
        plan = protocol_for(label).relay_plan(topology, coord)
        kwargs = dict(extra_delay=plan.extra_delay,
                      repeat_offsets=plan.repeat_offsets)
        runs = {
            "serial": lambda: [run_reactive(topology, source,
                                            plan.relay_mask, **kwargs)],
            "compiled": lambda: run_reactive_batch(
                topology, source, plan.relay_mask, trials=1,
                engine="compiled", **kwargs),
        }
        (want,), (got,) = runs["serial"](), runs["compiled"]()
        assert (want.tx_events == got.tx_events
                and want.rx_events == got.rx_events
                and want.collision_events == got.collision_events
                and np.array_equal(want.first_rx, got.first_rx)), (
            f"{label} B=1 compiled trace diverged from serial")
        times = {name: [] for name in runs}
        for _ in range(B1_ROUNDS):
            for name, run in runs.items():
                times[name].append(_timed(run, B1_CALLS))
        ms = {name: float(np.median(t)) * 1e3 for name, t in times.items()}
        cells.append({
            "topology": label, "shape": list(shape),
            "nodes": topology.num_nodes,
            "tier": resolve_engine("compiled", topology.num_nodes),
            "serial_ms": round(ms["serial"], 4),
            "compiled_ms": round(ms["compiled"], 4),
            "ratio": round(ms["compiled"] / ms["serial"], 3),
        })
    return {"rounds": B1_ROUNDS, "calls": B1_CALLS, "gate": B1_GATE,
            "gate_met": all(c["ratio"] <= B1_GATE for c in cells),
            "cells": cells}


def _timed(run, calls: int) -> float:
    """Seconds per call of *run*, over *calls* back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        run()
    return (time.perf_counter() - t0) / calls


def run_benchmark(sweep_shape: Sequence[int] = (32, 16),
                  grid_shape: Sequence[int] = (64, 64),
                  grid_trials: int = 256,
                  recovery_trials: int = 64,
                  replay_shape: Sequence[int] = (48, 32),
                  replay_trials: int = 32,
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
    if at_reference_scale and "compiled_speedup_vs_batch" in recovery_grid:
        assert (recovery_grid["compiled_speedup_vs_batch"]
                >= RECOVERY_FLOORS["compiled"]), (
            f"recovery cell compiled speedup "
            f"{recovery_grid['compiled_speedup_vs_batch']}x below the "
            f"{RECOVERY_FLOORS['compiled']}x floor")
    recovery_grid["speedup_floors"] = dict(RECOVERY_FLOORS)
    replay_grid = run_replay_grid(shape=replay_shape, trials=replay_trials,
                                  seed=seed, repeats=repeats)
    b1_trace = run_b1_trace()
    return {
        "schema": SCHEMA,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cores_available": _cores_available(),
        "native_available": native_available(),
        "native_reason": None if native_available() else native_reason(),
        "engines_equal": True,     # asserted in run_sweep/run_large_grid
        "shard_invariant": True,   # asserted in run_large_grid
        "sweep": sweep,
        "large_grid": grid,
        "recovery_grid": recovery_grid,
        "replay_grid": replay_grid,
        "b1_trace": b1_trace,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweep-shape", type=int, nargs=2,
                        default=[32, 16])
    parser.add_argument("--grid-shape", type=int, nargs=2,
                        default=[64, 64])
    parser.add_argument("--grid-trials", type=int, default=256)
    parser.add_argument("--recovery-trials", type=int, default=64)
    parser.add_argument("--replay-shape", type=int, nargs=2,
                        default=[48, 32])
    parser.add_argument("--replay-trials", type=int, default=32)
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
        recovery_trials=args.recovery_trials,
        replay_shape=args.replay_shape, replay_trials=args.replay_trials,
        trials=args.trials,
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
        for engine, phases in grid.get("profile", {}).items():
            print(f"  profile[{engine}]: " + ", ".join(
                f"{k}={v:.3f}s" for k, v in phases.items()))
    replay = payload["replay_grid"]
    print(f"replay_grid ({replay['nodes']} nodes, {replay['trials']} "
          f"trials, {replay['dead_nodes']} dead):")
    for label, entry in replay["entries"].items():
        print(f"{label:>9}: {entry['seconds'] * 1e3:8.3f}ms "
              f"({entry['simulations_per_second']:9.1f} sims/s)")
    b1 = payload["b1_trace"]
    print(f"b1_trace (compiled / serial, gate {b1['gate']}, "
          f"met: {b1['gate_met']}):")
    for cell in b1["cells"]:
        print(f"{cell['topology']:>5} {cell['nodes']:5d} nodes: serial "
              f"{cell['serial_ms']:.3f}ms, {cell['tier']} "
              f"{cell['compiled_ms']:.3f}ms, ratio {cell['ratio']}")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
