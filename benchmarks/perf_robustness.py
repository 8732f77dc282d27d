"""Robustness-sweep throughput benchmark: serial / batched / parallel.

Times one loss-degradation curve (Monte-Carlo over Bernoulli channels)
three ways and writes the results to ``BENCH_robustness.json`` (repo root
by default):

* ``serial``   — the per-trial loop through the one-trial entry point
  over the same per-trial seeds (:mod:`serial_baseline`), the
  pre-batching execution model.
* ``batched``  — ``engine="batch"``: all trials of each loss rate advance
  together through :func:`~repro.sim.engine.run_reactive_batch` in
  summary mode (one CSR gather + 2D bincount per slot for the whole
  batch).
* ``parallel`` — the batched engine plus ``workers=N`` fanning the loss
  rates out over processes.

The batched curve is asserted point-for-point equal to the serial curve
before anything is written — the speedup is only meaningful because the
two engines are exactly equivalent (the per-trial counter-RNG seeds make
trial *b* of the batch bit-identical to serial trial *b*).

Run as a script::

    PYTHONPATH=src python benchmarks/perf_robustness.py
    PYTHONPATH=src python benchmarks/perf_robustness.py \
        --topology 2D-4 --shape 32 16 --trials 32 --workers 4

``benchmarks/test_perf_robustness.py`` smoke-tests this module on a small
grid in tier-2 runs; ``tests/test_bench_artifact.py`` validates the
committed artefact's schema in tier 1.
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

from repro import profiling
from repro.analysis.robustness import loss_degradation
from repro.topology.builder import make_topology
from serial_baseline import loss_curve

SCHEMA = "repro-wsn/bench-robustness/v1"
DEFAULT_OUT = (Path(__file__).resolve().parent.parent
               / "BENCH_robustness.json")
DEFAULT_LOSS_RATES = (0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3)


def _timed_curve(topology, source, loss_rates, serial=False, **kwargs):
    curve = loss_curve if serial else loss_degradation
    t0 = time.perf_counter()
    points = curve(topology, source, loss_rates, **kwargs)
    return points, time.perf_counter() - t0


def run_benchmark(topology_label: str = "2D-4",
                  shape: Sequence[int] = (32, 16),
                  loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
                  trials: int = 32,
                  workers: int = 2,
                  seed: int = 0,
                  repeats: int = 1,
                  profile: bool = False) -> dict:
    """Time the three sweep modes; return the BENCH_robustness.json
    payload.

    *repeats* > 1 re-times each mode and keeps the fastest run; the
    batched == serial equality check runs on the first pass.  With
    *profile* the batched engine is re-run once under
    :mod:`repro.profiling` (sharding disabled — the accumulator is
    per-process) and the per-phase seconds land under ``"profile"``.
    """
    topology = make_topology(topology_label, shape=tuple(shape))
    source = tuple(max(1, s // 2) for s in shape)
    n_sims = len(loss_rates) * trials

    entries = {}
    serial_points = None
    for label in ("serial", "batched", "parallel"):
        kwargs = dict(trials=trials, seed=seed)
        if label == "serial":
            kwargs["serial"] = True
        elif label == "batched":
            kwargs["engine"] = "batch"
        else:
            kwargs.update(engine="batch", workers=workers)
        best = None
        for _ in range(max(1, repeats)):
            points, secs = _timed_curve(topology, source, loss_rates,
                                        **kwargs)
            if best is None or secs < best[1]:
                best = (points, secs)
        points, secs = best
        if label == "serial":
            serial_points = points
        else:
            assert points == serial_points, (
                f"{label} robustness curve diverged from the serial curve")
        entries[label] = {
            "seconds": round(secs, 4),
            "simulations_per_second": round(n_sims / secs, 1),
        }

    prof = None
    if profile:
        profiling.start()
        loss_degradation(topology, source, loss_rates, trials=trials,
                         seed=seed, engine="batch", workers=1)
        prof = {k: round(v, 4) for k, v in
                sorted(profiling.stop().items())}

    return {
        "schema": SCHEMA,
        "profile": prof,
        "topology": topology_label,
        "shape": list(shape),
        "loss_rates": list(loss_rates),
        "trials": trials,
        "simulations": n_sims,
        "workers": workers,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "entries": entries,
        "batched_matches_serial": True,  # asserted above
        "batched_speedup_vs_serial": round(
            entries["serial"]["seconds"] / entries["batched"]["seconds"], 2),
        "parallel_speedup_vs_serial": round(
            entries["serial"]["seconds"] / entries["parallel"]["seconds"],
            2),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topology", default="2D-4")
    parser.add_argument("--shape", type=int, nargs="+", default=[32, 16])
    parser.add_argument("--loss-rates", type=float, nargs="+",
                        default=list(DEFAULT_LOSS_RATES))
    parser.add_argument("--trials", type=int, default=32)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--profile", action="store_true",
                        help="capture per-phase batched-engine timings "
                             "(gather, bincount, loss-rng, commit) "
                             "into the payload")
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)

    payload = run_benchmark(
        topology_label=args.topology, shape=args.shape,
        loss_rates=args.loss_rates, trials=args.trials,
        workers=args.workers, seed=args.seed, repeats=args.repeats,
        profile=args.profile)
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    for label, entry in payload["entries"].items():
        print(f"{label:>9}: {entry['seconds']:8.3f}s "
              f"({entry['simulations_per_second']:9.1f} sims/s)")
    print(f"batched speedup vs serial: "
          f"{payload['batched_speedup_vs_serial']}x")
    print(f"parallel speedup vs serial: "
          f"{payload['parallel_speedup_vs_serial']}x")
    if payload["profile"]:
        print("profile[batched]: " + ", ".join(
            f"{k}={v:.3f}s" for k, v in payload["profile"].items()))
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
