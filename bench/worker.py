"""Child process of the ``fill`` and ``montecarlo`` workloads.

    python bench/worker.py {fill,montecarlo} --seed N --seconds S \
        --workdir DIR [--setup-only] [--trace] [--ops N]

Prints ``ready`` once set up (the parent times spawn -> ready as the
set-up) and waits for a line on stdin; then repeats one short operation
for about ``--seconds`` seconds, checks its outputs and prints one JSON
line with the measurements.  Operations are short (under a second) so
that each sits between two host-speed readings taken close to it.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate

#: Fleet warmed by one ``fill`` operation: every topology of the paper,
#: at shapes that keep an operation near half a second on a 2-vCPU host.
FILL_FLEET = (("2D-3", (8, 4)), ("2D-4", (8, 8)), ("2D-8", (8, 6)),
              ("3D-6", (4, 3, 3)))
FILL_WARMUP = (("2D-3", (6, 6)), ("2D-4", (6, 6)), ("2D-8", (6, 6)),
               ("3D-6", (3, 3, 3)))

#: ``montecarlo``: one operation runs ``recovery_frontier`` on both
#: (loss rate, failure count) cells of a 1024-node grid, each a B=32
#: batch per strategy.
MC_TOPOLOGY = ("2D-4", (32, 32))
MC_SOURCE = (16, 16)
MC_CELLS = ((0.05, 0), (0.2, 16))
MC_TRIALS = 32

#: Sampled outputs compared against an independent computation.
FILL_CHECKS = 64
MC_CHECKS = 2

#: profiling phase -> per-layer metric name.
PHASES = {"resolve": "sim.phase.resolve_s", "commit": "sim.phase.commit_s",
          "loss-rng": "sim.phase.loss_rng_s",
          "recovery-pre": "sim.phase.recovery_pre_s",
          "recovery-post": "sim.phase.recovery_post_s"}


def measure(work, seconds: float, max_ops: int) -> list:
    """Repeat ``work.op()`` until the next operation would overrun
    *seconds* (at least once).  Each operation is recorded as
    ``{"units", "seconds", "cpu_s", "scale"}``: work units done (sources
    warmed or simulations run), wall time, CPU time of all threads, and
    the factor to the reference speed from host-speed readings taken
    right before and right after it."""
    ops = []
    start = time.perf_counter()
    before = calibrate.reading()
    while True:
        cpu0, t0 = time.process_time(), time.perf_counter()
        units = work.op()
        t1, cpu1 = time.perf_counter(), time.process_time()
        after = calibrate.reading()
        ops.append({"units": units, "seconds": t1 - t0, "cpu_s": cpu1 - cpu0,
                    "scale": calibrate.scale(before, after)})
        before = after
        elapsed = time.perf_counter() - start
        if (len(ops) >= max_ops
                or elapsed + elapsed / len(ops) > seconds):
            return ops


class Fill:
    """``ArtifactStore.warm`` over the whole fleet into a fresh store per
    operation."""

    def __init__(self, workdir: Path) -> None:
        from repro.core.store import ArtifactStore
        from repro.sim.native import native_kernel
        native_kernel()
        # Lazy per-process state (imports, memo tables) fills on a tiny
        # fleet here, so the first timed operation pays no more than
        # the rest.
        warmup = workdir / "fill-warmup"
        ArtifactStore(warmup).warm(FILL_WARMUP)
        shutil.rmtree(warmup)
        self.store_cls = ArtifactStore
        self.workdir = workdir
        self.stores = []

    @property
    def store_dir(self) -> Path:
        return self.stores[-1]

    def op(self) -> int:
        self.stores.append(self.workdir / f"fill-store-{len(self.stores)}")
        return self.store_cls(self.store_dir).warm(FILL_FLEET)["entries"]

    def check(self, rng: random.Random):
        """Sampled store entries against a direct compile (no cache)."""
        from repro.core.registry import protocol_for
        from repro.sim.metrics import compute_metrics
        from repro.topology.builder import make_topology

        store = self.store_cls(self.store_dir)  # fresh reader of the files
        population = [(label, shape, i) for label, shape in FILL_FLEET
                      for i in range(math.prod(shape))]
        topologies = {}
        mismatches = []
        sample = rng.sample(population, FILL_CHECKS)
        for label, shape, index in sample:
            if label not in topologies:
                topologies[label] = make_topology(label, shape)
            topology = topologies[label]
            protocol = protocol_for(topology)
            compiled = protocol.compile(topology, topology.coord(index))
            entry = store.get(topology, protocol.name, index)
            expected = compute_metrics(compiled.trace, topology).as_row()
            got = None if entry is None else entry.metrics(topology)
            same = got is not None and got.as_row() == expected
            if same and entry.has_schedule:
                slots, nodes = compiled.schedule.to_arrays()
                same = (entry.slots.tolist() == slots.tolist()
                        and entry.nodes.tolist() == nodes.tolist())
            if not same:
                mismatches.append(f"{label} {shape} source #{index}")
        return len(sample), mismatches

    def store_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.store_dir.iterdir())

    def cleanup(self) -> None:
        for path in self.stores:
            shutil.rmtree(path, ignore_errors=True)


class MonteCarlo:
    """``recovery_frontier`` on every (loss rate, failure count) cell."""

    def __init__(self, seed: int) -> None:
        from repro.analysis.robustness import recovery_frontier
        from repro.sim.native import native_kernel
        from repro.topology.builder import make_topology
        native_kernel()
        self.frontier = recovery_frontier
        self.topology = make_topology(*MC_TOPOLOGY)
        # One two-trial cell starts the kernel's thread pool and fills
        # the lazy per-process state before anything is timed.
        recovery_frontier(self.topology, MC_SOURCE, loss_rates=(0.05,),
                          failure_counts=(16,), trials=2, engine="auto",
                          seed=seed)
        self.seed = seed
        self.points = {}

    def op(self) -> int:
        sims = 0
        for p, k in MC_CELLS:
            points = self.frontier(self.topology, MC_SOURCE,
                                   loss_rates=(p,), failure_counts=(k,),
                                   trials=MC_TRIALS, engine="auto",
                                   seed=self.seed)
            self.points[(p, k)] = points
            sims += sum(point.trials for point in points)
        return sims

    def check(self, rng: random.Random):
        """Sampled (cell, strategy) points recomputed alone on the batch
        tier.  Strategies of a cell share its channels, so every field
        but the per-cell Pareto flag must be equal."""
        from repro.analysis.robustness import DEFAULT_RECOVERY_POLICIES
        strategies = ([((r,), ()) for r in range(4)]
                      + [((), (policy,))
                         for policy in DEFAULT_RECOVERY_POLICIES])
        mismatches = []
        for p, k in rng.sample(sorted(self.points), MC_CHECKS):
            i = rng.randrange(len(strategies))
            hardening, policies = strategies[i]
            want, = self.frontier(self.topology, MC_SOURCE,
                                  loss_rates=(p,), failure_counts=(k,),
                                  trials=MC_TRIALS, engine="batch",
                                  seed=self.seed, hardening=hardening,
                                  policies=policies)
            got = self.points[(p, k)][i].as_row()
            want = want.as_row()
            got.pop("pareto")
            want.pop("pareto")
            if got != want:
                mismatches.append(f"cell p={p} k={k} {got['strategy']}")
        return MC_CHECKS, mismatches

    def store_bytes(self) -> int:
        return 0

    def cleanup(self) -> None:
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("fill", "montecarlo"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ops", type=int, default=100_000)
    args = parser.parse_args(argv)

    work = (Fill(args.workdir) if args.workload == "fill"
            else MonteCarlo(args.seed))
    print("ready", flush=True)
    # The parent takes a host-speed reading on this CPU before it lets
    # the run go on.
    sys.stdin.readline()
    if args.setup_only:
        return 0

    spans = None
    if args.trace:
        from repro import profiling
        from spans import Spans, install
        spans = Spans()
        install(spans)
        if args.workload == "montecarlo":
            profiling.start()
    before = resource.getrusage(resource.RUSAGE_SELF)
    ops = measure(work, args.seconds, args.ops)
    after = resource.getrusage(resource.RUSAGE_SELF)
    phases = {}
    if args.trace and args.workload == "montecarlo":
        phases = {PHASES[k]: v for k, v in profiling.stop().items()
                  if k in PHASES}
    snap = None if spans is None else spans.dump()
    checked, mismatches = work.check(random.Random(args.seed))
    store_bytes = work.store_bytes()
    work.cleanup()
    print(json.dumps({
        "ops": ops,
        "wall_s": sum(op["seconds"] for op in ops),
        "cpu_user_s": after.ru_utime - before.ru_utime,
        "cpu_sys_s": after.ru_stime - before.ru_stime,
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "store_bytes": store_bytes,
        "checked": checked,
        "mismatches": mismatches,
        "spans": snap,
        "phases": phases,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
