"""Robustness analysis: how compiled schedules degrade under faults.

The paper compiles schedules for a perfect channel.  This module measures
(and mitigates) what happens when reality intrudes:

* **packet loss** — every decode independently erased with probability p
  (or whole-slot blackout bursts);
* **node failures** — k nodes die after deployment; the precompiled
  schedule is replayed around the corpses, or the broadcast is recompiled
  with knowledge of the failures (the engine routes around dead nodes via
  the completion/repair phases);
* **hardening** — repeating every relay transmission r extra times buys
  loss resilience at a quantifiable energy price.

These are extensions beyond the paper (clearly labelled as such in
EXPERIMENTS.md), built on the same engine and audit machinery.

Monte-Carlo execution is **trial-batched** by default: all trials of one
sweep point advance together through
:func:`~repro.sim.engine.run_reactive_batch` /
:func:`~repro.sim.engine.replay_batch` in ``summary`` mode, with the
per-trial Bernoulli channels realised by the vectorised counter-based RNG
(:class:`~repro.radio.impairments.BernoulliBatchLoss`).  ``engine=``
picks the slot-resolve tier (:data:`~repro.sim.backend.ENGINES`); every
tier yields identical points, and trial *b* of a point equals a one-trial
:func:`~repro.sim.engine.run_reactive` / :func:`~repro.sim.engine.replay`
run with the same seed — the differential suites and
``benchmarks/perf_robustness.py`` assert it.  ``workers=`` splits each
point's trial dimension over processes (bit-identical for any count);
the per-trial recompile branch of :func:`failure_degradation` fans its
failure counts out instead.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from ..core.base import BroadcastProtocol, RelayPlan
from ..core.cache import ScheduleCache
from ..core.compiler import compile_broadcast
from ..core.registry import protocol_for
from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            PAPER_SPACING_M)
from ..radio.impairments import (BernoulliBatchLoss, random_dead_mask,
                                 trial_seeds)
from ..sim.backend import check_engine
from ..sim.recovery import RecoveryPolicy
from ..sim.shard import replay_batch_sharded, run_reactive_batch_sharded
from ..topology.base import Topology
from .sweep import effective_workers


@dataclass(frozen=True)
class RobustnessPoint:
    """One measurement of a degradation curve.

    The dispersion fields (``std_reach`` and the 5th/50th reachability
    percentiles) were added for frontier comparisons; they default to
    zero so pre-existing positional constructions stay valid.
    """

    parameter: float
    trials: int
    mean_reachability: float
    min_reachability: float
    mean_tx: float
    std_reach: float = 0.0
    p5_reach: float = 0.0
    p50_reach: float = 0.0

    def as_row(self) -> dict:
        return {
            "parameter": self.parameter,
            "trials": self.trials,
            "mean_reach": self.mean_reachability,
            "min_reach": self.min_reachability,
            "mean_tx": self.mean_tx,
            "std_reach": self.std_reach,
            "p5_reach": self.p5_reach,
            "p50_reach": self.p50_reach,
        }


def harden_plan(plan: RelayPlan, repeats: int) -> RelayPlan:
    """Return a copy of *plan* where every relay transmits ``repeats``
    extra times — blind ARQ hardening.

    Repeats are spaced two slots apart (offsets 2, 4, ...): the relay
    wave advances one hop per slot, so ``+1`` repeats would collide with
    the neighbouring relays' first transmissions and *reduce* clean-
    channel reachability; even offsets stay phase-aligned with the wave.
    """
    if repeats < 0:
        raise ValueError("repeats must be >= 0")
    hardened = plan.copy()
    if repeats == 0:
        return hardened
    extra = tuple(range(2, 2 * repeats + 1, 2))
    offsets = dict(hardened.repeat_offsets)
    for v in np.nonzero(hardened.relay_mask)[0]:
        existing = offsets.get(int(v), ())
        merged = tuple(sorted(set(existing) | set(extra)))
        offsets[int(v)] = merged
    hardened.repeat_offsets = offsets
    return hardened


def _point(parameter: float, reaches: np.ndarray,
           txs: np.ndarray) -> RobustnessPoint:
    return RobustnessPoint(
        parameter=float(parameter), trials=len(reaches),
        mean_reachability=float(np.mean(reaches)),
        min_reachability=float(np.min(reaches)),
        mean_tx=float(np.mean(txs)),
        std_reach=float(np.std(reaches)),
        p5_reach=float(np.percentile(reaches, 5)),
        p50_reach=float(np.percentile(reaches, 50)))


def _chunk(items: List, workers: int) -> List[List]:
    """Contiguous non-empty chunks, ~2 per worker, preserving order."""
    if not items:
        return []
    size = max(1, -(-len(items) // (workers * 2)))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _fan_out(points_fn, parameters: Sequence, workers: Optional[int],
             job_builder, worker_fn) -> List:
    """Run *points_fn* over *parameters*, optionally across processes
    (the per-trial recompile branch, whose trials cannot batch).

    Results are reassembled in submission order, so the parallel curve is
    identical to the serial one regardless of worker count.  The pool is
    sized to the actual chunk count: asking for more workers than there
    are sweep points no longer spawns idle processes.
    """
    params = list(parameters)
    if workers is not None and workers > 1 and len(params) > 1:
        chunks = _chunk(params, workers)
        points: List = []
        with ProcessPoolExecutor(
                max_workers=min(workers, len(chunks))) as pool:
            for chunk_points in pool.map(
                    worker_fn, [job_builder(chunk) for chunk in chunks]):
                points.extend(chunk_points)
        return points
    return [points_fn(p) for p in params]


# ---------------------------------------------------------------------------
# Loss degradation
# ---------------------------------------------------------------------------

def _loss_point(topology: Topology, src: int, plan: RelayPlan,
                p: float, trials: int, seed: int, engine: str,
                recovery: Optional[RecoveryPolicy] = None,
                shards: int = 1,
                threads: Optional[int] = None) -> RobustnessPoint:
    """One loss-rate point: *trials* Bernoulli channels in one batch.

    The per-trial seeds mix the loss rate into the stream
    (:func:`~repro.radio.impairments.trial_seeds`), so every point of the
    curve draws independent randomness.  The trial dimension splits over
    *shards* processes (bit-identical for any count).
    """
    s = run_reactive_batch_sharded(
        topology, src, plan.relay_mask,
        extra_delay=plan.extra_delay,
        repeat_offsets=plan.repeat_offsets,
        loss=BernoulliBatchLoss(p, trial_seeds(seed, p, trials)),
        summary=True, recovery=recovery, engine=engine, workers=shards,
        threads=threads)
    return _point(p, s.reachability, s.num_tx)


def loss_degradation(
    topology: Topology,
    source,
    loss_rates: Sequence[float],
    trials: int = 5,
    protocol: Optional[BroadcastProtocol] = None,
    harden: int = 0,
    seed: int = 0,
    workers: Optional[int] = None,
    engine: str = "batch",
    recovery: Optional[RecoveryPolicy] = None,
    threads: Optional[int] = None,
) -> List[RobustnessPoint]:
    """Reachability of the (optionally hardened) protocol under Bernoulli
    loss, per loss rate.

    The wave is re-run reactively under each lossy channel (relays fire
    on their *actual* first reception), which is how a real deployment
    would behave; no recompilation knowledge of the losses is assumed.
    *recovery* layers the closed-loop recovery policy on top (it composes
    with *harden*, though the frontier sweep shows the two are usually
    alternatives).

    All trials of one loss rate run as one batch through
    :func:`~repro.sim.engine.run_reactive_batch` (``engine="batch"``,
    the default; ``"compiled"`` / ``"auto"`` select the C slot-resolve
    tier, with identical points).  ``workers`` splits the
    **trial dimension** of each point over processes; the curve is
    identical for any worker count.  ``threads`` sets the
    compiled tier's in-process kernel pool (``None`` = all cores when
    running unsharded, 1 inside process shards) — bit-identical at any
    width, like ``workers``.
    """
    check_engine(engine)
    if protocol is None:
        protocol = protocol_for(topology)
    plan = harden_plan(protocol.relay_plan(topology, source), harden)
    src = topology.index(source)
    shards = effective_workers(workers, trials)
    return [_loss_point(topology, src, plan, p, trials, seed, engine,
                        recovery, shards, threads)
            for p in loss_rates]


# ---------------------------------------------------------------------------
# Failure degradation
# ---------------------------------------------------------------------------

def _failure_dead_masks(topology: Topology, k: int, trials: int,
                        seed: int, src: int) -> np.ndarray:
    """(trials, n) stack of per-trial failure masks for one sweep point,
    seeded with the failure count mixed in (decorrelated across points)."""
    seeds = trial_seeds(seed, float(k), trials)
    return np.stack([
        random_dead_mask(topology, k, seed=int(s), protect=[src])
        for s in seeds])


def _recompile_point(topology: Topology, src: int, plan: RelayPlan,
                     k: int, trials: int, seed: int) -> RobustnessPoint:
    """One failure count with the failures known to the compiler.

    Per-trial compilation cannot batch (each trial compiles a different
    schedule), but the invariant relay plan is computed once by the
    caller rather than once per trial.
    """
    dead_masks = _failure_dead_masks(topology, k, trials, seed, src)
    live = ~dead_masks
    reaches = np.empty(trials)
    txs = np.empty(trials)
    for b in range(trials):
        compiled = compile_broadcast(topology, src, plan,
                                     dead_mask=dead_masks[b])
        reached = (compiled.trace.first_rx >= 0) & live[b]
        reaches[b] = float(reached.sum()) / float(live[b].sum())
        txs[b] = compiled.trace.num_tx
    return _point(k, reaches, txs)


def _recompile_chunk(job) -> List[RobustnessPoint]:
    """Worker-process entry point for parallel recompile sweeps."""
    topology, src, plan, counts, trials, seed = job
    return [_recompile_point(topology, src, plan, k, trials, seed)
            for k in counts]


def failure_degradation(
    topology: Topology,
    source,
    failure_counts: Sequence[int],
    trials: int = 5,
    protocol: Optional[BroadcastProtocol] = None,
    recompile: bool = False,
    seed: int = 0,
    workers: Optional[int] = None,
    cache: Optional[ScheduleCache] = None,
    engine: str = "batch",
    recovery: Optional[RecoveryPolicy] = None,
    threads: Optional[int] = None,
) -> List[RobustnessPoint]:
    """Live-node reachability after k random node deaths.

    ``recompile=False`` replays the pristine precompiled schedule around
    the corpses (failures unknown to the protocol);  ``recompile=True``
    recompiles with the failures known, letting completion/repair route
    around them.  Reachability is measured over surviving nodes only.

    The static branch replays all trials of one failure count as a batch
    (:func:`~repro.sim.engine.replay_batch`); the recompile branch
    compiles per trial (each trial yields a different schedule) but the
    invariant relay plan is computed once.  ``workers`` splits each static
    point's trials over processes, or fans the recompile branch's failure
    counts out; *cache* is the schedule cache used for the baseline
    compilation.  *recovery* applies the closed-loop recovery
    layer to the static replay (ignored by the recompile branch, which
    already routes around the known failures at compile time).
    """
    check_engine(engine)
    if protocol is None:
        protocol = protocol_for(topology)
    src = topology.index(source)
    if recompile:
        plan = protocol.relay_plan(topology, source)
        return _fan_out(
            lambda k: _recompile_point(topology, src, plan, k, trials, seed),
            failure_counts, workers,
            lambda chunk: (topology, src, plan, chunk, trials, seed),
            _recompile_chunk)
    schedule = protocol.compile(topology, source, cache=cache).schedule
    shards = effective_workers(workers, trials)
    points = []
    for k in failure_counts:
        dead_masks = _failure_dead_masks(topology, k, trials, seed, src)
        s = replay_batch_sharded(topology, schedule, src,
                                 dead_masks=dead_masks, summary=True,
                                 recovery=recovery, engine=engine,
                                 workers=shards, threads=threads)
        points.append(_point(k, s.live_reachability(dead_masks), s.num_tx))
    return points


# ---------------------------------------------------------------------------
# Recovery frontier: blind hardening vs closed-loop recovery
# ---------------------------------------------------------------------------

#: Recovery policies swept by default.  ``timeout=2, backoff=1`` aligns
#: retry checks with blind hardening's repeat offsets (+2, +4, ...), so
#: those policies retransmit on exactly the slots ``harden_plan(r)``
#: would blindly repeat on -- but only when a neighbour actually missed.
#: The ``election=False`` variants skip the last-resort repair election,
#: which under pure loss only adds spurious transmissions (a node that
#: merely *missed* its relay cannot tell it apart from a dead one); the
#: election-enabled entries earn their keep when relays actually die.
#: The suppression-free entry exposes what the Trickle counter is worth.
DEFAULT_RECOVERY_POLICIES = (
    RecoveryPolicy(timeout=2, max_retries=2, backoff=1, suppression_k=2,
                   election=False),
    RecoveryPolicy(timeout=2, max_retries=3, backoff=1, suppression_k=2,
                   election=False),
    RecoveryPolicy(timeout=2, max_retries=2, backoff=1, suppression_k=2),
    RecoveryPolicy(timeout=2, max_retries=2, backoff=2, suppression_k=2),
    RecoveryPolicy(timeout=2, max_retries=3, backoff=2, suppression_k=0),
)


@dataclass(frozen=True)
class FrontierPoint:
    """One (strategy, loss rate, failure count) cell of the frontier.

    ``pareto`` flags the points on the reachability-vs-energy Pareto
    front *within their (loss_rate, failures) cell*: no other strategy in
    the cell has both >= mean reachability and <= mean energy with one
    inequality strict.
    """

    strategy: str
    loss_rate: float
    failures: int
    trials: int
    mean_reachability: float
    min_reachability: float
    std_reach: float
    p5_reach: float
    p50_reach: float
    mean_tx: float
    mean_rx: float
    mean_energy_j: float
    pareto: bool = False

    def as_row(self) -> dict:
        return {
            "strategy": self.strategy,
            "loss_rate": self.loss_rate,
            "failures": self.failures,
            "trials": self.trials,
            "mean_reach": self.mean_reachability,
            "min_reach": self.min_reachability,
            "std_reach": self.std_reach,
            "p5_reach": self.p5_reach,
            "p50_reach": self.p50_reach,
            "mean_tx": self.mean_tx,
            "mean_rx": self.mean_rx,
            "mean_energy_j": self.mean_energy_j,
            "pareto": self.pareto,
        }


def _frontier_seeds(seed: int, p: float, k: int, trials: int) -> np.ndarray:
    """Per-trial loss seeds for one frontier cell.

    The (p, k) pair is mixed into one sweep parameter so each cell draws
    independent randomness, while all strategies of a cell share the
    identical channels — a paired comparison, which is what makes the
    per-cell Pareto fronts meaningful at modest trial counts.
    """
    return trial_seeds(seed, float(p) + 7919.0 * float(k), trials)


def _frontier_cell(topology: Topology, src: int,
                   strategies, p: float, k: int, trials: int, seed: int,
                   engine: str, shards: int = 1,
                   threads: Optional[int] = None) -> List[FrontierPoint]:
    """All strategies of one (loss rate, failure count) cell."""
    seeds = _frontier_seeds(seed, p, k, trials)
    dead_masks = (_failure_dead_masks(topology, k, trials, seed, src)
                  if k > 0 else None)
    out = []
    for label, plan, policy in strategies:
        s = run_reactive_batch_sharded(
            topology, src, plan.relay_mask,
            extra_delay=plan.extra_delay,
            repeat_offsets=plan.repeat_offsets,
            dead_masks=dead_masks,
            loss=BernoulliBatchLoss(p, seeds) if p > 0 else None,
            trials=trials, summary=True, recovery=policy,
            engine=engine, workers=shards, threads=threads)
        reaches = (s.live_reachability(dead_masks)
                   if dead_masks is not None else s.reachability)
        out.append(_frontier_point(label, p, k, reaches, s.num_tx,
                                   s.num_rx))
    return _mark_pareto(out)


def _frontier_point(label: str, p: float, k: int, reaches: np.ndarray,
                    txs: np.ndarray, rxs: np.ndarray) -> FrontierPoint:
    """One strategy's point from its per-trial reach and tx/rx counts;
    energy uses the paper's radio model, packet size and spacing."""
    txs, rxs = np.asarray(txs, dtype=float), np.asarray(rxs, dtype=float)
    energy = (txs * PAPER_RADIO_MODEL.tx_energy(PAPER_PACKET_BITS,
                                                PAPER_SPACING_M)
              + rxs * PAPER_RADIO_MODEL.rx_energy(PAPER_PACKET_BITS))
    return FrontierPoint(
        strategy=label, loss_rate=float(p), failures=int(k),
        trials=len(reaches),
        mean_reachability=float(np.mean(reaches)),
        min_reachability=float(np.min(reaches)),
        std_reach=float(np.std(reaches)),
        p5_reach=float(np.percentile(reaches, 5)),
        p50_reach=float(np.percentile(reaches, 50)),
        mean_tx=float(np.mean(txs)), mean_rx=float(np.mean(rxs)),
        mean_energy_j=float(np.mean(energy)))


def _mark_pareto(cell: List[FrontierPoint]) -> List[FrontierPoint]:
    """Flag the reachability-vs-energy Pareto front within one cell."""
    out = []
    for a in cell:
        dominated = any(
            b.mean_reachability >= a.mean_reachability
            and b.mean_energy_j <= a.mean_energy_j
            and (b.mean_reachability > a.mean_reachability
                 or b.mean_energy_j < a.mean_energy_j)
            for b in cell)
        out.append(replace(a, pareto=not dominated))
    return out


def recovery_frontier(
    topology: Topology,
    source,
    loss_rates: Sequence[float] = (0.0, 0.1, 0.2),
    failure_counts: Sequence[int] = (0,),
    trials: int = 32,
    protocol: Optional[BroadcastProtocol] = None,
    hardening: Sequence[int] = (0, 1, 2, 3),
    policies: Sequence[RecoveryPolicy] = DEFAULT_RECOVERY_POLICIES,
    seed: int = 0,
    workers: Optional[int] = None,
    engine: str = "batch",
    threads: Optional[int] = None,
) -> List[FrontierPoint]:
    """Reachability-vs-energy Pareto sweep: blind hardening vs recovery.

    For every ``(loss_rate, failure_count)`` cell, runs the reactive wave
    under (a) ``harden_plan(plan, r)`` for each r in *hardening* (blind
    ARQ, strategy ``blind-r{r}``) and (b) the base plan plus each
    :class:`~repro.sim.recovery.RecoveryPolicy` in *policies* (strategies
    named by :meth:`~repro.sim.recovery.RecoveryPolicy.label`), all over
    the *same* per-cell channel and failure realisations, then marks each
    cell's Pareto-optimal points.  Energy uses the paper's first-order
    radio model at the paper's packet size and node spacing.

    This is the experiment behind the headline claim: a feedback-driven
    policy matches blind ``r=2`` hardening's reachability at a fraction
    of its energy.  Beyond-the-paper extension.
    """
    check_engine(engine)
    if protocol is None:
        protocol = protocol_for(topology)
    base_plan = protocol.relay_plan(topology, source)
    src = topology.index(source)
    strategies = (
        [(f"blind-r{r}", harden_plan(base_plan, r), None)
         for r in hardening]
        + [(pol.label(), base_plan, pol) for pol in policies])
    shards = effective_workers(workers, trials)
    return [point
            for p in loss_rates for k in failure_counts
            for point in _frontier_cell(topology, src, strategies, float(p),
                                        int(k), trials, seed, engine, shards,
                                        threads)]
