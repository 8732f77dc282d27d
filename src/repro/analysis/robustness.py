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

import functools
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
from ..sim.shard import (each, fan_out, replay_batch_sharded,
                         run_reactive_batch_sharded)
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
    for v in np.flatnonzero(hardened.relay_mask).tolist():
        existing = offsets.get(v)
        offsets[v] = (tuple(sorted(set(existing) | set(extra)))
                      if existing else extra)
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
        **_percentiles(reaches))


def _percentiles(reaches: np.ndarray) -> dict:
    """The 5th and 50th reachability percentiles, in one pass."""
    p5, p50 = np.percentile(reaches, [5, 50]).tolist()
    return dict(p5_reach=p5, p50_reach=p50)


# ---------------------------------------------------------------------------
# Loss degradation
# ---------------------------------------------------------------------------

def _loss_point(topology: Topology, src: int, plan: RelayPlan,
                p: float, trials: int, seed: int, engine: str,
                recovery: Optional[RecoveryPolicy] = None,
                shards: int = 1) -> RobustnessPoint:
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
        summary=True, recovery=recovery, engine=engine, workers=shards)
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
    identical for any worker count.
    """
    check_engine(engine)
    if protocol is None:
        protocol = protocol_for(topology)
    plan = harden_plan(protocol.relay_plan(topology, source), harden)
    src = topology.index(source)
    shards = effective_workers(workers, trials)
    return [_loss_point(topology, src, plan, p, trials, seed, engine,
                        recovery, shards)
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
        counts = list(failure_counts)
        return fan_out(
            each(functools.partial(_recompile_point, topology, src, plan,
                                   trials=trials, seed=seed)),
            counts, effective_workers(workers, len(counts)))
    schedule = protocol.compile(topology, source, cache=cache).schedule
    shards = effective_workers(workers, trials)
    points = []
    for k in failure_counts:
        dead_masks = _failure_dead_masks(topology, k, trials, seed, src)
        s = replay_batch_sharded(topology, schedule, src,
                                 dead_masks=dead_masks, summary=True,
                                 recovery=recovery, engine=engine,
                                 workers=shards)
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
                   engine: str, shards: int = 1) -> List[FrontierPoint]:
    """All strategies of one (loss rate, failure count) cell."""
    seeds = _frontier_seeds(seed, p, k, trials)
    dead_masks = (_failure_dead_masks(topology, k, trials, seed, src)
                  if k > 0 else None)
    reaches, txs, rxs = [], [], []
    for _, plan, policy in strategies:
        s = run_reactive_batch_sharded(
            topology, src, plan.relay_mask,
            extra_delay=plan.extra_delay,
            repeat_offsets=plan.repeat_offsets,
            dead_masks=dead_masks,
            loss=BernoulliBatchLoss(p, seeds) if p > 0 else None,
            trials=trials, summary=True, recovery=policy,
            engine=engine, workers=shards)
        reaches.append(s.live_reachability(dead_masks)
                       if dead_masks is not None else s.reachability)
        txs.append(s.num_tx)
        rxs.append(s.num_rx)
    return _frontier_points([label for label, _, _ in strategies], p, k,
                            reaches, txs, rxs)


def _frontier_points(labels: Sequence[str], p: float, k: int,
                     reaches, txs, rxs) -> List[FrontierPoint]:
    """One cell's points from each strategy's per-trial reach and tx/rx
    counts, reduced along the trial axis of ``(strategies, trials)``
    tables in one pass, Pareto front marked.  Energy uses the paper's
    radio model, packet size and spacing."""
    reach = np.asarray(reaches, dtype=float)
    tx, rx = np.asarray(txs, dtype=float), np.asarray(rxs, dtype=float)
    energy = (tx * PAPER_RADIO_MODEL.tx_energy(PAPER_PACKET_BITS,
                                               PAPER_SPACING_M)
              + rx * PAPER_RADIO_MODEL.rx_energy(PAPER_PACKET_BITS))
    p5, p50 = np.percentile(reach, [5, 50], axis=1).tolist()
    columns = zip(
        labels, reach.mean(axis=1).tolist(), reach.min(axis=1).tolist(),
        reach.std(axis=1).tolist(), p5, p50, tx.mean(axis=1).tolist(),
        rx.mean(axis=1).tolist(), energy.mean(axis=1).tolist())
    return _mark_pareto([
        FrontierPoint(
            strategy=label, loss_rate=float(p), failures=int(k),
            trials=reach.shape[1], mean_reachability=mean,
            min_reachability=low, std_reach=std, p5_reach=q5, p50_reach=q50,
            mean_tx=mean_tx, mean_rx=mean_rx, mean_energy_j=mean_energy)
        for (label, mean, low, std, q5, q50, mean_tx, mean_rx,
             mean_energy) in columns])


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
                                        int(k), trials, seed, engine,
                                        shards)]
