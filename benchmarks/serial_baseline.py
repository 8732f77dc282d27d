"""One-trial baseline of the batched robustness sweeps.

The analysis layer runs every Monte-Carlo point through the batched
engine.  The benchmark scripts time it against the points computed here
trial by trial through the one-trial entry point
(:func:`~repro.sim.engine.run_reactive`), each trial's
:class:`~repro.radio.impairments.CounterBernoulliLoss` seeded from the
same :func:`~repro.radio.impairments.trial_seeds` stream the batched
sweep draws from.  Trial *b* of a batch is bit-identical to one-trial
run *b*, so the scripts assert the two curves equal before they publish
a speedup.

``serial`` in the scripts' artefacts means this loop.  ``run_reactive``
is now a B=1 call into the batched slot loop on ``engine="auto"``, and
a one-trial loss runs as a ``PerTrialBatchLoss`` on the dense tier; the
committed ``serial`` figures were recorded against the serial slot loop
that this repo has since deleted, so they time a different program
than a rerun would.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.robustness import (DEFAULT_RECOVERY_POLICIES,
                                       FrontierPoint, RobustnessPoint,
                                       _failure_dead_masks, _frontier_points,
                                       _frontier_seeds, _point, harden_plan)
from repro.core.registry import protocol_for
from repro.radio.impairments import CounterBernoulliLoss, trial_seeds
from repro.sim import RecoveryPolicy, run_reactive


def _trials(topology, src: int, plan, p: float, seeds, dead_masks=None,
            recovery: Optional[RecoveryPolicy] = None):
    """Per-trial ``(reach, tx, rx)`` arrays of one-trial reactive runs;
    reach counts live nodes only when *dead_masks* is given."""
    rows = []
    for b, s in enumerate(seeds):
        dead = None if dead_masks is None else dead_masks[b]
        trace = run_reactive(
            topology, src, plan.relay_mask,
            extra_delay=plan.extra_delay,
            repeat_offsets=plan.repeat_offsets, dead_mask=dead,
            loss=CounterBernoulliLoss(p, int(s)) if p > 0 else None,
            recovery=recovery)
        if dead is None:
            reach = trace.reachability
        else:
            live = ~dead
            reach = float(((trace.first_rx >= 0) & live).sum()) \
                / float(live.sum())
        rows.append((reach, trace.num_tx, trace.num_rx))
    reach, tx, rx = (np.array(col, dtype=float) for col in zip(*rows))
    return reach, tx, rx


def loss_curve(topology, source, loss_rates: Sequence[float],
               trials: int = 5, seed: int = 0, harden: int = 0,
               recovery: Optional[RecoveryPolicy] = None
               ) -> List[RobustnessPoint]:
    """The points of :func:`~repro.analysis.robustness.loss_degradation`,
    one trial at a time."""
    plan = harden_plan(protocol_for(topology).relay_plan(topology, source),
                       harden)
    src = topology.index(source)
    points = []
    for p in loss_rates:
        reach, tx, _ = _trials(topology, src, plan, p,
                               trial_seeds(seed, p, trials),
                               recovery=recovery)
        points.append(_point(p, reach, tx))
    return points


def frontier(topology, source,
             loss_rates: Sequence[float] = (0.0, 0.1, 0.2),
             failure_counts: Sequence[int] = (0,), trials: int = 32,
             hardening: Sequence[int] = (0, 1, 2, 3),
             policies: Sequence[RecoveryPolicy] = DEFAULT_RECOVERY_POLICIES,
             seed: int = 0) -> List[FrontierPoint]:
    """The points of :func:`~repro.analysis.robustness.recovery_frontier`,
    one trial at a time."""
    base = protocol_for(topology).relay_plan(topology, source)
    src = topology.index(source)
    strategies = ([(f"blind-r{r}", harden_plan(base, r), None)
                   for r in hardening]
                  + [(pol.label(), base, pol) for pol in policies])
    points = []
    for p in loss_rates:
        for k in failure_counts:
            seeds = _frontier_seeds(seed, p, k, trials)
            dead = (_failure_dead_masks(topology, k, trials, seed, src)
                    if k > 0 else None)
            runs = [_trials(topology, src, plan, p, seeds, dead, policy)
                    for _, plan, policy in strategies]
            points += _frontier_points(
                [label for label, _, _ in strategies], p, k,
                *zip(*runs))
    return points
