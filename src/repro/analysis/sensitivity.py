"""Source-position sensitivity (a direct Section 4 claim).

The paper: "The best case and worst case performances of 2D mesh with 3
neighbors (or 2D mesh with 8 neighbors) are quite close to each other,
because 2D mesh with 3 neighbors (or 2D mesh with 8 neighbors) is not
sensitive to the source node's location."

This module turns that into measurable statistics over a source sweep:
relative spread ((max-min)/mean) and coefficient of variation for every
paper metric, so the claim can be checked per topology rather than read
off two hand-picked rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..sim.shard import each, fan_out
from .sweep import SweepResult, effective_workers, strided_sources


@dataclass(frozen=True)
class SensitivityReport:
    """Spread statistics of one metric over a source sweep."""

    topology: str
    metric: str
    minimum: float
    maximum: float
    mean: float
    relative_spread: float        # (max - min) / mean
    coefficient_of_variation: float

    def as_row(self) -> dict:
        return {
            "topology": self.topology,
            "metric": self.metric,
            "min": self.minimum,
            "max": self.maximum,
            "mean": round(self.mean, 2),
            "spread_%": round(100 * self.relative_spread, 1),
            "cv_%": round(100 * self.coefficient_of_variation, 1),
        }


_METRIC_GETTERS = {
    "tx": lambda m: m.tx,
    "rx": lambda m: m.rx,
    "energy_J": lambda m: m.energy_j,
    "delay": lambda m: m.delay_slots,
}


def sensitivity(sweep: SweepResult, metric: str) -> SensitivityReport:
    """Spread statistics of *metric* ("tx" | "rx" | "energy_J" | "delay")
    over the sweep's sources."""
    try:
        getter = _METRIC_GETTERS[metric]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; expected one of "
            f"{sorted(_METRIC_GETTERS)}") from None
    values = np.asarray([getter(m) for m in sweep.metrics], dtype=float)
    if len(values) == 0:
        raise ValueError("empty sweep")
    mean = float(values.mean())
    return SensitivityReport(
        topology=sweep.topology,
        metric=metric,
        minimum=float(values.min()),
        maximum=float(values.max()),
        mean=mean,
        relative_spread=float((values.max() - values.min()) / mean)
        if mean else 0.0,
        coefficient_of_variation=float(values.std() / mean)
        if mean else 0.0,
    )


def sensitivity_table(sweeps: Dict[str, SweepResult],
                      metrics: tuple = ("tx", "energy_J", "delay")
                      ) -> List[dict]:
    """Rows of spread statistics for every (topology, metric) pair."""
    rows = []
    for label in sorted(sweeps):
        for metric in metrics:
            rows.append(sensitivity(sweeps[label], metric).as_row())
    return rows


def sensitivity_sweeps(stride: int = 1,
                       workers: "int | None" = None,
                       cache=None,
                       symmetry: bool = True
                       ) -> Dict[str, SweepResult]:
    """Source sweeps of all four paper topologies, ready for
    :func:`sensitivity_table`.

    Thin wrapper over :meth:`repro.analysis.compare.SweepCache.compute`
    so sensitivity studies get the same parallel-sweep (*workers*),
    schedule-cache (*cache*) and symmetry-reduction (*symmetry*)
    machinery as the paper tables.
    """
    from .compare import SweepCache
    return SweepCache.compute(
        stride=stride, workers=workers, cache=cache,
        symmetry=symmetry).sweeps


# ---------------------------------------------------------------------------
# Robustness sensitivity: does loss resilience depend on the source?
# ---------------------------------------------------------------------------

def _loss_reach(topology, protocol, loss_rate, trials, seed,
                src) -> float:
    """Mean lossy reachability of one source's reactive wave."""
    from ..radio.impairments import BernoulliBatchLoss, trial_seeds
    from ..sim.engine import run_reactive_batch
    plan = protocol.relay_plan(topology, src)
    seeds = trial_seeds(seed, loss_rate, trials)
    s = run_reactive_batch(
        topology, topology.index(src), plan.relay_mask,
        extra_delay=plan.extra_delay,
        repeat_offsets=plan.repeat_offsets,
        loss=BernoulliBatchLoss(loss_rate, seeds), summary=True)
    return float(s.reachability.mean())


def loss_sensitivity(topology,
                     loss_rate: float = 0.1,
                     sources: Optional[Sequence] = None,
                     trials: int = 8,
                     protocol=None,
                     seed: int = 0,
                     workers: Optional[int] = None,
                     stride: int = 1) -> SensitivityReport:
    """Spread of mean lossy reachability over source positions.

    Extends the paper's source-sensitivity claim to the impaired
    channel: every source's reactive wave is Monte-Carlo'd through the
    batched engine (*trials* Bernoulli channels per source, identical
    seeds across sources so the comparison is paired), and the report
    summarises how much the mean reachability moves with the source.
    """
    from ..core.registry import protocol_for
    if protocol is None:
        protocol = protocol_for(topology)
    if sources is None:
        sources = strided_sources(topology, stride)
    sources = list(sources)
    if not sources:
        raise ValueError("empty source set")
    values = fan_out(
        each(functools.partial(_loss_reach, topology, protocol, loss_rate,
                               trials, seed)),
        sources, effective_workers(workers, len(sources)))
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    return SensitivityReport(
        topology=topology.name,
        metric=f"reach@p={loss_rate}",
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        mean=mean,
        relative_spread=float((arr.max() - arr.min()) / mean)
        if mean else 0.0,
        coefficient_of_variation=float(arr.std() / mean) if mean else 0.0,
    )
