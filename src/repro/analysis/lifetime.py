"""Network-lifetime estimation (extension of the paper's Section 4).

The paper's motivation is battery conservation ("each sensor node can
operate for a longer period of time"), and its related-work section
discusses LEACH's insight that *balancing* consumption matters, not just
minimising the total.  This module extends the paper's one-shot analysis
to repeated broadcasts so the examples can quantify that:

* every node starts with an energy budget;
* broadcast rounds are issued from a (configurable) sequence of sources;
* per round, each node pays its actual Tx/Rx energy from the compiled
  schedule for that source;
* lifetime = number of completed rounds until the first node would go
  negative (the classic "time to first death" metric).

Rotating the source (as LEACH rotates cluster heads) spreads the relay
burden; a fixed source exhausts its own row/column relays first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from ..core.base import BroadcastProtocol
from ..core.cache import ScheduleCache
from ..core.registry import protocol_for
from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..radio.impairments import BernoulliBatchLoss, trial_seeds
from ..sim.engine import replay_batch
from ..sim.shard import each, fan_out
from ..topology.base import Topology
from .sweep import effective_workers


@dataclass(frozen=True)
class LifetimeResult:
    """Outcome of a repeated-broadcast lifetime simulation."""

    topology: str
    rounds_completed: int
    first_death_node: Optional[tuple]
    residual_energy_j: np.ndarray
    energy_spent_j: np.ndarray
    rounds_budget: int

    @property
    def survived_all_rounds(self) -> bool:
        """True if the budget ran out before any node died."""
        return self.first_death_node is None

    def energy_imbalance(self) -> float:
        """Max/mean ratio of per-node consumption (1.0 = perfectly even).

        High imbalance predicts early first-death even when total energy
        looks fine — the LEACH argument.
        """
        spent = self.energy_spent_j
        mean = float(spent.mean())
        if mean == 0:
            return 1.0
        return float(spent.max()) / mean


def per_node_round_energy(topology: Topology, source,
                          protocol: Optional[BroadcastProtocol] = None,
                          model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
                          packet_bits: int = PAPER_PACKET_BITS,
                          cache: Optional[ScheduleCache] = None,
                          loss_rate: Optional[float] = None,
                          loss_trials: int = 16,
                          seed: int = 0,
                          engine: str = "batch") -> np.ndarray:
    """Energy each node spends in one broadcast from *source* (joules).

    With *loss_rate* set, the compiled schedule is replayed under that
    Bernoulli channel for *loss_trials* batched Monte-Carlo trials
    (:func:`~repro.sim.engine.replay_batch`) and the *expected* per-node
    cost is returned: lossy rounds are cheaper in Tx (uninformed nodes
    cannot forward) but buy correspondingly less coverage.  *cache* is
    the schedule cache used for the compilation; *engine* selects the
    slot-resolve tier of the lossy replay (see :mod:`repro.sim.backend`).
    """
    if protocol is None:
        protocol = protocol_for(topology)
    compiled = protocol.compile(topology, source, cache=cache)
    if loss_rate is None:
        tx_counts = compiled.trace.tx_count_per_node().astype(np.float64)
        rx_counts = compiled.trace.rx_count_per_node().astype(np.float64)
    else:
        seeds = trial_seeds(seed, loss_rate, loss_trials)
        s = replay_batch(topology, compiled.schedule,
                         topology.index(source),
                         loss=BernoulliBatchLoss(loss_rate, seeds),
                         summary=True, engine=engine)
        tx_counts = s.tx_count.mean(axis=0)
        rx_counts = s.rx_count.mean(axis=0)
    e_tx = model.tx_energy(packet_bits, topology.tx_range())
    e_rx = model.rx_energy(packet_bits)
    return tx_counts * e_tx + rx_counts * e_rx


def simulate_lifetime(
    topology: Topology,
    sources: Iterable,
    battery_j: float,
    protocol: Optional[BroadcastProtocol] = None,
    model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
    packet_bits: int = PAPER_PACKET_BITS,
    max_rounds: int = 100_000,
    workers: Optional[int] = None,
    cache: Optional[ScheduleCache] = None,
    loss_rate: Optional[float] = None,
    loss_trials: int = 16,
    seed: int = 0,
    engine: str = "batch",
) -> LifetimeResult:
    """Run broadcast rounds until the first node dies or *max_rounds*.

    *sources* is cycled; per-source round costs are compiled once and
    cached, so long lifetimes cost one compile per distinct source.
    ``workers`` compiles the distinct sources in parallel processes
    (sharing the disk tier of *cache*, like
    :func:`~repro.analysis.sweep.sweep_sources`); *loss_rate* switches
    the per-round cost to the batched Monte-Carlo expectation under a
    Bernoulli channel (see :func:`per_node_round_energy`), and *engine*
    the slot-resolve tier of that replay.
    """
    if battery_j <= 0:
        raise ValueError("battery_j must be positive")
    source_list: List = list(sources)
    if not source_list:
        raise ValueError("need at least one source")
    distinct = list(dict.fromkeys(tuple(src) for src in source_list))
    round_energy = functools.partial(
        per_node_round_energy, topology, protocol=protocol, model=model,
        packet_bits=packet_bits, cache=cache, loss_rate=loss_rate,
        loss_trials=loss_trials, seed=seed, engine=engine)
    costs = dict(zip(distinct, fan_out(
        each(round_energy), distinct,
        effective_workers(workers, len(distinct)))))

    residual = np.full(topology.num_nodes, battery_j, dtype=np.float64)
    spent = np.zeros(topology.num_nodes, dtype=np.float64)
    rounds = 0
    first_death = None
    while rounds < max_rounds:
        cost = costs[tuple(source_list[rounds % len(source_list)])]
        if (residual < cost).any():
            victim = int(np.argmax(cost - residual))
            first_death = tuple(topology.coord(victim))
            break
        residual -= cost
        spent += cost
        rounds += 1
    return LifetimeResult(
        topology=topology.name,
        rounds_completed=rounds,
        first_death_node=first_death,
        residual_energy_j=residual,
        energy_spent_j=spent,
        rounds_budget=max_rounds,
    )
