"""Broadcast performance metrics (the paper's Section 4 quantities).

From a :class:`~repro.sim.trace.BroadcastTrace` we compute exactly what the
paper tabulates:

* ``T_x`` — "the total times that the message is transmitted by nodes in
  each broadcast";
* ``R_x`` — "the total times that the message is received by nodes in each
  broadcast" (successful decodes, duplicates included — in the ideal case
  R_x equals T_x x degree, confirming this reading);
* power — "total power consumed for transmitting and receiving messages";
* delay — "time from the source initiated the broadcast to the time the
  broadcast is over", in slots.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..topology.base import Topology
from .trace import BroadcastTrace


@dataclass(frozen=True)
class BroadcastMetrics:
    """Headline metrics of one broadcast (one row of Tables 2-4)."""

    topology: str
    num_nodes: int
    source: tuple
    tx: int
    rx: int
    duplicates: int
    collisions: int
    energy_j: float
    delay_slots: int
    reachability: float
    relay_count: int
    retransmit_count: int

    @property
    def reached_all(self) -> bool:
        """True iff the broadcast informed every node."""
        return self.reachability >= 1.0

    def as_row(self) -> dict:
        """Dict form for table assembly / CSV export."""
        return {
            "topology": self.topology,
            "source": self.source,
            "tx": self.tx,
            "rx": self.rx,
            "duplicates": self.duplicates,
            "collisions": self.collisions,
            "energy_J": self.energy_j,
            "delay_slots": self.delay_slots,
            "reachability": self.reachability,
            "relays": self.relay_count,
            "retransmitters": self.retransmit_count,
        }


def trace_counts(trace: BroadcastTrace) -> Dict[str, object]:
    """Model-independent broadcast counts of a trace: every quantity of
    :class:`BroadcastMetrics` but the energy, which any radio model and
    packet size rebuild from them (:func:`counts_metrics`)."""
    tx_count = trace.tx_count_per_node()
    return {
        "tx": int(trace.num_tx),
        "rx": int(trace.num_rx),
        "duplicates": int(trace.num_duplicate_rx),
        "collisions": int(trace.num_collisions),
        "delay_slots": int(trace.delay_slots),
        "reachability": float(trace.reachability),
        "relays": int((tx_count > 0).sum()),
        "retransmitters": int((tx_count > 1).sum()),
    }


def counts_metrics(topology: Topology, source_index: int,
                   counts: Dict[str, object],
                   model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
                   packet_bits: int = PAPER_PACKET_BITS
                   ) -> BroadcastMetrics:
    """:class:`BroadcastMetrics` of one broadcast from its counts (a
    trace's :func:`trace_counts`, a stored entry's or a batched summary
    row's)."""
    c = counts
    tx, rx = int(c["tx"]), int(c["rx"])
    return BroadcastMetrics(
        topology=topology.name, num_nodes=topology.num_nodes,
        source=tuple(topology.coord(source_index)), tx=tx, rx=rx,
        duplicates=int(c["duplicates"]), collisions=int(c["collisions"]),
        energy_j=model.broadcast_energy(num_tx=tx, num_rx=rx,
                                        bits=packet_bits,
                                        distance_m=topology.tx_range()),
        delay_slots=int(c["delay_slots"]),
        reachability=float(c["reachability"]),
        relay_count=int(c["relays"]),
        retransmit_count=int(c["retransmitters"]))


def compute_metrics(
    trace: BroadcastTrace,
    topology: Topology,
    model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
    packet_bits: int = PAPER_PACKET_BITS,
    count_collided_rx_energy: bool = False,
) -> BroadcastMetrics:
    """Compute :class:`BroadcastMetrics` from a trace.

    Parameters
    ----------
    count_collided_rx_energy:
        If True, nodes also pay the reception energy for slots in which
        they heard a collision (the radio was listening even though the
        packet was garbled).  The paper does not charge this cost; the flag
        exists for the energy-accounting ablation.
    """
    metrics = counts_metrics(topology, trace.source, trace_counts(trace),
                             model, packet_bits)
    if count_collided_rx_energy:
        metrics = replace(metrics, energy_j=metrics.energy_j
                          + trace.num_collisions * model.rx_energy(packet_bits))
    return metrics
