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

from dataclasses import dataclass

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


def compute_metrics_from_counts(
    topology: Topology,
    source_index: int,
    first_rx,
    tx_count,
    rx_count,
    collisions: int,
    model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
    packet_bits: int = PAPER_PACKET_BITS,
) -> BroadcastMetrics:
    """:class:`BroadcastMetrics` from per-node count arrays.

    Mirrors :func:`compute_metrics` field for field, but consumes the
    aggregate arrays of a batched summary run (one row of a
    :class:`~repro.sim.summary.TraceSummary`) instead of a materialised
    event-tuple trace: every metric the paper tabulates is a reduction
    over per-node counts, so the symmetry-reduced sweep never has to pay
    per-event tuple materialisation for class members.  For the same
    broadcast the two constructors produce equal metrics (the trace
    properties ``num_tx``/``num_rx``/``delay_slots``/... are the same
    reductions).
    """
    num_tx = int(tx_count.sum())
    num_rx = int(rx_count.sum())
    num_first_rx = int((first_rx > 0).sum())
    all_reached = bool((first_rx >= 0).all())
    energy = model.broadcast_energy(
        num_tx=num_tx, num_rx=num_rx, bits=packet_bits,
        distance_m=topology.tx_range())
    return BroadcastMetrics(
        topology=topology.name,
        num_nodes=topology.num_nodes,
        source=tuple(topology.coord(source_index)),
        tx=num_tx,
        rx=num_rx,
        duplicates=num_rx - num_first_rx,
        collisions=int(collisions),
        energy_j=energy,
        delay_slots=int(first_rx.max()) if all_reached else -1,
        reachability=float((first_rx >= 0).sum()) / topology.num_nodes,
        relay_count=int((tx_count > 0).sum()),
        retransmit_count=int((tx_count > 1).sum()),
    )


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
    energy = model.broadcast_energy(
        num_tx=trace.num_tx,
        num_rx=trace.num_rx,
        bits=packet_bits,
        distance_m=topology.tx_range(),
    )
    if count_collided_rx_energy:
        energy += trace.num_collisions * model.rx_energy(packet_bits)
    tx_count = trace.tx_count_per_node()
    return BroadcastMetrics(
        topology=topology.name,
        num_nodes=trace.num_nodes,
        source=tuple(topology.coord(trace.source)),
        tx=trace.num_tx,
        rx=trace.num_rx,
        duplicates=trace.num_duplicate_rx,
        collisions=trace.num_collisions,
        energy_j=energy,
        delay_slots=trace.delay_slots,
        reachability=trace.reachability,
        relay_count=int((tx_count > 0).sum()),
        retransmit_count=int((tx_count > 1).sum()),
    )
