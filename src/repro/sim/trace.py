"""Execution traces of simulated broadcasts.

A :class:`BroadcastTrace` is the complete record of one simulated broadcast:
who transmitted when, who decoded what from whom, where collisions happened,
and when every node first obtained the message.  All paper metrics
(``T_x``, ``R_x``, power, delay, reachability) derive from the trace via
:mod:`repro.sim.metrics`.

The events are int64 columns, as the engines log them; the tuple lists of
the pure-Python reference (:mod:`repro.sim.reference`) convert to the same
columns.  The tuple views (``tx_events`` and friends) are built on first
use and are the form the differential suites compare.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .schedule import BroadcastSchedule


class EventView(tuple):
    """A read-only tuple of event tuples that also equals a list of the
    same events, as the tuple lists it replaces did."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, list):
            other = tuple(other)
        return tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


def _rows(events, width: int) -> np.ndarray:
    """*events* — ``(k, width)`` rows or a sequence of event tuples — as
    int64 rows."""
    rows = np.asarray(events, dtype=np.int64)
    if rows.size == 0:
        return np.empty((0, width), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"expected (k, {width}) event rows, got shape "
                         f"{rows.shape}")
    return rows


class BroadcastTrace:
    """Record of one simulated broadcast.

    Attributes
    ----------
    num_nodes:
        Network size.
    source:
        0-based source index.
    first_rx:
        Per-node slot of first successful reception; 0 for the source
        (it originates the message), -1 for nodes never reached.
    tx:
        ``(k, 2)`` int64 rows ``(slot, node)``, chronological and, within
        a slot, node-ascending (the engines log them so).
    rx:
        ``(k, 3)`` rows ``(slot, receiver, transmitter)`` of every
        successful decode, including duplicates.
    collisions:
        ``(k, 2)`` rows ``(slot, node)`` where the node heard >= 2
        transmitters.
    dropped_forced:
        Forced transmissions that could not happen because the node was not
        yet informed (diagnostic; empty for valid compiled schedules).

    The constructor takes each event kind as rows or as a list of event
    tuples.  ``tx_events``, ``rx_events`` and ``collision_events`` are the
    same events as read-only tuple views, built on first use.
    """

    def __init__(self, num_nodes: int, source: int, first_rx: np.ndarray,
                 tx=(), rx=(), collisions=(),
                 dropped_forced: Optional[List[Tuple[int, int]]] = None
                 ) -> None:
        self.num_nodes = num_nodes
        self.source = source
        self.first_rx = first_rx
        self.tx = _rows(tx, 2)
        self.rx = _rows(rx, 3)
        self.collisions = _rows(collisions, 2)
        self.dropped_forced = [] if dropped_forced is None else dropped_forced
        self._views: Dict[str, EventView] = {}

    def _view(self, name: str) -> EventView:
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = EventView(
                map(tuple, getattr(self, name).tolist()))
        return view

    @property
    def tx_events(self) -> EventView:
        """``(slot, node)`` pairs, chronological."""
        return self._view("tx")

    @property
    def rx_events(self) -> EventView:
        """``(slot, receiver, transmitter)`` of every successful decode."""
        return self._view("rx")

    @property
    def collision_events(self) -> EventView:
        """``(slot, node)`` where the node heard >= 2 transmitters."""
        return self._view("collisions")

    # -- headline counts --------------------------------------------------

    @property
    def num_tx(self) -> int:
        """The paper's ``T_x``: total number of transmissions."""
        return len(self.tx)

    @property
    def num_rx(self) -> int:
        """The paper's ``R_x``: total successful receptions (incl. dups)."""
        return len(self.rx)

    @property
    def num_duplicate_rx(self) -> int:
        """Receptions by nodes that already had the message."""
        return self.num_rx - self.num_first_rx

    @property
    def num_first_rx(self) -> int:
        """Nodes (excluding the source) that received at least once."""
        return int((self.first_rx > 0).sum())

    @property
    def num_collisions(self) -> int:
        """Number of (node, slot) collision occurrences."""
        return len(self.collisions)

    @property
    def delay_slots(self) -> int:
        """Broadcast delay: the slot in which the last node was informed.

        With the source transmitting in slot 1, this equals the number of
        time slots the broadcast occupies until full coverage.  -1 if the
        broadcast never completed.
        """
        if not self.all_reached:
            return -1
        return int(self.first_rx.max())

    @property
    def last_activity_slot(self) -> int:
        """Slot of the final transmission (>= delay_slots)."""
        return int(self.tx[:, 0].max()) if len(self.tx) else 0

    @property
    def reachability(self) -> float:
        """Fraction of nodes that obtained the message (source included)."""
        return float((self.first_rx >= 0).sum()) / self.num_nodes

    @property
    def all_reached(self) -> bool:
        """True iff 100 % reachability was achieved."""
        return bool((self.first_rx >= 0).all())

    def unreached_nodes(self) -> np.ndarray:
        """Indices of nodes that never obtained the message."""
        return np.nonzero(self.first_rx < 0)[0]

    # -- structure --------------------------------------------------------

    def slot_sets(self) -> Dict[int, Set[int]]:
        """``slot -> set of transmitters``, one entry per active slot."""
        out: Dict[int, Set[int]] = {}
        slots, nodes = self.tx.T.tolist()
        for slot, v in zip(slots, nodes):
            got = out.get(slot)
            if got is None:
                out[slot] = {v}
            else:
                got.add(v)
        return out

    def as_schedule(self) -> BroadcastSchedule:
        """The transmissions of this trace as a static schedule."""
        # Engine-produced events are already validated (slot >= 1,
        # node >= 0), so the slot map goes in without a checked add()
        # per event — compile loops call this once per compile.
        sched = BroadcastSchedule()
        sched._slots = self.slot_sets()
        return sched

    def delivery_tree(self) -> Dict[int, int]:
        """Map ``receiver -> transmitter`` of each node's *first* reception.

        The source is absent from the map.  Because relays only transmit
        after first receiving, the map is a spanning tree of the informed
        subgraph rooted at the source.
        """
        tree: Dict[int, int] = {}
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[self.source] = True
        for slot, receiver, transmitter in self.rx.tolist():
            if not seen[receiver]:
                seen[receiver] = True
                tree[receiver] = transmitter
        return tree

    def tx_count_per_node(self) -> np.ndarray:
        """Number of transmissions performed by every node."""
        return np.bincount(self.tx[:, 1], minlength=self.num_nodes)

    def rx_count_per_node(self) -> np.ndarray:
        """Number of successful receptions per node (incl. duplicates)."""
        return np.bincount(self.rx[:, 1], minlength=self.num_nodes)

    def retransmitting_nodes(self) -> List[int]:
        """Nodes that transmitted more than once (the paper's gray nodes)."""
        counts = self.tx_count_per_node()
        return [int(i) for i in np.nonzero(counts > 1)[0]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<BroadcastTrace tx={self.num_tx} rx={self.num_rx} "
                f"reach={self.reachability:.3f} delay={self.delay_slots}>")
