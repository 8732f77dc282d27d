"""Pure-python reference simulator for differential testing.

The vectorised engine in :mod:`repro.sim.engine` is the production path.
This module re-implements both execution modes — schedule replay *and*
the reactive relay wave — with explicit per-node state machine objects
and no numpy in the decision logic.  The test-suite runs both on the same
inputs and asserts identical traces — a defence against vectorisation
bugs, per the "make it work reliably before making it fast" workflow of
the HPC guides.

The only numpy the reference touches is at the channel boundary: a
:class:`~repro.radio.impairments.LossProcess` draws its per-slot erasures
from a boolean array, so the reference builds that array and calls the
same ``apply`` the engine calls — both implementations must see the
identical channel, otherwise the differential test would compare two
different experiments rather than two implementations.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Set

import numpy as np

from ..topology.base import Topology
from .schedule import BroadcastSchedule
from .trace import BroadcastTrace


class ReferenceNode:
    """Explicit state machine for one sensor node.

    States: ``idle`` (never received), ``informed`` (holds the message).
    The node also tracks its per-slot radio activity for the trace.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.informed = False
        self.first_rx_slot = -1

    def mark_source(self) -> None:
        """The source owns the message from the start (slot 0)."""
        self.informed = True
        self.first_rx_slot = 0

    def hear(self, slot: int, transmitters: List[int]) -> str:
        """Process the air interface for one slot.

        Returns one of ``"silence"``, ``"received"``, ``"collision"``.
        """
        if len(transmitters) == 0:
            return "silence"
        if len(transmitters) > 1:
            return "collision"
        if not self.informed:
            self.informed = True
            self.first_rx_slot = slot
        return "received"


class ReferenceSimulator:
    """Object-oriented slot simulation (slow, obviously-correct)."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        # Plain python neighbour lists; no numpy in the core logic.
        self._nbrs: Dict[int, List[int]] = {
            i: [topology.index(c) for c in topology.neighbors(
                topology.coord(i))]
            for i in range(topology.num_nodes)
        }

    # ------------------------------------------------------------------
    # Shared slot machinery
    # ------------------------------------------------------------------

    def _run_slot(self, slot: int, tx_set: Set[int], nodes, trace,
                  dead, loss) -> List[int]:
        """Execute the air interface for one slot and update the trace.

        Returns the (ascending) list of nodes that decoded the packet this
        slot — informed or not — after fault filtering.
        """
        n = self.topology.num_nodes
        for v in sorted(tx_set):
            trace.tx_events.append((slot, v))

        # First pass: classify every idle node's slot without committing
        # state, because a loss process may still erase the decode.
        candidates: List[int] = []
        sender_of: Dict[int, int] = {}
        for v in range(n):
            if v in tx_set:
                continue  # half-duplex: transmitters hear nothing
            if dead is not None and dead[v]:
                continue  # a failed radio neither decodes nor collides
            heard = [u for u in self._nbrs[v] if u in tx_set]
            if len(heard) > 1:
                trace.collision_events.append((slot, v))
            elif len(heard) == 1:
                candidates.append(v)
                sender_of[v] = heard[0]

        if loss is not None and candidates:
            survives = np.zeros(n, dtype=bool)
            for v in candidates:
                survives[v] = True
            survives = loss.apply(slot, survives)
            candidates = [v for v in candidates if survives[v]]

        for v in candidates:
            outcome = nodes[v].hear(slot, [sender_of[v]])
            assert outcome == "received"
            trace.rx_events.append((slot, v, sender_of[v]))
            if trace.first_rx[v] < 0:
                trace.first_rx[v] = slot
        return candidates

    @staticmethod
    def _fresh_trace(n: int, source: int, nodes) -> SimpleNamespace:
        """The event lists a run appends to; :meth:`_finish` turns them
        into its :class:`BroadcastTrace`."""
        nodes[source].mark_source()
        trace = SimpleNamespace(
            num_nodes=n, source=source,
            first_rx=np.full(n, -1, dtype=np.int64), tx_events=[],
            rx_events=[], collision_events=[], dropped_forced=[])
        trace.first_rx[source] = 0
        return trace

    @staticmethod
    def _finish(trace: SimpleNamespace) -> BroadcastTrace:
        return BroadcastTrace(
            num_nodes=trace.num_nodes, source=trace.source,
            first_rx=trace.first_rx, tx=trace.tx_events,
            rx=trace.rx_events, collisions=trace.collision_events,
            dropped_forced=trace.dropped_forced)

    # ------------------------------------------------------------------
    # Execution modes
    # ------------------------------------------------------------------

    def replay(self, schedule: BroadcastSchedule, source: int,
               dead_mask=None, loss=None) -> BroadcastTrace:
        """Execute *schedule* and return a trace identical in content to
        :func:`repro.sim.engine.replay` (including fault injection)."""
        n = self.topology.num_nodes
        nodes = [ReferenceNode(i) for i in range(n)]
        trace = self._fresh_trace(n, source, nodes)
        dead = (None if dead_mask is None
                else [bool(b) for b in dead_mask])
        faulty = dead is not None or loss is not None

        for slot in schedule.active_slots():
            tx_set = set(schedule.transmitters(slot))
            if dead is not None:
                tx_set = {v for v in tx_set if not dead[v]}
            if faulty:
                # a node that never received cannot forward
                tx_set = {v for v in tx_set
                          if v == source or 0 <= trace.first_rx[v] < slot}
            if not tx_set:
                continue
            self._run_slot(slot, tx_set, nodes, trace, dead, loss)
        return self._finish(trace)

    def run_reactive(self, source: int, relay_mask, *,
                     extra_delay=None, repeat_offsets=None,
                     forced_tx=None, max_slots: Optional[int] = None,
                     dead_mask=None, loss=None) -> BroadcastTrace:
        """Reactive relay wave, mirroring
        :func:`repro.sim.engine.run_reactive` slot for slot."""
        n = self.topology.num_nodes
        relay = [bool(b) for b in relay_mask]
        delay = ([0] * n if extra_delay is None
                 else [int(d) for d in extra_delay])
        repeats = {int(v): tuple(int(o) for o in offs)
                   for v, offs in (repeat_offsets or {}).items()}
        forced: Dict[int, Set[int]] = {}
        for slot, vs in (forced_tx or {}).items():
            forced[int(slot)] = {int(v) for v in vs}
        dead = (None if dead_mask is None
                else [bool(b) for b in dead_mask])
        if max_slots is None:
            max_slots = max(4 * n + 16, max(forced, default=0) + 2)

        nodes = [ReferenceNode(i) for i in range(n)]
        trace = self._fresh_trace(n, source, nodes)

        pending: Dict[int, Set[int]] = {}

        def schedule(v: int, base_slot: int) -> None:
            pending.setdefault(base_slot, set()).add(v)
            for off in repeats.get(v, ()):
                pending.setdefault(base_slot + off, set()).add(v)

        schedule(source, 1 + delay[source])

        t = 0
        while t < max_slots:
            if not (any(s > t for s in pending)
                    or any(s > t for s in forced)):
                break
            t += 1
            tx_set = pending.pop(t, set())
            for v in sorted(forced.pop(t, set())):
                if 0 <= trace.first_rx[v] < t:
                    tx_set.add(v)
                else:
                    trace.dropped_forced.append((t, v))
            if dead is not None:
                tx_set = {v for v in tx_set if not dead[v]}
            if not tx_set:
                continue
            already = {v for v in range(n) if nodes[v].informed}
            decoded = self._run_slot(t, tx_set, nodes, trace, dead, loss)
            for v in decoded:
                if v not in already and relay[v]:
                    schedule(v, t + 1 + delay[v])
        return self._finish(trace)
