"""Pure-python reference simulator for differential testing.

The batched slot loop in :mod:`repro.sim.engine` is the production path.
This module re-implements both execution modes — schedule replay *and*
the reactive relay wave — and the closed-loop recovery layer of
:mod:`repro.sim.recovery`, with explicit per-node state and no numpy in
the decision logic.  The test-suite runs both on the same inputs and
asserts identical traces — a defence against vectorisation bugs, per
the "make it work reliably before making it fast" workflow of the HPC
guides.

The only numpy the reference touches is at the channel boundary: a
:class:`~repro.radio.impairments.LossProcess` draws its per-slot erasures
from a boolean array, so the reference builds that array and calls the
same ``apply`` the engine calls — both implementations must see the
identical channel, otherwise the differential test would compare two
different experiments rather than two implementations.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..topology.base import Topology
from .recovery import RecoveryPolicy
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


class ReferenceRecovery:
    """One trial's recovery state machine, in per-node python sets and
    scalars (:mod:`repro.sim.recovery` documents the machine).

    Structurally unlike the engine's ``(B, n)`` / ``(B, nnz)`` array
    state and the kernel's word bitsets, so the differential suites
    compare independent implementations.  *relay_like* flags the nodes
    expected to transmit, the ones a repair election watches.
    """

    def __init__(self, nbrs: Dict[int, List[int]], policy: RecoveryPolicy,
                 relay_like: List[bool]) -> None:
        n = len(nbrs)
        self.policy = policy
        self.n = n
        self.relay_like = relay_like
        self._nbrs = [sorted(nbrs[v]) for v in range(n)]
        # v -> set of neighbours v knows to hold the message
        self.known: List[Set[int]] = [set() for _ in range(n)]
        self.heard_total = [0] * n
        self.has_tx = [False] * n
        self.chk_slot = [0] * n       # 0 = no pending check
        self.chk_base = [0] * n
        self.retries_used = [0] * n
        self.elec_slot = [0] * n      # 0 = no pending election
        self.elec_base = [0] * n
        self.elec_target = [-1] * n

    def due_after(self, t: int) -> bool:
        """Is a check or an election scheduled past slot *t*?  (Every
        one is scheduled at least a slot ahead and kept until due.)"""
        return any(s > t for s in self.chk_slot) or any(
            s > t for s in self.elec_slot)

    def pre_slot(self, t: int) -> Set[int]:
        """Process checks/elections due at *t*; return the retransmitters."""
        pol = self.policy
        out: Set[int] = set()
        for v in range(self.n):
            if self.chk_slot[v] != t:
                continue
            if len(self.known[v]) >= len(self._nbrs[v]):
                self.chk_slot[v] = 0              # fully covered: done
                continue
            heard = self.heard_total[v]
            suppressed = (pol.suppression_k > 0 and
                          heard - self.chk_base[v] >= pol.suppression_k)
            if not suppressed:
                out.add(v)
            self.retries_used[v] += 1
            if self.retries_used[v] < pol.max_retries:
                self.chk_slot[v] = (
                    t + pol.timeout * pol.backoff ** self.retries_used[v])
            else:
                self.chk_slot[v] = 0
            self.chk_base[v] = heard
        for w in range(self.n):
            if self.elec_slot[w] != t:
                continue
            self.elec_slot[w] = 0                 # one-shot
            if self.elec_target[w] in self.known[w]:
                continue                          # target overheard after all
            if (pol.suppression_k > 0 and
                    self.heard_total[w] - self.elec_base[w]
                    >= pol.suppression_k):
                continue                          # repairs already overheard
            out.add(w)
        return out

    def post_slot(self, t: int, tx_nodes: List[int],
                  decoded: List[Tuple[int, int]],
                  new_nodes: List[int]) -> None:
        """Account one resolved slot: ACKs/overhears of the ``(receiver,
        sender)`` *decoded* pairs, episode starts of first transmitters,
        election scheduling for the newly informed."""
        pol = self.policy
        for r, w in decoded:
            self.heard_total[r] += 1
            self.known[w].add(r)                  # link-layer ACK
            self.known[r].add(w)                  # implicit ACK (overhear)
        for v in tx_nodes:
            if self.has_tx[v]:
                continue
            self.has_tx[v] = True
            if pol.max_retries > 0:
                self.chk_slot[v] = t + pol.timeout
                self.chk_base[v] = self.heard_total[v]
                self.retries_used[v] = 0
        if not pol.election:
            return
        for w in new_nodes:
            if self.relay_like[w]:
                continue
            target = -1
            for u in self._nbrs[w]:
                if self.relay_like[u] and u not in self.known[w]:
                    target = u
                    break
            if target < 0:
                continue
            rank = sum(1 for x in self._nbrs[target] if x < w)
            self.elec_slot[w] = t + pol.election_delay + rank
            self.elec_base[w] = self.heard_total[w]
            self.elec_target[w] = target


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
                  dead, loss) -> List[Tuple[int, int]]:
        """Execute the air interface for one slot and update the trace.

        Returns the ``(receiver, sender)`` pairs that decoded the packet
        this slot — informed or not — after fault filtering, receivers
        ascending.
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
        return [(v, sender_of[v]) for v in candidates]

    def _wave(self, source: int, forced: Dict[int, Set[int]],
              max_slots: int, *, relay: Optional[List[bool]] = None,
              delay: Optional[List[int]] = None,
              repeats: Optional[Dict[int, Tuple[int, ...]]] = None,
              dead: Optional[List[bool]] = None, loss=None,
              recovery: Optional[ReferenceRecovery] = None,
              replay: bool = False, checked: bool = True
              ) -> BroadcastTrace:
        """The one slot loop of both modes.

        A reactive run starts the source and schedules each newly
        informed relay one slot (plus its delay) after its first decode,
        with its repeats; a *forced* transmission by a node not informed
        before its slot is dropped and, outside a replay, recorded.  A
        replay starts nothing, and unless *checked* (a faulty replay)
        its forced nodes transmit unconditionally.  The loop walks slot
        by slot up to *max_slots* while relay or recovery work remains,
        and jumps to the next forced slot while nothing else is due.
        """
        n = self.topology.num_nodes
        nodes = [ReferenceNode(i) for i in range(n)]
        nodes[source].mark_source()
        trace = SimpleNamespace(
            num_nodes=n, source=source,
            first_rx=np.full(n, -1, dtype=np.int64), tx_events=[],
            rx_events=[], collision_events=[], dropped_forced=[])
        trace.first_rx[source] = 0
        pending: Dict[int, Set[int]] = {}

        def schedule(v: int, base_slot: int) -> None:
            pending.setdefault(base_slot, set()).add(v)
            for off in repeats.get(v, ()):
                pending.setdefault(base_slot + off, set()).add(v)

        if not replay:
            schedule(source, 1 + delay[source])

        t = 0
        while True:
            # Every pending and forced slot lies past t.
            if pending or (recovery is not None and recovery.due_after(t)):
                t += 1
            elif forced:
                t = min(forced)
            else:
                break
            if t > max_slots:
                break
            tx_set = pending.pop(t, set())
            for v in sorted(forced.pop(t, set())):
                if not checked or 0 <= trace.first_rx[v] < t:
                    tx_set.add(v)
                elif not replay:
                    trace.dropped_forced.append((t, v))
            if dead is not None:
                tx_set = {v for v in tx_set if not dead[v]}
            if recovery is not None:
                tx_set |= recovery.pre_slot(t)
            if not tx_set:
                continue
            already = {v for v in range(n) if nodes[v].informed}
            decoded = self._run_slot(t, tx_set, nodes, trace, dead, loss)
            new_nodes = [v for v, _ in decoded if v not in already]
            if relay is not None:
                for v in new_nodes:
                    if relay[v]:
                        schedule(v, t + 1 + delay[v])
            if recovery is not None:
                recovery.post_slot(t, sorted(tx_set), decoded, new_nodes)
        return BroadcastTrace(
            num_nodes=n, source=source, first_rx=trace.first_rx,
            tx=trace.tx_events, rx=trace.rx_events,
            collisions=trace.collision_events,
            dropped_forced=trace.dropped_forced)

    @staticmethod
    def _default_bound(n: int, forced: Dict[int, Set[int]]) -> int:
        return max(4 * n + 16, max(forced, default=0) + 2)

    # ------------------------------------------------------------------
    # Execution modes
    # ------------------------------------------------------------------

    def replay(self, schedule: BroadcastSchedule, source: int,
               dead_mask=None, loss=None, *,
               recovery: Optional[RecoveryPolicy] = None,
               max_slots: Optional[int] = None) -> BroadcastTrace:
        """Execute *schedule* and return a trace identical in content to
        :func:`repro.sim.engine.replay` (faults, recovery and the slot
        cut-off included): a faulty replay drops the transmissions of
        nodes that never received, and a recovering one runs past the
        schedule while checks or elections are due."""
        n = self.topology.num_nodes
        forced: Dict[int, Set[int]] = {}
        for slot, v in schedule:
            forced.setdefault(int(slot), set()).add(int(v))
        rec = None
        if recovery is not None:
            relay_like = [False] * n
            for v in schedule.transmitting_nodes():
                relay_like[v] = True
            rec = ReferenceRecovery(self._nbrs, recovery, relay_like)
        return self._wave(
            source, forced,
            self._default_bound(n, forced) if max_slots is None
            else max_slots,
            dead=None if dead_mask is None else [bool(b) for b in dead_mask],
            loss=loss, recovery=rec, replay=True,
            checked=dead_mask is not None or loss is not None)

    def run_reactive(self, source: int, relay_mask, *,
                     extra_delay=None, repeat_offsets=None,
                     forced_tx=None, max_slots: Optional[int] = None,
                     dead_mask=None, loss=None,
                     recovery: Optional[RecoveryPolicy] = None
                     ) -> BroadcastTrace:
        """Reactive relay wave, mirroring
        :func:`repro.sim.engine.run_reactive` slot for slot."""
        n = self.topology.num_nodes
        relay = [bool(b) for b in relay_mask]
        forced: Dict[int, Set[int]] = {}
        for slot, vs in (forced_tx or {}).items():
            forced[int(slot)] = {int(v) for v in vs}
        rec = None
        if recovery is not None:
            relay_like = list(relay)
            relay_like[source] = True
            rec = ReferenceRecovery(self._nbrs, recovery, relay_like)
        return self._wave(
            source, forced,
            self._default_bound(n, forced) if max_slots is None
            else max_slots,
            relay=relay,
            delay=([0] * n if extra_delay is None
                   else [int(d) for d in extra_delay]),
            repeats={int(v): tuple(int(o) for o in offs)
                     for v, offs in (repeat_offsets or {}).items()},
            dead=None if dead_mask is None else [bool(b) for b in dead_mask],
            loss=loss, recovery=rec)
