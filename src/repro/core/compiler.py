"""Offline schedule compilation (rule -> completion -> repair fixpoint).

The paper's protocols are compiled offline: "Since the topology of the
network is predetermined, we know where the collision will occur and which
node needs to retransmit the message."  This module is that precomputation,
generalised so it works for every grid shape and source position, not only
the ones the paper enumerates (DESIGN.md §2 motivates this):

1. **Rule phase** — run the protocol's :class:`~repro.core.base.RelayPlan`
   reactively under the collision model (relays fire one slot after their
   first successful reception; designated retransmitters repeat).
2. **Completion phase** — if some node is never informed because no relay
   covers it (clipped diagonals, border gaps), promote the informed
   neighbour with the highest ETR (most new nodes covered) to relay.  This
   is the paper's own relay-selection principle and subsumes its explicit
   border rules.
3. **Repair phase** — if some node is starved purely by collisions,
   schedule an informed neighbour to retransmit at the earliest slot that
   (a) the neighbour can transmit in, and (b) does not destroy any existing
   *first* reception.  This mirrors the paper's designated retransmitters
   ("we let the collision occur and retransmit the collided message").

The compiler iterates simulate -> fix until every node is informed, then
returns the authoritative trace and static schedule.  Monotone progress is
enforced per round (at least one new node informed), so the loop terminates
in at most ``num_nodes`` rounds on connected graphs; a round cap guards the
degenerate cases.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..sim.engine import run_reactive
from ..sim.trace import BroadcastTrace
from ..topology.base import Topology
from .base import CompiledBroadcast, RelayPlan

#: Hard cap on simulate->fix rounds; real protocol compilations use only a
#: handful of rounds, and a connected graph needs at most one fix per node.
DEFAULT_MAX_ROUNDS = 256


class CompilationError(RuntimeError):
    """Raised when the compiler cannot reach a 100 %-coverage fixpoint."""


#: Monotone count of full fixpoint compiles in this process: every
#: :func:`compile_broadcast` call and every class representative the
#: symmetry path compiles in a batch.  Benchmarks
#: (``benchmarks/perf_symmetry.py``) diff it around a sweep to measure
#: how many full fixpoint compilations the symmetry-reduced path
#: avoided; it has no functional role.  The async
#: service runtime compiles on executor threads, so the increment takes a
#: lock to stay exact under concurrency.
_compile_calls = 0
_compile_calls_lock = threading.Lock()


def compile_call_count() -> int:
    """Number of :func:`compile_broadcast` calls made by this process,
    plus the sources the symmetry path compiled as class representatives
    in one batched fixpoint (:func:`count_compiles`)."""
    return _compile_calls


def count_compiles(n: int = 1) -> None:
    """Add *n* full fixpoint compiles to :func:`compile_call_count`."""
    global _compile_calls
    with _compile_calls_lock:
        _compile_calls += n


def compile_broadcast(
    topology: Topology,
    source: int,
    plan: RelayPlan,
    *,
    completion: bool = True,
    repair: bool = True,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    dead_mask=None,
) -> CompiledBroadcast:
    """Compile *plan* into a verified broadcast schedule from *source*.

    With ``completion=False`` and ``repair=False`` the result is the pure
    rule-phase broadcast (possibly incomplete — useful for studying the
    literal Section 3 rules in isolation).

    *dead_mask* compiles around known node failures: dead nodes neither
    transmit nor receive, are not counted against reachability, and the
    completion/repair phases route the wave around them (fault-injection
    extension; the paper assumes a pristine network).
    """
    count_compiles()
    fix = _Fixpoint(topology, source, plan, completion=completion,
                    repair=repair, dead_mask=dead_mask)
    for round_no in range(1, max_rounds + 1):
        done = fix.round(run_reactive(
            topology, source, plan.relay_mask,
            extra_delay=plan.extra_delay,
            repeat_offsets=plan.repeat_offsets,
            forced_tx=fix.forced,
            dead_mask=dead_mask), round_no)
        if done is not None:
            return done
    raise fix.round_cap(max_rounds)


class _Fixpoint:
    """One source's simulate->fix state across compile rounds.

    :func:`compile_broadcast` feeds it the serial wave of each round;
    the symmetry-reduced class path (:mod:`repro.core.symmetry`) feeds
    it row *b* of a batched multi-source wave.  Both therefore run the
    identical rounds, pruning, exit conditions and fix planner.
    """

    def __init__(self, topology: Topology, source: int, plan: RelayPlan,
                 *, completion: bool = True, repair: bool = True,
                 dead_mask=None) -> None:
        self.topology = topology
        self.source = source
        self.plan = plan
        self.completion = completion
        self.repair = repair
        self.dead_mask = (None if dead_mask is None
                          else np.asarray(dead_mask, dtype=bool))
        self.forced: Dict[int, Set[int]] = {}
        self.completions: List[Tuple[int, int]] = []
        self.repairs: List[Tuple[int, int]] = []
        self.prev_informed = -1
        self.stall_rounds = 0

    def round(self, trace: BroadcastTrace,
              round_no: int) -> Optional[CompiledBroadcast]:
        """Digest one round's wave: the finished broadcast, or ``None``
        after adding this round's fixes to :attr:`forced`."""
        _prune_dropped(trace, self.forced, self.completions, self.repairs)
        unreached = trace.unreached_nodes()
        if self.dead_mask is not None:
            unreached = unreached[~self.dead_mask[unreached]]
        if len(unreached) == 0 or not (self.completion or self.repair):
            return self._finish(trace, round_no)

        # Progress tracking: the informed count may dip transiently when a
        # repair's cascade disturbs other receptions (the accumulated
        # forced set still grows monotonically, which is what ultimately
        # forces convergence), so the stall guard is generous.
        informed_now = int((trace.first_rx >= 0).sum())
        if informed_now <= self.prev_informed:
            self.stall_rounds += 1
            if self.stall_rounds > 24:
                raise CompilationError(
                    f"no progress after {round_no} rounds on "
                    f"{self.topology.name} (source "
                    f"{self.topology.coord(self.source)}): "
                    f"{len(unreached)} nodes unreached")
        else:
            self.stall_rounds = 0
        self.prev_informed = max(self.prev_informed, informed_now)

        added = _plan_fixes(
            self.topology, trace, self.forced, unreached,
            self.plan, allow_completion=self.completion,
            allow_repair=self.repair, dead_mask=self.dead_mask)
        if not added:
            # Unreached nodes with no informed neighbour at all: the graph
            # is disconnected around them — return the partial broadcast.
            return self._finish(trace, round_no)
        for node, slot, kind in added:
            self.forced.setdefault(slot, set()).add(node)
            if kind == "completion":
                self.completions.append((node, slot))
            else:
                self.repairs.append((node, slot))
        return None

    def _finish(self, trace: BroadcastTrace,
                round_no: int) -> CompiledBroadcast:
        return CompiledBroadcast(
            topology_name=self.topology.name, source=self.source,
            schedule=trace.as_schedule(), trace=trace, plan=self.plan,
            completions=self.completions, repairs=self.repairs,
            rounds=round_no)

    def round_cap(self, max_rounds: int) -> CompilationError:
        return CompilationError(
            f"schedule compilation exceeded {max_rounds} rounds on "
            f"{self.topology.name} (source "
            f"{self.topology.coord(self.source)})")


def _prune_dropped(trace: BroadcastTrace, forced: Dict[int, Set[int]],
                   completions: List[Tuple[int, int]],
                   repairs: List[Tuple[int, int]]) -> None:
    """Remove forced transmissions that could not execute (node uninformed
    at its slot) so later rounds can re-place them.

    Membership runs against a set of the dropped ``(node, slot)`` pairs —
    a single rebuild filters every occurrence at once, where the previous
    per-entry ``list.remove`` was an O(n) scan per drop *and* silently
    left duplicate entries behind.
    """
    if not trace.dropped_forced:
        return
    dropped = {(node, slot) for slot, node in trace.dropped_forced}
    for slot, node in trace.dropped_forced:
        nodes = forced.get(slot)
        if nodes and node in nodes:
            nodes.discard(node)
            if not nodes:
                del forced[slot]
    completions[:] = [entry for entry in completions if entry not in dropped]
    repairs[:] = [entry for entry in repairs if entry not in dropped]


def _plan_fixes(
    topology: Topology,
    trace: BroadcastTrace,
    forced: Dict[int, Set[int]],
    unreached: np.ndarray,
    plan: RelayPlan,
    *,
    allow_completion: bool,
    allow_repair: bool,
    dead_mask=None,
) -> List[Tuple[int, int, str]]:
    """Choose this round's extra transmissions.

    Returns ``(node, slot, kind)`` additions, ``kind`` in
    {"completion", "repair"}.  The greedy runs on plain Python data: the
    per-node arrays are read once as lists and neighbourhoods come from
    the topology's sorted neighbour table.
    """
    nbrs = topology.slot_kernel.neighbour_lists()
    first_rx = trace.first_rx.tolist()
    relay = plan.relay_mask.tolist()
    delay = plan.extra_delay.tolist()
    dead = (dead_mask.tolist() if dead_mask is not None
            else [False] * len(first_rx))

    # Per-slot transmitter sets: the executed trace plus pending forced,
    # and this round's additions as they are made.
    busy = trace.slot_sets()
    for slot, nodes in forced.items():
        busy.setdefault(slot, set()).update(nodes)
    ever_tx: Set[int] = set()
    for nodes in busy.values():
        ever_tx |= nodes
    horizon = (max(busy, default=0)
               + len(unreached) + 4)

    additions: List[Tuple[int, int, str]] = []
    added_nodes: Set[int] = set()          # this round's additions
    planned_rx: Dict[int, int] = {}        # unreached node -> fix slot
    idle: Set[int] = set()

    def feasible_slot(u: int, start: int) -> int:
        """Earliest slot >= start where u may transmit harmlessly."""
        s = max(start, first_rx[u] + 1)
        while s <= horizon:
            if u not in busy.get(s, idle) and _harmless(u, s):
                return s
            s += 1
        return -1

    def _harmless(u: int, s: int) -> bool:
        """Adding u's tx at s must not destroy an existing or planned
        first reception of any of u's neighbours, nor trigger a relay
        cascade that destroys one a slot later."""
        busy_s = busy.get(s, idle)
        for w in nbrs[u]:
            if first_rx[w] == s and w not in busy_s:
                return False
            if planned_rx.get(w, -1) == s:
                return False
            # cascade safety: an unreached relay w informed at s will fire
            # at s + 1 + delay; that firing must not collide with an
            # established first reception of w's neighbours.
            if first_rx[w] < 0 and relay[w]:
                fire = s + 1 + delay[w]
                busy_fire = busy.get(fire, idle)
                for x in nbrs[w]:
                    if first_rx[x] == fire and x not in busy_fire:
                        return False
        return True

    def coverage(u: int, s: int) -> List[int]:
        """Unreached, unfixed neighbours of u that would decode (u, s):
        no neighbour of theirs transmits at s."""
        busy_s = busy.get(s, idle)
        out = []
        for w in nbrs[u]:
            if first_rx[w] >= 0 or w in planned_rx or dead[w]:
                continue
            for x in nbrs[w]:
                if x in busy_s:
                    break
            else:
                out.append(w)
        return out

    order = sorted(
        unreached.tolist(),
        key=lambda v: (min((first_rx[u] for u in nbrs[v]
                            if first_rx[u] >= 0), default=1 << 30), v))

    for v in order:
        if v in planned_rx or first_rx[v] >= 0:
            continue
        best: Optional[Tuple[int, int, int, str]] = None  # score,-s,-u,kind
        for u in nbrs[v]:
            if first_rx[u] < 0 or dead[u]:
                continue
            is_new_relay = u not in ever_tx and u not in added_nodes
            kind = "completion" if is_new_relay else "repair"
            if kind == "completion" and not allow_completion:
                continue
            if kind == "repair" and not allow_repair:
                continue
            s = feasible_slot(u, first_rx[u] + 1)
            if s < 0:
                continue
            covered = coverage(u, s)
            if v not in covered:
                continue
            key = (len(covered), -s, -u)
            if best is None or key > best[:3]:
                best = (len(covered), -s, -u, kind)
        if best is None:
            continue
        score, neg_s, neg_u, kind = best
        u, s = -neg_u, -neg_s
        covered = coverage(u, s)
        additions.append((u, s, kind))
        busy.setdefault(s, set()).add(u)
        added_nodes.add(u)
        for w in covered:
            planned_rx[w] = s
        planned_rx.setdefault(v, s)
    return additions
