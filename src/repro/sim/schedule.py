"""Broadcast transmission schedules.

A :class:`BroadcastSchedule` is the compiled form of a broadcast protocol:
for each time slot, the set of nodes that transmit in that slot.  Protocols
*compile* to a schedule (offline, exploiting the known regular topology —
exactly the paper's stance), and the simulator *executes* schedules.

Slots are 1-based; the source transmits in slot 1.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np


class BroadcastSchedule:
    """Mapping ``slot -> set of transmitting node indices``.

    Node indices are the topology's 0-based flattened indices.  The class
    is a thin, well-checked container: it guarantees slots are positive and
    that a node transmits at most once per slot.
    """

    def __init__(self) -> None:
        self._slots: Dict[int, Set[int]] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Tuple[int, int]]
                    ) -> "BroadcastSchedule":
        """Build from ``(slot, node)`` pairs."""
        sched = cls()
        for slot, node in events:
            sched.add(slot, node)
        return sched

    def add(self, slot: int, node: int) -> None:
        """Schedule *node* to transmit in *slot* (idempotent)."""
        if slot < 1:
            raise ValueError(f"slots are 1-based, got {slot}")
        if node < 0:
            raise ValueError(f"node index must be >= 0, got {node}")
        self._slots.setdefault(int(slot), set()).add(int(node))

    def remove(self, slot: int, node: int) -> None:
        """Remove a scheduled transmission; raises if absent."""
        self._slots[slot].remove(node)
        if not self._slots[slot]:
            del self._slots[slot]

    def merge(self, other: "BroadcastSchedule") -> "BroadcastSchedule":
        """New schedule containing the transmissions of both."""
        merged = BroadcastSchedule()
        for slot, nodes in self._slots.items():
            for v in nodes:
                merged.add(slot, v)
        for slot, nodes in other._slots.items():
            for v in nodes:
                merged.add(slot, v)
        return merged

    def copy(self) -> "BroadcastSchedule":
        """Deep copy."""
        dup = BroadcastSchedule()
        for slot, nodes in self._slots.items():
            dup._slots[slot] = set(nodes)
        return dup

    # -- queries ----------------------------------------------------------

    def transmitters(self, slot: int) -> Set[int]:
        """Set of nodes transmitting in *slot* (empty set if none)."""
        return set(self._slots.get(slot, ()))

    def transmitter_mask(self, slot: int, num_nodes: int) -> np.ndarray:
        """Boolean transmit mask for *slot* (vectorised engine input)."""
        mask = np.zeros(num_nodes, dtype=bool)
        nodes = self._slots.get(slot)
        if nodes:
            mask[list(nodes)] = True
        return mask

    def slots_of(self, node: int) -> List[int]:
        """Sorted slots in which *node* transmits."""
        return sorted(s for s, nodes in self._slots.items() if node in nodes)

    def first_slot_of(self, node: int) -> int:
        """First slot in which *node* transmits, or -1 if it never does."""
        slots = self.slots_of(node)
        return slots[0] if slots else -1

    def transmitting_nodes(self) -> Set[int]:
        """Every node that transmits at least once."""
        out: Set[int] = set()
        for nodes in self._slots.values():
            out |= nodes
        return out

    @property
    def num_transmissions(self) -> int:
        """Total transmission count (the paper's ``T_x``)."""
        return sum(len(nodes) for nodes in self._slots.values())

    @property
    def max_slot(self) -> int:
        """Largest occupied slot (0 for an empty schedule)."""
        return max(self._slots, default=0)

    def active_slots(self) -> List[int]:
        """Sorted list of slots with at least one transmission."""
        return sorted(self._slots)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(slot, node)`` in deterministic order."""
        for slot in sorted(self._slots):
            for node in sorted(self._slots[slot]):
                yield (slot, node)

    def __len__(self) -> int:
        return self.num_transmissions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BroadcastSchedule):
            return NotImplemented
        return self._slots == other._slots

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(slots, nodes)`` int64 arrays in :meth:`__iter__` order:
        slots ascending, nodes ascending within a slot."""
        slots = sorted(self._slots)
        counts = [len(self._slots[s]) for s in slots]
        nodes = np.fromiter(
            chain.from_iterable(sorted(self._slots[s]) for s in slots),
            np.int64, sum(counts))
        return np.repeat(np.array(slots, dtype=np.int64), counts), nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<BroadcastSchedule tx={self.num_transmissions} "
                f"slots=1..{self.max_slot}>")
