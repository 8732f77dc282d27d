"""Exact translation of compiled broadcasts across the lattice.

A compiled broadcast is a deterministic slot-by-slot process; on an
*infinite* lattice, shifting the source by ``delta`` shifts every event by
``delta``.  On the finite grids the paper uses, that equivariance only
survives when nothing about the process "feels" a border, which this
module checks before remapping anything:

* **footprint containment** — every node that appears in any event
  (transmitters, receivers, collision sites, dropped-forced nodes, the
  source) must stay inside the grid after the shift;
* **interior transmitters** — every transmitter must have the *same
  neighbour-offset stencil* at its original and shifted position.  If a
  transmitter keeps its full stencil in both placements, its receptions
  translate exactly; receivers may sit on a border, because the extra
  neighbours their shifted image gains are images of off-grid positions
  and therefore provably non-transmitters.

When both conditions hold, the translated trace/schedule is exactly what
re-simulating the translated plan from the translated source produces
(the differential tests in ``tests/test_symmetry_reduction.py`` pin this
down).  When either fails — which is *always* the case for a broadcast
that covers the whole grid, since full coverage touches every border —
:class:`TranslationError` is raised.  This is why the symmetry-reduced
sweep (:mod:`repro.core.symmetry`) derives full-grid class members by
batched re-simulation instead of naive event translation: the paper's
border rules (2D-4 column completion, 2D-8 border continuation, clipped
B1/B2 arms, clipped Lee columns) make spanning broadcasts of same-residue
sources *not* translates of each other, and the class key's clamped
border distances only bound where that breakage can occur.  Translation
stays available — and exact — for sub-spanning broadcasts (partial
rule-phase compilations, regional repairs).

All node remapping runs through one vectorized
:meth:`~repro.topology.base.Topology.shift_index_map` pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .schedule import BroadcastSchedule
from .trace import BroadcastTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.base import CompiledBroadcast, RelayPlan
    from ..topology.base import Topology


class TranslationError(ValueError):
    """The requested shift is not an exact symmetry of the broadcast."""


def _mapped_nodes(mapped: np.ndarray, valid: np.ndarray,
                  nodes, what: str) -> np.ndarray:
    """Remap the node array *nodes* through the shift map, or raise on
    the first (row-major) node that leaves the grid."""
    nodes = np.asarray(nodes, dtype=np.int64)
    bad = ~valid[nodes]
    if bad.any():
        raise TranslationError(
            f"{what} node {int(nodes[bad][0])} leaves the grid under the "
            f"shift")
    return mapped[nodes]


def _check_transmitter_stencils(topology: "Topology", mapped: np.ndarray,
                                transmitters: Sequence[int],
                                delta: Sequence[int]) -> None:
    """Every transmitter must keep its full neighbour-offset stencil."""
    for v in transmitters:
        cv = topology.coord(v)
        cw = topology.coord(int(mapped[v]))
        offsets_here = {topology.coord_delta(cv, u)
                        for u in topology.neighbors(cv)}
        offsets_there = {topology.coord_delta(cw, u)
                         for u in topology.neighbors(cw)}
        if offsets_here != offsets_there:
            raise TranslationError(
                f"transmitter {cv} -> {cw} changes its neighbour stencil "
                f"under shift {tuple(delta)}; receptions would differ")


def translate_trace(topology: "Topology", trace: BroadcastTrace,
                    delta: Sequence[int]) -> BroadcastTrace:
    """Translate *trace* by *delta*; exact or :class:`TranslationError`."""
    mapped, valid = topology.shift_index_map(delta)

    informed = trace.first_rx >= 0
    if (informed & ~valid).any():
        bad = int(np.nonzero(informed & ~valid)[0][0])
        raise TranslationError(
            f"informed node {topology.coord(bad)} leaves the grid under "
            f"the shift {tuple(delta)}")
    transmitters = sorted(set(trace.tx[:, 1].tolist()) | {trace.source})
    _check_transmitter_stencils(topology, mapped, transmitters, delta)

    first_rx = np.full(topology.num_nodes, -1, dtype=np.int64)
    idx = np.nonzero(informed)[0]
    first_rx[mapped[idx]] = trace.first_rx[idx]

    tx = trace.tx.copy()
    tx[:, 1] = mapped[tx[:, 1]]
    rx = trace.rx.copy()
    rx[:, 1:] = _mapped_nodes(mapped, valid, rx[:, 1:], "rx")
    coll = trace.collisions.copy()
    coll[:, 1] = _mapped_nodes(mapped, valid, coll[:, 1], "collision")
    dropped = list(zip(
        [s for s, _ in trace.dropped_forced],
        _mapped_nodes(mapped, valid, [v for _, v in trace.dropped_forced],
                      "dropped-forced").tolist()))
    return BroadcastTrace(
        num_nodes=topology.num_nodes, source=int(mapped[trace.source]),
        first_rx=first_rx, tx=tx, rx=rx, collisions=coll,
        dropped_forced=dropped)


def translate_schedule(topology: "Topology", schedule: BroadcastSchedule,
                       delta: Sequence[int]) -> BroadcastSchedule:
    """Translate a static schedule by *delta* (footprint check only)."""
    mapped, valid = topology.shift_index_map(delta)
    out = BroadcastSchedule()
    for slot in schedule.active_slots():
        for w in _mapped_nodes(mapped, valid,
                               sorted(schedule.transmitters(slot)),
                               "scheduled").tolist():
            out.add(slot, w)
    return out


def translate_plan(topology: "Topology", plan: "RelayPlan",
                   delta: Sequence[int]) -> "RelayPlan":
    """Translate a relay plan by *delta*.

    Relay/retransmitter designations whose shifted position leaves the
    grid are dropped (they are annotated in ``notes``); the caller —
    :func:`translate_compiled` — separately guarantees that no *executed*
    transmission is among them, so the dropped designations are exactly
    the ones that never fire.
    """
    from ..core.base import RelayPlan
    mapped, valid = topology.shift_index_map(delta)
    n = topology.num_nodes
    relay_mask = np.zeros(n, dtype=bool)
    extra_delay = np.zeros(n, dtype=np.int64)
    keep = plan.relay_mask & valid
    relay_mask[mapped[keep]] = True
    extra_delay[mapped[valid]] = plan.extra_delay[valid]
    repeats = {int(mapped[v]): offs
               for v, offs in plan.repeat_offsets.items() if valid[v]}
    dropped_relays = int((plan.relay_mask & ~valid).sum())
    dropped_repeats = sum(1 for v in plan.repeat_offsets if not valid[v])
    notes = dict(plan.notes)
    notes["translation"] = {
        "delta": tuple(int(d) for d in delta),
        "dropped_relays": dropped_relays,
        "dropped_retransmitters": dropped_repeats,
    }
    return RelayPlan(relay_mask=relay_mask, extra_delay=extra_delay,
                     repeat_offsets=repeats, notes=notes)


def translate_compiled(topology: "Topology", compiled: "CompiledBroadcast",
                       delta: Sequence[int]) -> "CompiledBroadcast":
    """Translate a :class:`~repro.core.base.CompiledBroadcast` by *delta*.

    Exact by construction when it returns: the translated schedule, trace
    (``first_rx`` and every tx/rx/collision event), plan masks/notes and
    completion/repair fix lists are the originals remapped through one
    vectorized index-translation pass, and the guard conditions (module
    docstring) guarantee that re-simulating the translated plan from the
    translated source reproduces the translated trace event for event.
    Raises :class:`TranslationError` otherwise — in particular for every
    full-coverage broadcast with ``delta != 0``.
    """
    from ..core.base import CompiledBroadcast
    mapped, valid = topology.shift_index_map(delta)
    trace = translate_trace(topology, compiled.trace, delta)
    schedule = translate_schedule(topology, compiled.schedule, delta)
    plan = translate_plan(topology, compiled.plan, delta)
    fixes = {}
    for kind, entries in (("completions", compiled.completions),
                          ("repairs", compiled.repairs)):
        nodes = _mapped_nodes(mapped, valid, [v for v, _ in entries],
                              kind).tolist()
        fixes[kind] = [(w, s) for w, (_, s) in zip(nodes, entries)]
    return CompiledBroadcast(
        topology_name=compiled.topology_name,
        source=trace.source,
        schedule=schedule, trace=trace, plan=plan,
        completions=fixes["completions"], repairs=fixes["repairs"],
        rounds=compiled.rounds)
