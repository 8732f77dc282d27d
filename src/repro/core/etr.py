"""Efficient Transmission Ratio (ETR) — the paper's relay-selection metric.

Section 3: "Assume that the total number of neighbors is denoted as N and
the number of neighbors that receive a non-duplicated message after the
transmission is denoted as M.  The efficient transmission ratio (ETR) is
defined as ETR = M/N."

Only the source can reach ETR = 1; any other node's optimum is bounded by
the fact that the neighbour it received from already has the message.  The
per-topology optima (Table 1) additionally account for geometry — e.g. in
the 2D-8 mesh a diagonal hop leaves 3 of the 8 neighbours already covered
by the previous transmitter, so the optimum is 5/8, not 7/8.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Set, Tuple

import numpy as np

from ..sim.trace import BroadcastTrace
from ..topology.base import Topology

#: Table 1 of the paper: optimal ETR per topology.  The 2D-6 hexagonal
#: row is our extension (the lattice from the paper's reference [12]):
#: adjacent hex nodes share two common neighbours, so a relay informs at
#: most 6 - 1 - 2 = 3 new nodes.
OPTIMAL_ETR: Dict[str, Fraction] = {
    "2D-3": Fraction(2, 3),
    "2D-4": Fraction(3, 4),
    "2D-6": Fraction(1, 2),
    "2D-8": Fraction(5, 8),
    "3D-6": Fraction(5, 6),
}

#: Max new (non-duplicated) receivers per relay transmission — the M of
#: the ideal-case model.  Stated explicitly (not as ETR numerators)
#: because the hex ratio 3/6 reduces to 1/2.
OPTIMAL_NEW_PER_TX: Dict[str, int] = {
    "2D-3": 2,
    "2D-4": 3,
    "2D-6": 3,
    "2D-8": 5,
    "3D-6": 5,
}


def optimal_etr(label: str) -> Fraction:
    """Optimal per-relay ETR of topology *label* (paper Table 1)."""
    try:
        return OPTIMAL_ETR[label]
    except KeyError:
        raise ValueError(
            f"no optimal ETR known for {label!r}; expected one of "
            f"{sorted(OPTIMAL_ETR)}") from None


def transmission_etr(topology: Topology, transmitter: int,
                     informed_before: Set[int]) -> Fraction:
    """ETR of a single transmission: fraction of the transmitter's
    neighbours that did not already hold the message.

    *informed_before* is the set of informed node indices just before the
    transmission (the transmitter itself must be in it).
    """
    nbrs = topology.neighbor_indices(transmitter)
    if len(nbrs) == 0:
        return Fraction(0, 1)
    fresh = sum(1 for v in nbrs if int(v) not in informed_before)
    return Fraction(fresh, len(nbrs))


def trace_etrs(topology: Topology,
               trace: BroadcastTrace) -> List[Tuple[int, int, Fraction]]:
    """Per-transmission ETR history of a trace.

    Returns ``(slot, transmitter, etr)`` tuples in chronological order.
    The ETR of each transmission is evaluated against the set of nodes
    informed strictly before its slot (matching the paper's definition of
    "non-duplicated message after the transmission").
    """
    out: List[Tuple[int, int, Fraction]] = []
    first_rx = trace.first_rx
    for slot, v in trace.tx.tolist():
        informed = {int(u) for u in np.nonzero(
            (first_rx >= 0) & (first_rx < slot))[0]}
        out.append((slot, v, transmission_etr(topology, v, informed)))
    return out


def optimal_etr_fraction(topology: Topology, trace: BroadcastTrace,
                         label: str | None = None) -> float:
    """Fraction of *relay* transmissions achieving the optimal ETR.

    The paper claims "most of the relay nodes can achieve optimal ETR".
    The source (ETR 1) and border relays (degree < nominal, so their N is
    smaller) are excluded from the denominator, matching the paper's
    interior-node argument.
    """
    label = label or topology.name
    target = optimal_etr(label)
    history = trace_etrs(topology, trace)
    degrees = topology.degrees
    considered = 0
    optimal = 0
    for slot, v, etr in history:
        if v == trace.source:
            continue
        if degrees[v] < topology.nominal_degree:
            continue
        considered += 1
        if etr >= target:
            optimal += 1
    if considered == 0:
        return 0.0
    return optimal / considered


def diagonal_vs_axis_etr(label: str = "2D-8") -> Tuple[Fraction, Fraction]:
    """The Fig. 6 argument: ETR of a diagonal vs an axis hop in 2D-8.

    When an interior 2D-8 node receives from a diagonal neighbour and
    relays, 5 of its 8 neighbours are new (ETR 5/8); when it receives from
    an axis neighbour, only 3 are new (ETR 3/8).  Computed from first
    principles on a concrete lattice rather than hard-coded.
    """
    from ..topology.mesh2d import Mesh2D8
    if label != "2D-8":
        raise ValueError("the diagonal-vs-axis argument is specific to 2D-8")
    mesh = Mesh2D8(7, 7)
    centre = (4, 4)
    diag_prev = (3, 5)   # received along the diagonal
    axis_prev = (3, 4)   # received along the X axis
    out = []
    for prev in (diag_prev, axis_prev):
        informed = {mesh.index(prev)} | {
            mesh.index(c) for c in mesh.neighbors(prev)}
        informed.add(mesh.index(centre))
        out.append(transmission_etr(mesh, mesh.index(centre), informed))
    return (out[0], out[1])
