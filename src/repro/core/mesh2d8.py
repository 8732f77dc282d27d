"""Broadcasting protocol for the 2D mesh with 8 neighbours (Section 3.2).

In the 2D-8 mesh a *diagonal* hop is worth more than an axis hop: relaying
a message just received from a diagonal neighbour reaches 5 new nodes
(ETR 5/8) versus 3 (ETR 3/8) for an axis hop — the Fig. 6 argument.  The
protocol therefore builds its relay structure entirely out of diagonals:

* the two diagonals through the source, ``S1(i+j)`` and ``S2(i-j)``, are
  the basic relays;
* every fifth main diagonal, ``S2(i-j+5k)``, also relays.  A relaying S2
  diagonal covers the five diagonals ``c-2 .. c+2`` (its line sweep plus
  the diagonally adjacent nodes two diagonals away), so spacing 5 tiles
  the mesh exactly — which is why the paper picked 5;
* the S1 diagonal crosses every S2 diagonal and seeds the relay diagonals
  as its wave passes (no explicit coordination needed — the relays fire
  reactively on first reception);
* **designated retransmitters**: the source's four diagonal neighbours all
  fire in slot 2, colliding at the four axis nodes two hops out
  (``(i±2, j)``, ``(i, j±2)``).  Per the paper, ``(i+1, j-1)`` retransmits
  next slot (covering ``(i+2, j)`` and ``(i, j-2)``); symmetrically we let
  ``(i-1, j+1)`` fix the other two.  Collisions further out resolve
  themselves: the next S1 wavefront covers the collided nodes, exactly as
  the paper's ``(i+3, j-3)/(i+3, j-2)`` example explains.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..topology import diagonal
from ..topology.base import Topology
from ..topology.mesh2d import Mesh2D8
from .base import BroadcastProtocol, RelayPlan


def relay_s2_values(mesh: Mesh2D8, i: int, j: int) -> List[int]:
    """S2 constants of the relay diagonals: ``i - j + 5k`` clipped to the
    grid's S2 range (paper: ``-n <= i-j+5k <= m``)."""
    lo, hi = diagonal.s2_range(mesh)
    base = i - j
    start = base - 5 * ((base - lo) // 5)
    return list(range(start, hi + 1, 5))


def border_continuation(mesh: Mesh2D8, i: int, j: int) -> List[tuple]:
    """Border relays that carry the seed wave past the S1 diagonal's ends.

    The S1 diagonal through the source seeds every S2 relay diagonal it
    passes; on elongated grids it is clipped by the border before reaching
    the outermost S2 diagonals (e.g. the paper's own 32x16 mesh with a
    central source).  Continuing the sweep along the border from each S1
    endpoint — the direct analogue of the 2D-4 protocol's border-column
    rule — seeds the rest.  Returns the border relay coordinates.
    """
    m, n = mesh.m, mesh.n
    c = i + j
    out: List[tuple] = []
    # Upper-left end of the in-grid S1 segment.
    x1, y1 = (c - n, n) if c - n >= 1 else (1, c - 1)
    if y1 == n:
        out.extend((x, n) for x in range(1, x1))
    if x1 == 1 and y1 < n:
        out.extend((1, y) for y in range(y1 + 1, n + 1))
    # Lower-right end of the in-grid S1 segment.
    x2, y2 = (c - 1, 1) if c - 1 <= m else (m, c - m)
    if y2 == 1:
        out.extend((x, 1) for x in range(x2 + 1, m + 1))
    if x2 == m and y2 > 1:
        out.extend((m, y) for y in range(1, y2))
    return out


class Mesh2D8Protocol(BroadcastProtocol):
    """The paper's 2D-8 broadcast protocol."""

    name = "2D-8"

    def source_class_key(self, topology: Topology, source):
        """Symmetry class of *source*: the ``S2 = i - j`` anti-diagonal
        residue mod 5 (the relay diagonal period) plus border distances
        clamped at radius 2 (the border-continuation rule and the
        staggered border delays react to the two outermost rows and
        columns)."""
        if not isinstance(topology, Mesh2D8) \
                or not topology.contains(tuple(source)):
            return None
        i, j = source
        m, n = topology.m, topology.n
        return ("2D-8", (i - j) % 5,
                min(i - 1, 2), min(m - i, 2),
                min(j - 1, 2), min(n - j, 2))

    def relay_plan(self, topology: Topology, source) -> RelayPlan:
        if not isinstance(topology, Mesh2D8):
            raise TypeError(f"expected Mesh2D8, got {type(topology).__name__}")
        i, j = source
        if not topology.contains((i, j)):
            raise ValueError(f"source {source} not in {topology!r}")
        m, n = topology.m, topology.n

        # Basic relays: the anti-diagonal through the source.  Relay
        # diagonals: every fifth S2 diagonal (includes S2(i-j)); the
        # clipped progression covers every in-grid S2 constant.
        x, y = topology._grid_xy()
        plan = RelayPlan.empty(topology.num_nodes)
        plan.relay_mask[:] = (x + y == i + j) | ((x - y - (i - j)) % 5 == 0)
        s2_values = relay_s2_values(topology, i, j)

        # Border continuation of the S1 seed wave.  A continuation node
        # right after a relay-diagonal crossing would fire in the same slot
        # as the diagonal's first hop (both were seeded together) and the
        # two would collide one step further along the border; delaying the
        # continuation node one slot breaks the tie.
        border = border_continuation(topology, i, j)
        for bx, by in border:
            idx = bx - 1 + (by - 1) * m
            plan.relay_mask[idx] = True
            if by == 1 and bx > 1:          # bottom sweep moves right
                prev_s2 = bx - 2
            elif by == n and bx < m:        # top sweep moves left
                prev_s2 = bx + 1 - n
            elif bx == 1 and by > 1:        # left sweep moves up
                prev_s2 = 2 - by
            elif bx == m and by < n:        # right sweep moves down
                prev_s2 = m - by - 1
            else:
                continue
            if (prev_s2 - (i - j)) % 5 == 0:
                plan.extra_delay[idx] = 1

        # Designated retransmitters around the source.
        retransmitters = [c for c in ((i + 1, j - 1), (i - 1, j + 1))
                          if topology.contains(c)]
        plan.repeat_offsets = {(cx - 1) + (cy - 1) * m: (1,)
                               for cx, cy in retransmitters}
        plan.notes = {
            "source": (i, j),
            "s1_value": i + j,
            "s2_values": s2_values,
            "border_continuation": border,
            "retransmitters": retransmitters,
        }
        return plan
