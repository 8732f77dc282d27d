"""Broadcasting protocol for the 2D mesh with 3 neighbours (Section 3.3).

The brick-wall mesh is the hardest of the four: with only one vertical
neighbour per node, pure rows/columns cannot tile the plane efficiently.
The protocol uses *staircases* — paired diagonals ``B1 = S1(c) ∪ S1(c-1)``
and ``B2 = S2(c) ∪ S2(c+1)`` (parities per the paper's rule) whose union is
a connected zig-zag path:

* **basic relays**: the whole source row plus the two staircases through
  the source, ``B1(i, j)`` and ``B2(i, j)``;
* staircases are seeded on the source row every 4 columns (``x = i + 4k``)
  — a staircase's transmissions cover a band 4 columns wide, so spacing 4
  tiles the mesh at the optimal ETR of 2/3;
* B1 staircases run up-left/down-right, B2 up-right/down-left; to stop the
  two families from fighting over territory the mesh is partitioned into
  3 regions (see :mod:`repro.core.regions`): region 1 takes B1 arms in the
  upper-right/lower-left quadrants and B2 arms in the upper-left/
  lower-right quadrants (rules R1/R2); the cones above (region 3) and
  below (region 2) the source take exactly one family each, picked by
  which half of the network the source sits in (rules R3/R4).

Two generalisations are needed for grids larger than the paper's figures
(DESIGN.md §2 and §5):

* **extended bands** — the ``i + 4k`` seeding is applied to *virtual*
  seed columns beyond the physical row, so the staircase bands tile the
  whole grid rather than only the part whose bands cross the source row;
* **liveness fallback** — bands that never cross the source row inside
  the grid cannot be seeded by the row sweep ("dead" bands); wherever a
  point's natural family has a dead band, the other family's live band is
  selected instead, so corner-source broadcasts still follow shortest
  paths.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..topology.base import Topology
from ..topology.mesh2d import Mesh2D3
from .base import BroadcastProtocol, RelayPlan
from .regions import base_nodes


def staircase_seeds(m: int, n: int, i: int, j: int) -> List[int]:
    """Seed columns ``x = i + 4k``, including virtual off-grid seeds whose
    staircase bands still intersect the grid."""
    lo = min(3 - j, j - n) - 4
    hi = max(m + n + 1 - j, m + j - 1) + 4
    start = i - 4 * ((i - lo) // 4)
    return list(range(start, hi + 1, 4))


class Mesh2D3Protocol(BroadcastProtocol):
    """The paper's 2D-3 broadcast protocol (rules R1-R4, generalised)."""

    name = "2D-3"

    def source_class_key(self, topology: Topology, source):
        """Symmetry class of *source*: column residue mod 4 (the
        staircase seeding period), the brick-lattice parity ``(i+j) mod
        2`` (it flips every node's up/down neighbour, so plans of
        opposite parity are not translates), the side of the vertical
        region split (the R1-R4 partition is anchored at the source, not
        translation-invariant), and border distances clamped at radius
        2 (B1/B2 arms clip against the two outermost rows/columns)."""
        if not isinstance(topology, Mesh2D3) \
                or not topology.contains(tuple(source)):
            return None
        i, j = source
        m, n = topology.m, topology.n
        return ("2D-3", i % 4, (i + j) % 2,
                min(i - 1, 2), min(m - i, 2),
                min(j - 1, 2), min(n - j, 2))

    def relay_plan(self, topology: Topology, source) -> RelayPlan:
        if not isinstance(topology, Mesh2D3):
            raise TypeError(f"expected Mesh2D3, got {type(topology).__name__}")
        i, j = source
        if not topology.contains((i, j)):
            raise ValueError(f"source {source} not in {topology!r}")
        m, n = topology.m, topology.n

        base_a, base_b = base_nodes(topology, (i, j))
        seeds = staircase_seeds(m, n, i, j)

        # S1 / S2 constants of every seeded staircase band.  All seeds sit
        # (virtually) on the source row and share vertical parity (period 4
        # preserves the brick parity), so every band pairs its constant
        # with the same neighbour: B1 = {c, c + e1}, B2 = {c, c - e1}.
        e1 = 1 if (i + j) % 2 == 0 else -1
        b1_values = sorted({x0 + j + d for x0 in seeds for d in (0, e1)})
        b2_values = sorted({x0 - j + d for x0 in seeds for d in (0, -e1)})
        source_left = i <= m / 2

        # u1 / u2: a node's S1 / S2 constant above the lower constant of
        # the source's own B1 / B2 pair.  The seeds reach past both ends
        # of the grid, so a node lies on a seeded band iff u % 4 < 2, and
        # on the source's own staircase iff u is 0 or 1.
        lo1 = i + j + min(e1, 0)
        lo2 = i - j - max(e1, 0)
        x, y = topology._grid_xy()
        s1 = x + y
        u1 = s1 - lo1
        u2 = x - y - lo2
        on_b1 = u1 % 4 < 2
        on_b2 = u2 % 4 < 2

        # Liveness: a staircase band can only be seeded by the source-row
        # sweep if it crosses row j inside the grid.  A node's B1 pair is
        # the one whose coverage [c-2, c+1] (c its upper constant) holds
        # x+y, its B2 pair the one whose coverage [c-1, c+2] (c its lower
        # constant) holds x-y; *pair* is that pair's offset from the
        # source's, and a pair is live when one of its bands meets row j
        # in-grid.  When a point's natural family (per rules R1-R4) has a
        # dead band there, we fall back to the other family's live band —
        # the generalisation that keeps corner-source broadcasts on
        # shortest paths (DESIGN.md §2).
        pair1 = (u1 + 1) // 4 * 4
        pair2 = (u2 + 1) // 4 * 4
        b1_live = (pair1 >= j - lo1) & (pair1 <= m + j - lo1)
        b2_live = (pair2 >= -j - lo2) & (pair2 <= m - j - lo2)
        in_b1 = on_b1 & b1_live
        in_b2 = on_b2 & b2_live
        # The source's own staircases are basic relays (selected in full).
        basic = ((pair1 == 0) & in_b1) | ((pair2 == 0) & in_b2)

        # Rules R1-R4: region 1 takes B1 in the upper-right/lower-left
        # quadrants and B2 elsewhere; the cones below (region 2) and above
        # (region 3) the source take one family each, by the source's half.
        (ia, ja), (ib, jb) = base_a, base_b
        region2 = (u1 <= ia + ja - lo1) & (u2 >= ia - ja - lo2)
        region3 = (u1 >= ib + jb - lo1) & (u2 <= ib - jb - lo2)
        quadrant_b1 = (x - i) * (y - j) >= 0
        natural_b1 = ((quadrant_b1 & ~(region2 | region3))
                      | (region3 if source_left else region2))
        ruled = np.where(natural_b1, in_b1 | (in_b2 & ~b1_live),
                         in_b2 | (in_b1 & ~b2_live))

        plan = RelayPlan.empty(topology.num_nodes)
        plan.relay_mask[:] = (y == j) | basic | ruled

        # Collision staggering: B1 and B2 arms propagate in lockstep from
        # the source row and collide wherever they cross.  Delaying every
        # B2 arm by one slot *at its first step off the row* (the arm's
        # entry node, whose vertical edge goes to the row) gives the B2
        # family a constant one-slot offset (it does not accumulate along
        # the arm, so delay stays near-optimal) and breaks the ties — the
        # same staggering device the paper applies to the 3D-6 z-relays.
        entry = y - j == s1 % 2 * 2 - 1
        plan.extra_delay[plan.relay_mask & entry & on_b2 & ~on_b1] = 1

        plan.notes = {
            "source": (i, j),
            "seeds": seeds,
            "b1_values": b1_values,
            "b2_values": b2_values,
            "base_a": base_a,
            "base_b": base_b,
            "source_left": source_left,
        }
        return plan
