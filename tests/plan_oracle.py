"""Per-node reference builders of the 2D-3, 2D-8 and 3D-6 relay plans.

The protocols build their plans as array expressions over the grid
coordinates.  These functions are the same rules written the way the
paper states them: one node at a time, with coordinate tuples and
``topology.index`` lookups.  ``tests/test_plan_oracle.py`` holds the
array-built plans equal to them field for field.

The paper's vocabulary the rules are stated in lives here too: the S1/S2
diagonal sets and B1/B2 staircases (Section 3), the 2D-3 region
partition (Section 3.3) and the R5 lattice points and their border gaps
(Section 3.4).  The package computes the same sets as masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.base import RelayPlan
from repro.core.mesh2d3 import staircase_seeds
from repro.core.mesh2d4 import relay_columns, retransmitter_columns
from repro.core.mesh2d8 import border_continuation, relay_s2_values
from repro.core.regions import base_nodes
from repro.topology import lee
from repro.topology.coords import Coord2D
from repro.topology.mesh2d import Mesh2D3, Mesh2D8, _Mesh2DBase
from repro.topology.mesh3d import Mesh3D6

# -- the paper's vocabulary --------------------------------------------


def s1_value(coord: Coord2D) -> int:
    """The S1 diagonal constant ``x + y`` of *coord*."""
    x, y = coord
    return x + y


def s2_value(coord: Coord2D) -> int:
    """The S2 diagonal constant ``x - y`` of *coord*."""
    x, y = coord
    return x - y


def s1_indices(mesh: _Mesh2DBase, c: int) -> np.ndarray:
    """0-based node indices of ``S1(c)``, ordered by x (vectorised).

    Index arithmetic: no coordinate tuples are materialised.
    """
    x = np.arange(max(1, c - mesh.n), min(mesh.m, c - 1) + 1, dtype=np.int64)
    y = c - x
    return x - 1 + (y - 1) * mesh.m


def s2_indices(mesh: _Mesh2DBase, c: int) -> np.ndarray:
    """0-based node indices of ``S2(c)``, ordered by x (vectorised)."""
    x = np.arange(max(1, c + 1), min(mesh.m, c + mesh.n) + 1, dtype=np.int64)
    y = x - c
    return x - 1 + (y - 1) * mesh.m


def s1_range(mesh: _Mesh2DBase) -> Tuple[int, int]:
    """Inclusive range of S1 constants with nonempty in-grid sets."""
    return (2, mesh.m + mesh.n)


def s1_set(mesh: _Mesh2DBase, c: int) -> List[Coord2D]:
    """All in-grid nodes of ``S1(c)`` (``x + y == c``), sorted by x."""
    out = []
    for x in range(max(1, c - mesh.n), min(mesh.m, c - 1) + 1):
        y = c - x
        if 1 <= y <= mesh.n:
            out.append((x, y))
    return out


def s2_set(mesh: _Mesh2DBase, c: int) -> List[Coord2D]:
    """All in-grid nodes of ``S2(c)`` (``x - y == c``), sorted by x."""
    out = []
    for x in range(max(1, c + 1), min(mesh.m, c + mesh.n) + 1):
        y = x - c
        if 1 <= y <= mesh.n:
            out.append((x, y))
    return out


def b1_values(mesh: Mesh2D3, base: Coord2D) -> Tuple[int, int]:
    """The two S1 constants of ``B1(base)`` per the paper's rule.

    "If node (i, j+1) is node (i, j)'s neighbour then
    ``B1(i,j) = S1(i+j) ∪ S1(i+j+1)`` else ``B1(i,j) = S1(i+j) ∪ S1(i+j-1)``."
    """
    i, j = base
    c = i + j
    if mesh.has_up_neighbor(base):
        return (c, c + 1)
    return (c, c - 1)


def b2_values(mesh: Mesh2D3, base: Coord2D) -> Tuple[int, int]:
    """The two S2 constants of ``B2(base)`` per the paper's rule.

    "If node (i, j+1) is node (i, j)'s neighbour then
    ``B2(i,j) = S2(i-j) ∪ S2(i-j-1)`` else ``B2(i,j) = S2(i-j) ∪ S2(i-j+1)``."
    """
    i, j = base
    c = i - j
    if mesh.has_up_neighbor(base):
        return (c, c - 1)
    return (c, c + 1)


def b1_set(mesh: Mesh2D3, base: Coord2D) -> Set[Coord2D]:
    """Nodes of the ``B1`` staircase (paired anti-diagonals) through *base*.

    In the brick lattice the union of the two adjacent S1 diagonals is a
    connected zig-zag path running up-left / down-right from *base*.
    """
    ca, cb = b1_values(mesh, base)
    return set(s1_set(mesh, ca)) | set(s1_set(mesh, cb))


def b2_set(mesh: Mesh2D3, base: Coord2D) -> Set[Coord2D]:
    """Nodes of the ``B2`` staircase (paired main diagonals) through *base*.

    A connected zig-zag path running up-right / down-left from *base*.
    """
    ca, cb = b2_values(mesh, base)
    return set(s2_set(mesh, ca)) | set(s2_set(mesh, cb))


@dataclass(frozen=True)
class RegionPartition:
    """The base nodes and region predicates for a 2D-3 source."""

    source: Coord2D
    base_a: Coord2D
    base_b: Coord2D

    def region_of(self, coord: Coord2D) -> int:
        """Region number (1, 2 or 3) of *coord*.

        Region 2 is checked first, then region 3, mirroring the paper's
        "Otherwise, if ... Otherwise region 1" phrasing.
        """
        x, y = coord
        ia, ja = self.base_a
        ib, jb = self.base_b
        if x + y <= ia + ja and x - y >= ia - ja:
            return 2
        if x + y >= ib + jb and x - y <= ib - jb:
            return 3
        return 1


def partition(mesh: Mesh2D3, source: Coord2D) -> RegionPartition:
    """Build the :class:`RegionPartition` for *source*."""
    if not mesh.contains(source):
        raise ValueError(f"source {source} not in {mesh!r}")
    a, b = base_nodes(mesh, source)
    return RegionPartition(source=tuple(source), base_a=a, base_b=b)


def lee_points(m: int, n: int, seed: Coord2D) -> List[Coord2D]:
    """All R5-lattice points inside the 1-based ``m x n`` grid, for a
    lattice rooted at *seed*.  Sorted for determinism."""
    sx, sy = seed
    out = []
    for y in range(1, n + 1):
        for x in range(1, m + 1):
            if lee.is_lee_lattice_point(x - sx, y - sy):
                out.append((x, y))
    return out


def lee_cover_gaps(m: int, n: int, seed: Coord2D) -> Set[Coord2D]:
    """Grid nodes NOT covered by any in-grid lattice point's Lee sphere.

    In the unbounded plane the tiling is perfect, so gaps only appear where
    a covering lattice point falls outside the grid border.  These are
    exactly the nodes for which the paper adds "additional relay nodes in
    the border" (the gray nodes of Fig. 9).
    """
    return set(lee.uncovered_nodes(lee.lee_mask(m, n, seed)))


# -- the relay plans ----------------------------------------------------


def plan_2d3(topology: Mesh2D3, source) -> RelayPlan:
    """Rules R1-R4 with extended bands, liveness fallback and the B2
    entry-node stagger, node by node."""
    i, j = source
    m, n = topology.m, topology.n

    part: RegionPartition = partition(topology, (i, j))
    seeds = staircase_seeds(m, n, i, j)

    b1_consts: Set[int] = set()
    b2_consts: Set[int] = set()
    for x0 in seeds:
        b1_consts.update(b1_values(topology, (x0, j)))
        b2_consts.update(b2_values(topology, (x0, j)))
    src_b1 = set(b1_values(topology, (i, j)))
    src_b2 = set(b2_values(topology, (i, j)))

    source_left = i <= m / 2

    def b1_pair_of(v: int) -> Tuple[int, int]:
        anchor = sorted(b1_values(topology, (i, j)))[1]
        offset = ((v - anchor + 2) % 4) - 2
        c = v - offset
        return (c, c - 1)

    def b2_pair_of(v: int) -> Tuple[int, int]:
        anchor = sorted(b2_values(topology, (i, j)))[0]
        offset = ((v - anchor + 1) % 4) - 1
        c = v - offset
        return (c, c + 1)

    def b1_live(v: int) -> bool:
        return any(1 <= c - j <= m for c in b1_pair_of(v))

    def b2_live(v: int) -> bool:
        return any(1 <= c + j <= m for c in b2_pair_of(v))

    plan = RelayPlan.empty(topology.num_nodes)
    for idx in range(topology.num_nodes):
        x, y = topology.coord(idx)
        if y == j:
            plan.relay_mask[idx] = True
            continue
        in_b1 = (x + y) in b1_consts and b1_live(x + y)
        in_b2 = (x - y) in b2_consts and b2_live(x - y)
        if not (in_b1 or in_b2):
            continue
        if ((x + y) in src_b1 and in_b1) or ((x - y) in src_b2 and in_b2):
            plan.relay_mask[idx] = True
            continue
        region = part.region_of((x, y))
        if region == 1:
            upper_right = x >= i and y >= j
            lower_left = x <= i and y <= j
            natural_b1 = upper_right or lower_left
        elif region == 3:
            natural_b1 = source_left
        else:
            natural_b1 = not source_left
        if natural_b1:
            if in_b1:
                plan.relay_mask[idx] = True
            elif in_b2 and not b1_live(x + y):
                plan.relay_mask[idx] = True
        else:
            if in_b2:
                plan.relay_mask[idx] = True
            elif in_b1 and not b2_live(x - y):
                plan.relay_mask[idx] = True

    for idx in range(topology.num_nodes):
        if not plan.relay_mask[idx]:
            continue
        x, y = topology.coord(idx)
        if abs(y - j) != 1:
            continue
        if y + Mesh2D3.vertical_neighbor_offset(x, y) != j:
            continue
        if (x - y) in b2_consts and (x + y) not in b1_consts:
            plan.extra_delay[idx] = 1

    plan.notes = {
        "source": (i, j),
        "seeds": seeds,
        "b1_values": sorted(b1_consts),
        "b2_values": sorted(b2_consts),
        "base_a": part.base_a,
        "base_b": part.base_b,
        "source_left": source_left,
    }
    return plan


def plan_2d8(topology: Mesh2D8, source) -> RelayPlan:
    """Source anti-diagonal, every fifth main diagonal, the border
    continuation with its delays and the two retransmitters."""
    i, j = source
    plan = RelayPlan.empty(topology.num_nodes)

    for coord in s1_set(topology, i + j):
        plan.relay_mask[topology.index(coord)] = True

    s2_values = relay_s2_values(topology, i, j)
    for c in s2_values:
        for coord in s2_set(topology, c):
            plan.relay_mask[topology.index(coord)] = True

    border = border_continuation(topology, i, j)
    s2_set_values = set(s2_values)
    m, n = topology.m, topology.n
    for coord in border:
        idx = topology.index(coord)
        plan.relay_mask[idx] = True
        x, y = coord
        if y == 1 and x > 1:
            prev = (x - 1, 1)
        elif y == n and x < m:
            prev = (x + 1, n)
        elif x == 1 and y > 1:
            prev = (1, y - 1)
        elif x == m and y < n:
            prev = (m, y + 1)
        else:
            continue
        if (prev[0] - prev[1]) in s2_set_values:
            plan.extra_delay[idx] = 1

    repeats: Dict[int, Tuple[int, ...]] = {}
    for coord in ((i + 1, j - 1), (i - 1, j + 1)):
        if topology.contains(coord):
            repeats[topology.index(coord)] = (1,)
    plan.repeat_offsets = repeats
    plan.notes = {
        "source": (i, j),
        "s1_value": i + j,
        "s2_values": s2_values,
        "border_continuation": border,
        "retransmitters": [c for c in ((i + 1, j - 1), (i - 1, j + 1))
                           if topology.contains(c)],
    }
    return plan


def plan_3d6(topology: Mesh3D6, source) -> RelayPlan:
    """The 2D-4 plan in the source plane plus the R5 z-relay columns."""
    i, j, k = source
    m, n, l = topology.m, topology.n, topology.l

    plan = RelayPlan.empty(topology.num_nodes)
    repeats: Dict[int, Tuple[int, ...]] = {}

    for x in range(1, m + 1):
        plan.relay_mask[topology.index((x, j, k))] = True
    cols = relay_columns(m, i)
    for x in cols:
        for y in range(1, n + 1):
            plan.relay_mask[topology.index((x, y, k))] = True
    retrans = retransmitter_columns(m, i)
    for x in retrans:
        repeats[topology.index((x, j, k))] = (1,)

    zrelay_xy = lee_points(m, n, (i, j))
    for (x, y) in zrelay_xy:
        for w in range(1, l + 1):
            idx = topology.index((x, y, w))
            plan.relay_mask[idx] = True
            if w == k and (x, y) != (i, j):
                plan.extra_delay[idx] = 1

    for w in (k - 1, k + 1):
        if 1 <= w <= l:
            repeats[topology.index((i, j, w))] = (2,)

    plan.repeat_offsets = repeats
    plan.notes = {
        "source": (i, j, k),
        "plane_columns": cols,
        "plane_retransmitters": retrans,
        "zrelay_columns": zrelay_xy,
        "zrelay_count_per_plane": len(zrelay_xy),
        "lee_gaps_per_plane": sorted(lee_cover_gaps(m, n, (i, j))),
    }
    return plan


ORACLES = {"2D-3": plan_2d3, "2D-8": plan_2d8, "3D-6": plan_3d6}
