"""Per-node reference builders of the 2D-3, 2D-8 and 3D-6 relay plans.

The protocols build their plans as array expressions over the grid
coordinates.  These functions are the same rules written the way the
paper states them: one node at a time, with coordinate tuples and
``topology.index`` lookups.  ``tests/test_plan_oracle.py`` holds the
array-built plans equal to them field for field.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.core.base import RelayPlan
from repro.core.mesh2d3 import staircase_seeds
from repro.core.mesh2d4 import relay_columns, retransmitter_columns
from repro.core.mesh2d8 import border_continuation, relay_s2_values
from repro.core.regions import RegionPartition, partition
from repro.topology import diagonal, lee
from repro.topology.mesh2d import Mesh2D3, Mesh2D8
from repro.topology.mesh3d import Mesh3D6


def plan_2d3(topology: Mesh2D3, source) -> RelayPlan:
    """Rules R1-R4 with extended bands, liveness fallback and the B2
    entry-node stagger, node by node."""
    i, j = source
    m, n = topology.m, topology.n

    part: RegionPartition = partition(topology, (i, j))
    seeds = staircase_seeds(m, n, i, j)

    b1_values: Set[int] = set()
    b2_values: Set[int] = set()
    for x0 in seeds:
        b1_values.update(diagonal.b1_values(topology, (x0, j)))
        b2_values.update(diagonal.b2_values(topology, (x0, j)))
    src_b1 = set(diagonal.b1_values(topology, (i, j)))
    src_b2 = set(diagonal.b2_values(topology, (i, j)))

    source_left = i <= m / 2

    def b1_pair_of(v: int) -> Tuple[int, int]:
        anchor = sorted(diagonal.b1_values(topology, (i, j)))[1]
        offset = ((v - anchor + 2) % 4) - 2
        c = v - offset
        return (c, c - 1)

    def b2_pair_of(v: int) -> Tuple[int, int]:
        anchor = sorted(diagonal.b2_values(topology, (i, j)))[0]
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
        in_b1 = (x + y) in b1_values and b1_live(x + y)
        in_b2 = (x - y) in b2_values and b2_live(x - y)
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
        if (x - y) in b2_values and (x + y) not in b1_values:
            plan.extra_delay[idx] = 1

    plan.notes = {
        "source": (i, j),
        "seeds": seeds,
        "b1_values": sorted(b1_values),
        "b2_values": sorted(b2_values),
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

    for coord in diagonal.s1_set(topology, i + j):
        plan.relay_mask[topology.index(coord)] = True

    s2_values = relay_s2_values(topology, i, j)
    for c in s2_values:
        for coord in diagonal.s2_set(topology, c):
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

    zrelay_xy = lee.lee_points(m, n, (i, j))
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
        "lee_gaps_per_plane": sorted(lee.lee_cover_gaps(m, n, (i, j))),
    }
    return plan


ORACLES = {"2D-3": plan_2d3, "2D-8": plan_2d8, "3D-6": plan_3d6}
