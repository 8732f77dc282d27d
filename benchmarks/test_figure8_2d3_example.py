"""Figure 8 — one-to-all broadcast for 2D mesh with 3 neighbours.

Regenerates the worked example: source (10, 7) on a 20x14 brick mesh (the
figure's proportions), with the region partition and the staircase value
sets R1-R4 select: S1 pairs {16,17}, {12,13}, {8,9}, {20,21}, {24,25} and
S2 pairs {3,4}, {-1,0}, {-5,-4}, {7,8}, {11,12}.
"""

from conftest import emit

from repro.core import base_nodes, protocol_for
from repro.topology import Mesh2D3
from repro.viz import relay_map, summary_block, wave_map


def region_of(x, y, base_a, base_b):
    """Region 2 is the cone under base a, region 3 the cone above base
    b, region 1 the rest (Section 3.3)."""
    (ia, ja), (ib, jb) = base_a, base_b
    if x + y <= ia + ja and x - y >= ia - ja:
        return 2
    if x + y >= ib + jb and x - y <= ib - jb:
        return 3
    return 1


def region_map(mesh, base_a, base_b):
    lines = ["region partition (1/2/3)"]
    for y in range(mesh.n, 0, -1):
        row = " ".join(str(region_of(x, y, base_a, base_b))
                       for x in range(1, mesh.m + 1))
        lines.append(f"{y:3d} {row}")
    return "\n".join(lines)


def test_figure8_regenerates(benchmark):
    mesh = Mesh2D3(20, 14)
    proto = protocol_for(mesh)
    compiled = benchmark(lambda: proto.compile(mesh, (10, 7)))
    base_a, base_b = base_nodes(mesh, (10, 7))

    text = "\n\n".join([
        summary_block(mesh, compiled),
        f"base nodes: a={base_a}, b={base_b} "
        "(paper: a=(10,5), b=(10,8))",
        region_map(mesh, base_a, base_b),
        relay_map(mesh, compiled),
        wave_map(mesh, compiled, what="rx"),
    ])
    emit("figure8_2d3_example", text)

    assert compiled.reached_all
    assert base_a == (10, 5) and base_b == (10, 8)
    # the paper's S1/S2 value pairs are all in the selected families
    notes = compiled.plan.notes
    for c in (16, 17, 12, 13, 8, 9, 20, 21, 24, 25):
        assert c in notes["b1_values"]
    for c in (3, 4, -1, 0, -5, -4, 7, 8, 11, 12):
        assert c in notes["b2_values"]
    # relay density stays in the optimal-ETR regime (~1 relay / 2 nodes)
    relays = len({v for _, v in compiled.trace.tx_events})
    assert relays <= 0.72 * mesh.num_nodes
