"""Figure 9 — scattering across XY planes along the Z axis (3D-6).

Regenerates the z-relay structure for source (6, 8, k) on a 16x16-per-
plane mesh (the figure's plane size): the R5 lattice points, including the
paper's named examples (4,7), (5,10), (7,6), (8,9), plus the border nodes
the Lee tiling misses (the paper's gray two-slot-delayed border relays).
"""

import numpy as np
from conftest import emit

from repro.core import protocol_for
from repro.topology import Mesh3D6
from repro.topology.lee import lee_mask, uncovered_nodes
from repro.viz import relay_map, summary_block

PAPER_ZRELAY_EXAMPLES = [(4, 7), (5, 10), (7, 6), (8, 9)]


def lee_points(m, n, seed):
    """The R5 lattice points of the ``m x n`` plane, as ``(x, y)``."""
    ys, xs = np.nonzero(lee_mask(m, n, seed))
    return set(zip((xs + 1).tolist(), (ys + 1).tolist()))


def lattice_map(m, n, seed, gaps):
    pts = set(lee_points(m, n, seed))
    lines = [f"z-relay lattice (source column {seed}); "
             "Z=z-relay, g=border gap, .=covered"]
    for y in range(n, 0, -1):
        row = " ".join(
            "Z" if (x, y) in pts else ("g" if (x, y) in gaps else ".")
            for x in range(1, m + 1))
        lines.append(f"{y:3d} {row}")
    return "\n".join(lines)


def test_figure9_regenerates(benchmark):
    mesh = Mesh3D6(16, 16, 4)
    proto = protocol_for(mesh)
    compiled = benchmark(lambda: proto.compile(mesh, (6, 8, 2)))

    gaps = set(uncovered_nodes(lee_mask(16, 16, (6, 8))))
    text = "\n\n".join([
        summary_block(mesh, compiled),
        lattice_map(16, 16, (6, 8), gaps),
        relay_map(mesh, compiled),
    ])
    emit("figure9_zrelay", text)

    assert compiled.reached_all
    pts = lee_points(16, 16, (6, 8))
    for xy in PAPER_ZRELAY_EXAMPLES:
        assert xy in pts
    assert (6, 8) in pts  # "let the source be a z-relay node"
    # density exactly one fifth in the large-grid limit
    assert abs(len(pts) - 16 * 16 / 5) <= 16
    # the tiling misses only border nodes; completion must cover them all
    for (x, y) in gaps:
        assert x in (1, 16) or y in (1, 16)
        for z in range(1, 5):
            assert compiled.trace.first_rx[mesh.index((x, y, z))] >= 0
