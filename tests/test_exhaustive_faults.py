"""Every single dead node against every source of every small shape.

``compile_broadcast(dead_mask=...)`` compiles around known failures:
dead nodes neither transmit nor receive, and the completion and repair
phases route the wave around them.  For each connected shape up to 6x6
on 2D-3, 2D-4 and 2D-8 and up to 3x3x3 on 3D-6, each dead node and each
other source, the compile must reach exactly the source's connected
component of the surviving graph: every node it can reach, and nothing
else.

The full run, about 25,000 compiles, is marked ``exhaustive`` and is
left out of the default run (``-m exhaustive`` opts in); the default run
checks every ``STRIDE``-th (dead node, source) pair of every shape.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro import make_topology, protocol_for
from repro.core.compiler import compile_broadcast

SHAPES = {
    "2D-3": list(itertools.product(range(1, 7), repeat=2)),
    "2D-4": list(itertools.product(range(1, 7), repeat=2)),
    "2D-8": list(itertools.product(range(1, 7), repeat=2)),
    "3D-6": list(itertools.product(range(1, 4), repeat=3)),
}

#: Pair stride of the default run: prime, so the sampled pairs spread
#: over dead nodes and sources.
STRIDE = 23


def _check_label(label: str, stride: int) -> int:
    """Compile every *stride*-th pair of every connected *label* shape;
    returns the number of compiles checked."""
    checked = 0
    for shape in SHAPES[label]:
        topology = make_topology(label, shape=shape)
        n = topology.num_nodes
        if connected_components(topology.adjacency, directed=False)[0] > 1:
            continue
        protocol = protocol_for(topology)
        pairs = [(dead, source) for dead in range(n) for source in range(n)
                 if dead != source][::stride]
        for dead, source in pairs:
            alive = np.ones(n, dtype=bool)
            alive[dead] = False
            _, component = connected_components(
                topology.adjacency[alive][:, alive], directed=False)
            want = np.zeros(n, dtype=bool)
            want[alive] = component == component[source - (source > dead)]
            compiled = compile_broadcast(
                topology, source,
                protocol.relay_plan(topology, topology.coord(source)),
                dead_mask=~alive)
            reached = compiled.trace.first_rx >= 0
            assert np.array_equal(reached, want), (label, shape, dead,
                                                   source)
            checked += 1
    return checked


@pytest.mark.parametrize("label", sorted(SHAPES))
def test_every_dead_node_strided(label):
    assert _check_label(label, STRIDE) > 0


@pytest.mark.exhaustive
@pytest.mark.parametrize("label", sorted(SHAPES))
def test_every_dead_node_against_every_source(label):
    assert _check_label(label, 1) > 0
