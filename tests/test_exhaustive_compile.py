"""Every source of every small shape, compiled and checked exhaustively.

Each 2-D shape from 1x1 to 8x8 on 2D-3, 2D-4 and 2D-8 and each 3-D shape
up to 4x4x4 compiles from every source.  Each schedule replays on the
pure-Python reference simulator: its transmissions must be the compiled
trace's, and it must reach exactly the source's connected component —
every node, except on the disconnected 2D-3 single-column meshes.  The
symmetry-class path (:func:`repro.core.symmetry.sweep_compile`, the one
``ArtifactStore.warm`` runs) must give every member what a direct compile
gives.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro import make_topology, protocol_for
from repro.core.symmetry import sweep_compile
from repro.sim.reference import ReferenceSimulator

SHAPES = {
    "2D-3": list(itertools.product(range(1, 9), repeat=2)),
    "2D-4": list(itertools.product(range(1, 9), repeat=2)),
    "2D-8": list(itertools.product(range(1, 9), repeat=2)),
    "3D-6": list(itertools.product(range(1, 5), repeat=3)),
}


def _check_member(member, direct) -> None:
    """A symmetry-path member equals the direct compile of its source."""
    trace = direct.trace
    assert member.source_index == direct.source
    if member.compiled is None:  # a zero-fix member's counts
        assert np.array_equal(member.first_rx, trace.first_rx)
        assert np.array_equal(member.tx_count, trace.tx_count_per_node())
        assert np.array_equal(member.rx_count, trace.rx_count_per_node())
        assert member.collisions == trace.num_collisions
        return
    got = member.compiled
    assert got.schedule == direct.schedule
    assert np.array_equal(got.trace.first_rx, trace.first_rx)
    for name in ("tx", "rx", "collisions"):
        assert np.array_equal(getattr(got.trace, name), getattr(trace, name))
    assert got.trace.dropped_forced == trace.dropped_forced
    assert (got.completions, got.repairs, got.rounds) == (
        direct.completions, direct.repairs, direct.rounds)


@pytest.mark.parametrize("label", sorted(SHAPES))
def test_every_source_of_every_small_shape(label):
    disconnected = []
    for shape in SHAPES[label]:
        topology = make_topology(label, shape=shape)
        protocol = protocol_for(topology)
        reference = ReferenceSimulator(topology)
        ncomp, component = connected_components(topology.adjacency,
                                                directed=False)
        if ncomp > 1:
            disconnected.append(shape)
        sources = list(topology.iter_coords())
        members = sweep_compile(topology, protocol, sources)
        for coord, member in zip(sources, members):
            compiled = protocol.compile(topology, coord)
            trace = compiled.trace
            src = compiled.source
            where = (label, shape, coord)
            # The trace's tx rows are the schedule in to_arrays order:
            # the store writes an entry's schedule bytes from them.
            assert np.array_equal(
                trace.tx, np.column_stack(compiled.schedule.to_arrays())
            ), where
            replayed = reference.replay(compiled.schedule, src)
            assert np.array_equal(replayed.tx, trace.tx), where
            assert np.array_equal(replayed.first_rx, trace.first_rx), where
            reached = replayed.first_rx >= 0
            assert np.array_equal(
                reached, component == component[src]), where
            _check_member(member, compiled)
    # Only the 2D-3 single columns of three or more nodes fall apart:
    # brick-wall vertical links alternate, so a column is pairs.
    want = ([(1, n) for n in range(3, 9)] if label == "2D-3" else [])
    assert disconnected == want
