"""Array-built relay plans against their per-node reference rules.

The 2D-3, 2D-8 and 3D-6 protocols build their relay plans as array
expressions over the grid coordinates; :mod:`tests.plan_oracle` keeps
the same rules written node by node.  Every source of every small shape
(2-D up to 8x8, 3-D up to 4x4x4) and the centre and corner sources of
the larger shapes the protocol tests use must give equal plans: relay
mask, extra delays, repeat offsets and notes, with the same dtypes and
key types.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import make_topology, protocol_for

from .plan_oracle import ORACLES

SMALL_2D = [(m, n) for m in range(1, 9) for n in range(1, 9)]
SMALL_3D = list(itertools.product(range(1, 5), repeat=3))


def assert_plans_equal(got, want) -> None:
    assert got.relay_mask.dtype == want.relay_mask.dtype
    assert got.extra_delay.dtype == want.extra_delay.dtype
    np.testing.assert_array_equal(got.relay_mask, want.relay_mask)
    np.testing.assert_array_equal(got.extra_delay, want.extra_delay)
    assert list(got.repeat_offsets.items()) == \
        list(want.repeat_offsets.items())
    assert all(type(v) is int for v in got.repeat_offsets)
    assert got.notes == want.notes
    # repr pins the element types too (Python ints and tuples, no numpy
    # scalars), which the store's JSON and the viewers rely on.
    assert repr(got.notes) == repr(want.notes)


def check_sources(label, shape, sources=None) -> None:
    topology = make_topology(label, shape=shape)
    protocol = protocol_for(topology)
    if sources is None:
        sources = [topology.coord(v) for v in range(topology.num_nodes)]
    for source in sources:
        assert_plans_equal(protocol.relay_plan(topology, source),
                           ORACLES[label](topology, source))


@pytest.mark.parametrize("label", ["2D-3", "2D-8"])
@pytest.mark.parametrize("shape", SMALL_2D, ids=lambda s: "%dx%d" % s)
def test_every_source_of_small_2d_shapes(label, shape):
    check_sources(label, shape)


@pytest.mark.parametrize("shape", SMALL_3D, ids=lambda s: "%dx%dx%d" % s)
def test_every_source_of_small_3d_shapes(shape):
    check_sources("3D-6", shape)


@pytest.mark.parametrize("label,shape,sources", [
    ("2D-3", (16, 16), [(8, 8), (1, 1), (16, 16), (1, 16), (9, 8)]),
    ("2D-3", (32, 16), [(16, 8), (1, 1), (32, 16), (32, 1), (17, 9)]),
    ("2D-8", (16, 16), [(8, 8), (1, 1), (16, 16), (1, 16), (9, 8)]),
    ("2D-8", (32, 16), [(16, 8), (1, 1), (32, 16), (32, 1), (17, 9)]),
    ("3D-6", (8, 8, 8), [(4, 4, 4), (1, 1, 1), (8, 8, 8), (5, 4, 1)]),
    ("3D-6", (12, 5, 3), [(6, 3, 2), (1, 1, 1), (12, 5, 3)]),
])
def test_protocol_test_shapes(label, shape, sources):
    check_sources(label, shape, sources)
