"""Unit tests for S1/S2 diagonal sets and B1/B2 staircases (Section 3)."""

import pytest

from repro.topology import Mesh2D3, Mesh2D8
from repro.topology import diagonal as D

from . import plan_oracle as P


class TestSValues:
    def test_paper_s1_example(self):
        """Paper: nodes (5,7), (6,6), (7,5) are in S1(12)."""
        mesh = Mesh2D8(14, 14)
        s1_12 = P.s1_set(mesh, 12)
        for node in [(5, 7), (6, 6), (7, 5)]:
            assert node in s1_12
            assert P.s1_value(node) == 12

    def test_paper_s2_example(self):
        """Paper: nodes (5,3), (6,4), (7,5) are in S2(2)."""
        mesh = Mesh2D8(14, 14)
        s2_2 = P.s2_set(mesh, 2)
        for node in [(5, 3), (6, 4), (7, 5)]:
            assert node in s2_2
            assert P.s2_value(node) == 2

    def test_s1_runs_antidiagonally(self):
        mesh = Mesh2D8(10, 10)
        nodes = P.s1_set(mesh, 8)
        xs = [x for x, _ in nodes]
        ys = [y for _, y in nodes]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)

    def test_s2_runs_diagonally(self):
        mesh = Mesh2D8(10, 10)
        nodes = P.s2_set(mesh, 3)
        xs = [x for x, _ in nodes]
        ys = [y for _, y in nodes]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_clipping_to_grid(self):
        mesh = Mesh2D8(6, 4)
        assert P.s1_set(mesh, 2) == [(1, 1)]
        assert P.s1_set(mesh, 10) == [(6, 4)]
        assert P.s2_set(mesh, 5) == [(6, 1)]
        assert P.s2_set(mesh, -3) == [(1, 4)]
        assert P.s1_set(mesh, 1) == []
        assert P.s1_set(mesh, 11) == []

    def test_ranges(self):
        mesh = Mesh2D8(6, 4)
        lo, hi = P.s1_range(mesh)
        assert (lo, hi) == (2, 10)
        lo, hi = D.s2_range(mesh)
        assert (lo, hi) == (-3, 5)
        # every value in range is nonempty; outside empty
        for c in range(2, 11):
            assert P.s1_set(mesh, c)
        for c in range(-3, 6):
            assert P.s2_set(mesh, c)

    def test_sets_partition_the_grid(self):
        mesh = Mesh2D8(7, 5)
        all_s1 = [n for c in range(2, 13) for n in P.s1_set(mesh, c)]
        assert sorted(all_s1) == sorted(mesh.iter_coords())


class TestVectorizedIndices:
    """s1_indices/s2_indices are the index-arithmetic equivalents of the
    coordinate-tuple sets — same nodes, same x-order, no python loop."""

    @pytest.mark.parametrize("shape", [(8, 8), (7, 5), (1, 6), (6, 1),
                                       (2, 2)])
    def test_s1_matches_coordinate_set(self, shape):
        mesh = Mesh2D8(*shape)
        lo, hi = P.s1_range(mesh)
        for c in range(lo - 2, hi + 3):  # incl. out-of-range constants
            want = [mesh.index(cd) for cd in P.s1_set(mesh, c)]
            assert P.s1_indices(mesh, c).tolist() == want, c

    @pytest.mark.parametrize("shape", [(8, 8), (7, 5), (1, 6), (6, 1),
                                       (2, 2)])
    def test_s2_matches_coordinate_set(self, shape):
        mesh = Mesh2D8(*shape)
        lo, hi = D.s2_range(mesh)
        for c in range(lo - 2, hi + 3):
            want = [mesh.index(cd) for cd in P.s2_set(mesh, c)]
            assert P.s2_indices(mesh, c).tolist() == want, c


class TestStaircases:
    def test_paper_b_values_example(self):
        """Paper Section 3.3: source (5,4), (5,5) not a neighbour ->
        B1 = S1(9) u S1(8), B2 = S2(1) u S2(2)."""
        mesh = Mesh2D3(10, 10)
        assert not mesh.has_up_neighbor((5, 4))
        assert P.b1_values(mesh, (5, 4)) == (9, 8)
        assert P.b2_values(mesh, (5, 4)) == (1, 2)

    def test_b_values_other_parity(self):
        mesh = Mesh2D3(10, 10)
        assert mesh.has_up_neighbor((4, 4))
        assert P.b1_values(mesh, (4, 4)) == (8, 9)
        assert P.b2_values(mesh, (4, 4)) == (0, -1)

    def test_b1_set_is_connected_staircase(self):
        """The union of the paired diagonals must form a connected path in
        the brick lattice (this is the property the protocol relies on)."""
        mesh = Mesh2D3(12, 12)
        for base in [(5, 4), (6, 6), (7, 3)]:
            nodes = P.b1_set(mesh, base)
            assert _is_connected_in(mesh, nodes)

    def test_b2_set_is_connected_staircase(self):
        mesh = Mesh2D3(12, 12)
        for base in [(5, 4), (6, 6), (7, 3)]:
            nodes = P.b2_set(mesh, base)
            assert _is_connected_in(mesh, nodes)

    def test_staircase_contains_base(self):
        mesh = Mesh2D3(10, 10)
        assert (5, 4) in P.b1_set(mesh, (5, 4))
        assert (5, 4) in P.b2_set(mesh, (5, 4))

    def test_staircases_have_two_nodes_per_level_inside(self):
        mesh = Mesh2D3(20, 8)
        nodes = P.b1_set(mesh, (10, 4))
        by_level = {}
        for x, y in nodes:
            by_level.setdefault(y, []).append(x)
        # interior levels have exactly 2 nodes (border levels may clip)
        for y in range(2, 8):
            assert len(by_level.get(y, [])) == 2


def _is_connected_in(mesh, nodes):
    nodes = set(nodes)
    if not nodes:
        return True
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for nb in mesh.neighbors(cur):
            if nb in nodes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == nodes
