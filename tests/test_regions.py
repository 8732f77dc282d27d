"""Unit tests for the 2D-3 region partition (Section 3.3, Fig. 8)."""

import pytest

from repro.core.regions import base_nodes
from repro.topology import Mesh2D3

from .plan_oracle import partition


class TestBaseNodes:
    def test_paper_fig8_source(self):
        """Source (10,7): (10,6) is its vertical neighbour (10+7 odd), so
        the 'if (i, j-1) is neighbour' branch applies:
        a = (10, 5), b = (10, 8)."""
        mesh = Mesh2D3(20, 14)
        assert (10, 6) in mesh.neighbors((10, 7))
        a, b = base_nodes(mesh, (10, 7))
        assert a == (10, 5)
        assert b == (10, 8)

    def test_other_parity(self):
        """Source (10,8): vertical neighbour is (10,9), so (10,7) is not a
        neighbour -> a = (10, 7), b = (10, 10)."""
        mesh = Mesh2D3(20, 14)
        assert (10, 7) not in mesh.neighbors((10, 8))
        a, b = base_nodes(mesh, (10, 8))
        assert a == (10, 7)
        assert b == (10, 10)

    def test_border_source_still_defined(self):
        mesh = Mesh2D3(8, 8)
        a, b = base_nodes(mesh, (1, 1))
        assert a[0] == 1 and b[0] == 1


class TestRegionOf:
    @pytest.fixture
    def part(self):
        mesh = Mesh2D3(20, 14)
        return partition(mesh, (10, 7))

    def test_base_nodes_in_their_cones(self, part):
        assert part.region_of(part.base_a) == 2
        assert part.region_of(part.base_b) == 3

    def test_source_in_region_1(self, part):
        assert part.region_of((10, 7)) == 1

    def test_downward_cone(self, part):
        # straight below a
        assert part.region_of((10, 3)) == 2
        assert part.region_of((10, 1)) == 2
        # inside the widening cone
        assert part.region_of((9, 2)) == 2
        assert part.region_of((11, 2)) == 2

    def test_upward_cone(self, part):
        assert part.region_of((10, 12)) == 3
        assert part.region_of((9, 12)) == 3
        assert part.region_of((11, 12)) == 3

    def test_sides_are_region_1(self, part):
        assert part.region_of((1, 7)) == 1
        assert part.region_of((20, 7)) == 1
        assert part.region_of((2, 13)) == 1
        assert part.region_of((19, 1)) == 1

    def test_cone_boundaries(self, part):
        # region 2: x+y <= 15 and x-y >= 5 (a = (10,5))
        assert part.region_of((11, 4)) == 2      # 15 <= 15, 7 >= 5
        assert part.region_of((12, 4)) == 1      # 16 > 15
        # region 3: x+y >= 18 and x-y <= 2 (b = (10,8))
        assert part.region_of((9, 9)) == 3       # 18 >= 18, 0 <= 2
        assert part.region_of((8, 9)) == 1       # 17 < 18

    def test_every_node_classified(self):
        mesh = Mesh2D3(20, 14)
        part = partition(mesh, (10, 7))
        counts = {1: 0, 2: 0, 3: 0}
        for c in mesh.iter_coords():
            counts[part.region_of(c)] += 1
        assert sum(counts.values()) == mesh.num_nodes
        assert all(v > 0 for v in counts.values())

    def test_invalid_source_raises(self):
        mesh = Mesh2D3(6, 6)
        with pytest.raises(ValueError):
            partition(mesh, (7, 1))
