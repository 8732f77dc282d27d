"""Tests for the 3D-6 broadcasting protocol (Section 3.4, Fig. 9)."""

import pytest

from repro.core import validate_broadcast
from repro.core.mesh3d6 import Mesh3D6Protocol
from repro.topology import Mesh2D4, Mesh3D6
from repro.topology.lee import is_lee_lattice_point


class TestRelayRules:
    @pytest.fixture
    def plan(self):
        mesh = Mesh3D6(8, 8, 8)
        return mesh, Mesh3D6Protocol().relay_plan(mesh, (4, 4, 4))

    def test_source_plane_runs_2d4_rules(self, plan):
        mesh, p = plan
        # source row of the plane
        for x in range(1, 9):
            assert p.relay_mask[mesh.index((x, 4, 4))]
        # relay columns every 3 from x=4: 1, 4, 7
        for x in (1, 4, 7):
            for y in range(1, 9):
                assert p.relay_mask[mesh.index((x, y, 4))]

    def test_zrelay_columns_span_all_planes(self, plan):
        mesh, p = plan
        for (x, y) in p.notes["zrelay_columns"]:
            assert is_lee_lattice_point(x - 4, y - 4)
            for z in range(1, 9):
                assert p.relay_mask[mesh.index((x, y, z))]

    def test_paper_r5_offsets_are_zrelays(self):
        """R5: from source (6,8,k), nodes (4,7,w), (5,10,w), (7,6,w),
        (8,9,w) are z-relays."""
        mesh = Mesh3D6(16, 16, 4)
        p = Mesh3D6Protocol().relay_plan(mesh, (6, 8, 2))
        cols = set(p.notes["zrelay_columns"])
        for xy in [(4, 7), (5, 10), (7, 6), (8, 9), (6, 8)]:
            assert xy in cols

    def test_source_plane_zrelays_delayed(self, plan):
        mesh, p = plan
        for (x, y) in p.notes["zrelay_columns"]:
            idx = mesh.index((x, y, 4))
            if (x, y) == (4, 4):
                assert p.extra_delay[idx] == 0  # the source itself
            else:
                assert p.extra_delay[idx] == 1
            # other planes keep normal timing
            assert p.extra_delay[mesh.index((x, y, 2))] == 0

    def test_z_neighbours_retransmit_two_slots_later(self, plan):
        mesh, p = plan
        assert p.repeat_offsets[mesh.index((4, 4, 3))] == (2,)
        assert p.repeat_offsets[mesh.index((4, 4, 5))] == (2,)

    def test_plane_retransmitters_inherited_from_2d4(self, plan):
        mesh, p = plan
        # x = i+-1 (+3k) on the source row of the source plane
        assert p.repeat_offsets[mesh.index((5, 4, 4))] == (1,)
        assert p.repeat_offsets[mesh.index((3, 4, 4))] == (1,)

    def test_zrelay_count_matches_lee_density(self, plan):
        mesh, p = plan
        assert p.notes["zrelay_count_per_plane"] in (12, 13)

    def test_wrong_topology_type(self):
        with pytest.raises(TypeError):
            Mesh3D6Protocol().relay_plan(Mesh2D4(4, 4), (2, 2))


class TestBroadcast:
    def test_central_reaches_all(self, compiled_central):
        assert compiled_central["3D-6"].reached_all

    def test_corner_reaches_all(self, compiled_corner):
        assert compiled_corner["3D-6"].reached_all

    def test_audits_clean(self, paper_meshes, compiled_central):
        mesh = paper_meshes["3D-6"]
        result = compiled_central["3D-6"]
        report = validate_broadcast(mesh, result.schedule, result.source)
        assert report.ok, report.issues

    def test_best_case_tx_matches_paper(self, compiled_central):
        """A central source reproduces the paper's best-case Tx: 167."""
        assert compiled_central["3D-6"].trace.num_tx == 167

    def test_every_plane_fully_covered(self, paper_meshes,
                                       compiled_central):
        mesh = paper_meshes["3D-6"]
        trace = compiled_central["3D-6"].trace
        for z in range(1, 9):
            plane = mesh.plane_indices(z)
            assert (trace.first_rx[plane] >= 0).all(), f"plane {z}"

    def test_z_forwarding_is_pipelined(self, paper_meshes,
                                       compiled_central):
        """Planes farther from the source plane are informed later, one
        extra slot per plane at least (and not absurdly more)."""
        mesh = paper_meshes["3D-6"]
        trace = compiled_central["3D-6"].trace
        src_z = 4
        first_by_plane = {
            z: int(trace.first_rx[mesh.plane_indices(z)].min())
            for z in range(1, 9)}
        for z in range(1, 9):
            if z != src_z:
                assert first_by_plane[z] >= abs(z - src_z)

    def test_delay_close_to_eccentricity(self, paper_meshes,
                                         compiled_central):
        mesh = paper_meshes["3D-6"]
        trace = compiled_central["3D-6"].trace
        ecc = mesh.eccentricity((4, 4, 4))
        assert ecc <= trace.delay_slots <= ecc + 6

    def test_lee_gap_nodes_get_covered(self, paper_meshes,
                                       compiled_central):
        """The border nodes missed by the Lee tiling (the paper's gray
        border relays in Fig. 9) are covered by completion."""
        from .plan_oracle import lee_cover_gaps
        mesh = paper_meshes["3D-6"]
        trace = compiled_central["3D-6"].trace
        gaps = lee_cover_gaps(8, 8, (4, 4))
        assert gaps  # the 8x8 tiling does leave border gaps
        for (x, y) in gaps:
            for z in range(1, 9):
                assert trace.first_rx[mesh.index((x, y, z))] >= 0


class TestManySources:
    @pytest.mark.parametrize("src", [(1, 1, 1), (5, 5, 4), (1, 5, 2),
                                     (5, 1, 1), (3, 2, 4)])
    def test_reachability(self, src):
        mesh = Mesh3D6(5, 5, 4)
        result = Mesh3D6Protocol().compile(mesh, src)
        assert result.reached_all
