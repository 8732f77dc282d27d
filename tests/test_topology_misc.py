"""Tests for the topology factory, census reports and the random baseline."""

import numpy as np
import pytest

from repro.topology import (PAPER_SHAPES, RandomDiskTopology, TopologyReport,
                            analyze, make_topology, paper_topologies)


class TestBuilder:
    def test_paper_shapes_have_512_nodes(self):
        for label, topo in paper_topologies().items():
            assert topo.num_nodes == 512, label

    def test_labels(self):
        for label in ("2D-3", "2D-4", "2D-8", "3D-6"):
            assert make_topology(label).name == label

    def test_custom_shape(self):
        topo = make_topology("2D-4", shape=(5, 7))
        assert topo.shape == (5, 7)

    def test_custom_spacing(self):
        topo = make_topology("2D-4", spacing=2.0)
        assert topo.spacing == 2.0

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("4D-2")

    def test_wrong_shape_arity(self):
        with pytest.raises(ValueError):
            make_topology("2D-4", shape=(5, 7, 2))
        with pytest.raises(ValueError):
            make_topology("3D-6", shape=(5, 7))

    def test_paper_shapes_table(self):
        assert PAPER_SHAPES["3D-6"] == (8, 8, 8)
        assert PAPER_SHAPES["2D-4"] == (32, 16)


class TestAnalyze:
    def test_2d4_report(self):
        report = analyze(make_topology("2D-4", shape=(6, 4)))
        assert isinstance(report, TopologyReport)
        assert report.num_nodes == 24
        assert report.num_edges == 5 * 4 + 6 * 3
        assert report.nominal_degree == 4
        assert report.num_border_nodes == 16
        assert report.connected

    def test_report_rows_render(self):
        report = analyze(make_topology("2D-8", shape=(4, 4)))
        rows = dict(report.as_rows())
        assert rows["topology"] == "2D-8"
        assert "degree histogram" in rows


class TestRandomDisk:
    def test_deterministic_given_seed(self):
        a = RandomDiskTopology(30, 10, 10, 3.0, seed=7)
        b = RandomDiskTopology(30, 10, 10, 3.0, seed=7)
        assert np.allclose(a.positions(), b.positions())
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_different_seeds_differ(self):
        a = RandomDiskTopology(30, 10, 10, 3.0, seed=1)
        b = RandomDiskTopology(30, 10, 10, 3.0, seed=2)
        assert not np.allclose(a.positions(), b.positions())

    def test_links_respect_radius(self):
        topo = RandomDiskTopology(40, 10, 10, 2.5, seed=3)
        pos = topo.positions()
        adj = topo.adjacency.tocoo()
        for i, j in zip(adj.row, adj.col):
            assert np.linalg.norm(pos[i] - pos[j]) <= 2.5 + 1e-9

    def test_non_links_beyond_radius(self):
        topo = RandomDiskTopology(25, 10, 10, 2.0, seed=5)
        pos = topo.positions()
        dense = topo.adjacency.toarray()
        for i in range(25):
            for j in range(i + 1, 25):
                d = np.linalg.norm(pos[i] - pos[j])
                if d > 2.0:
                    assert dense[i, j] == 0

    def test_validate(self):
        RandomDiskTopology(20, 5, 5, 2.0, seed=0).validate()

    def test_coordinates_are_one_based(self):
        topo = RandomDiskTopology(5, 5, 5, 2.0)
        assert topo.coord(0) == (1,)
        assert topo.index((5,)) == 4
        with pytest.raises(ValueError):
            topo.index((6,))

    def test_positions_inside_box(self):
        topo = RandomDiskTopology(50, 8, 3, 1.0, seed=11)
        pos = topo.positions()
        assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= 8).all()
        assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= 3).all()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomDiskTopology(0, 5, 5, 1.0)
        with pytest.raises(ValueError):
            RandomDiskTopology(5, -1, 5, 1.0)
        with pytest.raises(ValueError):
            RandomDiskTopology(5, 5, 5, 0.0)


class TestTopologyMemoisation:
    def test_neighbour_lists_match_adjacency(self):
        from repro.topology import Mesh2D4
        mesh = Mesh2D4(5, 4)
        table = mesh.slot_kernel.neighbour_lists()
        adj = mesh.adjacency
        for v in range(mesh.num_nodes):
            expected = tuple(sorted(
                int(u) for u in adj.indices[adj.indptr[v]:adj.indptr[v + 1]]))
            assert table[v] == expected
        # Built once per topology: the same object comes back.
        assert mesh.slot_kernel.neighbour_lists() is table

    def test_slot_kernel_cached(self):
        from repro.topology import Mesh2D4
        mesh = Mesh2D4(4, 4)
        assert mesh.slot_kernel is mesh.slot_kernel

    def test_fingerprint_stable_and_discriminating(self):
        from repro.topology import Mesh2D4, Mesh2D8
        a1, a2 = Mesh2D4(6, 4), Mesh2D4(6, 4)
        assert a1.fingerprint == a2.fingerprint          # same structure
        assert a1.fingerprint != Mesh2D4(4, 6).fingerprint   # shape
        assert a1.fingerprint != Mesh2D8(6, 4).fingerprint   # degree rule
        assert len(a1.fingerprint) == 64                 # sha256 hex
