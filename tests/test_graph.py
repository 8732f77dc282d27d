"""Unit tests for the vectorised graph utilities (BFS, diameter, kernels).

BFS and diameter are differentially tested against networkx.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.radio.channel import SlotKernel
from repro.topology import Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6
from repro.topology import graph as G

from .slot_oracle import resolve


def to_networkx(topology):
    g = nx.Graph()
    g.add_nodes_from(range(topology.num_nodes))
    adj = topology.adjacency.tocoo()
    g.add_edges_from(zip(adj.row.tolist(), adj.col.tolist()))
    return g


class TestBFS:
    @pytest.mark.parametrize("cls,dims", [
        (Mesh2D4, (6, 5)), (Mesh2D8, (6, 5)), (Mesh2D3, (6, 5)),
        (Mesh3D6, (3, 3, 3)),
    ])
    def test_matches_networkx(self, cls, dims):
        mesh = cls(*dims)
        g = to_networkx(mesh)
        for src in (0, mesh.num_nodes // 2, mesh.num_nodes - 1):
            ours = G.bfs_distances(mesh.adjacency, src)
            theirs = nx.single_source_shortest_path_length(g, src)
            for v in range(mesh.num_nodes):
                expected = theirs.get(v, -1)
                assert ours[v] == expected

    def test_unreachable_marked_minus_one(self):
        mesh = Mesh2D3(1, 4)  # disconnected brick column
        d = G.bfs_distances(mesh.adjacency, 0)
        assert (d == -1).any()

    def test_source_distance_zero(self):
        mesh = Mesh2D4(4, 4)
        assert G.bfs_distances(mesh.adjacency, 5)[5] == 0

    def test_2d4_distances_are_manhattan(self):
        mesh = Mesh2D4(7, 6)
        src = mesh.index((3, 2))
        d = G.bfs_distances(mesh.adjacency, src)
        for idx in range(mesh.num_nodes):
            x, y = mesh.coord(idx)
            assert d[idx] == abs(x - 3) + abs(y - 2)

    def test_2d8_distances_are_chebyshev(self):
        mesh = Mesh2D8(7, 6)
        src = mesh.index((3, 2))
        d = G.bfs_distances(mesh.adjacency, src)
        for idx in range(mesh.num_nodes):
            x, y = mesh.coord(idx)
            assert d[idx] == max(abs(x - 3), abs(y - 2))


class TestDiameter:
    @pytest.mark.parametrize("cls,dims,expected", [
        (Mesh2D4, (32, 16), 46),
        (Mesh2D8, (32, 16), 31),
        (Mesh2D3, (32, 16), 46),
        (Mesh3D6, (8, 8, 8), 21),
    ])
    def test_paper_shapes(self, cls, dims, expected):
        """Diameters of the paper's evaluation meshes: these are the ideal
        max-delay lower bounds of Table 5 (the paper reports 46/45/31/20;
        see EXPERIMENTS.md for the off-by-one discussion)."""
        assert cls(*dims).diameter == expected

    @given(st.integers(2, 7), st.integers(2, 7))
    @settings(max_examples=10, deadline=None)
    def test_matches_networkx(self, m, n):
        mesh = Mesh2D3(m, n)
        expected = nx.diameter(to_networkx(mesh))
        assert mesh.diameter == expected

    def test_eccentricities(self):
        mesh = Mesh2D4(5, 3)
        ecc = G.eccentricities(mesh.adjacency)
        g = to_networkx(mesh)
        expected = nx.eccentricity(g)
        for v in range(mesh.num_nodes):
            assert ecc[v] == expected[v]


class TestNeighbourLists:
    """The slot kernel's sorted neighbour table (the fix planner's)."""

    def test_equals_adjacency_rows(self):
        mesh = Mesh2D3(6, 5)
        table = mesh.slot_kernel.neighbour_lists()
        assert len(table) == mesh.num_nodes
        for v in range(mesh.num_nodes):
            assert table[v] == tuple(sorted(
                mesh.neighbor_indices(v).tolist()))
            assert all(type(u) is int for u in table[v])

    def test_unsorted_csr_is_sorted_once(self):
        mesh = Mesh2D8(5, 4)
        want = mesh.adjacency.tocsr()
        # The same graph with every row's indices reversed.
        rows = [want.indices[a:b][::-1]
                for a, b in zip(want.indptr, want.indptr[1:])]
        unsorted = sparse.csr_matrix(
            (np.ones(want.nnz, dtype=np.int8), np.concatenate(rows),
             want.indptr.copy()), shape=want.shape)
        assert not unsorted.has_sorted_indices
        kernel = SlotKernel(unsorted)
        assert not unsorted.has_sorted_indices  # the caller's is untouched
        assert kernel.indices.tolist() == want.indices.tolist()
        assert kernel.neighbour_lists() == (
            mesh.slot_kernel.neighbour_lists())
        tx = np.array([0, 7, 12], dtype=np.int64)
        heard, received, collided, senders = resolve(kernel, tx)
        want = resolve(mesh.slot_kernel, tx)
        assert np.array_equal(heard, want[0])
        assert np.array_equal(received, want[1])
        assert np.array_equal(collided, want[2])
        assert np.array_equal(senders[received], want[3][received])

    def test_table_is_built_once(self):
        mesh = Mesh2D8(4, 4)
        kernel = mesh.slot_kernel
        table = kernel.neighbour_lists()
        assert kernel.neighbour_lists() is table
        assert kernel._derived["neighbour_lists"] is table


class TestKernels:
    def test_neighbor_counts_is_collision_kernel(self):
        mesh = Mesh2D4(4, 4)
        mask = np.zeros(16, dtype=bool)
        mask[mesh.index((2, 2))] = True
        mask[mesh.index((2, 4))] = True
        counts = G.neighbor_counts(mesh.adjacency, mask)
        # (2,3) hears both transmitters
        assert counts[mesh.index((2, 3))] == 2
        # (1,2) hears only (2,2)
        assert counts[mesh.index((1, 2))] == 1
        # (4,1) hears nobody
        assert counts[mesh.index((4, 1))] == 0

    def test_connected_components(self):
        mesh = Mesh2D3(1, 6)
        ncomp, labels = G.connected_components(mesh.adjacency)
        assert ncomp == 3
        assert len(labels) == 6

    def test_all_pairs_shape(self):
        mesh = Mesh2D4(3, 3)
        d = G.all_pairs_distances(mesh.adjacency)
        assert d.shape == (9, 9)
        assert d[0, 0] == 0
        assert d[0, 8] == 4

    def test_build_adjacency_sorted_and_symmetric(self):
        mesh = Mesh2D8(5, 4)
        adj = mesh.adjacency
        assert (adj != adj.T).nnz == 0
        assert adj.has_sorted_indices
        assert adj.diagonal().sum() == 0
