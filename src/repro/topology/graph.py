"""Vectorised graph utilities shared by all topologies.

All functions operate on scipy CSR adjacency matrices so that the hot paths
(per-slot collision counting in the simulator, BFS sweeps over hundreds of
sources in the benchmarks) stay inside numpy/scipy kernels, per the
"vectorise, don't loop" rule of the HPC guides.

Large-grid fast path
--------------------
Two of the utilities here have size-sensitive implementations:

* :func:`build_adjacency` consumes the topology's vectorised *stencil*
  edge arrays (:meth:`~repro.topology.base.Topology.stencil_edges`) when
  the lattice provides them, and only falls back to the per-node python
  loop (:func:`build_adjacency_loop`) for irregular topologies.  The loop
  builder is kept as the differential reference; the test-suite asserts
  CSR equality between the two across shapes and lattices.
* :func:`all_pairs_distances` materialises a dense ``(n, n)`` float matrix
  — O(n^2) memory, catastrophic past ~10^4 nodes — so it is gated behind
  :data:`DENSE_PAIRS_GATE`.  :func:`diameter` switches to the BFS
  double-sweep estimator above the gate; regular lattices never get that
  far because :class:`~repro.topology.base.Topology` prefers their exact
  closed-form diameters.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .base import Topology

#: Largest node count for which the dense all-pairs matrix may be
#: materialised (n^2 float64 at 4096 nodes is ~128 MiB; a million-node
#: mesh would need ~7 TiB).  Above the gate, callers must use the lattice
#: closed forms or the BFS-based estimators.
DENSE_PAIRS_GATE = 4096


class DenseAllPairsError(MemoryError):
    """Raised when the O(n^2) all-pairs matrix is requested above the gate."""


def build_adjacency(topology: "Topology") -> sparse.csr_matrix:
    """Build the symmetric 0/1 CSR adjacency matrix of *topology*.

    Regular lattices provide vectorised stencil edge arrays (pure index
    arithmetic, no per-node python); irregular topologies fall back to
    :func:`build_adjacency_loop`.  Both paths produce identical CSR
    matrices (indices sorted, all-ones data) — the differential suite in
    ``tests/test_stencil_adjacency.py`` pins this down.
    """
    edges = topology.stencil_edges()
    if edges is None:
        return build_adjacency_loop(topology)
    rows, cols = edges
    n = topology.num_nodes
    data = np.ones(len(rows), dtype=np.int8)
    adj = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    if adj.nnz != len(rows):
        raise AssertionError("duplicate edges produced by stencil_edges")
    adj.sort_indices()
    return adj


def build_adjacency_loop(topology: "Topology") -> sparse.csr_matrix:
    """Reference per-node loop builder (O(n * degree) python calls).

    Constructed from the lattice-level ``_neighbor_coords`` so the CSR
    matrix is, by construction, in agreement with the python-level API
    (``Topology.validate`` double-checks this).  Kept as the differential
    oracle for :func:`build_adjacency`'s stencil fast path and as the only
    builder for irregular topologies (random disk deployments).
    """
    rows: list[int] = []
    cols: list[int] = []
    n = topology.num_nodes
    for i in range(n):
        c = topology.coord(i)
        for nb in topology._neighbor_coords(c):
            rows.append(i)
            cols.append(topology.index(nb))
    data = np.ones(len(rows), dtype=np.int8)
    adj = sparse.csr_matrix(
        (data, (np.asarray(rows), np.asarray(cols))), shape=(n, n))
    adj.sum_duplicates()
    if (adj.data > 1).any():
        raise AssertionError("duplicate edges produced by _neighbor_coords")
    adj.sort_indices()
    return adj


def bfs_distances(adj: sparse.csr_matrix, source: int) -> np.ndarray:
    """Hop distances from *source* to every node; ``-1`` where unreachable.

    Implemented as a frontier sweep with boolean sparse mat-vec products —
    O(edges) per level and fully vectorised.
    """
    n = adj.shape[0]
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    visited = frontier.copy()
    dist[source] = 0
    level = 0
    while frontier.any():
        level += 1
        reached = adj.dot(frontier.astype(np.int8)) > 0
        frontier = reached & ~visited
        dist[frontier] = level
        visited |= frontier
    return dist


def all_pairs_distances(adj: sparse.csr_matrix, *,
                        force: bool = False) -> np.ndarray:
    """Dense all-pairs hop-distance matrix (``inf`` where unreachable).

    Allocates an ``(n, n)`` float64 matrix, so it refuses to run above
    :data:`DENSE_PAIRS_GATE` nodes unless ``force=True``; large-grid
    callers should use the lattice closed forms on
    :class:`~repro.topology.base.Topology` or :func:`diameter`'s BFS
    double-sweep path instead.
    """
    n = adj.shape[0]
    if n > DENSE_PAIRS_GATE and not force:
        raise DenseAllPairsError(
            f"dense all-pairs over {n} nodes needs ~{8 * n * n / 2**30:.1f}"
            f" GiB; use the lattice closed forms / BFS sweeps, or pass "
            f"force=True (gate: {DENSE_PAIRS_GATE} nodes)")
    return csgraph.shortest_path(adj, method="D", unweighted=True)


def diameter(adj: sparse.csr_matrix) -> int:
    """Graph diameter (max finite hop distance over all pairs).

    Below :data:`DENSE_PAIRS_GATE` this is exact via the dense all-pairs
    matrix.  Above the gate it returns :func:`double_sweep_diameter`,
    which is exact on this repo's lattice family (differentially tested
    against the closed forms) and a lower bound on arbitrary graphs.
    """
    if adj.shape[0] <= DENSE_PAIRS_GATE:
        d = all_pairs_distances(adj)
        finite = d[np.isfinite(d)]
        return int(finite.max())
    return double_sweep_diameter(adj)


def double_sweep_diameter(adj: sparse.csr_matrix,
                          starts: Optional[Sequence[int]] = None,
                          sweeps: int = 4) -> int:
    """BFS double-sweep diameter estimate in O(sweeps * edges * levels).

    From each start node: BFS, hop to the farthest node found, BFS again,
    and keep chasing eccentricity maxima for up to *sweeps* rounds.  On
    the grid lattices of this repo the second sweep already attains the
    true diameter; in general graphs the result is a lower bound.
    Unreachable pairs are ignored (matching :func:`diameter`'s max-finite
    convention), so disconnected inputs yield the largest eccentricity
    seen from the explored components.
    """
    n = adj.shape[0]
    if n == 0:
        return 0
    if starts is None:
        # First/last node plus extreme-degree nodes: cheap, deterministic,
        # and diverse enough that on this repo's lattices at least one
        # start escapes the ecc-chasing fixed points (the hex lattice has
        # corner starts whose sweep stalls one below the diameter).
        degrees = np.diff(adj.indptr)
        starts = sorted({0, n - 1, int(degrees.argmax()),
                         int(degrees.argmin())})
    best = 0
    for start in starts:
        v = int(start)
        seen = set()
        for _ in range(max(1, sweeps)):
            if v in seen:
                break
            seen.add(v)
            dist = bfs_distances(adj, v)
            ecc = int(dist.max())
            if ecc > best:
                best = ecc
            v = int(dist.argmax())
    return best


def eccentricities(adj: sparse.csr_matrix, *,
                   force: bool = False) -> np.ndarray:
    """Per-node eccentricity vector (ignores unreachable pairs).

    Dense all-pairs underneath, so gated exactly like
    :func:`all_pairs_distances`; large regular grids should use
    :meth:`repro.topology.base.Topology.eccentricities`, which evaluates
    the closed-form lattice distances in O(n).
    """
    d = all_pairs_distances(adj, force=force)
    d[~np.isfinite(d)] = -np.inf
    return d.max(axis=1).astype(np.int64)


def connected_components(adj: sparse.csr_matrix) -> tuple[int, np.ndarray]:
    """Number of connected components and per-node component labels."""
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    return int(ncomp), labels


def neighbor_counts(adj: sparse.csr_matrix, mask: np.ndarray) -> np.ndarray:
    """For each node, how many of its neighbours are flagged in *mask*.

    This single sparse mat-vec is the collision-model kernel: with *mask* =
    "transmitting this slot", the result counts simultaneous in-range
    transmitters per receiver.
    """
    return adj.dot(mask.astype(np.int8)).astype(np.int64)
