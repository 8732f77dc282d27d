"""Abstract base class for network topologies.

A :class:`Topology` is a static, undirected communication graph over sensor
nodes placed on a regular lattice (or, for the random baseline, at arbitrary
positions).  It provides:

* coordinate <-> index translation (paper-style 1-based ids),
* neighbourhood queries (python-level and vectorised CSR adjacency),
* geometric positions in metres (for the radio energy model),
* hop-distance / eccentricity / diameter utilities.

Subclasses only implement the lattice-specific parts
(:meth:`_neighbor_coords`, :meth:`coord`, :meth:`index`, ...); all graph
machinery is shared and cached here.
"""

from __future__ import annotations

import abc
import hashlib
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from .coords import Coord
from . import graph as _graph


class Topology(abc.ABC):
    """A static undirected communication graph over sensor nodes.

    Parameters
    ----------
    spacing:
        Distance in metres between lattice-adjacent nodes.  The paper's
        evaluation uses 0.5 m.
    """

    #: Human-readable short name, e.g. ``"2D-4"`` — matches the paper's
    #: table row labels.
    name: str = "topology"

    #: Nominal (interior) node degree; border nodes have fewer neighbours.
    nominal_degree: int = 0

    def __init__(self, spacing: float = 0.5) -> None:
        if spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        self.spacing = float(spacing)

    # ------------------------------------------------------------------
    # Abstract lattice interface
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Total number of nodes in the network."""

    @property
    @abc.abstractmethod
    def dims(self) -> int:
        """Coordinate dimensionality (2 or 3)."""

    @abc.abstractmethod
    def contains(self, coord: Coord) -> bool:
        """True if *coord* names a node of this topology."""

    @abc.abstractmethod
    def index(self, coord: Coord) -> int:
        """Flatten a 1-based coordinate to a 0-based node index."""

    @abc.abstractmethod
    def coord(self, index: int) -> Coord:
        """Inverse of :meth:`index`."""

    @abc.abstractmethod
    def _neighbor_coords(self, coord: Coord) -> List[Coord]:
        """In-grid neighbours of *coord* (unsorted, lattice-specific)."""

    @abc.abstractmethod
    def positions(self) -> np.ndarray:
        """``(num_nodes, dims)`` float array of node positions in metres."""

    # ------------------------------------------------------------------
    # Large-grid fast-path hooks (regular lattices override these)
    # ------------------------------------------------------------------

    def stencil_edges(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Vectorised directed edge arrays ``(rows, cols)``, or ``None``.

        Regular lattices build both arrays from pure index arithmetic
        (meshgrid + offset shifts + boundary masks), letting
        :func:`repro.topology.graph.build_adjacency` assemble the CSR
        matrix with no per-node python loop.  Irregular topologies return
        ``None`` and fall back to the loop reference builder.
        """
        return None

    def lattice_diameter(self) -> Optional[int]:
        """Closed-form graph diameter, or ``None`` if no closed form.

        Exactness is differentially tested against the dense all-pairs
        diameter across shape grids (``tests/test_lattice_diameter.py``).
        """
        return None

    def lattice_eccentricities(self) -> Optional[np.ndarray]:
        """Closed-form per-node eccentricity vector (O(n)), or ``None``."""
        return None

    def _lattice_eccentricity(self, coord: Coord) -> Optional[int]:
        """Closed-form eccentricity of one node (O(1)), or ``None``."""
        return None

    def _lattice_connected(self) -> Optional[bool]:
        """Connectivity known from the lattice structure, or ``None``."""
        return None

    # ------------------------------------------------------------------
    # Shared graph machinery
    # ------------------------------------------------------------------

    def neighbors(self, coord: Coord) -> List[Coord]:
        """In-grid neighbours of *coord*, sorted for determinism."""
        if not self.contains(coord):
            raise ValueError(f"{coord!r} is not a node of {self!r}")
        return sorted(self._neighbor_coords(coord))

    def neighbor_indices(self, index: int) -> np.ndarray:
        """0-based indices of the neighbours of node *index*."""
        adj = self.adjacency
        return adj.indices[adj.indptr[index]:adj.indptr[index + 1]]

    def iter_coords(self) -> Iterator[Coord]:
        """Iterate over all node coordinates in index order."""
        for i in range(self.num_nodes):
            yield self.coord(i)

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Symmetric boolean CSR adjacency matrix (cached)."""
        return _graph.build_adjacency(self)

    @cached_property
    def slot_kernel(self):
        """Batched per-slot collision kernel bound to this adjacency.

        See :class:`repro.radio.channel.SlotKernel`; shared by every
        simulation over this topology so the CSR arrays are extracted once.
        """
        from ..radio.channel import SlotKernel
        return SlotKernel(self.adjacency)

    @cached_property
    def fingerprint(self) -> str:
        """Stable hex digest of the graph (class, name, spacing, edges).

        Two topology objects with equal fingerprints are interchangeable
        for simulation purposes; the compiled-schedule cache uses this as
        its topology key component so cached schedules survive across
        processes and sessions.
        """
        h = hashlib.sha256()
        h.update(type(self).__name__.encode())
        h.update(self.name.encode())
        h.update(np.int64(self.num_nodes).tobytes())
        h.update(np.float64(self.spacing).tobytes())
        adj = self.adjacency
        h.update(np.asarray(adj.indptr, dtype=np.int64).tobytes())
        h.update(np.asarray(adj.indices, dtype=np.int64).tobytes())
        return h.hexdigest()

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree array (int)."""
        return np.diff(self.adjacency.indptr).astype(np.int64)

    @property
    def max_degree(self) -> int:
        """Largest realised degree (equals :attr:`nominal_degree` except in
        degenerate tiny grids)."""
        return int(self.degrees.max())

    def degree(self, coord: Coord) -> int:
        """Degree of the node at *coord*."""
        return int(self.degrees[self.index(coord)])

    def is_border(self, coord: Coord) -> bool:
        """True if the node has fewer neighbours than the nominal degree.

        The paper: "All the nodes in the WSN shall have the same number of
        neighboring nodes, except the nodes in the boarder."
        """
        return self.degree(coord) < self.nominal_degree

    # -- coordinate translation -----------------------------------------

    def coord_delta(self, a: Coord, b: Coord) -> Tuple[int, ...]:
        """Per-axis displacement taking coordinate *a* to *b*."""
        if len(a) != len(b):
            raise ValueError(f"dimension mismatch: {a} vs {b}")
        return tuple(int(q) - int(p) for p, q in zip(a, b))

    def shift_coord(self, coord: Coord, delta: Sequence[int]) -> Tuple[int, ...]:
        """*coord* translated by *delta* (may leave the topology)."""
        if len(coord) != len(delta):
            raise ValueError(f"dimension mismatch: {coord} vs {delta}")
        return tuple(int(c) + int(d) for c, d in zip(coord, delta))

    def shift_index_map(self, delta: Sequence[int]
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized node translation by *delta*.

        Returns ``(mapped, valid)``: ``mapped[i]`` is the index of
        ``coord(i) + delta`` where that coordinate stays inside the
        topology, else ``-1`` (with ``valid[i]`` False).  The generic
        implementation walks the coordinates; box lattices override it
        with pure index arithmetic.
        """
        n = self.num_nodes
        mapped = np.full(n, -1, dtype=np.int64)
        valid = np.zeros(n, dtype=bool)
        for i, coord in enumerate(self.iter_coords()):
            shifted = self.shift_coord(coord, delta)
            if self.contains(shifted):
                mapped[i] = self.index(shifted)
                valid[i] = True
        return mapped, valid

    # -- distances ------------------------------------------------------

    def hop_distances(self, source: Coord) -> np.ndarray:
        """Hop count from *source* to every node (BFS); ``-1`` if unreachable."""
        return _graph.bfs_distances(self.adjacency, self.index(source))

    def eccentricity(self, source: Coord) -> int:
        """Maximum hop distance from *source* to any reachable node.

        Regular lattices answer from their closed-form hop metric in
        O(1); otherwise one BFS sweep.
        """
        closed = self._lattice_eccentricity(source)
        if closed is not None:
            return closed
        d = self.hop_distances(source)
        reachable = d[d >= 0]
        return int(reachable.max())

    def eccentricities(self) -> np.ndarray:
        """Per-node eccentricity vector.

        O(n) via the lattice closed forms where available; the dense
        all-pairs fallback is gated by
        :data:`repro.topology.graph.DENSE_PAIRS_GATE`.
        """
        closed = self.lattice_eccentricities()
        if closed is not None:
            return closed
        return _graph.eccentricities(self.adjacency)

    @cached_property
    def diameter(self) -> int:
        """Maximum eccentricity over all nodes (graph diameter).

        Closed form for the regular lattices (O(1)); otherwise exact
        dense all-pairs below the size gate and the BFS double-sweep
        estimate above it (see :func:`repro.topology.graph.diameter`).
        """
        closed = self.lattice_diameter()
        if closed is not None:
            return closed
        return _graph.diameter(self.adjacency)

    def is_connected(self) -> bool:
        """True if every node is reachable from node 0."""
        closed = self._lattice_connected()
        if closed is not None:
            return closed
        d = _graph.bfs_distances(self.adjacency, 0)
        return bool((d >= 0).all())

    # -- geometry -------------------------------------------------------

    def tx_range(self) -> float:
        """Radio range (metres) required to reach all lattice neighbours.

        This is the *d* plugged into the First Order Radio Model's
        amplifier term.  For axis-only meshes it equals the spacing; the
        2D-8 mesh overrides it with ``spacing * sqrt(2)`` to cover diagonal
        neighbours.  (At the paper's parameters the difference to total
        power is below its 3-significant-digit resolution either way;
        see EXPERIMENTS.md.)
        """
        return self.spacing

    def link_distance(self, a: Coord, b: Coord) -> float:
        """Euclidean distance in metres between two (adjacent or not) nodes."""
        pa = self.positions()[self.index(a)]
        pb = self.positions()[self.index(b)]
        return float(np.linalg.norm(pa - pb))

    # -- misc -----------------------------------------------------------

    def validate(self) -> None:
        """Run internal consistency checks; raises AssertionError on failure.

        Checks symmetry of the adjacency, coordinate round-tripping and
        agreement between the python-level and CSR neighbourhoods.  Used by
        the test-suite and by :mod:`repro.cli` self-checks.
        """
        adj = self.adjacency
        if (adj != adj.T).nnz != 0:
            raise AssertionError(f"{self!r}: adjacency is not symmetric")
        if adj.diagonal().any():
            raise AssertionError(f"{self!r}: self-loops present")
        for i in range(self.num_nodes):
            c = self.coord(i)
            if self.index(c) != i:
                raise AssertionError(f"{self!r}: coord/index mismatch at {i}")
            got = sorted(self.coord(j) for j in self.neighbor_indices(i))
            want = self.neighbors(c)
            if got != want:
                raise AssertionError(
                    f"{self!r}: neighbourhood mismatch at {c}: {got} != {want}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} n={self.num_nodes}>"
