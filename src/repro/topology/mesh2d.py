"""The three regular 2D mesh topologies of the paper (Figs. 1-3).

* :class:`Mesh2D4` — each interior node talks to its 4 axis neighbours
  (von Neumann neighbourhood).
* :class:`Mesh2D8` — 8 neighbours: axis + diagonals (Moore neighbourhood).
* :class:`Mesh2D3` — 3 neighbours: both horizontal neighbours plus exactly
  one vertical neighbour, alternating up/down like a brick wall.  The
  vertical edge between ``(x, y)`` and ``(x, y+1)`` exists iff ``x + y`` is
  even — the convention consistent with the paper's worked example, where
  source ``(5, 4)`` has ``(5, 3)`` but *not* ``(5, 5)`` as a neighbour.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .base import Topology
from .coords import Coord2D, flatten2d, in_box2d, unflatten2d, validate_coord


class _Mesh2DBase(Topology):
    """Common machinery for the rectangular 2D meshes."""

    def __init__(self, m: int, n: int, spacing: float = 0.5) -> None:
        super().__init__(spacing)
        if m < 1 or n < 1:
            raise ValueError(f"mesh dimensions must be >= 1, got {m}x{n}")
        self.m = int(m)
        self.n = int(n)

    @property
    def num_nodes(self) -> int:
        return self.m * self.n

    @property
    def dims(self) -> int:
        return 2

    @property
    def shape(self) -> tuple[int, int]:
        """``(m, n)`` grid extent."""
        return (self.m, self.n)

    def contains(self, coord) -> bool:
        x, y = validate_coord(coord, 2)
        return in_box2d(x, y, self.m, self.n)

    def index(self, coord) -> int:
        x, y = validate_coord(coord, 2)
        if not in_box2d(x, y, self.m, self.n):
            raise ValueError(f"({x}, {y}) outside {self.m}x{self.n} mesh")
        return flatten2d(x, y, self.m)

    def coord(self, index: int) -> Coord2D:
        if not 0 <= index < self.num_nodes:
            raise ValueError(f"index {index} out of range")
        return unflatten2d(index, self.m)

    def positions(self) -> np.ndarray:
        xs, ys = np.meshgrid(
            np.arange(self.m), np.arange(self.n), indexing="xy")
        pos = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
        return pos * self.spacing

    def _offset_neighbors(self, coord, offsets) -> List[Coord2D]:
        x, y = coord
        out = []
        for dx, dy in offsets:
            nx, ny = x + dx, y + dy
            if in_box2d(nx, ny, self.m, self.n):
                out.append((nx, ny))
        return out

    # -- large-grid fast path -------------------------------------------

    def _grid_xy(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node 1-based coordinate arrays ``(x, y)`` in index order
        (built once per topology, read-only)."""
        return self._grid

    @cached_property
    def _grid(self) -> Tuple[np.ndarray, np.ndarray]:
        idx = np.arange(self.num_nodes, dtype=np.int64)
        x, y = idx % self.m + 1, idx // self.m + 1
        x.flags.writeable = y.flags.writeable = False
        return x, y

    def _stencil_offsets(self, x: np.ndarray, y: np.ndarray) -> List[tuple]:
        """``(dx, dy)`` pairs of the lattice stencil; each component is an
        int or a per-node array (parity-dependent lattices)."""
        return list(self.OFFSETS)

    def stencil_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Directed edge arrays from pure index arithmetic (no python
        loop): shift the coordinate grids by each stencil offset and mask
        out-of-box targets."""
        x, y = self._grid_xy()
        idx = np.arange(self.num_nodes, dtype=np.int64)
        rows, cols = [], []
        for dx, dy in self._stencil_offsets(x, y):
            nx, ny = x + dx, y + dy
            ok = (nx >= 1) & (nx <= self.m) & (ny >= 1) & (ny <= self.n)
            rows.append(idx[ok])
            cols.append(nx[ok] - 1 + (ny[ok] - 1) * self.m)
        return np.concatenate(rows), np.concatenate(cols)

    def shift_index_map(self, delta) -> Tuple[np.ndarray, np.ndarray]:
        """Index-arithmetic translation map (no coordinate loop)."""
        dx, dy = (int(d) for d in delta)
        x, y = self._grid_xy()
        nx, ny = x + dx, y + dy
        valid = (nx >= 1) & (nx <= self.m) & (ny >= 1) & (ny <= self.n)
        mapped = np.where(valid, nx - 1 + (ny - 1) * self.m, -1)
        return mapped, valid

    def _lattice_connected(self) -> Optional[bool]:
        """Rectangular meshes with both horizontal and some vertical edge
        per node are connected; parity lattices override."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} {self.m}x{self.n}>"


class Mesh2D4(_Mesh2DBase):
    """2D mesh with 4 neighbours (paper Fig. 2)."""

    name = "2D-4"
    nominal_degree = 4

    OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1))

    def _neighbor_coords(self, coord) -> List[Coord2D]:
        return self._offset_neighbors(coord, self.OFFSETS)

    # Hop distance is the Manhattan metric, so the far corner is always a
    # farthest node and all the O(n)/O(1) metrics are closed-form.

    def lattice_diameter(self) -> int:
        return (self.m - 1) + (self.n - 1)

    def lattice_eccentricities(self) -> np.ndarray:
        x, y = self._grid_xy()
        return (np.maximum(x - 1, self.m - x)
                + np.maximum(y - 1, self.n - y))

    def _lattice_eccentricity(self, coord) -> int:
        x, y = validate_coord(coord, 2)
        self.index((x, y))  # bounds check
        return max(x - 1, self.m - x) + max(y - 1, self.n - y)


class Mesh2D8(_Mesh2DBase):
    """2D mesh with 8 neighbours (paper Fig. 3)."""

    name = "2D-8"
    nominal_degree = 8

    OFFSETS = (
        (1, 0), (-1, 0), (0, 1), (0, -1),
        (1, 1), (1, -1), (-1, 1), (-1, -1),
    )

    def _neighbor_coords(self, coord) -> List[Coord2D]:
        return self._offset_neighbors(coord, self.OFFSETS)

    def tx_range(self) -> float:
        """Diagonal neighbours sit ``sqrt(2) * spacing`` away."""
        return self.spacing * math.sqrt(2.0)

    # Hop distance is the Chebyshev metric.

    def lattice_diameter(self) -> int:
        return max(self.m - 1, self.n - 1)

    def lattice_eccentricities(self) -> np.ndarray:
        x, y = self._grid_xy()
        return np.maximum(np.maximum(x - 1, self.m - x),
                          np.maximum(y - 1, self.n - y))

    def _lattice_eccentricity(self, coord) -> int:
        x, y = validate_coord(coord, 2)
        self.index((x, y))  # bounds check
        return max(x - 1, self.m - x, y - 1, self.n - y)


class Mesh2D3(_Mesh2DBase):
    """2D mesh with 3 neighbours — brick-wall lattice (paper Fig. 1).

    Every node has both horizontal neighbours; vertical edges alternate so
    that each node has exactly one vertical neighbour.  The edge
    ``(x, y) - (x, y+1)`` exists iff ``x + y`` is even.
    """

    name = "2D-3"
    nominal_degree = 3

    @staticmethod
    def vertical_neighbor_offset(x: int, y: int) -> int:
        """Return +1 or -1: the dy of the (unique) vertical neighbour of
        ``(x, y)`` in an unbounded brick lattice."""
        return 1 if (x + y) % 2 == 0 else -1

    def has_up_neighbor(self, coord) -> bool:
        """True if ``(x, y+1)`` is the vertical neighbour of *coord*
        (ignoring the grid border)."""
        x, y = validate_coord(coord, 2)
        return self.vertical_neighbor_offset(x, y) == 1

    def _neighbor_coords(self, coord) -> List[Coord2D]:
        x, y = coord
        dy = self.vertical_neighbor_offset(x, y)
        return self._offset_neighbors(coord, ((1, 0), (-1, 0), (0, dy)))

    def _stencil_offsets(self, x: np.ndarray, y: np.ndarray) -> List[tuple]:
        """Horizontal pair plus the parity-dependent vertical edge: the
        ``(x + y) % 2`` brick rule as one vectorised offset column."""
        dy = np.where((x + y) % 2 == 0, 1, -1)
        return [(1, 0), (-1, 0), (0, dy)]

    # -- closed-form hop metric -----------------------------------------
    #
    # For m >= 2 the brick-wall hop distance has a closed form.  Climbing
    # one row requires a column of the right parity ((x + y) even), and
    # consecutive climbs need alternating column parities, so a path with
    # dy vertical moves spends at least max(dx, dy - 1 + a + b) horizontal
    # moves, where a = 1 iff the lower endpoint cannot climb immediately
    # ((x_lo + y_lo) odd) and b = 1 iff the upper endpoint is not on the
    # final climb parity ((x_hi + y_hi) even).  Both bounds are achievable
    # by zig-zagging between adjacent columns, so
    #
    #     d = dy + max(dx, dy - 1 + a + b)        (dy >= 1; d = dx else).
    #
    # tests/test_lattice_diameter.py verifies this differentially against
    # dense BFS over a grid of shapes.  m == 1 degenerates into isolated
    # domino pairs and is special-cased.

    @staticmethod
    def _brick_distance(x1, y1, x2, y2):
        """Vectorised closed-form hop distance (valid for m >= 2)."""
        x1, y1, x2, y2 = (np.asarray(v, dtype=np.int64)
                          for v in (x1, y1, x2, y2))
        swap = y1 > y2
        xl = np.where(swap, x2, x1)
        yl = np.where(swap, y2, y1)
        xh = np.where(swap, x1, x2)
        yh = np.where(swap, y1, y2)
        dx = np.abs(x1 - x2)
        dy = yh - yl
        a = (xl + yl) % 2
        b = (xh + yh + 1) % 2
        return np.where(dy == 0, dx,
                        dy + np.maximum(dx, dy - 1 + a + b))

    #: Candidate x-columns containing a farthest node for any source (both
    #: parities at both extremes); eccentricity = max distance over the
    #: candidate set {1, 2, m-1, m} x {1, n}.

    def _far_candidates(self) -> Tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(sorted({1, 2, self.m - 1, self.m}), dtype=np.int64)
        xs = xs[(xs >= 1) & (xs <= self.m)]
        ys = np.asarray(sorted({1, self.n}), dtype=np.int64)
        cx, cy = np.meshgrid(xs, ys, indexing="ij")
        return cx.ravel(), cy.ravel()

    def lattice_diameter(self) -> int:
        if self.m == 1:
            # Vertical edges only at (1, y)-(1, y+1) with y odd: the grid
            # decomposes into dominoes (plus a singleton for odd n).
            return 1 if self.n >= 2 else 0
        return max(self.m + self.n - 2, 2 * self.n - 1)

    def lattice_eccentricities(self) -> np.ndarray:
        if self.m == 1:
            y = np.arange(1, self.n + 1, dtype=np.int64)
            paired = (y % 2 == 0) | (y < self.n)
            return paired.astype(np.int64)
        x, y = self._grid_xy()
        cx, cy = self._far_candidates()
        d = self._brick_distance(x[:, None], y[:, None],
                                 cx[None, :], cy[None, :])
        return d.max(axis=1)

    def _lattice_eccentricity(self, coord) -> int:
        x, y = validate_coord(coord, 2)
        self.index((x, y))  # bounds check
        if self.m == 1:
            return int(y % 2 == 0 or y < self.n)
        cx, cy = self._far_candidates()
        return int(self._brick_distance(x, y, cx, cy).max())

    def _lattice_connected(self) -> bool:
        return self.m >= 2 or self.n <= 2
