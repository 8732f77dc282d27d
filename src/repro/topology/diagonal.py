"""Diagonal-axis sets S1 / S2 from Section 3 of the paper.

For any node ``(x, y)``:

* ``(x, y)`` belongs to ``S1(c)`` iff ``x + y == c``.  The nodes of an
  ``S1`` set form a straight line running in the ``(+1, -1)`` direction
  (the "anti-diagonal").
* ``(x, y)`` belongs to ``S2(c)`` iff ``x - y == c``.  The nodes of an
  ``S2`` set form a line in the ``(+1, +1)`` direction (the "main
  diagonal").

Example from the paper: nodes (5,7), (6,6), (7,5) are in ``S1(12)``; nodes
(5,3), (6,4), (7,5) are in ``S2(2)``.

The 2D-3 protocol additionally uses *paired* diagonal sets
``B1/B2 = S(c) ∪ S(c±1)`` whose union forms a connected staircase path in
the brick-wall lattice; its relay plan builds them as masks
(:mod:`repro.core.mesh2d3`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .coords import Coord2D
from .mesh2d import _Mesh2DBase


def s1_value(coord: Coord2D) -> int:
    """The S1 diagonal constant ``x + y`` of *coord*."""
    x, y = coord
    return x + y


def s2_value(coord: Coord2D) -> int:
    """The S2 diagonal constant ``x - y`` of *coord*."""
    x, y = coord
    return x - y


def s1_indices(mesh: _Mesh2DBase, c: int) -> np.ndarray:
    """0-based node indices of ``S1(c)``, ordered by x (vectorised).

    Index arithmetic: no coordinate tuples are materialised.
    """
    x = np.arange(max(1, c - mesh.n), min(mesh.m, c - 1) + 1, dtype=np.int64)
    y = c - x
    return x - 1 + (y - 1) * mesh.m


def s2_indices(mesh: _Mesh2DBase, c: int) -> np.ndarray:
    """0-based node indices of ``S2(c)``, ordered by x (vectorised)."""
    x = np.arange(max(1, c + 1), min(mesh.m, c + mesh.n) + 1, dtype=np.int64)
    y = x - c
    return x - 1 + (y - 1) * mesh.m


def s1_range(mesh: _Mesh2DBase) -> Tuple[int, int]:
    """Inclusive range of S1 constants with nonempty in-grid sets."""
    return (2, mesh.m + mesh.n)


def s2_range(mesh: _Mesh2DBase) -> Tuple[int, int]:
    """Inclusive range of S2 constants with nonempty in-grid sets."""
    return (1 - mesh.n, mesh.m - 1)
