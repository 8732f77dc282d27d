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
(:mod:`repro.core.mesh2d3`).  The relay plans work on the diagonal
constants as arrays; only the range of S2 constants is needed here
(``tests/plan_oracle.py`` holds the per-node set builders).
"""

from __future__ import annotations

from typing import Tuple

from .mesh2d import _Mesh2DBase


def s2_range(mesh: _Mesh2DBase) -> Tuple[int, int]:
    """Inclusive range of S2 constants with nonempty in-grid sets."""
    return (1 - mesh.n, mesh.m - 1)
