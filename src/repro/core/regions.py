"""Region partition for the 2D-3 broadcasting protocol (Section 3.3, Fig 8).

The 2D-3 protocol divides the mesh into three regions around the source
``(i, j)``:

1. Two *base nodes* ``a`` and ``b`` are picked on the source's column:
   if ``(i, j-1)`` is the source's (vertical) neighbour then
   ``a = (i, j-2)`` and ``b = (i, j+1)``, otherwise ``a = (i, j-1)`` and
   ``b = (i, j+2)``.
2. Region 2 is the downward cone under ``a``:
   ``x + y <= i_a + j_a`` and ``x - y >= i_a - j_a``.
3. Region 3 is the upward cone above ``b``:
   ``x + y >= i_b + j_b`` and ``x - y <= i_b - j_b``.
4. Region 1 is everything else.

Relay staircases seeded on the source row sweep diagonally; the regions
decide which staircase family (B1 or B2) continues through the cones so the
two families never fight over the same territory (rules R1-R4).
"""

from __future__ import annotations

from typing import Tuple

from ..topology.coords import Coord2D
from ..topology.mesh2d import Mesh2D3


def base_nodes(mesh: Mesh2D3, source: Coord2D) -> Tuple[Coord2D, Coord2D]:
    """Compute the two base nodes ``(a, b)`` for *source* per Section 3.3.

    Note the paper uses the *lattice* notion of neighbour here (whether the
    node below is the source's vertical neighbour), which we evaluate on
    the unbounded brick lattice so that border sources still get a
    well-defined partition.
    """
    i, j = source
    down_is_neighbor = not mesh.has_up_neighbor(source)
    if down_is_neighbor:
        return ((i, j - 2), (i, j + 1))
    return ((i, j - 1), (i, j + 2))
