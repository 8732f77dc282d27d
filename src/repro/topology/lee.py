"""The z-relay lattice of rule R5 (3D-6 protocol, paper Section 3.4).

Rule R5 generates, from a seed ``(x, y)``, the set of points reachable by
integer combinations of the vectors ``(2, 1)`` and ``(-1, 2)`` — a sublattice
of Z^2 with index 5.  Its fundamental property (the reason the paper picked
it): the radius-1 "plus" shapes (Lee spheres) centred on lattice points
*perfectly tile the plane*.  Hence when every z-relay of a plane transmits,
every node of that plane is covered exactly once — simultaneously forwarding
the broadcast to the neighbouring planes along Z.

Membership test: ``(u, v) = a*(2,1) + b*(-1,2)`` has the integer solution
``a = (2u + v)/5``, ``b = (2v - u)/5``; both are integers iff
``2u + v ≡ 0 (mod 5)`` (then ``2v - u = 5b`` automatically).
"""

from __future__ import annotations

from typing import List

import numpy as np

from .coords import Coord2D


def is_lee_lattice_point(u: int, v: int) -> bool:
    """True if ``(u, v)`` lies on the R5 lattice rooted at the origin."""
    return (2 * u + v) % 5 == 0


def lee_mask(m: int, n: int, seed: Coord2D) -> np.ndarray:
    """Boolean ``(n, m)`` array (row y-1, col x-1) flagging lattice points."""
    sx, sy = seed
    xs = np.arange(1, m + 1)
    ys = np.arange(1, n + 1)
    u = xs[None, :] - sx
    v = ys[:, None] - sy
    return (2 * u + v) % 5 == 0


def lee_count(m: int, n: int, seed: Coord2D) -> int:
    """Number of R5-lattice points in the grid (used by the ideal model).

    For an 8x8 grid this is 12 or 13 depending on the seed's residue class
    (64 = 12*5 + 4, so four residues get 13 points and one gets 12).
    """
    return int(lee_mask(m, n, seed).sum())


def uncovered_nodes(mask: np.ndarray) -> List[Coord2D]:
    """Sorted ``(x, y)`` nodes of an ``(n, m)`` grid that no Lee sphere
    centred on a point of *mask* (row y-1, col x-1) covers.

    In the unbounded plane the tiling is perfect, so gaps only appear
    where a covering lattice point falls outside the grid border.  These
    are exactly the nodes for which the paper adds "additional relay
    nodes in the border" (the gray nodes of Fig. 9).
    """
    covered = mask.copy()
    covered[1:, :] |= mask[:-1, :]
    covered[:-1, :] |= mask[1:, :]
    covered[:, 1:] |= mask[:, :-1]
    covered[:, :-1] |= mask[:, 1:]
    xs, ys = np.nonzero(~covered.T)
    return list(zip((xs + 1).tolist(), (ys + 1).tolist()))
