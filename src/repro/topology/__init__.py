"""Regular WSN topologies and graph utilities (paper Section 2).

Public surface:

* :class:`Topology` — abstract base class.
* :class:`Mesh2D3`, :class:`Mesh2D4`, :class:`Mesh2D8`, :class:`Mesh3D6` —
  the four regular lattices of the paper (Figs. 1-4).
* :class:`RandomDiskTopology` — random-deployment baseline.
* :func:`make_topology` / :func:`paper_topologies` — factory helpers.
* :mod:`repro.topology.diagonal` — the S1/S2 diagonal sets (Section 3).
* :mod:`repro.topology.lee` — the R5 z-relay lattice.
"""

from .base import Topology
from .builder import (PAPER_SHAPES, PAPER_SPACING, TOPOLOGY_CLASSES,
                      make_topology, paper_topologies)
from .hex import Mesh2D6
from .mesh2d import Mesh2D3, Mesh2D4, Mesh2D8
from .mesh3d import Mesh3D6
from .properties import TopologyReport, analyze
from .random_disk import RandomDiskTopology

__all__ = [
    "Topology",
    "Mesh2D3",
    "Mesh2D4",
    "Mesh2D6",
    "Mesh2D8",
    "Mesh3D6",
    "RandomDiskTopology",
    "TopologyReport",
    "analyze",
    "make_topology",
    "paper_topologies",
    "TOPOLOGY_CLASSES",
    "PAPER_SHAPES",
    "PAPER_SPACING",
]
