"""Scaling study: how the protocols behave as the network grows.

The paper evaluates a single size (512 nodes).  This extension sweeps the
network size and records how transmissions, receptions, energy and delay
scale — verifying that the measured curves track the ideal model's
asymptotics (Tx ~ N / M_opt, delay ~ diameter) rather than degrading.

Shapes keep the paper's 2:1 aspect ratio for the 2D meshes and stay cubic
for 3D-6.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.base import BroadcastProtocol
from ..core.ideal import ideal_case
from ..core.registry import protocol_for
from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..sim.metrics import compute_metrics
from ..sim.shard import each, fan_out
from ..topology.builder import make_topology
from .sweep import effective_workers

#: Default size ladder (node counts); each 2D entry is a 2k x k mesh.
DEFAULT_SIZES_2D = (128, 288, 512, 800, 1152)
DEFAULT_SIZES_3D = (64, 216, 512, 1000)

#: Large-grid ladders exercising the stencil fast path (10^4 .. 10^6
#: nodes).  2D shapes are 2k x k; 3D are k^3 at comparable node counts.
LARGE_SIZES_2D = (10_000, 50_000, 100_000, 500_000, 1_000_000)
LARGE_SIZES_3D = (10_648, 50_653, 103_823, 493_039, 1_000_000)

#: Named ladders for the CLI's ``--ladder`` option.
LADDERS_2D = {"paper": DEFAULT_SIZES_2D, "large": LARGE_SIZES_2D}
LADDERS_3D = {"paper": DEFAULT_SIZES_3D, "large": LARGE_SIZES_3D}


def sizes_for(label: str, ladder: str = "paper") -> tuple:
    """The named size *ladder* for topology *label*."""
    table = LADDERS_3D if label == "3D-6" else LADDERS_2D
    try:
        return table[ladder]
    except KeyError:
        raise ValueError(
            f"unknown ladder {ladder!r}; choose from {sorted(table)}")


def icbrt(num: int) -> int:
    """Integer cube root rounding to the nearest cube.

    ``round(num ** (1/3))`` misrounds on exact cubes whose float cube root
    lands just below .5 (e.g. ``216 ** (1/3) == 5.999...`` → 6 only by
    luck of the rounding, ``10 ** 21`` style magnitudes drift further), so
    pick the integer k minimising ``|k^3 - num|`` exactly.
    """
    if num < 0:
        raise ValueError("num must be >= 0")
    k = round(num ** (1 / 3))
    return min((abs(c ** 3 - num), c) for c in (k - 1, k, k + 1)
               if c >= 0)[1]


@dataclass(frozen=True)
class ScalingPoint:
    """Measured broadcast cost at one network size."""

    topology: str
    num_nodes: int
    shape: tuple
    tx: int
    rx: int
    energy_j: float
    delay_slots: int
    ideal_tx: int
    ideal_delay: int
    reachability: float

    @property
    def tx_overhead(self) -> float:
        """Measured transmissions relative to the ideal model."""
        return self.tx / self.ideal_tx

    def as_row(self) -> dict:
        return {
            "topology": self.topology,
            "nodes": self.num_nodes,
            "shape": "x".join(str(s) for s in self.shape),
            "tx": self.tx,
            "ideal_tx": self.ideal_tx,
            "tx/ideal": round(self.tx_overhead, 3),
            "delay": self.delay_slots,
            "ideal_delay": self.ideal_delay,
            "energy_J": self.energy_j,
            "reach": self.reachability,
        }


def shape_for(label: str, num_nodes: int) -> tuple:
    """A paper-proportioned shape with (approximately) *num_nodes* nodes:
    2k x k for the 2D meshes, k^3 for 3D-6."""
    if label == "3D-6":
        k = icbrt(num_nodes)
        return (k, k, k)
    k = round((num_nodes / 2) ** 0.5)
    return (2 * k, k)


def central_source(shape: tuple) -> tuple:
    return tuple(max(1, s // 2) for s in shape)


def scaling_curve(
    label: str,
    sizes: Optional[Sequence[int]] = None,
    protocol: Optional[BroadcastProtocol] = None,
    model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
    packet_bits: int = PAPER_PACKET_BITS,
    workers: Optional[int] = None,
) -> List[ScalingPoint]:
    """Broadcast cost vs network size for topology *label*.

    *workers* >= 2 compiles the sizes in parallel processes; each size is
    independent and the result order always matches *sizes*, so the curve
    is identical to the serial one.  On single-CPU hosts the request
    degrades to serial (see
    :func:`~repro.analysis.sweep.effective_workers`).
    """
    if sizes is None:
        sizes = DEFAULT_SIZES_3D if label == "3D-6" else DEFAULT_SIZES_2D
    sizes = list(sizes)
    return fan_out(
        each(functools.partial(_scaling_point, label, protocol, model,
                               packet_bits)),
        sizes, effective_workers(workers, len(sizes)))


def _scaling_point(label, protocol, model, packet_bits,
                   target) -> ScalingPoint:
    """Measure one (topology label, target size) point."""
    shape = shape_for(label, target)
    topo = make_topology(label, shape=shape)
    proto = protocol if protocol is not None else protocol_for(label)
    src = central_source(shape)
    compiled = proto.compile(topo, src)
    m = compute_metrics(compiled.trace, topo, model, packet_bits)
    ideal = ideal_case(topo, model, packet_bits)
    return ScalingPoint(
        topology=label,
        num_nodes=topo.num_nodes,
        shape=shape,
        tx=m.tx,
        rx=m.rx,
        energy_j=m.energy_j,
        delay_slots=m.delay_slots,
        ideal_tx=ideal.tx,
        ideal_delay=topo.eccentricity(src),
        reachability=m.reachability,
    )
