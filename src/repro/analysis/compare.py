"""Cross-topology comparison: assembling the paper's Tables 2-5.

Each function returns plain data structures (lists of row dicts) so the
benchmarks, the CLI and EXPERIMENTS.md all print from the same source of
truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.cache import ScheduleCache
from ..core.ideal import ideal_case, ideal_max_delay
from ..core.registry import protocol_for
from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..topology.builder import paper_topologies
from .sweep import SweepResult, strided_sources, sweep_sources

#: The paper's reported numbers, for side-by-side printing in the
#: benchmark output and EXPERIMENTS.md (Tables 2-5).
PAPER_TABLE2 = {
    "2D-3": {"tx": 255, "rx": 765, "energy_J": 2.61e-2},
    "2D-4": {"tx": 170, "rx": 680, "energy_J": 2.18e-2},
    "2D-8": {"tx": 102, "rx": 816, "energy_J": 2.35e-2},
    "3D-6": {"tx": 124, "rx": 744, "energy_J": 2.22e-2},
}
PAPER_TABLE3 = {
    "2D-3": {"tx": 301, "rx": 798, "energy_J": 2.81e-2},
    "2D-4": {"tx": 208, "rx": 714, "energy_J": 2.36e-2},
    "2D-8": {"tx": 143, "rx": 895, "energy_J": 2.66e-2},
    "3D-6": {"tx": 167, "rx": 815, "energy_J": 2.51e-2},
}
PAPER_TABLE4 = {
    "2D-3": {"tx": 308, "rx": 816, "energy_J": 2.88e-2},
    "2D-4": {"tx": 223, "rx": 778, "energy_J": 2.56e-2},
    "2D-8": {"tx": 147, "rx": 924, "energy_J": 2.74e-2},
    "3D-6": {"tx": 187, "rx": 923, "energy_J": 2.84e-2},
}
PAPER_TABLE5 = {
    "2D-3": {"ideal": 46, "protocol": 46},
    "2D-4": {"ideal": 45, "protocol": 45},
    "2D-8": {"ideal": 31, "protocol": 31},
    "3D-6": {"ideal": 20, "protocol": 20},
}

TOPOLOGY_ORDER = ("2D-3", "2D-4", "2D-8", "3D-6")


def table2_ideal(model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
                 packet_bits: int = PAPER_PACKET_BITS) -> List[dict]:
    """Reproduce Table 2: ideal-case Tx / Rx / power on 512 nodes."""
    rows = []
    for label, topo in paper_topologies().items():
        ideal = ideal_case(topo, model, packet_bits)
        row = ideal.as_row()
        row["paper"] = PAPER_TABLE2[label]
        rows.append(row)
    return rows


@dataclass
class SweepCache:
    """Shared sweep results so Tables 3, 4 and 5 reuse one computation."""

    sweeps: Dict[str, SweepResult]

    @classmethod
    def compute(cls, stride: int = 1,
                model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
                packet_bits: int = PAPER_PACKET_BITS,
                labels: Sequence[str] = TOPOLOGY_ORDER,
                workers: Optional[int] = None,
                cache: Optional[ScheduleCache] = None,
                symmetry: bool = True) -> "SweepCache":
        """Sweep all four paper topologies (stride > 1 subsamples sources
        for quick runs; all grid corners are always included).

        Tables 3, 4 and 5 each read from the result, so one sweep per
        topology serves all three.  *workers* fans each sweep out over
        processes; *cache* (a :class:`~repro.core.cache.ScheduleCache`)
        reuses compilations across calls and — with ``path=`` — across
        runs and worker processes; *symmetry* selects the
        symmetry-reduced compilation path exactly as in
        :func:`~repro.analysis.sweep.sweep_sources` (identical results
        either way).
        """
        sweeps = {}
        for label in labels:
            topo = paper_topologies()[label]
            sources = None if stride == 1 else strided_sources(topo, stride)
            sweeps[label] = sweep_sources(
                topo, protocol_for(label), sources, model, packet_bits,
                workers=workers, cache=cache, symmetry=symmetry)
        return cls(sweeps=sweeps)


def table3_best(cache: SweepCache) -> List[dict]:
    """Reproduce Table 3: best case (minimum-power source) per topology."""
    rows = []
    for label in TOPOLOGY_ORDER:
        if label not in cache.sweeps:
            continue
        best = cache.sweeps[label].best_by_energy()
        row = best.as_row()
        row["paper"] = PAPER_TABLE3[label]
        rows.append(row)
    return rows


def table4_worst(cache: SweepCache) -> List[dict]:
    """Reproduce Table 4: worst case (maximum-power source) per topology."""
    rows = []
    for label in TOPOLOGY_ORDER:
        if label not in cache.sweeps:
            continue
        worst = cache.sweeps[label].worst_by_energy()
        row = worst.as_row()
        row["paper"] = PAPER_TABLE4[label]
        rows.append(row)
    return rows


def table5_delay(cache: SweepCache) -> List[dict]:
    """Reproduce Table 5: maximum delay, ideal vs our protocols."""
    rows = []
    for label in TOPOLOGY_ORDER:
        if label not in cache.sweeps:
            continue
        topo = paper_topologies()[label]
        rows.append({
            "topology": label,
            "ideal_max_delay": ideal_max_delay(topo),
            "protocol_max_delay": cache.sweeps[label].max_delay(),
            "paper": PAPER_TABLE5[label],
        })
    return rows


def power_ranking(cache: SweepCache, case: str = "best") -> List[str]:
    """Topology labels ordered by total power (the paper's headline
    finding: 2D-4 wins, 2D-3 loses)."""
    if case == "best":
        key = {lab: sw.best_by_energy().energy_j
               for lab, sw in cache.sweeps.items()}
    elif case == "worst":
        key = {lab: sw.worst_by_energy().energy_j
               for lab, sw in cache.sweeps.items()}
    elif case == "mean":
        key = {lab: sw.mean_energy() for lab, sw in cache.sweeps.items()}
    else:
        raise ValueError(f"unknown case {case!r}")
    return sorted(key, key=key.__getitem__)
