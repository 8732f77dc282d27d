"""Source-position sweeps (the best/worst cases of Tables 3-5).

The paper: "In our broadcasting protocols, different source has different
total number of transmissions, receptions, power consumption and delay
time.  If the source is in the center of the network, it performs better.
If it is in the corner ... more power and longer delay."  The paper does
not state which sources realise its best/worst rows, so we sweep — every
source position by default — and take the extremes.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.base import BroadcastProtocol
from ..core.cache import ScheduleCache
from ..core.registry import protocol_for
from ..core.symmetry import compile_classes, group_sources
from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..sim.metrics import BroadcastMetrics, compute_metrics
from ..sim.shard import each, fan_out
from ..topology.base import Topology


def available_cpus() -> int:
    """CPUs actually available to this process.

    ``os.sched_getaffinity`` respects cgroup/taskset CPU masks (the
    common case on CI runners and containers, where ``os.cpu_count``
    reports the host's cores even when the process is pinned to one);
    fall back to ``os.cpu_count`` where affinity is unsupported.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def effective_workers(workers: Optional[int],
                      tasks: Optional[int] = None) -> int:
    """Worker count actually used for a requested *workers* value.

    Single-CPU hosts degrade to serial: process fan-out only adds fork +
    pickle overhead there (BENCH_sweep.json measured the parallel path
    *losing* to serial, 0.53 s vs 0.47 s, on a 1-CPU runner).  Benchmarks
    record this effective count next to the requested one and next to the
    raw ``os.cpu_count`` (which, unlike :func:`available_cpus`, ignores
    the affinity mask the process actually runs under).

    *tasks*, when given, caps the answer at the number of units there
    are to distribute — trial-sharded runs pass the batch size so a
    128-worker request over 32 trials does not fork 96 idle processes.
    """
    if workers is None or workers <= 1:
        return 1
    if available_cpus() <= 1:
        return 1
    workers = int(workers)
    if tasks is not None:
        workers = min(workers, max(1, int(tasks)))
    return workers


@dataclass
class SweepResult:
    """Metrics of one protocol over a set of source positions."""

    topology: str
    metrics: List[BroadcastMetrics] = field(default_factory=list)

    # -- extremes ---------------------------------------------------------

    def best_by_energy(self) -> BroadcastMetrics:
        """The paper's "best case": the minimum-power source."""
        return min(self.metrics, key=lambda m: (m.energy_j, m.source))

    def worst_by_energy(self) -> BroadcastMetrics:
        """The paper's "worst case": the maximum-power source."""
        return max(self.metrics, key=lambda m: (m.energy_j, m.source))

    def max_delay(self) -> int:
        """The paper's Table 5 "maximum delay time" over sources."""
        return max(m.delay_slots for m in self.metrics)

    def min_delay(self) -> int:
        """Minimum broadcast delay over sources."""
        return min(m.delay_slots for m in self.metrics)

    # -- aggregates -------------------------------------------------------

    def all_reached(self) -> bool:
        """True iff every sweep member achieved 100 % reachability."""
        return all(m.reached_all for m in self.metrics)

    def mean_tx(self) -> float:
        return float(np.mean([m.tx for m in self.metrics]))

    def mean_rx(self) -> float:
        return float(np.mean([m.rx for m in self.metrics]))

    def mean_energy(self) -> float:
        return float(np.mean([m.energy_j for m in self.metrics]))

    def __len__(self) -> int:
        return len(self.metrics)


def sweep_sources(
    topology: Topology,
    protocol: Optional[BroadcastProtocol] = None,
    sources: Optional[Sequence] = None,
    model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
    packet_bits: int = PAPER_PACKET_BITS,
    workers: Optional[int] = None,
    cache: Optional[ScheduleCache] = None,
    symmetry: bool = True,
) -> SweepResult:
    """Compile and simulate a broadcast from each source position.

    Parameters
    ----------
    protocol:
        Defaults to the paper protocol matching the topology.
    sources:
        1-based source coordinates; defaults to *every* node.
    workers:
        ``None`` or ``<= 1`` runs in-process.  ``>= 2`` fans the sources
        out over that many worker processes in contiguous chunks
        (:func:`~repro.sim.shard.fan_out`) — unless the host has a
        single CPU, in which case the request degrades to in-process
        (see :func:`effective_workers`).  Compilation is deterministic
        per source, and results are reassembled by source position, so
        the metrics list — and every statistic derived from it — is
        bit-for-bit identical at every worker count.
    cache:
        Optional :class:`~repro.core.cache.ScheduleCache`.  In-process
        sweeps use both tiers; worker processes share only the *disk*
        tier (the cache pickles as its store path), so pass a cache with
        ``path=`` for cross-run reuse.  The parent's in-memory tier is
        not populated by worker processes.
    symmetry:
        ``True`` (default) takes the symmetry-reduced fast path
        (:mod:`repro.core.symmetry`) for every source the protocol can
        group into a translation-equivalence class, and compiles the
        rest directly (irregular topologies, baseline protocols);
        ``False`` compiles every source directly.  Both paths produce
        identical metrics in identical order — the fast path compiles
        one representative per class and derives the members with the
        batched engine, which is trace-for-trace equal to per-source
        compilation.  In-process, every class of the sweep runs through
        one :func:`~repro.core.symmetry.compile_classes` call; in
        parallel, each chunk of whole classes (balanced by member
        count) does, because splitting a class would forfeit its shared
        fixpoint.
    """
    if protocol is None:
        protocol = protocol_for(topology)
    if sources is None:
        sources = [topology.coord(i) for i in range(topology.num_nodes)]
    sources = list(sources)
    workers = effective_workers(workers, len(sources))
    if symmetry:
        groups, direct = group_sources(topology, protocol, sources)
    else:
        groups, direct = {}, list(range(len(sources)))
    metrics: List[Optional[BroadcastMetrics]] = [None] * len(sources)
    classes = [(key, [sources[p] for p in positions])
               for key, positions in groups.items()]
    for positions, members in zip(groups.values(), fan_out(
            functools.partial(_class_metrics, topology, protocol, model,
                              packet_bits, cache),
            classes, workers, [len(p) for p in groups.values()])):
        for pos, member in zip(positions, members):
            metrics[pos] = member
    for pos, member in zip(direct, fan_out(
            each(functools.partial(_source_metrics, topology, protocol,
                                   model, packet_bits, cache)),
            [sources[p] for p in direct], workers)):
        metrics[pos] = member
    return SweepResult(topology=topology.name, metrics=metrics)


def _source_metrics(topology, protocol, model, packet_bits, cache, src):
    """Metrics of one source: warm store counts when available (no
    replay, no fixpoint — the sharded store persists them with each
    entry), compile otherwise."""
    if cache is not None:
        hit = cache.cached_metrics(
            protocol, topology, src, model=model, packet_bits=packet_bits)
        if hit is not None:
            return hit.metrics
    compiled = protocol.compile(topology, src, cache=cache)
    return compute_metrics(compiled.trace, topology, model, packet_bits)


def _class_metrics(topology, protocol, model, packet_bits, cache,
                   classes) -> List[List[BroadcastMetrics]]:
    """Every member's metrics of *classes* (``(class_key, coords)``
    pairs), per class in member order, from one
    :func:`~repro.core.symmetry.compile_classes` pass."""
    out = [[None] * len(coords) for _, coords in classes]
    for c, i, member in compile_classes(topology, protocol, classes,
                                        cache=cache):
        out[c][i] = member.metrics(topology, model, packet_bits)
    return out


def corner_sources(topology: Topology) -> List:
    """All extreme-corner coordinates of the grid, in lexicographic order.

    Four corners for the 2D meshes, eight for 3D-6.  The delay/power
    extremes of Tables 4-5 live at corners, so subsampled sweeps must
    include every one of them — not only the first/last flattened node.
    """
    last = topology.coord(topology.num_nodes - 1)
    corners = []
    for coord in itertools.product(*((1, hi) for hi in last)):
        # Degenerate 1-wide dimensions make product() repeat coordinates.
        if topology.contains(coord) and coord not in corners:
            corners.append(coord)
    return corners


def strided_sources(topology: Topology, stride: int) -> List:
    """Every ``stride``-th node coordinate — a cheap sweep grid that still
    includes *all* extreme corners (the delay/power extremes live there).

    The previous implementation appended only the first and last flattened
    node, silently omitting the two (2D) or six (3D) remaining corners.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    coords = [topology.coord(i)
              for i in range(0, topology.num_nodes, stride)]
    seen = set(coords)
    for corner in corner_sources(topology):
        if corner not in seen:
            coords.append(corner)
            seen.add(corner)
    return coords
