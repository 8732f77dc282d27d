"""Source-position sweeps (the best/worst cases of Tables 3-5).

The paper: "In our broadcasting protocols, different source has different
total number of transmissions, receptions, power consumption and delay
time.  If the source is in the center of the network, it performs better.
If it is in the corner ... more power and longer delay."  The paper does
not state which sources realise its best/worst rows, so we sweep — every
source position by default — and take the extremes.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.base import BroadcastProtocol
from ..core.cache import ScheduleCache
from ..core.registry import protocol_for
from ..core.symmetry import compile_classes, group_sources
from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..sim.metrics import BroadcastMetrics, compute_metrics
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
    progress: Optional[Callable[[int, int], None]] = None,
    workers: Optional[int] = None,
    cache: Optional[ScheduleCache] = None,
    symmetry: Optional[bool] = None,
) -> SweepResult:
    """Compile and simulate a broadcast from each source position.

    Parameters
    ----------
    protocol:
        Defaults to the paper protocol matching the topology.
    sources:
        1-based source coordinates; defaults to *every* node.
    progress:
        Optional ``(done, total)`` callback for long sweeps.  In parallel
        mode it fires once per completed chunk (with cumulative counts)
        rather than per source; in symmetry mode once per completed
        equivalence class.
    workers:
        ``None`` or ``<= 1`` runs serially in-process.  ``>= 2`` fans the
        sources out over that many worker processes in contiguous chunks —
        unless the host has a single CPU, in which case the request
        degrades to serial (see :func:`effective_workers`).
        Compilation is deterministic per source, and results are
        reassembled in submission order, so the metrics list — and every
        statistic derived from it — is bit-for-bit identical to the serial
        sweep regardless of worker count or scheduling.
    cache:
        Optional :class:`~repro.core.cache.ScheduleCache`.  Serial sweeps
        use both tiers; parallel workers share only the *disk* tier (the
        in-memory tier is per-process), so pass a cache with ``path=`` for
        cross-run reuse.  The parent's in-memory tier is not populated by
        parallel workers.
    symmetry:
        ``None`` (default) auto-enables the symmetry-reduced fast path
        (:mod:`repro.core.symmetry`) whenever the protocol can group the
        sources into translation-equivalence classes; ``True`` forces it
        (still falling back per-source for non-groupable sources and to
        the direct sweep when nothing groups — irregular topologies,
        baseline protocols); ``False`` compiles every source directly.
        Both paths produce identical metrics in identical order — the
        fast path compiles one representative per class and derives the
        members with the batched engine, which is trace-for-trace equal
        to per-source compilation.
    """
    if protocol is None:
        protocol = protocol_for(topology)
    if sources is None:
        sources = [topology.coord(i) for i in range(topology.num_nodes)]
    result = SweepResult(topology=topology.name)
    total = len(sources)
    workers = effective_workers(workers)
    if symmetry is not False:
        groups, direct_pos = group_sources(topology, protocol, sources)
        if groups:
            result.metrics.extend(_sweep_symmetry(
                topology, protocol, list(sources), groups, direct_pos,
                model, packet_bits, progress, workers, cache))
            return result
    if workers > 1 and total > 1:
        chunks = _chunk(list(sources), workers)
        cache_path = None if cache is None else cache.path
        jobs = [(topology, protocol, chunk, model, packet_bits,
                 None if cache_path is None else str(cache_path))
                for chunk in chunks]
        done = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # executor.map preserves job order -> deterministic output.
            for chunk, chunk_metrics in zip(
                    chunks, pool.map(_sweep_chunk, jobs)):
                result.metrics.extend(chunk_metrics)
                done += len(chunk)
                if progress is not None:
                    progress(done, total)
        return result
    for done, src in enumerate(sources, start=1):
        result.metrics.append(_source_metrics(
            topology, protocol, src, model, packet_bits, cache))
        if progress is not None:
            progress(done, total)
    return result


def _source_metrics(topology, protocol, src, model, packet_bits, cache):
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


def _sweep_symmetry(
    topology: Topology,
    protocol: BroadcastProtocol,
    sources: List,
    groups,
    direct_pos: List[int],
    model: FirstOrderRadioModel,
    packet_bits: int,
    progress: Optional[Callable[[int, int], None]],
    workers: int,
    cache: Optional[ScheduleCache],
) -> List[BroadcastMetrics]:
    """Symmetry-reduced sweep body: one compile per equivalence class,
    the representatives batched
    (:func:`~repro.core.symmetry.compile_classes`).

    Parallel mode distributes whole classes over the workers (a class is
    the batching unit — splitting one would forfeit its shared fixpoint),
    chunked contiguously by member count so the per-chunk work is
    balanced.  Results are scattered back by source position, so the
    returned metrics list is ordered exactly like the direct sweep's.
    """
    total = len(sources)
    out: List[Optional[BroadcastMetrics]] = [None] * total
    done = 0
    class_items = [(key, positions, [sources[p] for p in positions])
                   for key, positions in groups.items()]
    if workers > 1 and len(class_items) > 1:
        chunks = _chunk_classes(class_items, workers)
        cache_path = None if cache is None else cache.path
        jobs = [(topology, protocol, chunk, model, packet_bits,
                 None if cache_path is None else str(cache_path))
                for chunk in chunks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk, placed in zip(chunks, pool.map(
                    _symmetry_chunk, jobs)):
                for pos, metrics in placed:
                    out[pos] = metrics
                done += sum(len(positions) for _, positions, _ in chunk)
                if progress is not None:
                    progress(done, total)
    else:
        for (_, positions, _), members in zip(class_items, compile_classes(
                topology, protocol,
                [(key, coords) for key, _, coords in class_items],
                cache=cache)):
            for pos, member in zip(positions, members):
                out[pos] = member.metrics(topology, model, packet_bits)
            done += len(positions)
            if progress is not None:
                progress(done, total)
    for pos in direct_pos:
        compiled = protocol.compile(topology, sources[pos], cache=cache)
        out[pos] = compute_metrics(
            compiled.trace, topology, model, packet_bits)
        done += 1
        if progress is not None:
            progress(done, total)
    return out


def _chunk_classes(items: List, workers: int) -> List[List]:
    """Contiguous class chunks balanced by total member count."""
    total = sum(len(positions) for _, positions, _ in items)
    target = max(1, -(-total // (workers * 4)))
    chunks: List[List] = []
    current: List = []
    weight = 0
    for item in items:
        current.append(item)
        weight += len(item[1])
        if weight >= target:
            chunks.append(current)
            current, weight = [], 0
    if current:
        chunks.append(current)
    return chunks


def _symmetry_chunk(job) -> List:
    """Worker-process entry point: compile one chunk of source classes.

    Module-level (not a closure) so it pickles under every start method.
    Returns ``(position, metrics)`` pairs for the parent to scatter.
    """
    topology, protocol, items, model, packet_bits, cache_path = job
    cache = None if cache_path is None else ScheduleCache(cache_path)
    out = []
    for (_, positions, _), members in zip(items, compile_classes(
            topology, protocol, [(key, coords) for key, _, coords in items],
            cache=cache)):
        for pos, member in zip(positions, members):
            out.append((pos, member.metrics(topology, model, packet_bits)))
    return out


def _chunk(items: List, workers: int) -> List[List]:
    """Contiguous chunks, ~4 per worker, preserving order."""
    size = max(1, -(-len(items) // (workers * 4)))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _sweep_chunk(job) -> List[BroadcastMetrics]:
    """Worker-process entry point: compile one chunk of sources.

    Module-level (not a closure) so it pickles under every start method.
    """
    topology, protocol, chunk, model, packet_bits, cache_path = job
    cache = None if cache_path is None else ScheduleCache(cache_path)
    out = []
    for src in chunk:
        out.append(_source_metrics(
            topology, protocol, src, model, packet_bits, cache))
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
