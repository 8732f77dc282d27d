"""Symmetry-reduced compilation of source sweeps.

The paper's protocols are lattice-periodic: the 2D-4 relay pattern depends
on the source column only through ``i mod 3``, 2D-8 on the ``i - j mod 5``
anti-diagonal residue, 2D-3 on the mod-4 staircase seeding, 3D-6 on the
``(2, 1)/(-1, 2)`` Lee residue — plus, in every case, *border rules* that
react to how close the source pattern sits to the grid edge.  A full-grid
source sweep therefore contains only ``O(period x border-classes)``
genuinely distinct compile problems, yet ``sweep_sources`` used to run the
full simulate->fix fixpoint once per source.

This module groups sources into equivalence classes via the per-protocol
:meth:`~repro.core.base.BroadcastProtocol.source_class_key` and compiles
each class *once*:

* the **class representatives** of a shape run the compiler's fixpoint
  together: :func:`compile_classes` puts every representative that needs
  a compile (no stored class *profile* — whether the class needed
  completion/repair fixes — and no full cached entry) through one batched
  simulate->fix loop (:func:`_compile_fixpoint_batch`), which equals
  :func:`~repro.core.compiler.compile_broadcast` field for field; the
  results enter the :class:`~repro.core.cache.ScheduleCache` exactly as a
  cached compile would, and each class's profile is stored from them;
* the **members** of all the shape's classes are derived together by
  the batched multi-source engine
  (:func:`~repro.sim.engine.run_reactive_multi`): a zero-fix class needs
  exactly one reactive wave per member, and every such member of the
  shape runs in one vectorized slot loop per chunk (summary mode, reduced
  to counts at once); a class whose representative needed fixes runs the
  *same* simulate->fix rounds as the serial compiler — each member's
  round is digested by the compiler's own per-member step
  (:class:`~repro.core.compiler._Fixpoint`: pruning, exit conditions,
  fix planner) — with each round's reactive waves batched across all
  such members of the shape.  Both kinds of wave, and the
  representatives' batched fixpoint, run on the compiled tier wherever
  the native kernel builds (``run_reactive_multi``'s ``engine="auto"``,
  its scheduler included) and on the dense tier otherwise,
  bit-identically.

Exactness does **not** rest on the class key: every member's schedule is
produced by the identical algorithm the direct path runs (the batched
engine is trace-for-trace equal to the serial engine; the differential
suite pins this down), and members that defeat the class's zero-fix
prediction simply fall back to direct compilation.  The key only decides
*grouping* — a too-coarse key costs fallbacks, never wrong results.

Why not translate the representative's schedule to the members, as one
would on an infinite lattice?  Because on a finite grid a full-coverage
broadcast is never translation-equivariant: the border rules re-anchor
relay columns/diagonals at the edges, so two same-residue sources'
schedules differ exactly where the clamped border distances of the class
key say they may.  :func:`~repro.sim.translate.translate_compiled`
implements the exact translation with those soundness guards and is used
here opportunistically for sub-spanning broadcasts; spanning broadcasts
take the batched path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.engine import run_reactive_multi
from ..sim.metrics import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                           BroadcastMetrics, compute_metrics, counts_metrics)
from ..sim.translate import TranslationError, translate_compiled
from ..topology.base import Topology
from .base import BroadcastProtocol, CompiledBroadcast, RelayPlan
from .cache import ScheduleCache
from .compiler import DEFAULT_MAX_ROUNDS, _Fixpoint, count_compiles
from .store import summary_counts

#: What a caller's store holds of one class: its profile and its
#: representative's compilation, each ``None`` when not stored.
StoredClass = Tuple[Optional[dict], Optional[CompiledBroadcast]]

#: Upper bound on ``batch x num_nodes`` cells per batched run; a shape's
#: members advance in sub-batches of this size (bounds the (B, n) arrays).
MAX_BATCH_CELLS = 1 << 22


@dataclass
class ClassMemberResult:
    """Outcome of one source in a symmetry-reduced sweep.

    ``via`` records the execution path: ``"representative"`` (full
    fixpoint compile), ``"summary"`` (zero-fix class member, batched
    reactive wave, counts only), ``"fixpoint"`` (batched simulate->fix
    rounds), ``"translated"`` (exact sub-spanning translation),
    ``"fallback"`` (direct compile after a failed prediction) or
    ``"direct"`` (non-groupable source, compiled by the caller).
    Counts-mode results carry the broadcast's model-independent counts
    (:func:`~repro.core.store.summary_counts`) instead of a
    :class:`CompiledBroadcast`.
    ``admitted`` marks a result the producing cache or the caller's
    store already holds (a representative or a compile through the
    cache, a stored representative), so
    :meth:`~repro.core.cache.ScheduleCache.admit_member` skips it.
    """

    source_index: int
    via: str
    compiled: Optional[CompiledBroadcast] = None
    counts: Optional[Dict[str, object]] = None
    admitted: bool = False

    def metrics(self, topology: Topology,
                model=PAPER_RADIO_MODEL,
                packet_bits: int = PAPER_PACKET_BITS) -> BroadcastMetrics:
        """Paper metrics of this member (equal to the direct path's)."""
        if self.compiled is not None:
            return compute_metrics(
                self.compiled.trace, topology, model, packet_bits)
        return counts_metrics(topology, self.source_index, self.counts,
                              model, packet_bits)


@dataclass
class _ClassJob:
    """One class's member phase: its coordinates, its compile profile,
    the representative when members may translate from it (sub-spanning
    only) and the first position still to derive."""

    coords: Sequence
    profile: Optional[dict] = None
    rep: Optional[CompiledBroadcast] = None
    first: int = 0


def group_sources(topology: Topology, protocol: BroadcastProtocol,
                  sources: Sequence) -> Tuple[Dict[Tuple, List[int]],
                                              List[int]]:
    """Partition sweep positions into equivalence classes.

    Returns ``(groups, direct)``: *groups* maps each class key to the
    positions (indices into *sources*) of its members, in first-seen
    order; *direct* lists positions whose key is ``None`` (irregular
    topology / baseline protocol) — they take the per-source path.
    """
    groups: Dict[Tuple, List[int]] = {}
    direct: List[int] = []
    for pos, src in enumerate(sources):
        key = protocol.source_class_key(topology, src)
        if key is None:
            direct.append(pos)
        else:
            groups.setdefault(key, []).append(pos)
    return groups, direct


def profile_of(rep: CompiledBroadcast) -> dict:
    """The compile profile a class takes from its representative: did it
    need completion/repair fixes, and how many rounds."""
    return {"zero_fix": (rep.rounds == 1 and not rep.completions
                         and not rep.repairs),
            "rounds": rep.rounds}


def _plans_equal(a: RelayPlan, b: RelayPlan) -> bool:
    return (np.array_equal(a.relay_mask, b.relay_mask)
            and np.array_equal(a.extra_delay, b.extra_delay)
            and a.repeat_offsets == b.repeat_offsets)


def _member_chunks(positions: List, num_nodes: int) -> List[List]:
    size = max(1, MAX_BATCH_CELLS // max(1, num_nodes))
    return [positions[i:i + size] for i in range(0, len(positions), size)]


def _compile_fixpoint_batch(
    topology: Topology,
    source_indices: List[int],
    plans: List[RelayPlan],
    *,
    completion: bool = True,
    repair: bool = True,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> List[CompiledBroadcast]:
    """The serial compiler's simulate->fix loop, batched across sources.

    Member *b*'s sequence of rounds is identical to what
    :func:`~repro.core.compiler.compile_broadcast` runs for it alone:
    each round's reactive wave is trace-for-trace the serial engine's
    (batched across all still-active members), and each member's round
    is digested by the compiler's own per-member step
    (:class:`~repro.core.compiler._Fixpoint`), so the produced
    :class:`CompiledBroadcast` is equal field for field.  Members leave
    the batch as they converge; stall/round-cap guards raise the same
    :class:`CompilationError` the serial path would.
    """
    fixes = [_Fixpoint(topology, src, plan, completion=completion,
                       repair=repair)
             for src, plan in zip(source_indices, plans)]
    results: List[Optional[CompiledBroadcast]] = [None] * len(fixes)
    active = list(range(len(fixes)))
    for round_no in range(1, max_rounds + 1):
        if not active:
            break
        traces = _wave(topology, [source_indices[b] for b in active],
                       [plans[b] for b in active],
                       forced_tx_list=[fixes[b].forced for b in active])
        for trace, b in zip(traces, active):
            results[b] = fixes[b].round(trace, round_no)
        active = [b for b in active if results[b] is None]
    if active:
        raise fixes[active[0]].round_cap(max_rounds)
    return results


def _wave(topology: Topology, sources: Sequence[int],
          plans: Sequence[RelayPlan], **kwargs):
    """:func:`~repro.sim.engine.run_reactive_multi` of one relay plan
    per source row."""
    return run_reactive_multi(
        topology, np.asarray(sources), np.stack([p.relay_mask for p in plans]),
        extra_delays=np.stack([p.extra_delay for p in plans]),
        repeat_offsets_list=[p.repeat_offsets for p in plans], **kwargs)


def _compile_coords(topology: Topology, protocol: BroadcastProtocol,
                    coords: Sequence, **options) -> List[CompiledBroadcast]:
    """:func:`_compile_fixpoint_batch` of the protocol's plans from
    *coords*."""
    return _compile_fixpoint_batch(
        topology, [topology.index(coord) for coord in coords],
        [protocol.relay_plan(topology, coord) for coord in coords],
        **options)


def _summary_wave(topology: Topology, protocol: BroadcastProtocol,
                  coords: Sequence) -> List[Tuple[bool, Dict[str, object]]]:
    """One reactive wave per coordinate in one summary-mode batch,
    reduced to ``(all_reached, counts)`` per row before it returns, so
    the batch's per-node rows die here."""
    summary = _wave(topology, [topology.index(coord) for coord in coords],
                    [protocol.relay_plan(topology, coord) for coord in coords],
                    summary=True)
    return list(zip(summary.all_reached.tolist(), summary_counts(summary)))


def _translate(topology: Topology, protocol: BroadcastProtocol,
               rep: CompiledBroadcast, coord) -> Optional[CompiledBroadcast]:
    """The representative's exact translation to *coord*, or ``None``.

    Only sub-spanning broadcasts can pass the footprint guard, and the
    member's own rule-phase plan must agree with the translated plan
    (border clipping may differ).
    """
    delta = topology.coord_delta(tuple(topology.coord(rep.source)),
                                 tuple(coord))
    try:
        translated = translate_compiled(topology, rep, delta)
    except TranslationError:
        return None
    if not _plans_equal(translated.plan,
                        protocol.relay_plan(topology, coord)):
        return None
    return translated


def _represent(topology: Topology, protocol: BroadcastProtocol,
               class_key: Tuple, job: _ClassJob, rep: CompiledBroadcast,
               cache: Optional[ScheduleCache], admitted: bool,
               **options) -> ClassMemberResult:
    """Profile a class from its representative's compilation, store the
    profile in *cache* and return the representative's result."""
    job.profile = profile_of(rep)
    if cache is not None:
        cache.store_class_profile(topology, protocol.name, class_key,
                                  job.profile, **options)
    job.rep = None if rep.trace.all_reached else rep
    job.first = 1
    return ClassMemberResult(source_index=rep.source, via="representative",
                             compiled=rep, admitted=admitted)


def _derive_members(
    topology: Topology,
    protocol: BroadcastProtocol,
    jobs: Sequence[_ClassJob],
    *,
    cache: Optional[ScheduleCache],
    completion: bool,
    repair: bool,
) -> Iterator[Tuple[int, int, ClassMemberResult]]:
    """The member phase of a shape's classes, batched across them.

    Yields ``(class_no, member_no, result)`` for every position of every
    job from its ``first`` on: the exact translations of a sub-spanning
    representative first, then the members of zero-fix classes in one
    summary-mode wave per ``MAX_BATCH_CELLS`` chunk, then the members of
    classes that needed fixes in one batched fixpoint per chunk.  Rows
    are independent trials, so chunks that cut across classes change no
    member's result.  A chunk is reduced to counts or handed out before
    the next one runs: a shape's per-node rows never pile up.
    """
    options = {"completion": completion, "repair": repair}
    zero_fix: List[Tuple[int, int]] = []
    fixes: List[Tuple[int, int]] = []
    for c, job in enumerate(jobs):
        for i in range(job.first, len(job.coords)):
            translated = (None if job.rep is None else
                          _translate(topology, protocol, job.rep,
                                     job.coords[i]))
            if translated is not None:
                yield c, i, ClassMemberResult(
                    source_index=translated.source, via="translated",
                    compiled=translated)
            else:
                (zero_fix if job.profile.get("zero_fix")
                 else fixes).append((c, i))

    for chunk in _member_chunks(zero_fix, topology.num_nodes):
        coords = [jobs[c].coords[i] for c, i in chunk]
        for (c, i), coord, (reached, counts) in zip(
                chunk, coords, _summary_wave(topology, protocol, coords)):
            # An unreached member defeats the zero-fix prediction: the
            # serial compiler would enter its fix rounds, so hand the
            # source to the direct path.  With both fix phases disabled
            # the serial compiler finalises after the same single wave,
            # so the summary row *is* the answer.
            if reached or not (completion or repair):
                yield c, i, ClassMemberResult(
                    source_index=topology.index(coord), via="summary",
                    counts=counts)
            else:
                compiled = protocol.compile(topology, coord, cache=cache,
                                            **options)
                yield c, i, ClassMemberResult(
                    source_index=compiled.source, via="fallback",
                    compiled=compiled, admitted=cache is not None)

    for chunk in _member_chunks(fixes, topology.num_nodes):
        for (c, i), compiled in zip(chunk, _compile_coords(
                topology, protocol,
                [jobs[c].coords[i] for c, i in chunk], **options)):
            yield c, i, ClassMemberResult(
                source_index=compiled.source, via="fixpoint",
                compiled=compiled)


def compile_class(
    topology: Topology,
    protocol: BroadcastProtocol,
    class_key: Tuple,
    coords: Sequence,
    *,
    cache: Optional[ScheduleCache] = None,
    completion: bool = True,
    repair: bool = True,
) -> List[ClassMemberResult]:
    """Compile one equivalence class; results align with *coords*.

    The single-class entry point (the query engine's cold path) over
    the member phase :func:`compile_classes` runs for a whole shape.
    The first coordinate acts as the class representative when no cached
    class profile exists, compiled through *cache*; with a warm profile
    every member (representative included) takes the batched path and
    the class costs zero ``compile_broadcast`` calls.  *completion* /
    *repair* are the compile options applied uniformly to the whole
    class (profiles and cache entries are keyed on them, so option
    families never mix).
    """
    options = {"completion": completion, "repair": repair}
    job = _ClassJob(coords)
    results: List[Optional[ClassMemberResult]] = [None] * len(coords)
    if cache is not None:
        job.profile = cache.class_profile(topology, protocol.name,
                                          class_key, **options)
    if job.profile is None:
        results[0] = _represent(
            topology, protocol, class_key, job,
            protocol.compile(topology, coords[0], cache=cache, **options),
            cache, cache is not None, **options)
    for _, i, result in _derive_members(topology, protocol, [job],
                                        cache=cache, **options):
        results[i] = result
    return results


def _representatives(
    topology: Topology,
    protocol: BroadcastProtocol,
    classes: Sequence[Tuple[Tuple, Sequence]],
    jobs: Sequence[_ClassJob],
    cache: Optional[ScheduleCache],
    stored: Optional[Sequence[StoredClass]],
    **options,
) -> Iterator[Tuple[int, int, ClassMemberResult]]:
    """The representative phase of :func:`compile_classes`: fills each
    job's profile and yields the results of the representatives it
    took, stored or compiled, each as soon as its chunk is done."""
    pending: List[int] = []
    for c, (class_key, coords) in enumerate(classes):
        profile, rep = (None, None) if stored is None else stored[c]
        if cache is not None:
            profile = cache.class_profile(
                topology, protocol.name, class_key, **options)
            if profile is None:
                hit = cache.lookup(protocol, topology, coords[0], **options)
                rep = None if hit is None else hit[0]
        jobs[c].profile = profile
        if profile is None and rep is not None:
            yield c, 0, _represent(topology, protocol, class_key, jobs[c],
                                   rep, cache, True, **options)
        elif profile is None:
            pending.append(c)
    for chunk in _member_chunks(pending, topology.num_nodes):
        count_compiles(len(chunk))
        for c, rep in zip(chunk, _compile_coords(
                topology, protocol, [classes[c][1][0] for c in chunk],
                **options)):
            if cache is not None:
                cache.admit_compiled(protocol, topology, rep, **options)
            yield c, 0, _represent(topology, protocol, classes[c][0],
                                   jobs[c], rep, cache, cache is not None,
                                   **options)


def compile_classes(
    topology: Topology,
    protocol: BroadcastProtocol,
    classes: Sequence[Tuple[Tuple, Sequence]],
    *,
    cache: Optional[ScheduleCache] = None,
    stored: Optional[Sequence[StoredClass]] = None,
    completion: bool = True,
    repair: bool = True,
) -> Iterator[Tuple[int, int, ClassMemberResult]]:
    """Compile a shape's equivalence classes in one pass.

    *classes* holds ``(class_key, coords)`` pairs of one topology; yields
    ``(class_no, member_no, result)`` for every coordinate, *member_no*
    indexing the class's *coords*, in execution order.  Every
    representative that needs a compile — its class has no cached
    profile and the source has no full entry in *cache* — runs through
    one :func:`_compile_fixpoint_batch` per ``MAX_BATCH_CELLS`` chunk.
    Each such representative counts one compile
    (:func:`~repro.core.compiler.compile_call_count`) and one cache
    miss, and enters *cache* as a cached compile would; a
    representative with a full cached entry is served from it.  Without
    a cache, *stored* may give each class's stored profile and stored
    representative compilation instead (``None`` where there is none);
    a stored representative's result is ``admitted``.  The members of
    all classes then run together (:func:`_derive_members`), and every
    result is handed out as soon as its chunk is done.
    """
    options = {"completion": completion, "repair": repair}
    jobs = [_ClassJob(coords) for _, coords in classes]
    yield from _representatives(topology, protocol, classes, jobs, cache,
                                stored, **options)
    yield from _derive_members(topology, protocol, jobs, cache=cache,
                               **options)
