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
* the **members** are derived by the batched multi-source engine
  (:func:`~repro.sim.engine.run_reactive_multi`): a zero-fix class needs
  exactly one reactive wave per member, executed for the whole class in
  one vectorized slot loop (summary mode, no event tuples); a class whose
  representative needed fixes runs the *same* simulate->fix rounds as the
  serial compiler — each member's round is digested by the compiler's own
  per-member step (:class:`~repro.core.compiler._Fixpoint`: pruning, exit
  conditions, fix planner) — with each round's reactive waves batched
  across the class.  Both kinds of wave, and the representatives'
  batched fixpoint, run on the compiled tier wherever the native kernel
  builds (``run_reactive_multi``'s ``engine="auto"``, its scheduler
  included) and on the dense tier otherwise, bit-identically.

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
                           BroadcastMetrics, compute_metrics,
                           compute_metrics_from_counts)
from ..sim.translate import TranslationError, translate_compiled
from ..topology.base import Topology
from .base import BroadcastProtocol, CompiledBroadcast, RelayPlan
from .cache import ScheduleCache
from .compiler import DEFAULT_MAX_ROUNDS, _Fixpoint, count_compiles

#: Upper bound on ``batch x num_nodes`` cells per batched run; classes
#: larger than this advance in sub-batches (bounds the (B, n) arrays).
MAX_BATCH_CELLS = 1 << 22


@dataclass
class ClassMemberResult:
    """Outcome of one source in a symmetry-reduced sweep.

    ``via`` records the execution path: ``"representative"`` (full
    fixpoint compile), ``"summary"`` (zero-fix class member, batched
    reactive wave, counts only), ``"fixpoint"`` (batched simulate->fix
    rounds), ``"translated"`` (exact sub-spanning translation),
    ``"fallback"`` (direct compile after a failed prediction) or
    ``"direct"`` (non-groupable source).  Counts-mode results carry the
    per-node arrays instead of a :class:`CompiledBroadcast`.
    ``admitted`` marks a result the producing cache already holds and
    has published (a representative or a compile through the cache), so
    :meth:`~repro.core.cache.ScheduleCache.admit_member` skips it.
    """

    source_index: int
    via: str
    compiled: Optional[CompiledBroadcast] = None
    first_rx: Optional[np.ndarray] = None
    tx_count: Optional[np.ndarray] = None
    rx_count: Optional[np.ndarray] = None
    collisions: int = 0
    admitted: bool = False

    def metrics(self, topology: Topology,
                model=PAPER_RADIO_MODEL,
                packet_bits: int = PAPER_PACKET_BITS) -> BroadcastMetrics:
        """Paper metrics of this member (equal to the direct path's)."""
        if self.compiled is not None:
            return compute_metrics(
                self.compiled.trace, topology, model, packet_bits)
        return compute_metrics_from_counts(
            topology, self.source_index, self.first_rx, self.tx_count,
            self.rx_count, self.collisions, model, packet_bits)


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


def _zero_fix(compiled: CompiledBroadcast) -> bool:
    return (compiled.rounds == 1 and not compiled.completions
            and not compiled.repairs)


def _plans_equal(a: RelayPlan, b: RelayPlan) -> bool:
    return (np.array_equal(a.relay_mask, b.relay_mask)
            and np.array_equal(a.extra_delay, b.extra_delay)
            and a.repeat_offsets == b.repeat_offsets)


def _member_chunks(positions: List[int], num_nodes: int) -> List[List[int]]:
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
        traces = run_reactive_multi(
            topology,
            np.asarray([source_indices[b] for b in active]),
            np.stack([plans[b].relay_mask for b in active]),
            extra_delays=np.stack([plans[b].extra_delay for b in active]),
            repeat_offsets_list=[plans[b].repeat_offsets for b in active],
            forced_tx_list=[fixes[b].forced for b in active])
        for trace, b in zip(traces, active):
            results[b] = fixes[b].round(trace, round_no)
        active = [b for b in active if results[b] is None]
    if active:
        raise fixes[active[0]].round_cap(max_rounds)
    return results


def compile_class(
    topology: Topology,
    protocol: BroadcastProtocol,
    class_key: Tuple,
    coords: Sequence,
    *,
    cache: Optional[ScheduleCache] = None,
    completion: bool = True,
    repair: bool = True,
    representative: Optional[CompiledBroadcast] = None,
) -> List[ClassMemberResult]:
    """Compile one equivalence class; results align with *coords*.

    The first coordinate acts as the class representative when no cached
    class profile exists; with a warm profile every member (representative
    included) takes the batched path and the class costs zero
    ``compile_broadcast`` calls.  *representative* is the first
    coordinate's compilation when the caller already has it
    (:func:`compile_classes`, which passes it only for a class without a
    profile, already admitted to *cache*); otherwise it compiles through
    *cache*.  *completion* / *repair* are the compile options applied
    uniformly to the whole class (profiles and cache entries are keyed on
    them, so option families never mix).
    """
    results: List[Optional[ClassMemberResult]] = [None] * len(coords)
    profile = None
    rep_compiled = representative
    if cache is not None and rep_compiled is None:
        profile = cache.class_profile(topology, protocol.name, class_key,
                                      completion=completion, repair=repair)
    if profile is None:
        if rep_compiled is None:
            rep_compiled = protocol.compile(
                topology, coords[0], cache=cache,
                completion=completion, repair=repair)
        profile = {"zero_fix": _zero_fix(rep_compiled),
                   "rounds": rep_compiled.rounds}
        if cache is not None:
            cache.store_class_profile(
                topology, protocol.name, class_key, profile,
                completion=completion, repair=repair)
        results[0] = ClassMemberResult(
            source_index=rep_compiled.source, via="representative",
            compiled=rep_compiled, admitted=cache is not None)
        members = list(range(1, len(coords)))
    else:
        members = list(range(len(coords)))

    # Opportunistic exact translation: only sub-spanning broadcasts can
    # pass the footprint guard, and the member's own rule-phase plan must
    # agree with the translated plan (border clipping may differ).
    if rep_compiled is not None and not rep_compiled.trace.all_reached:
        rep_coord = tuple(coords[0])
        for pos in list(members):
            delta = topology.coord_delta(rep_coord, tuple(coords[pos]))
            try:
                translated = translate_compiled(
                    topology, rep_compiled, delta)
            except TranslationError:
                continue
            if not _plans_equal(
                    translated.plan,
                    protocol.relay_plan(topology, coords[pos])):
                continue
            results[pos] = ClassMemberResult(
                source_index=translated.source, via="translated",
                compiled=translated)
            members.remove(pos)

    for chunk in _member_chunks(members, topology.num_nodes):
        if not chunk:
            continue
        plans = [protocol.relay_plan(topology, coords[p]) for p in chunk]
        src_idx = [topology.index(coords[p]) for p in chunk]
        if profile.get("zero_fix"):
            summary = run_reactive_multi(
                topology, np.asarray(src_idx),
                np.stack([p.relay_mask for p in plans]),
                extra_delays=np.stack([p.extra_delay for p in plans]),
                repeat_offsets_list=[p.repeat_offsets for p in plans],
                summary=True)
            reached = summary.all_reached
            for row, pos in enumerate(chunk):
                # An unreached member defeats the zero-fix prediction:
                # the serial compiler would enter its fix rounds, so hand
                # the source to the direct path.  With both fix phases
                # disabled the serial compiler finalises after the same
                # single wave, so the summary row *is* the answer.
                if reached[row] or (not completion and not repair):
                    results[pos] = ClassMemberResult(
                        source_index=src_idx[row], via="summary",
                        first_rx=summary.first_rx[row],
                        tx_count=summary.tx_count[row],
                        rx_count=summary.rx_count[row],
                        collisions=int(summary.collisions[row]))
                else:
                    compiled = protocol.compile(
                        topology, coords[pos], cache=cache,
                        completion=completion, repair=repair)
                    results[pos] = ClassMemberResult(
                        source_index=compiled.source, via="fallback",
                        compiled=compiled, admitted=cache is not None)
        else:
            for compiled, pos in zip(
                    _compile_fixpoint_batch(topology, src_idx, plans,
                                            completion=completion,
                                            repair=repair),
                    chunk):
                results[pos] = ClassMemberResult(
                    source_index=compiled.source, via="fixpoint",
                    compiled=compiled)
    return results


def compile_classes(
    topology: Topology,
    protocol: BroadcastProtocol,
    classes: Sequence[Tuple[Tuple, Sequence]],
    *,
    cache: Optional[ScheduleCache] = None,
    completion: bool = True,
    repair: bool = True,
) -> Iterator[List[ClassMemberResult]]:
    """Compile a shape's equivalence classes, representatives batched.

    *classes* holds ``(class_key, coords)`` pairs of one topology; yields
    each class's :func:`compile_class` results (aligned with its
    *coords*) in order.  Before the first class, every representative
    that needs a compile — its class has no cached profile and the
    source has no full entry in *cache* — runs through one
    :func:`_compile_fixpoint_batch` per ``MAX_BATCH_CELLS`` chunk.  Each
    such representative counts one compile
    (:func:`~repro.core.compiler.compile_call_count`) and one cache
    miss, and enters *cache* as a cached compile would; a
    representative with a full cached entry is served from it.
    """
    reps: List[Optional[CompiledBroadcast]] = [None] * len(classes)
    pending: List[int] = []
    for c, (class_key, coords) in enumerate(classes):
        if cache is not None:
            if cache.class_profile(topology, protocol.name, class_key,
                                   completion=completion,
                                   repair=repair) is not None:
                continue
            hit = cache.lookup(protocol, topology, coords[0],
                               completion=completion, repair=repair)
            if hit is not None:
                reps[c] = hit[0]
                continue
        pending.append(c)
    for chunk in _member_chunks(pending, topology.num_nodes):
        coords = [classes[c][1][0] for c in chunk]
        count_compiles(len(chunk))
        compiled = _compile_fixpoint_batch(
            topology, [topology.index(coord) for coord in coords],
            [protocol.relay_plan(topology, coord) for coord in coords],
            completion=completion, repair=repair)
        for c, rep in zip(chunk, compiled):
            reps[c] = rep
            if cache is not None:
                cache.admit_compiled(protocol, topology, rep,
                                     completion=completion, repair=repair)
    for (class_key, coords), rep in zip(classes, reps):
        yield compile_class(topology, protocol, class_key, coords,
                            cache=cache, completion=completion,
                            repair=repair, representative=rep)


def sweep_compile(
    topology: Topology,
    protocol: BroadcastProtocol,
    sources: Sequence,
    *,
    cache: Optional[ScheduleCache] = None,
    completion: bool = True,
    repair: bool = True,
    progress=None,
) -> Optional[List[ClassMemberResult]]:
    """Symmetry-reduced compilation of a whole source sweep.

    Returns per-source results in input order, or ``None`` when no source
    is groupable (the caller should run the direct sweep).  Non-groupable
    sources inside an otherwise groupable sweep are compiled directly.
    """
    groups, direct = group_sources(topology, protocol, sources)
    if not groups:
        return None
    results: List[Optional[ClassMemberResult]] = [None] * len(sources)
    done, total = 0, len(sources)
    classes = [(class_key, [sources[p] for p in positions])
               for class_key, positions in groups.items()]
    for positions, members in zip(
            groups.values(),
            compile_classes(topology, protocol, classes, cache=cache,
                            completion=completion, repair=repair)):
        for pos, res in zip(positions, members):
            results[pos] = res
        done += len(positions)
        if progress is not None:
            progress(done, total)
    for pos in direct:
        compiled = protocol.compile(topology, sources[pos], cache=cache,
                                    completion=completion, repair=repair)
        results[pos] = ClassMemberResult(
            source_index=compiled.source, via="direct", compiled=compiled,
            admitted=cache is not None)
        done += 1
        if progress is not None:
            progress(done, total)
    return results
