"""The symmetry-class path over a whole source sweep, in input order.

The exactness suites compare every source's class-path result with a
direct compile of the same source; this harness runs a sweep through
:func:`repro.core.symmetry.compile_classes` (the path
``ArtifactStore.warm`` and symmetry-mode ``sweep_sources`` take) and lays
the results out in source order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.symmetry import (ClassMemberResult, compile_classes,
                                 group_sources)


def sweep_compile(
    topology,
    protocol,
    sources: Sequence,
    *,
    cache=None,
    completion: bool = True,
    repair: bool = True,
) -> Optional[List[ClassMemberResult]]:
    """Class-path results of every source of a sweep, in input order,
    or ``None`` when no source is groupable.  Non-groupable sources
    inside an otherwise groupable sweep are compiled directly (``via``
    ``"direct"``)."""
    groups, direct = group_sources(topology, protocol, sources)
    if not groups:
        return None
    results: List[Optional[ClassMemberResult]] = [None] * len(sources)
    positions = list(groups.values())
    for c, i, res in compile_classes(
            topology, protocol,
            [(key, [sources[p] for p in members])
             for key, members in groups.items()],
            cache=cache, completion=completion, repair=repair):
        results[positions[c][i]] = res
    for pos in direct:
        compiled = protocol.compile(topology, sources[pos], cache=cache,
                                    completion=completion, repair=repair)
        results[pos] = ClassMemberResult(
            source_index=compiled.source, via="direct", compiled=compiled,
            admitted=cache is not None)
    return results
