"""Compiled-schedule cache (LRU-bounded memory tier + sharded disk store).

Compilation is deterministic — the same ``(topology, source, protocol,
options)`` always produces the same schedule — so sweeps that revisit the
same sources (Tables 3, 4 and 5 all derive from one full source sweep per
topology) can reuse one compilation instead of redoing the rule ->
completion -> repair fixpoint each time.

The cache key is a SHA-256 over the topology *fingerprint* (a digest of
its CSR adjacency — see :attr:`repro.topology.base.Topology.fingerprint`),
the 0-based source index, the protocol name, and the compile options.
Keying on the adjacency digest rather than the topology label means two
differently-built but identical graphs share entries, while any structural
change (shape, spacing, wrap-around...) invalidates them.

Two tiers:

* **in-memory** — per-:class:`ScheduleCache` LRU holding the full
  :class:`~repro.core.base.CompiledBroadcast` objects; hits are free.
  ``max_entries`` bounds it so a long-lived process (``repro serve``)
  does not grow without bound; evictions are counted.
* **on-disk** (optional ``path=`` / ``store=``) — the fingerprint-sharded
  :class:`~repro.core.store.ArtifactStore`: entries grouped into
  per-(topology, protocol) shard files, schedules in a binary
  memory-mapped layout, and precomputed broadcast *counts* persisted with
  every entry.  A warm metrics query (:meth:`cached_metrics`) is answered
  straight from the stored counts — no replay, no fixpoint; rebuilding a
  full :class:`CompiledBroadcast` (when a caller needs the trace) replays
  the stored schedule, which for a valid compiled schedule reproduces the
  authoritative trace exactly and doubles as the differential
  verification path for the stored counts.

Worker processes of a parallel sweep share one store directory: whichever
worker compiles a source first publishes it (atomic single-writer shard
updates), and later runs — the "warm" path of ``benchmarks/perf_sweep.py``
— skip compilation *and* replay entirely.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Dict, NamedTuple, Optional, Tuple

from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..sim.metrics import BroadcastMetrics, compute_metrics
from ..topology.base import Topology
from .base import BroadcastProtocol, CompiledBroadcast
from .store import (ArtifactStore, class_profile_hash, compiled_fields,
                    member_fields)


class WarmHit(NamedTuple):
    """A warm metrics answer and the tier that gave it (``"memory"`` or
    ``"store"``)."""

    metrics: BroadcastMetrics
    tier: str


def schedule_cache_key(topology: Topology, protocol_name: str,
                       source_index: int, *,
                       completion: bool = True,
                       repair: bool = True) -> str:
    """Deterministic cache key for one compilation."""
    h = hashlib.sha256()
    h.update(topology.fingerprint.encode("ascii"))
    h.update(f"|{protocol_name}|{source_index}"
             f"|c{int(completion)}|r{int(repair)}".encode("ascii"))
    return h.hexdigest()


class ScheduleCache:
    """Two-tier cache of compiled broadcast schedules.

    Parameters
    ----------
    path:
        Optional directory for the persistent tier (a sharded
        :class:`~repro.core.store.ArtifactStore`); created on first write.
    store:
        Alternatively, an already-open :class:`ArtifactStore` to share.
    max_entries:
        Optional cap on the in-memory tier; least-recently-used entries
        are evicted once the cap is exceeded (``None`` = unbounded, the
        right choice for one-shot sweeps; long-lived services pass a cap).

    Attributes
    ----------
    hits / misses / evictions:
        Counters over this instance's lookups (memory and disk hits both
        count as hits; ``disk_hits`` counts the subset served from the
        store).

    Besides per-source compilations, the cache holds a *class-keyed tier*
    of compile profiles for symmetry-reduced sweeps
    (:mod:`repro.core.symmetry`): one tiny record per source-equivalence
    class (did the class representative need completion/repair fixes, and
    how many rounds) that lets a warm sweep pick the batched execution
    mode for a whole class without compiling its representative first.
    Profiles are predictions, never answers — every class member's result
    is still produced (and verified reached) by the engine, so a stale or
    wrong profile costs a fallback, not correctness.

    Thread safety: the async service runtime serves per-class query
    groups concurrently on executor threads, all sharing one cache, so
    every public method guards the LRU dicts, counters and store calls
    with an internal re-entrant lock.  The slow fixpoint compile in
    :meth:`get_or_compile` deliberately runs *outside* the lock — that is
    the whole point of concurrent groups.  Two threads racing to compile
    the same key would simply both compile and last-write-wins, which is
    harmless because compilation is deterministic (in the service this
    cannot even happen: concurrent groups never share a query).
    """

    def __init__(self, path: Optional[os.PathLike] = None, *,
                 store: Optional[ArtifactStore] = None,
                 max_entries: Optional[int] = None) -> None:
        if path is not None and store is not None:
            raise ValueError("pass either path= or store=, not both")
        self.store: Optional[ArtifactStore] = (
            store if store is not None
            else ArtifactStore(path) if path is not None else None)
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._mem: "OrderedDict[str, CompiledBroadcast]" = OrderedDict()
        self._class_mem: Dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        #: Store operations that raised and were degraded to a miss
        #: (reads) or a skipped publish (writes).  A flaky or torn disk
        #: tier costs warmth, never answers: compilation is
        #: deterministic, so everything the store would have served can
        #: be recomputed.
        self.store_errors = 0

    @property
    def path(self):
        """Store directory (``None`` for a memory-only cache)."""
        return None if self.store is None else self.store.path

    # -- public API -------------------------------------------------------

    def get_or_compile(self, protocol: BroadcastProtocol,
                       topology: Topology, source, *,
                       completion: bool = True,
                       repair: bool = True) -> CompiledBroadcast:
        """Return the cached compilation, or compile and cache it."""
        return self.fetch(protocol, topology, source,
                          completion=completion, repair=repair)[0]

    def fetch(self, protocol: BroadcastProtocol, topology: Topology,
              source, *, completion: bool = True, repair: bool = True
              ) -> Tuple[CompiledBroadcast, str]:
        """:meth:`get_or_compile`, plus the tier that answered:
        ``"memory"``, ``"store"`` or ``"compile"``."""
        hit = self.lookup(protocol, topology, source,
                          completion=completion, repair=repair)
        if hit is not None:
            return hit
        # Plain compile (no cache=) — this is the only caching layer, so
        # the delegation cannot recurse.  Runs unlocked so concurrent
        # service groups compile in parallel.
        compiled = protocol.compile(
            topology, source, completion=completion, repair=repair)
        self.admit_compiled(protocol, topology, compiled,
                            completion=completion, repair=repair)
        return compiled, "compile"

    def lookup(self, protocol: BroadcastProtocol, topology: Topology,
               source, *, completion: bool = True, repair: bool = True
               ) -> Optional[Tuple[CompiledBroadcast, str]]:
        """The hit half of :meth:`fetch`: the full compilation from the
        memory tier or the store, with its tier.

        ``None`` counts a miss; the caller then compiles the source and
        hands it to :meth:`admit_compiled`.  A metrics-only store entry
        is a miss here.
        """
        source_index = topology.index(source)
        key = schedule_cache_key(
            topology, protocol.name, source_index,
            completion=completion, repair=repair)
        with self._lock:
            cached = self._mem.get(key)
            if cached is not None:
                self._mem.move_to_end(key)
                self.hits += 1
                return cached, "memory"

            if self.store is not None:
                cached = self._store_call(
                    self._load_store, protocol, topology, source,
                    source_index, completion, repair)
                if cached is not None:
                    self._remember(key, cached)
                    self.hits += 1
                    self.disk_hits += 1
                    return cached, "store"

            self.misses += 1
            return None

    def admit_compiled(self, protocol: BroadcastProtocol,
                       topology: Topology, compiled: CompiledBroadcast, *,
                       completion: bool = True,
                       repair: bool = True) -> None:
        """The miss half of :meth:`fetch`: remember a fresh compile in
        the memory tier and publish it to the store."""
        key = schedule_cache_key(
            topology, protocol.name, compiled.source,
            completion=completion, repair=repair)
        with self._lock:
            self._remember(key, compiled)
            if self.store is not None:
                self._publish_compiled(protocol, topology, compiled,
                                       completion, repair)

    def cached_metrics(self, protocol: BroadcastProtocol,
                       topology: Topology, source, *,
                       model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
                       packet_bits: int = PAPER_PACKET_BITS,
                       completion: bool = True,
                       repair: bool = True,
                       blocking: bool = True) -> Optional[WarmHit]:
        """Warm-hit metrics and their tier, or ``None`` when the source
        isn't cached.

        This is the no-replay fast path: a memory hit reduces the cached
        trace, a store hit rebuilds the metrics from the persisted counts
        without touching the simulation engine at all.  Misses are *not*
        counted here — the caller falls through to
        :meth:`get_or_compile`, which counts them.  With
        ``blocking=False`` a lock held by another thread (a stored
        schedule replaying, a publish) also reads as ``None``, so an
        event loop never waits behind it.
        """
        source_index = topology.index(source)
        key = schedule_cache_key(
            topology, protocol.name, source_index,
            completion=completion, repair=repair)
        if not self._lock.acquire(blocking=blocking):
            return None
        try:
            cached = self._mem.get(key)
            if cached is not None:
                self._mem.move_to_end(key)
                self.hits += 1
                return WarmHit(compute_metrics(cached.trace, topology,
                                               model, packet_bits),
                               "memory")
            if self.store is None:
                return None
            entry = self._store_call(
                self.store.get, topology, protocol.name, source_index,
                completion=completion, repair=repair)
            if entry is None:
                return None
            metrics = entry.metrics(topology, model, packet_bits)
            if metrics is None:  # a count-less index read from disk
                return None
            self.hits += 1
            self.disk_hits += 1
            return WarmHit(metrics, "store")
        finally:
            self._lock.release()

    def admit_member(self, protocol: BroadcastProtocol,
                     topology: Topology, member, *,
                     completion: bool = True,
                     repair: bool = True) -> None:
        """Persist one symmetry-class member result without a compile.

        Members carrying a full :class:`CompiledBroadcast`
        (fixpoint/translated members) publish schedule + counts;
        summary-mode members publish counts only — enough to answer
        every metrics query warm.  Members the producing cache already
        admitted (representatives and fallbacks, see
        :attr:`~repro.core.symmetry.ClassMemberResult.admitted`) are
        skipped, so each entry is published once.  *completion* /
        *repair* must be the options the class was compiled with — they
        pick the shard, so a member admitted under the wrong options
        would never be found by its own warm lookups.  No-op without a
        store.
        """
        if self.store is None or member.admitted:
            return
        with self._lock:
            self._store_call(self.store.put, topology, protocol.name,
                             member.source_index, completion=completion,
                             repair=repair, **member_fields(member))

    def class_profile(self, topology: Topology, protocol_name: str,
                      class_key: Tuple, *,
                      completion: bool = True,
                      repair: bool = True) -> Optional[dict]:
        """Cached compile profile of one source class, or ``None``."""
        key = class_profile_hash(topology.fingerprint, protocol_name,
                                 class_key, completion=completion,
                                 repair=repair)
        with self._lock:
            profile = self._class_mem.get(key)
            if profile is not None:
                return profile
            if self.store is None:
                return None
            profile = self._store_call(
                self.store.class_profile, topology, protocol_name, key,
                completion=completion, repair=repair)
            if profile is not None:
                self._class_mem[key] = profile
            return profile

    def store_class_profile(self, topology: Topology, protocol_name: str,
                            class_key: Tuple, profile: dict, *,
                            completion: bool = True,
                            repair: bool = True) -> None:
        """Record the compile profile of one source class."""
        key = class_profile_hash(topology.fingerprint, protocol_name,
                                 class_key, completion=completion,
                                 repair=repair)
        with self._lock:
            self._class_mem[key] = dict(profile)
            if self.store is not None:
                self._store_call(
                    self.store.store_class_profile,
                    topology, protocol_name, key, profile,
                    completion=completion, repair=repair)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for ``--cache-stats`` style reporting."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "memory_entries": len(self._mem),
                "max_entries": self.max_entries,
                "store_errors": self.store_errors,
            }

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk entries survive)."""
        with self._lock:
            self._mem.clear()
            self._class_mem.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    # -- internals --------------------------------------------------------

    def _store_call(self, op, *args, **kwargs):
        """One disk-tier operation, failures degraded to ``None``.

        The persistent tier is an optimisation; a raising store (torn
        write, yanked filesystem, corrupt index) must cost a recompile,
        not the query.  Failed reads report a miss, failed writes skip
        the publish; both bump :attr:`store_errors` so operators can see
        the disk tier misbehaving in ``stats()``/``health``.
        """
        try:
            return op(*args, **kwargs)
        except Exception:
            self.store_errors += 1
            return None

    def _publish_compiled(self, protocol: BroadcastProtocol,
                          topology: Topology, compiled: CompiledBroadcast,
                          completion: bool, repair: bool) -> None:
        self._store_call(self.store.put, topology, protocol.name,
                         compiled.source, completion=completion,
                         repair=repair, **compiled_fields(compiled))

    def _remember(self, key: str, compiled: CompiledBroadcast) -> None:
        self._mem[key] = compiled
        self._mem.move_to_end(key)
        if self.max_entries is not None:
            while len(self._mem) > self.max_entries:
                self._mem.popitem(last=False)
                self.evictions += 1

    def _load_store(self, protocol: BroadcastProtocol, topology: Topology,
                    source, source_index: int, completion: bool,
                    repair: bool) -> Optional[CompiledBroadcast]:
        entry = self.store.get(topology, protocol.name, source_index,
                               completion=completion, repair=repair)
        if entry is None or not entry.has_schedule:
            return None
        return entry.compiled(topology, protocol)
