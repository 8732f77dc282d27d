"""The query engine: (topology, shape, source, protocol) -> metrics.

This is the synchronous core every runtime wraps.  A query resolves in
tiers, cheapest first:

1. **memory** — the LRU-bounded :class:`~repro.core.cache.ScheduleCache`
   tier holds full compilations; metrics are one reduction away;
2. **store** — the sharded :class:`~repro.core.store.ArtifactStore`
   persists model-independent broadcast counts with every entry, so a
   warm hit rebuilds exact metrics without replaying the schedule;
3. **compile** — the ordinary fixpoint compiler, publishing its result
   to both tiers on the way out.

Batched queries additionally *coalesce*: sources that map to the same
symmetry class (:meth:`~repro.core.base.BroadcastProtocol
.source_class_key`) share one representative compile, with the members
derived through the batched class engine
(:func:`~repro.core.symmetry.compile_class`) — the engine-level
equivalent of the symmetry-reduced sweep, applied to whatever mixture of
queries happens to be in flight.  Coalescing is single-flight across
batches too: the first batch persists the class *profile*, so a later
batch hitting the same class issues zero further ``compile_broadcast``
calls.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..core.cache import ScheduleCache
from ..core.registry import protocol_for
from ..core.store import ArtifactStore
from ..core.symmetry import compile_class
from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..sim.metrics import BroadcastMetrics, compute_metrics
from ..topology.builder import make_topology

#: Default memory-tier bound of a service engine: enough for several
#: full paper-scale sweeps, small enough that a long-lived process
#: doesn't grow without bound.
DEFAULT_MAX_ENTRIES = 4096

#: Bound on the per-engine topology cache (adjacency + kernels are the
#: heavy part of a topology; a serving fleet uses a handful of shapes).
MAX_TOPOLOGIES = 32


class DeadlineExceeded(Exception):
    """The query's deadline passed before (or while) it was served.

    Shedding happens *before* the expensive step — an expired query
    never burns a compile on an answer nobody is waiting for.
    """

    error_type = "deadline_exceeded"


class Overloaded(Exception):
    """The service shed this query to protect itself under load."""

    error_type = "overloaded"


@dataclass(frozen=True)
class Query:
    """One service request.

    ``source`` and ``shape`` are tuples (1-based source coordinate, grid
    shape); ``shape=None`` means the paper's 512-node evaluation shape.
    ``protocol=None`` selects the paper protocol of the topology.
    ``include_schedule`` additionally returns the compiled transmission
    schedule as ``(slot, node)`` pairs.

    ``timeout_ms`` is the client's patience; the serving side stamps it
    into ``deadline`` (a ``time.monotonic()`` instant, never serialized
    — wall clocks don't cross the wire) on arrival via :meth:`stamped`,
    and every expensive step downstream sheds the query once the
    deadline passes.
    """

    topology: str
    source: Tuple[int, ...]
    shape: Optional[Tuple[int, ...]] = None
    protocol: Optional[str] = None
    completion: bool = True
    repair: bool = True
    include_schedule: bool = False
    timeout_ms: Optional[float] = None
    deadline: Optional[float] = None

    def stamped(self, now: Optional[float] = None) -> "Query":
        """This query with ``deadline`` fixed from ``timeout_ms``."""
        if self.timeout_ms is None or self.deadline is not None:
            return self
        if now is None:
            now = time.monotonic()
        return dataclasses.replace(
            self, deadline=now + self.timeout_ms / 1000.0)

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        if now is None:
            now = time.monotonic()
        return now > self.deadline


@dataclass
class QueryResult:
    """Answer to one :class:`Query`.

    ``via`` records the serving tier: ``"memory"`` / ``"store"`` (warm
    hits), ``"compile"`` (cold fixpoint), ``"class:<mode>"`` for
    batch-coalesced members (``mode`` is the class engine's execution
    path, e.g. ``summary`` or ``representative``), or ``"shed"`` for a
    query the engine declined — then ``metrics`` is ``None`` and
    ``error``/``error_type`` say why.
    """

    query: Query
    metrics: Optional[BroadcastMetrics]
    via: str
    schedule: Optional[List[Tuple[int, int]]] = None
    error: Optional[str] = None
    error_type: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _shed_result(query: Query, exc: Exception) -> QueryResult:
    return QueryResult(query=query, metrics=None, via="shed",
                       error=str(exc) or type(exc).__name__,
                       error_type=getattr(exc, "error_type", "error"))


@dataclass
class _Group:
    """Batch bookkeeping: positions of one (topology, protocol, options)
    family inside the request list."""

    topology: object
    protocol: object
    completion: bool
    repair: bool
    positions: List[int] = field(default_factory=list)


class QueryEngine:
    """Long-lived broadcast query service core.

    Thread-compatibility: the async runtime serves per-class query
    groups of one tick concurrently on the executor thread pool, so the
    engine's shared mutable state — the request counters and the
    topology LRU — is guarded by a small internal lock, and the
    :class:`~repro.core.cache.ScheduleCache` underneath locks its own
    tiers.  The slow work (fixpoint compiles) runs unlocked; concurrent
    groups never share a query, so no compile is ever duplicated.  The
    ``via`` label is the tier the lookup itself reports, so concurrent
    hits elsewhere cannot relabel an answer.
    """

    def __init__(self, store_path=None, *,
                 store: Optional[ArtifactStore] = None,
                 max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
                 model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
                 packet_bits: int = PAPER_PACKET_BITS) -> None:
        self.cache = ScheduleCache(store_path, store=store,
                                   max_entries=max_entries)
        self.model = model
        self.packet_bits = packet_bits
        self._lock = threading.Lock()
        self._topologies: "OrderedDict[Tuple, object]" = OrderedDict()
        self.queries = 0
        self.batches = 0
        self.coalesced = 0
        self.shed = 0

    # -- resolution -------------------------------------------------------

    def topology(self, label: str, shape: Optional[Tuple[int, ...]]):
        """Resolve (and LRU-cache) a topology instance."""
        topo = self._cached_topology(label, shape)
        if topo is not None:
            return topo
        # Build outside the lock (adjacency + kernels are the heavy
        # part); concurrent groups ask for different keys, and a rare
        # duplicate build is idempotent.
        key = (label, None if shape is None else tuple(shape))
        topo = make_topology(label, shape=key[1])
        with self._lock:
            self._topologies[key] = topo
            while len(self._topologies) > MAX_TOPOLOGIES:
                self._topologies.popitem(last=False)
        return topo

    def _cached_topology(self, label: str,
                         shape: Optional[Tuple[int, ...]]):
        """The LRU's topology instance, or ``None``; never builds one."""
        key = (label, None if shape is None else tuple(shape))
        with self._lock:
            topo = self._topologies.get(key)
            if topo is not None:
                self._topologies.move_to_end(key)
            return topo

    def _protocol(self, query: Query, topology):
        if query.protocol is None:
            return protocol_for(topology)
        return protocol_for(query.protocol)

    def _check_deadline(self, query: Query) -> None:
        if query.expired():
            with self._lock:
                self.shed += 1
            raise DeadlineExceeded(
                f"deadline exceeded (timeout_ms={query.timeout_ms})")

    def _warm(self, query: Query, topology, protocol, *,
              blocking: bool = True) -> Optional[QueryResult]:
        """The one warm lookup — memory tier, then store counts: the
        answer labelled with the tier that gave it, or ``None`` (not
        warm)."""
        hit = self.cache.cached_metrics(
            protocol, topology, query.source, model=self.model,
            packet_bits=self.packet_bits, completion=query.completion,
            repair=query.repair, blocking=blocking)
        if hit is None:
            return None
        return QueryResult(query=query, metrics=hit.metrics, via=hit.tier)

    def warm_answer(self, query: Query) -> Optional[QueryResult]:
        """*query*'s answer when it is a warm hit, else ``None``.

        Safe to call on an event loop: it never compiles, never builds a
        topology and never waits for the cache lock.  A schedule request,
        an expired query, a shape not yet in the topology LRU and a busy
        cache all read as ``None``; the caller then falls back to
        :meth:`query_batch`.  Only a hit counts as a query.
        """
        if query.include_schedule or query.expired():
            return None
        topology = self._cached_topology(query.topology, query.shape)
        if topology is None:
            return None
        result = self._warm(query, topology,
                            self._protocol(query, topology), blocking=False)
        if result is not None:
            with self._lock:
                self.queries += 1
        return result

    # -- single queries ---------------------------------------------------

    def query(self, query: Query) -> QueryResult:
        """Answer one query through the cheapest available tier.

        Raises :class:`DeadlineExceeded` (after counting the query as
        shed) when the stamped deadline has passed — checked on entry
        and again right before the compile, the step worth shedding.
        """
        query = query.stamped()
        with self._lock:
            self.queries += 1
        self._check_deadline(query)
        topology = self.topology(query.topology, query.shape)
        protocol = self._protocol(query, topology)
        if not query.include_schedule:
            result = self._warm(query, topology, protocol)
            if result is not None:
                return result
        self._check_deadline(query)  # a compile may follow: last exit
        faults.sleep_if(faults.COMPILE_SLOW)
        compiled, via = self.cache.fetch(
            protocol, topology, query.source,
            completion=query.completion, repair=query.repair)
        metrics = compute_metrics(compiled.trace, topology, self.model,
                                  self.packet_bits)
        schedule = None
        if query.include_schedule:
            slots, nodes = compiled.schedule.to_arrays()
            schedule = list(zip(slots.tolist(), nodes.tolist()))
        return QueryResult(query=query, metrics=metrics, via=via,
                           schedule=schedule)

    # -- batched queries (symmetry-class coalescing) ----------------------

    def query_batch(self, queries: Sequence[Query]) -> List[QueryResult]:
        """Answer a batch, coalescing same-class cold queries.

        Results align with the input order.  Warm queries are served
        tier-first exactly like :meth:`query`; the *cold* remainder is
        grouped by symmetry class and each class compiles once —
        ``compile_call_count`` moves by the number of distinct cold
        classes, not the number of queries.
        """
        with self._lock:
            self.batches += 1
        now = time.monotonic()
        queries = [query.stamped(now) for query in queries]
        results: List[Optional[QueryResult]] = [None] * len(queries)
        groups: Dict[Tuple, _Group] = {}
        for pos, query in enumerate(queries):
            if query.expired(now):
                with self._lock:
                    self.queries += 1
                    self.shed += 1
                results[pos] = _shed_result(query, DeadlineExceeded(
                    "deadline exceeded before serving"))
                continue
            if query.include_schedule:
                results[pos] = self.query(query)  # schedule => full path
                continue
            gkey = (query.topology,
                    None if query.shape is None else tuple(query.shape),
                    query.protocol, query.completion, query.repair)
            group = groups.get(gkey)
            if group is None:
                topology = self.topology(query.topology, query.shape)
                group = _Group(topology=topology,
                               protocol=self._protocol(query, topology),
                               completion=query.completion,
                               repair=query.repair)
                groups[gkey] = group
            group.positions.append(pos)
        for group in groups.values():
            self._serve_group(queries, results, group)
        return results

    def _serve_group(self, queries, results, group: _Group) -> None:
        topology, protocol = group.topology, group.protocol
        cold: List[int] = []
        for pos in group.positions:
            query = queries[pos]
            with self._lock:
                self.queries += 1
            results[pos] = self._warm(query, topology, protocol)
            if results[pos] is None:
                cold.append(pos)
        if not cold:
            return
        # The warm sweep is cheap; what follows is not.  Re-check the
        # cold remainder's deadlines so an expired query sheds *before*
        # its class burns a compile on it.
        now = time.monotonic()
        live: List[int] = []
        for pos in cold:
            if queries[pos].expired(now):
                with self._lock:
                    self.shed += 1
                results[pos] = _shed_result(queries[pos], DeadlineExceeded(
                    "deadline exceeded before compile"))
            else:
                live.append(pos)
        cold = live
        if not cold:
            return
        # Group the cold remainder by symmetry class; each class costs at
        # most one representative compile for the whole batch.
        by_class: Dict[Tuple, List[int]] = {}
        direct: List[int] = []
        for pos in cold:
            key = protocol.source_class_key(topology, queries[pos].source)
            if key is None:
                direct.append(pos)
            else:
                by_class.setdefault(key, []).append(pos)
        for class_key, positions in by_class.items():
            # Distinct sources only: duplicates ride the first answer.
            coords: List[Tuple] = []
            coord_pos: Dict[Tuple, List[int]] = {}
            for pos in positions:
                coord = tuple(queries[pos].source)
                if coord not in coord_pos:
                    coords.append(coord)
                coord_pos[coord] = coord_pos.get(coord, []) + [pos]
            faults.sleep_if(faults.COMPILE_SLOW)
            members = compile_class(topology, protocol, class_key,
                                    coords, cache=self.cache,
                                    completion=group.completion,
                                    repair=group.repair)
            with self._lock:
                self.coalesced += len(positions) - 1
            for coord, member in zip(coords, members):
                self.cache.admit_member(protocol, topology, member,
                                        completion=group.completion,
                                        repair=group.repair)
                metrics = member.metrics(topology, self.model,
                                         self.packet_bits)
                for pos in coord_pos[coord]:
                    results[pos] = QueryResult(
                        query=queries[pos], metrics=metrics,
                        via=f"class:{member.via}")
        for pos in direct:
            with self._lock:
                self.queries -= 1  # self.query() recounts it
            try:
                results[pos] = self.query(queries[pos])
            except DeadlineExceeded as exc:
                results[pos] = _shed_result(queries[pos], exc)

    # -- warmup and stats -------------------------------------------------

    def warm(self, shapes, protocols: Optional[Sequence[str]] = None
             ) -> Dict[str, int]:
        """Precompute the store for a fleet of ``(label, shape)`` pairs.

        Requires a persistent store; see
        :meth:`repro.core.store.ArtifactStore.warm`.
        """
        if self.cache.store is None:
            raise ValueError("warm() needs an engine with a store "
                             "(pass store_path=)")
        return self.cache.store.warm(shapes, protocols=protocols)

    def stats(self) -> Dict[str, object]:
        """Engine + cache counter snapshot (the ``--cache-stats`` line)."""
        from ..core.compiler import compile_call_count
        out = {
            "queries": self.queries,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "shed": self.shed,
            "compile_calls": compile_call_count(),
            "topologies": len(self._topologies),
        }
        out.update(self.cache.stats())
        return out

    def health(self) -> Dict[str, object]:
        """Liveness snapshot for the wire ``health`` request.

        Deliberately cheap: the native probe reports the cached build
        verdict (:func:`~repro.sim.native.native_state`) without
        triggering the lazy C build, and nothing here compiles.
        """
        from ..sim.backend import BREAKER
        from ..sim.native import native_state
        available, reason = native_state()
        store = self.cache.store
        shards = 0
        if store is not None:
            try:
                shards = sum(1 for p in store.path.glob("*.json"))
            except OSError:  # pragma: no cover - racing a cleanup
                shards = 0
        return {
            "status": "ok",
            "engine": self.stats(),
            "native": {"available": available, "reason": reason},
            "breaker": BREAKER.state(),
            "store": {
                "path": None if store is None else str(store.path),
                "shards": shards,
            },
        }
