"""Runtime variants: the same query engine under two execution models.

Following the ``AsyncRuntime`` / ``SimulationRuntime`` split of the
doeff CESK runtime (SNIPPETS.md snippet 3), the protocol / store /
engine code never touches a clock or an event loop itself — a *runtime*
decides how queries execute and what "time" means:

==========================  ========================  ====================
Runtime                     execution model           use case
==========================  ========================  ====================
:class:`AsyncRuntime`       asyncio, micro-batching   ``repro-wsn serve``
:class:`SimulationRuntime`  virtual clock, instant    deterministic tests
==========================  ========================  ====================

Both expose the same surface — ``query`` / ``query_batch`` / ``now`` —
so service code (and its tests) is runtime-agnostic; only
:class:`AsyncRuntime`'s methods are coroutines.  The ``repro-wsn query``
CLI needs no runtime: it calls
:meth:`~repro.service.engine.QueryEngine.query` directly.

The async runtime answers a warm hit at arrival, on the event loop:
:meth:`~repro.service.engine.QueryEngine.warm_answer` is a lookup (the
memory tier, then the store's counts) that never compiles, never builds
a topology and never waits for the cache lock.  Everything else is
*cold* — misses, schedule requests, expired queries, shapes whose
topology is not built yet, and hits that found the cache busy — and
only cold queries enter the queue.

The queue is where request coalescing becomes *temporal*: cold queries
issued by concurrent tasks funnel through one dispatcher, which drains
everything currently queued each tick — so N same-class queries in
flight cost one representative compile, and later stragglers ride the
persisted class profile (zero further compiles).  The queue bound, its
overflow policy and deadline shedding govern cold queries only.

One tick may mix query *classes* (different shapes, topologies or
compile options — a fleet warming several grids at once).  The
dispatcher splits the drained batch into per-class groups and serves
each group as its own
:meth:`~repro.service.engine.QueryEngine.query_batch` call on the
executor thread pool, concurrently: cold representatives of different
shapes compile on different cores instead of queueing behind each
other, and each group's waiters are answered as soon as their own call
returns, not when the tick's slowest class does.  Splitting costs
nothing in compiles — ``query_batch`` coalesces within a class family,
and the groups *are* the class families, so k classes cost exactly k
representative compiles whether they arrive in one tick or k.
"""

from __future__ import annotations

import abc
import asyncio
import functools
import time
from typing import List, Optional, Sequence, Tuple

from .engine import (DeadlineExceeded, Overloaded, Query, QueryEngine,
                     QueryResult)

#: Upper bound on one async dispatch batch (bounds per-tick latency).
MAX_BATCH = 1024

#: Default bound on queries waiting for a dispatch tick; beyond it the
#: overflow policy applies (reject the newcomer, or shed the oldest).
MAX_QUEUE = 4096

#: Overflow policies of the bounded async queue.
OVERFLOW_POLICIES = ("reject", "shed-oldest")


class Runtime(abc.ABC):
    """Common surface of the runtimes."""

    name: str = "runtime"

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (wall-clock or virtual)."""

    def stats(self):
        return self.engine.stats()


class SimulationRuntime(Runtime):
    """Deterministic in-process runtime with a virtual clock.

    Queries execute immediately (simulated time does not flow while the
    engine works); the clock only moves through :meth:`advance`.  Every
    answered query is appended to :attr:`timeline` as ``(virtual_time,
    via)`` so tests can assert on serving-tier sequences without
    touching wall-clock timing or sockets.
    """

    name = "simulation"

    def __init__(self, engine: QueryEngine) -> None:
        super().__init__(engine)
        self.time = 0.0
        self.timeline: List[Tuple[float, str]] = []

    def now(self) -> float:
        return self.time

    def advance(self, seconds: float) -> None:
        """Move the virtual clock forward (never backwards)."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} s")
        self.time += seconds

    def query(self, query: Query) -> QueryResult:
        result = self.engine.query(query)
        self.timeline.append((self.time, result.via))
        return result

    def query_batch(self, queries: Sequence[Query]) -> List[QueryResult]:
        results = self.engine.query_batch(queries)
        for result in results:
            self.timeline.append((self.time, result.via))
        return results


class AsyncRuntime(Runtime):
    """Asyncio runtime: warm hits at arrival, cold queries micro-batched.

    ``await runtime.query(...)`` answers a warm hit directly on the
    event loop; it never touches the queue, the dispatcher or the
    executor.  Cold queries enqueue onto one dispatcher task.  Each tick
    drains the queue, splits the batch into per-class groups (same
    topology, shape, protocol and compile options), and runs every group
    as its own ``query_batch`` on the default executor concurrently —
    the event loop stays responsive while cold classes compile in
    parallel on the engine's locked shared tiers.  Each group's waiters
    are answered when that group's call returns; the next tick starts
    once every group of this one has.  Failures are group-scoped: an
    error in one class rejects that group's futures and leaves the rest
    of the tick (and the dispatcher) running.
    """

    name = "async"

    def __init__(self, engine: QueryEngine, *,
                 max_batch: int = MAX_BATCH,
                 max_queue: int = MAX_QUEUE,
                 overflow: str = "reject") -> None:
        super().__init__(engine)
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"unknown overflow policy {overflow!r}; "
                             f"expected one of {OVERFLOW_POLICIES}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.overflow = overflow
        #: Overload-protection counters: queries refused at the door
        #: ("reject") and queued queries displaced by newer arrivals
        #: ("shed-oldest"), plus queries shed at dispatch because their
        #: deadline expired while queued.
        self.rejected = 0
        self.shed_queued = 0
        self.shed_expired = 0
        self._queue: Optional[asyncio.Queue] = None
        self._task: Optional[asyncio.Task] = None

    def now(self) -> float:
        return time.monotonic()

    def stats(self):
        out = dict(self.engine.stats())
        out.update({
            "rejected": self.rejected,
            "shed_queued": self.shed_queued,
            "shed_expired": self.shed_expired,
            "queued": 0 if self._queue is None else self._queue.qsize(),
            "max_queue": self.max_queue,
            "overflow": self.overflow,
        })
        return out

    async def __aenter__(self) -> "AsyncRuntime":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def start(self) -> None:
        if self._task is not None:
            return
        self._queue = asyncio.Queue()
        self._task = asyncio.create_task(self._dispatch(),
                                         name="repro-query-dispatch")

    async def close(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task, self._queue = None, None

    async def query(self, query: Query) -> QueryResult:
        """Answer one query: a warm hit at once, a cold query coalesced
        with everything else in flight.

        The deadline is stamped *here*, at arrival — queue wait counts
        against the client's timeout.  A full queue applies the overflow
        policy to cold queries: ``"reject"`` raises
        :class:`~repro.service.engine.Overloaded` to the newcomer
        (classic load shedding — cheapest possible refusal),
        ``"shed-oldest"`` fails the longest-waiting queued query instead,
        on the theory that its client has the least patience left
        anyway.
        """
        if self._task is None:
            await self.start()
        query = query.stamped(self.now())
        result = self.engine.warm_answer(query)
        if result is not None:
            return result
        if self._queue.qsize() >= self.max_queue:
            if self.overflow == "reject":
                self.rejected += 1
                raise Overloaded(
                    f"queue full ({self.max_queue} queries waiting)")
            old_query, old_future = self._queue.get_nowait()
            self.shed_queued += 1
            if not old_future.done():
                old_future.set_exception(Overloaded(
                    "shed from a full queue by a newer arrival"))
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        await self._queue.put((query, future))
        return await future

    async def query_batch(self, queries: Sequence[Query]
                          ) -> List[QueryResult]:
        return list(await asyncio.gather(
            *(self.query(q) for q in queries)))

    @staticmethod
    def _split_groups(batch):
        """Partition one tick's ``(query, future)`` pairs into per-class
        groups — the same key :meth:`QueryEngine.query_batch` coalesces
        on, plus ``include_schedule`` (schedule requests bypass
        coalescing anyway).  Insertion-ordered, so result delivery stays
        deterministic per group."""
        groups: "dict[tuple, list]" = {}
        for item in batch:
            query = item[0]
            key = (query.topology,
                   None if query.shape is None else tuple(query.shape),
                   query.protocol, query.completion, query.repair,
                   query.include_schedule)
            groups.setdefault(key, []).append(item)
        return list(groups.values())

    async def _dispatch(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            # One cooperative tick so tasks that became runnable in the
            # same burst get their queries enqueued before we drain.
            await asyncio.sleep(0)
            while (not self._queue.empty()
                   and len(batch) < self.max_batch):
                batch.append(self._queue.get_nowait())
            # Shed queries whose deadline expired while they waited —
            # before they reach the engine, let alone a compile.
            now = time.monotonic()
            live = []
            for query, future in batch:
                if query.expired(now):
                    self.shed_expired += 1
                    if not future.done():
                        future.set_exception(DeadlineExceeded(
                            "deadline exceeded while queued"))
                else:
                    live.append((query, future))
            batch = live
            if not batch:
                continue
            calls = []
            for group in self._split_groups(batch):
                call = loop.run_in_executor(
                    None, self.engine.query_batch, [q for q, _ in group])
                call.add_done_callback(
                    functools.partial(self._deliver, group))
                calls.append(call)
            try:
                # Every group finishes before the next tick drains, so a
                # straggler of a compiling class waits for its profile.
                await asyncio.wait(calls)
            except asyncio.CancelledError:  # runtime.close()
                for _, future in batch:
                    if not future.done():
                        future.cancel()
                raise

    @staticmethod
    def _deliver(group, call: asyncio.Future) -> None:
        """Resolve one group's waiters as soon as its call is done.

        A failure is group-scoped: it rejects these waiters and leaves
        the other groups and later ticks running."""
        exc = None if call.cancelled() else call.exception()
        for index, (_, future) in enumerate(group):
            if future.done():
                continue
            if call.cancelled():
                future.cancel()
            elif exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(call.result()[index])
