"""The query service: engine tiers, coalescing, runtimes, wire, server.

These are tier-1 tests: everything except the socket round-trip runs
in-process through :class:`~repro.service.runtime.SimulationRuntime`
(deterministic, no wall clock); the server test binds an ephemeral
localhost port through asyncio and exercises the full NDJSON path.
The ``perf_smoke``-marked test keeps a miniature of
``benchmarks/perf_service.py``'s warm-vs-cold contract in every tier-1
run.
"""

import asyncio
import json
import sys
import threading
import time

import pytest

from repro.core.compiler import compile_call_count
from repro.core.registry import protocol_for
from repro.core.symmetry import group_sources
from repro.radio.energy import PAPER_PACKET_BITS, PAPER_RADIO_MODEL
import repro.service.engine as engine_module
from repro.service import (AsyncRuntime, Query, QueryEngine,
                           SimulationRuntime, serve,
                           query_from_dict, query_to_dict, result_to_dict)
from repro.sim.metrics import compute_metrics
from repro.topology import Mesh2D4
from repro.topology.builder import make_topology

SHAPE = (8, 8)


def _query(source, **kwargs):
    return Query(topology="2D-4", source=tuple(source), shape=SHAPE,
                 **kwargs)


def _direct_metrics(source):
    topology = make_topology("2D-4", shape=SHAPE)
    compiled = protocol_for(topology).compile(topology, tuple(source))
    return compute_metrics(compiled.trace, topology, PAPER_RADIO_MODEL,
                           PAPER_PACKET_BITS)


def _same_class_sources(n, shape=SHAPE):
    topology = Mesh2D4(*shape)
    protocol = protocol_for(topology)
    sources = [topology.coord(i) for i in range(topology.num_nodes)]
    groups, _ = group_sources(topology, protocol, sources)
    members = max(groups.values(), key=len)
    return [sources[members[i % len(members)]] for i in range(n)]


# -- SimulationRuntime: the deterministic in-process path -----------------

@pytest.mark.perf_smoke
def test_simulation_runtime_round_trip_matches_direct_compile(tmp_path):
    engine = QueryEngine(tmp_path / "store")
    runtime = SimulationRuntime(engine)
    result = runtime.query(_query((3, 4)))
    assert result.via == "compile"
    assert result.metrics == _direct_metrics((3, 4))
    runtime.advance(1.5)
    # fresh engine on the same store: warm, served without compiling
    warm = SimulationRuntime(QueryEngine(tmp_path / "store"))
    calls0 = compile_call_count()
    again = warm.query(_query((3, 4)))
    assert compile_call_count() == calls0
    assert again.via == "store"
    assert again.metrics == result.metrics
    assert runtime.timeline == [(0.0, "compile")]
    assert warm.timeline == [(0.0, "store")]


def test_simulation_clock_never_goes_backwards(tmp_path):
    runtime = SimulationRuntime(QueryEngine(tmp_path / "store"))
    runtime.advance(2.0)
    assert runtime.now() == 2.0
    with pytest.raises(ValueError):
        runtime.advance(-0.5)


def test_memory_tier_serves_repeat_queries(tmp_path):
    engine = QueryEngine(tmp_path / "store")
    first = engine.query(_query((5, 5)))
    second = engine.query(_query((5, 5)))
    assert first.via == "compile"
    assert second.via == "memory"
    assert second.metrics == first.metrics


def test_via_label_comes_from_the_lookup_not_counter_deltas(tmp_path):
    """A store hit elsewhere that lands between a memory hit's counter
    read and its lookup must not relabel that hit ``store``."""
    engine = QueryEngine(tmp_path / "store")
    engine.query(_query((3, 4)))  # now in the memory tier
    lookup = engine.cache.cached_metrics

    def racing_lookup(*args, **kwargs):
        engine.cache.disk_hits += 1  # a concurrent store hit
        return lookup(*args, **kwargs)

    engine.cache.cached_metrics = racing_lookup
    assert engine.query(_query((3, 4))).via == "memory"
    assert [r.via for r in engine.query_batch([_query((3, 4))])] == [
        "memory"]


def test_include_schedule_returns_slot_node_pairs(tmp_path):
    engine = QueryEngine(tmp_path / "store")
    result = engine.query(_query((2, 2), include_schedule=True))
    assert result.schedule, "schedule requested but not returned"
    slots = [s for s, _ in result.schedule]
    assert slots == sorted(slots)
    assert len(result.schedule) == result.metrics.tx


# -- coalescing -----------------------------------------------------------

def test_batch_coalesces_same_class_queries_into_one_compile(tmp_path):
    sources = _same_class_sources(16)
    engine = QueryEngine(tmp_path / "store")
    calls0 = compile_call_count()
    results = engine.query_batch([_query(s) for s in sources])
    assert compile_call_count() - calls0 == 1
    assert engine.coalesced == len(sources) - 1
    assert all(r.via.startswith("class:") for r in results)
    # every member's metrics equal its direct compilation
    assert results[0].metrics == _direct_metrics(sources[0])
    assert results[-1].metrics == _direct_metrics(sources[-1])


def test_cold_multi_class_batch_puts_each_entry_once(tmp_path,
                                                    monkeypatch):
    """Representatives compiled through the engine's cache are published
    by the cache alone, not again when the class's members are
    admitted."""
    from repro.core.store import ArtifactStore

    shape = (12, 12)
    topology = Mesh2D4(*shape)
    protocol = protocol_for(topology)
    sources = [topology.coord(i) for i in range(topology.num_nodes)]
    groups, _ = group_sources(topology, protocol, sources)
    classes = sorted(groups.values(), key=len, reverse=True)
    picked = ([sources[p] for p in classes[0][:2]]
              + [sources[p] for p in classes[1][:2]]
              + [sources[classes[2][0]], sources[classes[3][0]]])
    puts = []
    put = ArtifactStore.put

    def counting(self, topology, protocol_name, source_index, **kwargs):
        puts.append(source_index)
        return put(self, topology, protocol_name, source_index, **kwargs)

    monkeypatch.setattr(ArtifactStore, "put", counting)
    results = QueryEngine(tmp_path / "store").query_batch(
        [Query(topology="2D-4", source=tuple(s), shape=shape)
         for s in picked])
    assert all(r.via.startswith("class:") for r in results)
    assert sorted(puts) == sorted(topology.index(s) for s in picked)


def test_single_flight_across_batches_via_class_profile(tmp_path):
    sources = _same_class_sources(8)
    store_dir = tmp_path / "store"
    calls0 = compile_call_count()
    QueryEngine(store_dir).query_batch([_query(s) for s in sources[:4]])
    assert compile_call_count() - calls0 == 1
    # a later engine on the same store reuses the persisted profile:
    # zero further compiles even for unseen members of the class
    calls1 = compile_call_count()
    QueryEngine(store_dir).query_batch([_query(s) for s in sources[4:]])
    assert compile_call_count() == calls1


def test_batch_honors_non_default_compile_options(tmp_path):
    """Regression: coalesced cold queries used to compile with default
    completion/repair regardless of the query's flags and persist the
    results under the default-options shard — wrong metrics, and warm
    lookups keyed on the real options never hit."""
    topology = make_topology("2D-8", shape=SHAPE)
    protocol = protocol_for(topology)
    sources = [topology.coord(i) for i in range(topology.num_nodes)]
    groups, _ = group_sources(topology, protocol, sources)
    # a multi-member class whose default compile needs fix phases, so
    # rule-only metrics are genuinely distinguishable
    coords = next(
        [sources[p] for p in positions]
        for positions in groups.values()
        if len(positions) >= 2 and (lambda c: c.completions or c.repairs)(
            protocol.compile(topology, sources[positions[0]])))

    def _rule_only_query(coord):
        return Query(topology="2D-8", source=tuple(coord), shape=SHAPE,
                     completion=False, repair=False)

    results = QueryEngine(tmp_path / "store").query_batch(
        [_rule_only_query(c) for c in coords])
    for coord, result in zip(coords, results):
        compiled = protocol.compile(topology, tuple(coord),
                                    completion=False, repair=False)
        assert result.metrics == compute_metrics(
            compiled.trace, topology, PAPER_RADIO_MODEL, PAPER_PACKET_BITS)
    default = protocol.compile(topology, tuple(coords[0]))
    assert results[0].metrics != compute_metrics(
        default.trace, topology, PAPER_RADIO_MODEL, PAPER_PACKET_BITS)

    # the entries landed in the options-keyed shard: a fresh engine
    # answers the same queries warm, without compiling
    warm = QueryEngine(tmp_path / "store")
    calls0 = compile_call_count()
    again = warm.query_batch([_rule_only_query(c) for c in coords])
    assert compile_call_count() == calls0
    for cold, hit in zip(results, again):
        assert hit.via == "store"
        assert hit.metrics == cold.metrics


def test_async_runtime_gathers_concurrent_queries_into_one_compile(
        tmp_path):
    sources = _same_class_sources(12)
    engine = QueryEngine(tmp_path / "store")

    async def run():
        async with AsyncRuntime(engine) as runtime:
            return await asyncio.gather(
                *(runtime.query(_query(s)) for s in sources))

    calls0 = compile_call_count()
    results = asyncio.run(run())
    assert compile_call_count() - calls0 == 1
    assert len(results) == len(sources)
    assert results[0].metrics == _direct_metrics(sources[0])


def test_async_tick_batches_mixed_shapes_without_extra_compiles(tmp_path):
    """One tick mixing query classes (two shapes here) splits into
    per-class groups served concurrently on the executor — and the
    split costs zero extra compiles: k cold classes in one mixed tick
    compile exactly k representatives, the same as k pure single-class
    ticks would."""
    shapes = [(8, 8), (6, 6)]
    per_shape = {shape: _same_class_sources(6, shape) for shape in shapes}
    engine = QueryEngine(tmp_path / "store")

    async def run():
        async with AsyncRuntime(engine) as runtime:
            queries = [Query(topology="2D-4", source=tuple(s), shape=shape)
                       for shape, sources in per_shape.items()
                       for s in sources]
            return await asyncio.gather(
                *(runtime.query(q) for q in queries))

    calls0 = compile_call_count()
    results = asyncio.run(run())
    assert compile_call_count() - calls0 == len(shapes)
    assert len(results) == sum(len(s) for s in per_shape.values())
    # per-group query_batch calls, not one monolithic batch per tick
    assert engine.batches >= len(shapes)
    # fidelity per shape against a direct compile
    pos = 0
    for shape, sources in per_shape.items():
        topology = make_topology("2D-4", shape=shape)
        compiled = protocol_for(topology).compile(topology,
                                                  tuple(sources[0]))
        expect = compute_metrics(compiled.trace, topology,
                                 PAPER_RADIO_MODEL, PAPER_PACKET_BITS)
        assert results[pos].metrics == expect
        pos += len(sources)


def test_async_tick_error_is_scoped_to_its_group(tmp_path):
    """A failing class in a mixed tick rejects only its own waiters;
    queries of other classes in the same tick still get answers."""
    engine = QueryEngine(tmp_path / "store")

    async def run():
        async with AsyncRuntime(engine) as runtime:
            return await asyncio.gather(
                runtime.query(Query(topology="no-such", source=(1,))),
                runtime.query(_query((4, 4))),
                return_exceptions=True)

    bad, good = asyncio.run(run())
    assert isinstance(bad, Exception)
    assert good.metrics == _direct_metrics((4, 4))


def test_async_runtime_propagates_errors_without_dying(tmp_path):
    engine = QueryEngine(tmp_path / "store")

    async def run():
        async with AsyncRuntime(engine) as runtime:
            with pytest.raises(Exception):
                await runtime.query(Query(topology="no-such", source=(1,)))
            return await runtime.query(_query((4, 4)))

    result = asyncio.run(run())
    assert result.metrics == _direct_metrics((4, 4))


class _ShapeGatedEngine(QueryEngine):
    """Engine whose batches of one shape block until the gate opens."""

    def __init__(self, store_path, gated_shape, gate):
        super().__init__(store_path)
        self._gated_shape = gated_shape
        self._gate = gate

    def query_batch(self, queries):
        if queries[0].shape == self._gated_shape:
            self._gate.wait(timeout=30)
        return super().query_batch(queries)


def test_async_tick_delivers_each_group_when_it_finishes(tmp_path):
    """A fast cold class is answered while a slower class of the same
    tick is still being served."""
    gate = threading.Event()
    engine = _ShapeGatedEngine(tmp_path / "store", (6, 6), gate)

    async def run():
        async with AsyncRuntime(engine) as runtime:
            slow = asyncio.create_task(runtime.query(
                Query(topology="2D-4", source=(1, 1), shape=(6, 6))))
            fast = asyncio.create_task(runtime.query(_query((4, 4))))
            try:
                answered = await asyncio.wait_for(fast, timeout=5)
                slow_pending = not slow.done()
            finally:
                gate.set()
            return answered, slow_pending, await slow

    answered, slow_pending, slow = asyncio.run(run())
    assert slow_pending
    assert answered.metrics == _direct_metrics((4, 4))
    assert slow.ok


async def _until(event: threading.Event, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not event.is_set():
        assert time.monotonic() < deadline, "event never set"
        await asyncio.sleep(0.005)


def test_async_warm_hit_is_answered_while_a_cold_compile_blocks(
        tmp_path, monkeypatch):
    """Warm hits are answered at arrival: they never queue behind a
    tick whose cold class is compiling, and never reach query_batch."""
    gate, compiling = threading.Event(), threading.Event()
    compile_class = engine_module.compile_class

    def gated_compile_class(*args, **kwargs):
        compiling.set()
        gate.wait(timeout=30)
        return compile_class(*args, **kwargs)

    monkeypatch.setattr(engine_module, "compile_class", gated_compile_class)
    engine = QueryEngine(tmp_path / "store")
    warm_source = (3, 4)
    engine.query(_query(warm_source))  # memory tier + topology LRU
    cold_source = next(s for s in _same_class_sources(8)
                       if tuple(s) != warm_source)

    async def run():
        async with AsyncRuntime(engine) as runtime:
            cold = asyncio.create_task(runtime.query(_query(cold_source)))
            try:
                await _until(compiling)
                batches = engine.batches
                warm = await asyncio.wait_for(
                    runtime.query(_query(warm_source)), timeout=5)
                cold_pending = not cold.done()
                warm_batches = engine.batches - batches
            finally:
                gate.set()
            return warm, cold_pending, warm_batches, await cold

    warm, cold_pending, warm_batches, cold = asyncio.run(run())
    assert cold_pending
    assert warm_batches == 0
    assert warm.via == "memory"
    assert warm.metrics == _direct_metrics(warm_source)
    assert cold.metrics == _direct_metrics(cold_source)


def test_async_warm_probe_never_waits_for_a_held_cache_lock(tmp_path):
    """A busy cache lock sends the warm probe to the queue instead of
    blocking the event loop; the query is answered once it is free."""
    engine = QueryEngine(tmp_path / "store")
    engine.query(_query((3, 4)))
    held, release = threading.Event(), threading.Event()

    def hold_cache_lock():
        with engine.cache._lock:
            held.set()
            release.wait(timeout=2.0)

    async def sleeper():
        t0 = time.monotonic()
        await asyncio.sleep(0.01)
        return time.monotonic() - t0

    async def run():
        async with AsyncRuntime(engine) as runtime:
            holder = threading.Thread(target=hold_cache_lock)
            holder.start()
            await _until(held)
            try:
                query = asyncio.create_task(runtime.query(_query((3, 4))))
                slept = await sleeper()
                query_pending = not query.done()
            finally:
                release.set()
            result = await asyncio.wait_for(query, timeout=10)
            holder.join(timeout=10)
            assert not holder.is_alive()
            return slept, query_pending, result

    slept, query_pending, result = asyncio.run(run())
    assert slept < 0.5  # a blocking probe would stall the loop ~2 s
    assert query_pending
    assert result.via == "memory"
    assert result.metrics == _direct_metrics((3, 4))


def test_async_warm_and_cold_lanes_stress(tmp_path):
    """Warm hits on the loop thread race cold groups on executor threads
    over the shared engine and cache: every answer stays exact and no
    counter update is lost."""
    shapes = [(8, 8), (6, 6), (7, 5)]
    engine = QueryEngine(tmp_path / "store")
    for source in ((1, 1), (2, 3), (4, 4)):
        engine.query(_query(source))  # warm 8x8 sources
    queries = [Query(topology="2D-4", source=(x, y), shape=shape)
               for shape in shapes
               for x in range(1, shape[0] + 1, 2)
               for y in range(1, shape[1] + 1, 2)]
    rounds = 3
    queries0 = engine.stats()["queries"]

    async def run():
        async with AsyncRuntime(engine) as runtime:
            answers = []
            for _ in range(rounds):
                answers += await asyncio.gather(
                    *(runtime.query(q) for q in queries))
            return answers

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        answers = asyncio.run(asyncio.wait_for(run(), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert engine.stats()["queries"] - queries0 == rounds * len(queries)
    assert {a.via for a in answers[-len(queries):]} <= {"memory", "store"}
    expected = {}
    for query in queries:
        topology = make_topology("2D-4", shape=query.shape)
        compiled = protocol_for(topology).compile(topology, query.source)
        expected[query] = compute_metrics(
            compiled.trace, topology, PAPER_RADIO_MODEL, PAPER_PACKET_BITS)
    for query, answer in zip(queries * rounds, answers):
        assert answer.metrics == expected[query]


# -- LRU bound ------------------------------------------------------------

def test_engine_lru_eviction_is_counted_and_bounded(tmp_path):
    engine = QueryEngine(tmp_path / "store", max_entries=2)
    for source in ((1, 1), (2, 2), (3, 3), (4, 4)):
        engine.query(_query(source))
    stats = engine.stats()
    assert stats["memory_entries"] == 2
    assert stats["evictions"] == 2
    assert stats["max_entries"] == 2
    # evicted entries come back from the store, not a recompile
    calls0 = compile_call_count()
    result = engine.query(_query((1, 1)))
    assert compile_call_count() == calls0
    assert result.via == "store"


# -- wire format ----------------------------------------------------------

def test_wire_round_trip():
    query = _query((3, 7), include_schedule=True)
    assert query_from_dict(query_to_dict(query)) == query


@pytest.mark.parametrize("payload", [
    [],                                      # not an object
    {"source": [1, 1]},                      # missing topology
    {"topology": "2D-4"},                    # missing source
    {"topology": 7, "source": [1, 1]},       # topology not a string
    {"topology": "2D-4", "source": "x"},     # source not a list
    {"topology": "2D-4", "source": [1, 1], "bogus": True},  # unknown field
])
def test_wire_rejects_malformed_requests(payload):
    with pytest.raises(ValueError):
        query_from_dict(payload)


def test_result_to_dict_carries_metrics_and_schedule(tmp_path):
    engine = QueryEngine(tmp_path / "store")
    result = engine.query(_query((2, 5), include_schedule=True))
    payload = result_to_dict(result)
    assert payload["ok"] is True
    assert payload["via"] == "compile"
    assert payload["metrics"]["tx"] == result.metrics.tx
    assert len(payload["schedule"]) == result.metrics.tx


# -- NDJSON server --------------------------------------------------------

def test_ndjson_server_round_trip(tmp_path):
    engine = QueryEngine(tmp_path / "store")

    async def run():
        ready = asyncio.Event()
        server = asyncio.create_task(
            serve(engine, "127.0.0.1", 0, ready=ready))
        await ready.wait()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ready.bound_port)
        requests = [
            {"topology": "2D-4", "shape": list(SHAPE), "source": [3, 4]},
            {"topology": "2D-4", "shape": list(SHAPE), "source": [3, 4],
             "include_schedule": True},
            {"oops": True},
        ]
        for request in requests:
            writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        lines = [await asyncio.wait_for(reader.readline(), timeout=30)
                 for _ in requests]
        writer.close()
        await writer.wait_closed()
        server.cancel()
        try:
            await server
        except asyncio.CancelledError:
            pass
        return [json.loads(line) for line in lines]

    responses = asyncio.run(run())
    oks = [r for r in responses if r["ok"]]
    errors = [r for r in responses if not r["ok"]]
    assert len(oks) == 2 and len(errors) == 1
    assert "unknown request fields" in errors[0]["error"]
    direct = _direct_metrics((3, 4))
    for response in oks:
        assert response["metrics"]["tx"] == direct.tx
        assert response["metrics"]["energy_J"] == direct.energy_j
    with_schedule = [r for r in oks if "schedule" in r]
    assert len(with_schedule) == 1
    assert len(with_schedule[0]["schedule"]) == direct.tx


def test_ndjson_server_rejects_oversized_request_line(tmp_path):
    """A line longer than MAX_LINE_BYTES gets an error response and a
    clean close, not a torn-down connection with a logged traceback
    (StreamReader.readline surfaces the overrun as ValueError)."""
    from repro.service.server import MAX_LINE_BYTES
    engine = QueryEngine(tmp_path / "store")

    async def run():
        ready = asyncio.Event()
        server = asyncio.create_task(
            serve(engine, "127.0.0.1", 0, ready=ready))
        await ready.wait()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", ready.bound_port)
        writer.write(b"x" * (MAX_LINE_BYTES + 16))
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        tail = await asyncio.wait_for(reader.read(), timeout=30)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass
        server.cancel()
        try:
            await server
        except asyncio.CancelledError:
            pass
        return json.loads(line), tail

    response, tail = asyncio.run(run())
    assert response["ok"] is False
    assert "exceeds" in response["error"]
    assert tail == b""  # server closed the connection after replying


# -- CLI ------------------------------------------------------------------

def test_cli_query_and_cache_stats(tmp_path, capsys):
    from repro.cli import main
    store = str(tmp_path / "store")
    args = ["query", "2D-4", "--shape", "8", "8", "--source", "3", "4",
            "--store", store, "--cache-stats"]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "via            : compile" in cold
    assert "cache-stats:" in cold and "misses=1" in cold
    calls0 = compile_call_count()
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "via            : store" in warm
    assert "disk_hits=1" in warm
    assert compile_call_count() == calls0


def test_cli_sweep_cache_stats_line(tmp_path, capsys):
    from repro.cli import main
    assert main(["sweep", "2D-4", "--shape", "8", "8", "--stride", "4",
                 "--cache", str(tmp_path / "c"), "--cache-stats",
                 "--cache-max-entries", "4"]) == 0
    out = capsys.readouterr().out
    assert "cache-stats:" in out
    assert "evictions=" in out


# -- warm bulk precompute (miniature of benchmarks/perf_service.py) -------

@pytest.mark.perf_smoke
def test_warm_precompute_serves_every_source_without_compiling(tmp_path):
    store_dir = tmp_path / "store"
    warmer = QueryEngine(store_dir)
    summary = warmer.warm([("2D-4", SHAPE)])
    assert summary["entries"] == SHAPE[0] * SHAPE[1]
    assert summary["compiles"] <= summary["classes"]

    engine = QueryEngine(store_dir)  # fresh memory tier
    topology = Mesh2D4(*SHAPE)
    calls0 = compile_call_count()
    sample = [topology.coord(i) for i in range(0, topology.num_nodes, 7)]
    for source in sample:
        result = engine.query(_query(source))
        assert result.via == "store", source
    assert compile_call_count() == calls0
    # spot-check fidelity against a direct compile
    assert engine.query(_query(sample[3])).metrics \
        == _direct_metrics(sample[3])
