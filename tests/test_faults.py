"""Chaos suite: the serving stack under the seeded fault adversary.

PR 1–9 gave the *radios* an adversary (seeded loss, dead nodes) and
proved the protocols survive it; this suite does the same for the
*machine*.  A :class:`repro.faults.FaultPlan` arms the seams compiled
into the stack — worker murder in the shard pool, torn store writes,
native/backend failures mid-run, slow compiles, dropped and garbled
server responses — and every test asserts the two properties the
resilience layer promises:

* **availability**: the service keeps answering (clients retry through
  transport chaos, deadlines shed instead of hanging, the breaker
  demotes instead of erroring);
* **answer equality**: everything answered equals the fault-free
  result bit for bit — shard retries are bit-identical because the
  counter RNG keys on trial seeds, tier demotion is bit-identical
  because the engine tiers are, and store faults cost warmth, never
  answers.

The ``faults`` marker selects the suite (``-m faults``); everything
here is fast enough for tier-1.
"""

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.analysis import simulate_lifetime, sweep_sources
from repro.core.cache import ScheduleCache
from repro.core.registry import protocol_for
from repro.core.store import ArtifactStore, shard_id
from repro.faults import FaultPlan, FaultSpec, InjectedFault
from repro.radio import bitpack
from repro.radio.energy import PAPER_PACKET_BITS, PAPER_RADIO_MODEL
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.service import (BackgroundServer, DeadlineExceeded, Overloaded,
                           Query, QueryEngine, RetriesExhausted,
                           RetryPolicy, ServiceClient, query_from_dict,
                           query_to_dict)
from repro.service.runtime import AsyncRuntime
from repro.service.server import _error_payload
from repro.service.wire import MAX_WIRE_BATCH, request_from_dict
from repro.sim import (RecoveryPolicy, native_available, resolve_engine,
                       run_reactive_batch, run_reactive_batch_sharded,
                       run_reactive_multi, replay_batch,
                       replay_batch_sharded)
from repro.sim import backend as backend_mod
from repro.sim.backend import BREAKER
from repro.sim.metrics import compute_metrics
from repro.sim.shard import MAX_SHARD_ATTEMPTS, ShardFailure
from repro.topology import Mesh2D4

needs_packing = pytest.mark.skipif(not bitpack.packing_supported(),
                                   reason="big-endian host")

SHAPE = (5, 4)


def relay_all(mesh):
    return np.ones(mesh.num_nodes, dtype=bool)


def assert_summaries_equal(a, b, tag=""):
    assert np.array_equal(a.first_rx, b.first_rx), tag
    assert np.array_equal(a.tx_count, b.tx_count), tag
    assert np.array_equal(a.rx_count, b.rx_count), tag
    assert np.array_equal(a.collisions, b.collisions), tag
    assert a.dropped_forced == b.dropped_forced, tag


def norm_row(row):
    """Metrics row -> JSON-normalised dict (tuples become lists)."""
    return json.loads(json.dumps({**row, "source": list(row["source"])}))


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    """Every test starts (and must end) with a closed breaker and no
    armed plan — chaos must not leak across tests."""
    BREAKER.reset()
    yield
    assert faults.active() is None, "a FaultPlan leaked past its test"
    BREAKER.reset()


# ---------------------------------------------------------------------------
# The harness itself


class TestFaultPlan:
    def test_unarmed_seams_are_noops(self):
        assert faults.active() is None
        assert not faults.fires(faults.SHARD_KILL, key=(0, 0))
        faults.check(faults.STORE_TORN)  # must not raise
        faults.sleep_if(faults.COMPILE_SLOW)

    def test_occurrence_trigger(self):
        plan = FaultPlan([FaultSpec("seam", at=(1, 3))])
        with plan.arm():
            hits = [faults.fires("seam") for _ in range(5)]
        assert hits == [False, True, False, True, False]
        assert plan.stats()["seam"] == {"consulted": 5, "fired": 2}

    def test_key_trigger_with_limit(self):
        plan = FaultPlan([FaultSpec("seam", keys=frozenset({(1, 0)}),
                                    limit=1)])
        with plan.arm():
            assert not faults.fires("seam", key=(0, 0))
            assert faults.fires("seam", key=(1, 0))
            assert not faults.fires("seam", key=(1, 0))  # limit spent

    def test_rate_trigger_is_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan([FaultSpec("seam", rate=0.5)], seed=seed)
            with plan.arm():
                return [faults.fires("seam") for _ in range(64)]

        a, b = pattern(7), pattern(7)
        assert a == b
        assert any(a) and not all(a)  # a real mixture at rate 0.5
        assert pattern(8) != a  # and the seed matters

    def test_check_raises_injected_fault(self):
        plan = FaultPlan([FaultSpec("seam", at=(0,))])
        with plan.arm():
            with pytest.raises(InjectedFault, match="seam"):
                faults.check("seam")

    def test_nested_arming_rejected(self):
        plan = FaultPlan([])
        with plan.arm():
            with pytest.raises(RuntimeError, match="already armed"):
                FaultPlan([]).arm().__enter__()

    def test_duplicate_seam_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([FaultSpec("s"), FaultSpec("s")])


# ---------------------------------------------------------------------------
# Store: torn writes cost warmth, never answers


class TestTornStoreWrites:
    def test_torn_write_degrades_to_recompile(self, tmp_path):
        mesh = Mesh2D4(*SHAPE)
        protocol = protocol_for(mesh)
        clean = ScheduleCache()
        want = clean.get_or_compile(protocol, mesh, (1, 1))

        cache = ScheduleCache(tmp_path / "store")
        plan = FaultPlan([FaultSpec(faults.STORE_TORN, at=(0,))])
        with plan.arm():
            got = cache.get_or_compile(protocol, mesh, (1, 1))
        # The query survived the torn publish...
        assert got.trace.tx_events == want.trace.tx_events
        assert cache.store_errors == 1
        assert cache.stats()["store_errors"] == 1
        # ...and the store simply never saw the entry: a fresh cache on
        # the same directory misses and recompiles to the same answer.
        cold = ScheduleCache(store=cache.store)
        assert cold.cached_metrics(protocol, mesh, (1, 1)) is None
        again = cold.get_or_compile(protocol, mesh, (1, 1))
        assert again.trace.tx_events == want.trace.tx_events
        assert cold.store_errors == 0  # healthy store now: publish lands
        warm = ScheduleCache(store=cache.store)
        assert warm.cached_metrics(protocol, mesh, (1, 1)) is not None

    def test_orphan_bytes_are_reclaimed_by_gc(self, tmp_path):
        mesh = Mesh2D4(*SHAPE)
        protocol = protocol_for(mesh)
        cache = ScheduleCache(tmp_path / "store")
        plan = FaultPlan([FaultSpec(faults.STORE_TORN, at=(0,))])
        with plan.arm():
            cache.get_or_compile(protocol, mesh, (1, 1))
        cache.get_or_compile(protocol, mesh, (2, 1))  # healthy publish
        stats = cache.store.gc()
        assert stats["bytes_after"] <= stats["bytes_before"]
        # The healthy entry survives compaction.
        assert ScheduleCache(store=cache.store).cached_metrics(
            protocol, mesh, (2, 1)) is not None

    def test_torn_warm_commit_is_counted_and_reclaimed(self, tmp_path):
        mesh = Mesh2D4(8, 8)
        protocol = protocol_for(mesh)
        store = ArtifactStore(tmp_path / "store")
        # One published entry gives the shard an index, so the torn
        # commit's bytes are orphans gc() can find.
        ScheduleCache(store=store).get_or_compile(protocol, mesh, (1, 1))
        sid = shard_id(mesh.fingerprint, protocol.name)
        data_path = store.path / f"{sid}.bin"
        live = data_path.stat().st_size

        plan = FaultPlan([FaultSpec(faults.STORE_TORN, at=(0,))])
        with plan.arm():
            stats = store.warm([("2D-4", (8, 8))])
        assert stats["store_errors"] == 1
        assert stats["entries"] == mesh.num_nodes
        orphans = data_path.stat().st_size - live
        assert orphans > 0

        # Every source is a clean miss or a correct hit, never a wrong
        # one, both in the warming process and in a fresh reader.
        for reader in (store, ArtifactStore(store.path)):
            hits = 0
            for index in range(mesh.num_nodes):
                entry = reader.get(mesh, protocol.name, index)
                if entry is None:
                    continue
                hits += 1
                compiled = protocol.compile(mesh, mesh.coord(index))
                assert entry.metrics(mesh) == compute_metrics(
                    compiled.trace, mesh, PAPER_RADIO_MODEL,
                    PAPER_PACKET_BITS)
            assert hits == 1  # only the entry published before the warm

        swept = ArtifactStore(store.path).gc()
        assert swept["reclaimed"] == orphans and swept["dropped"] == 0
        assert data_path.stat().st_size == live

        assert store.warm([("2D-4", (8, 8))])["store_errors"] == 0
        engine = QueryEngine(store.path)
        for index in range(mesh.num_nodes):
            result = engine.query(Query(topology="2D-4", shape=(8, 8),
                                        source=mesh.coord(index)))
            assert result.via == "store", index


# ---------------------------------------------------------------------------
# Shard pool: worker murder, retry, bit-identity


@pytest.mark.faults
class TestShardWorkerMurder:
    def _kwargs(self, mesh, trials=6):
        return dict(loss=BernoulliBatchLoss(0.2,
                                            trial_seeds(0, 0.2, trials)),
                    trials=trials, summary=True)

    def test_killed_reactive_shard_is_retried_bit_identically(self):
        mesh = Mesh2D4(*SHAPE)
        want = run_reactive_batch(mesh, 0, relay_all(mesh),
                                  **self._kwargs(mesh))
        plan = FaultPlan([FaultSpec(faults.SHARD_KILL,
                                    keys=frozenset({(1, 0)}))])
        with plan.arm():
            got = run_reactive_batch_sharded(mesh, 0, relay_all(mesh),
                                             workers=3,
                                             **self._kwargs(mesh))
        assert plan.fired(faults.SHARD_KILL) == 1  # the murder happened
        assert_summaries_equal(want, got, "killed+retried shard")

    def test_killed_replay_shard_is_retried_bit_identically(self):
        mesh = Mesh2D4(*SHAPE)
        compiled = protocol_for(mesh).compile(mesh, (1, 1))
        kwargs = self._kwargs(mesh)
        want = replay_batch(mesh, compiled.schedule, compiled.source,
                            **kwargs)
        plan = FaultPlan([FaultSpec(faults.SHARD_KILL,
                                    keys=frozenset({(0, 0)}))])
        with plan.arm():
            got = replay_batch_sharded(mesh, compiled.schedule,
                                       compiled.source, workers=2,
                                       **kwargs)
        assert plan.fired(faults.SHARD_KILL) == 1
        assert_summaries_equal(want, got, "killed+retried replay shard")

    def test_persistent_murder_exhausts_retries(self):
        mesh = Mesh2D4(*SHAPE)
        keys = frozenset((0, attempt)
                         for attempt in range(MAX_SHARD_ATTEMPTS))
        plan = FaultPlan([FaultSpec(faults.SHARD_KILL, keys=keys)])
        with plan.arm():
            with pytest.raises(ShardFailure, match="consecutive"):
                run_reactive_batch_sharded(mesh, 0, relay_all(mesh),
                                           workers=2,
                                           **self._kwargs(mesh, trials=4))

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Let ``effective_workers`` grant two workers on any host."""
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

    def test_killed_sweep_chunk_is_retried_identically(self, two_cpus):
        mesh = Mesh2D4(8, 6)
        want = sweep_sources(mesh).metrics
        plan = FaultPlan([FaultSpec(faults.SHARD_KILL,
                                    keys=frozenset({(1, 0)}))])
        with plan.arm():
            got = sweep_sources(mesh, workers=2).metrics
        assert plan.fired(faults.SHARD_KILL) == 1
        assert got == want

    def test_killed_lifetime_chunk_is_retried_identically(self, two_cpus):
        mesh = Mesh2D4(*SHAPE)
        sources = [(1, 1), (3, 2), (5, 4), (2, 3)]
        want = simulate_lifetime(mesh, sources, battery_j=0.01)
        plan = FaultPlan([FaultSpec(faults.SHARD_KILL,
                                    keys=frozenset({(0, 0)}))])
        with plan.arm():
            got = simulate_lifetime(mesh, sources, battery_j=0.01,
                                    workers=2)
        assert plan.fired(faults.SHARD_KILL) == 1
        assert got.rounds_completed == want.rounds_completed
        assert got.first_death_node == want.first_death_node
        assert np.array_equal(got.residual_energy_j, want.residual_energy_j)
        assert np.array_equal(got.energy_spent_j, want.energy_spent_j)


# ---------------------------------------------------------------------------
# Backend faults: demotion ladder + circuit breaker


needs_native = pytest.mark.skipif(not native_available(),
                                  reason="compiled tier unavailable")


@needs_packing
class TestTierDemotion:
    @needs_native
    def test_compiled_fault_demotes_bit_identically(self):
        mesh = Mesh2D4(*SHAPE)
        kwargs = dict(trials=4, summary=True,
                      loss=BernoulliBatchLoss(0.2, trial_seeds(0, 0.2, 4)))
        want = run_reactive_batch(mesh, 0, relay_all(mesh),
                                  engine="batch", **kwargs)
        plan = FaultPlan([FaultSpec(faults.BACKEND_RESOLVE,
                                    keys=frozenset({("compiled",)}),
                                    limit=1)])
        with plan.arm():
            got = run_reactive_batch(mesh, 0, relay_all(mesh),
                                     engine="compiled", **kwargs)
        assert plan.fired(faults.BACKEND_RESOLVE) == 1
        assert_summaries_equal(want, got, "compiled->batch demotion")
        assert BREAKER.state()["compiled"]["failures"] == 1
        assert not BREAKER.state()["compiled"]["open"]

    @needs_native
    def test_multi_source_fault_demotes_bit_identically(self, monkeypatch):
        """run_reactive_multi (the symmetry path's waves) rides the same
        demotion: a mid-run resolve fault reruns it on the dense tier."""
        # Trace logs that start at one slot's worst case make the kernel
        # return for more room after its first logged slots, so the
        # fault seam is consulted again mid-wave.
        monkeypatch.setattr(backend_mod, "_LOG_ROWS", 0)
        mesh = Mesh2D4(*SHAPE)
        n = mesh.num_nodes
        sources = np.array([0, 7, n - 1])
        relay = np.stack([relay_all(mesh)] * len(sources))
        kwargs = dict(repeat_offsets_list=[{1: (1,)}, {}, {}],
                      forced_tx_list=[{}, {1: {3}}, {}])
        want = run_reactive_multi(mesh, sources, relay, engine="batch",
                                  **kwargs)
        # The third kernel entry faults: the calendar is mid-wave.
        plan = FaultPlan([FaultSpec(faults.BACKEND_RESOLVE, at=(2,))])
        with plan.arm():
            got = run_reactive_multi(mesh, sources, relay, **kwargs)
        assert plan.fired(faults.BACKEND_RESOLVE) == 1
        assert plan.stats()[faults.BACKEND_RESOLVE]["consulted"] == 3
        for a, b in zip(want, got):
            assert a.tx_events == b.tx_events
            assert a.rx_events == b.rx_events
            assert a.collision_events == b.collision_events
            assert a.dropped_forced == b.dropped_forced
            assert (a.first_rx == b.first_rx).all()
        assert BREAKER.state()["compiled"]["failures"] == 1
        assert not BREAKER.state()["compiled"]["open"]

    @needs_native
    def test_replay_fault_demotes_bit_identically(self, monkeypatch):
        """A recovering, faulty replay_batch rides the same demotion: a
        mid-run resolve fault reruns it on the dense tier."""
        monkeypatch.setattr(backend_mod, "_LOG_ROWS", 0)  # see above
        mesh = Mesh2D4(*SHAPE)
        src = mesh.index((3, 2))
        sched = protocol_for("2D-4").compile(mesh, (3, 2)).schedule
        dead = np.zeros((3, mesh.num_nodes), dtype=bool)
        dead[1, 7] = True
        kwargs = dict(dead_masks=dead,
                      loss=BernoulliBatchLoss(0.3, trial_seeds(2, 0.3, 3)),
                      recovery=RecoveryPolicy(timeout=1, max_retries=2))
        want = replay_batch(mesh, sched, src, engine="batch", **kwargs)
        # The third kernel entry faults: the replay is mid-schedule.
        plan = FaultPlan([FaultSpec(faults.BACKEND_RESOLVE, at=(2,))])
        with plan.arm():
            got = replay_batch(mesh, sched, src, engine="compiled",
                               **kwargs)
        assert plan.fired(faults.BACKEND_RESOLVE) == 1
        assert plan.stats()[faults.BACKEND_RESOLVE]["consulted"] == 3
        for a, b in zip(want, got):
            assert a.tx_events == b.tx_events
            assert a.rx_events == b.rx_events
            assert a.collision_events == b.collision_events
            assert a.dropped_forced == b.dropped_forced == []
            assert (a.first_rx == b.first_rx).all()
        # The recovery layer did act on this run.
        bare = replay_batch(mesh, sched, src, engine="batch",
                            dead_masks=dead, loss=kwargs["loss"])
        assert any(a.tx_events != c.tx_events for a, c in zip(want, bare))
        assert BREAKER.state()["compiled"]["failures"] == 1
        assert not BREAKER.state()["compiled"]["open"]

    @needs_native
    def test_native_build_fault_falls_back_at_construction(self):
        mesh = Mesh2D4(*SHAPE)
        kwargs = dict(trials=4, summary=True)
        want = run_reactive_batch(mesh, 0, relay_all(mesh),
                                  engine="batch", **kwargs)
        plan = FaultPlan([FaultSpec(faults.NATIVE_BUILD, at=(0,))])
        with plan.arm():
            got = run_reactive_batch(mesh, 0, relay_all(mesh),
                                     engine="compiled", **kwargs)
        assert plan.fired(faults.NATIVE_BUILD) == 1
        assert_summaries_equal(want, got, "dlopen-failure fallback")
        assert BREAKER.state()["compiled"]["failures"] == 1

    @needs_native
    def test_repeated_faults_open_the_breaker(self):
        mesh = Mesh2D4(*SHAPE)
        kwargs = dict(trials=2, summary=True)
        plan = FaultPlan([FaultSpec(faults.BACKEND_RESOLVE,
                                    keys=frozenset({("compiled",)}))])
        with plan.arm():
            for _ in range(BREAKER.threshold):
                run_reactive_batch(mesh, 0, relay_all(mesh),
                                   engine="compiled", **kwargs)
        state = BREAKER.state()["compiled"]
        assert state["open"] and state["failures"] >= BREAKER.threshold
        # The open breaker now skips the tier up front, visibly.
        tier, reason = resolve_engine("compiled", mesh.num_nodes,
                                      explain=True)
        assert tier == "batch"
        assert "circuit breaker open" in reason
        # A cooled-down breaker admits a probe and a success heals it.
        BREAKER._open_until["compiled"] = -1.0  # fast-forward cooldown
        assert BREAKER.allowed("compiled")
        BREAKER.record_success("compiled")
        assert resolve_engine("compiled", mesh.num_nodes) == "compiled"

    def test_forced_open_breakers_pin_the_dense_floor(self):
        BREAKER.force_open("compiled", "ops override")
        tier, reason = resolve_engine("auto", 20, explain=True)
        assert tier == "batch"
        assert "circuit breaker open: compiled" in reason


# ---------------------------------------------------------------------------
# Deadlines: shed before the compile, everywhere


class TestDeadlines:
    def test_expired_query_sheds_before_compiling(self):
        from repro.core.compiler import compile_call_count
        engine = QueryEngine()
        c0 = compile_call_count()
        expired = Query("2D-4", (1, 1), shape=SHAPE,
                        deadline=time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceeded):
            engine.query(expired)
        assert compile_call_count() == c0  # no compile was burned
        assert engine.stats()["shed"] == 1

    def test_batch_sheds_only_the_expired_members(self):
        engine = QueryEngine()
        past = time.monotonic() - 1.0
        results = engine.query_batch([
            Query("2D-4", (1, 1), shape=SHAPE),
            Query("2D-4", (2, 1), shape=SHAPE, deadline=past),
            Query("2D-4", (1, 2), shape=SHAPE),
        ])
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].error_type == "deadline_exceeded"
        assert results[1].metrics is None
        assert engine.stats()["shed"] == 1

    def test_runtime_sheds_queries_that_expired_while_queued(self):
        async def main():
            engine = QueryEngine()
            async with AsyncRuntime(engine) as runtime:
                stale = Query("2D-4", (1, 1), shape=SHAPE,
                              deadline=time.monotonic() - 1.0)
                with pytest.raises(DeadlineExceeded):
                    await runtime.query(stale)
                return runtime.shed_expired

        assert asyncio.run(main()) == 1

    def test_wire_round_trips_timeout_but_never_deadline(self):
        query = Query("2D-4", (1, 1), shape=SHAPE, timeout_ms=1500.0)
        payload = query_to_dict(query)
        assert payload["timeout_ms"] == 1500.0
        assert "deadline" not in payload
        assert query_from_dict(payload) == query


# ---------------------------------------------------------------------------
# Overload: bounded queue, reject / shed-oldest


class _GatedEngine(QueryEngine):
    """Engine whose batch path blocks until the test opens the gate."""

    def __init__(self, gate):
        super().__init__()
        self._gate = gate

    def query_batch(self, queries):
        self._gate.wait(timeout=30)
        return super().query_batch(queries)


class TestOverload:
    def _flood(self, overflow):
        async def main():
            gate = threading.Event()
            engine = _GatedEngine(gate)
            outcomes = {}
            async with AsyncRuntime(engine, max_queue=1,
                                    overflow=overflow) as runtime:
                q = Query("2D-4", (1, 1), shape=SHAPE)
                first = asyncio.create_task(runtime.query(q))
                await asyncio.sleep(0.1)  # dispatcher picks it up, blocks
                second = asyncio.create_task(runtime.query(q))
                await asyncio.sleep(0.05)  # second now waits in the queue
                try:
                    third = asyncio.create_task(runtime.query(q))
                    await asyncio.sleep(0.05)
                except Overloaded:
                    third = None
                gate.set()
                for name, task in (("first", first), ("second", second),
                                   ("third", third)):
                    if task is None:
                        continue
                    try:
                        result = await task
                        outcomes[name] = result.via
                    except Overloaded:
                        outcomes[name] = "overloaded"
                return runtime, outcomes

        return asyncio.run(main())

    def test_reject_policy_refuses_the_newcomer(self):
        runtime, outcomes = self._flood("reject")
        assert outcomes["first"] != "overloaded"
        assert outcomes["second"] != "overloaded"
        assert outcomes["third"] == "overloaded"
        assert runtime.rejected == 1 and runtime.shed_queued == 0

    def test_shed_oldest_policy_displaces_the_queued_query(self):
        runtime, outcomes = self._flood("shed-oldest")
        assert outcomes["first"] != "overloaded"
        assert outcomes["second"] == "overloaded"  # displaced while queued
        assert outcomes["third"] != "overloaded"
        assert runtime.shed_queued == 1 and runtime.rejected == 0

    def test_policy_is_validated(self):
        with pytest.raises(ValueError, match="overflow"):
            AsyncRuntime(QueryEngine(), overflow="drop-everything")
        with pytest.raises(ValueError, match="max_queue"):
            AsyncRuntime(QueryEngine(), max_queue=0)


# ---------------------------------------------------------------------------
# Wire validation: structured refusals, no traceback leakage


class TestWireValidation:
    @pytest.mark.parametrize("bad", [-1, 0, float("nan"), float("inf"),
                                     "2000", True, 1e12])
    def test_bad_timeout_rejected(self, bad):
        with pytest.raises(ValueError, match="timeout_ms"):
            query_from_dict({"topology": "2D-4", "source": [1, 1],
                             "timeout_ms": bad})

    @pytest.mark.parametrize("bad", [[], list(range(1, 10)), [1, "a"],
                                     [1, 1.5], [1, True], [1, 10 ** 10]])
    def test_bad_source_rejected(self, bad):
        with pytest.raises(ValueError, match="source"):
            query_from_dict({"topology": "2D-4", "source": bad})

    def test_unknown_request_type_rejected(self):
        with pytest.raises(ValueError, match="unknown request type"):
            request_from_dict({"type": "gimme"})

    def test_oversized_batch_rejected(self):
        entry = {"topology": "2D-4", "source": [1, 1]}
        with pytest.raises(ValueError, match="exceeds the cap"):
            request_from_dict({"type": "batch",
                               "queries": [entry] * (MAX_WIRE_BATCH + 1)})

    def test_batch_member_errors_are_positioned(self):
        with pytest.raises(ValueError, match=r"queries\[1\]"):
            request_from_dict({"type": "batch", "queries": [
                {"topology": "2D-4", "source": [1, 1]},
                {"topology": "2D-4"}]})

    def test_health_request_parses(self):
        assert request_from_dict({"type": "health"}) == ("health", None)
        assert request_from_dict({"type": "stats"}) == ("health", None)
        with pytest.raises(ValueError, match="unknown request fields"):
            request_from_dict({"type": "health", "verbose": True})

    def test_error_payloads_are_typed_and_traceback_free(self):
        for exc, expect in [(DeadlineExceeded("late"), "deadline_exceeded"),
                            (Overloaded("full"), "overloaded"),
                            (ValueError("bad"), "bad_request"),
                            (RuntimeError("boom"), "internal")]:
            payload = _error_payload(exc)
            assert payload["ok"] is False
            assert payload["error_type"] == expect
            blob = json.dumps(payload)
            assert "Traceback" not in blob and "\n" not in payload["error"]


# ---------------------------------------------------------------------------
# Live server: drops, garbles, shutdown, health


@pytest.mark.faults
class TestServerResilience:
    def test_client_retries_through_dropped_and_garbled_responses(self):
        engine = QueryEngine()
        plan = FaultPlan([
            FaultSpec(faults.SERVER_DROP, at=(0,)),
            FaultSpec(faults.SERVER_GARBLE, at=(1,)),
        ])
        query = Query("2D-4", (1, 1), shape=SHAPE, timeout_ms=30000)
        with plan.arm(), BackgroundServer(engine, port=0) as srv:
            with ServiceClient(port=srv.port,
                               retry=RetryPolicy(attempts=6,
                                                 base_delay=0.01,
                                                 seed=1)) as client:
                first = client.query(query)   # response 0: dropped
                second = client.query(query)  # response 1 (retry): garbled
                assert first["ok"] and second["ok"]
                assert client.retries >= 2
                assert client.reconnects >= 3  # fresh socket per failure
        assert plan.fired(faults.SERVER_DROP) == 1
        assert plan.fired(faults.SERVER_GARBLE) == 1

    def test_exhausted_retries_raise_with_the_last_failure(self):
        engine = QueryEngine()
        plan = FaultPlan([FaultSpec(faults.SERVER_DROP, rate=1.0)])
        with plan.arm(), BackgroundServer(engine, port=0) as srv:
            client = ServiceClient(port=srv.port,
                                   retry=RetryPolicy(attempts=2,
                                                     base_delay=0.01))
            with pytest.raises(RetriesExhausted, match="2 attempts"):
                client.query(Query("2D-4", (1, 1), shape=SHAPE))
            client.close()

    def test_health_probe_is_cheap_and_structured(self):
        from repro.core.compiler import compile_call_count
        engine = QueryEngine()
        c0 = compile_call_count()
        with BackgroundServer(engine, port=0) as srv:
            with ServiceClient(port=srv.port) as client:
                health = client.health()
        assert health["ok"] and health["type"] == "health"
        assert health["status"] == "ok"
        assert set(health["breaker"]) == {"compiled"}
        assert "available" in health["native"]
        assert health["engine"]["queries"] == 0
        assert health["engine"]["max_queue"] > 0
        assert compile_call_count() == c0  # probing compiled nothing

    def test_graceful_shutdown_answers_then_closes(self):
        engine = QueryEngine()
        srv = BackgroundServer(engine, port=0).start()
        with ServiceClient(port=srv.port) as client:
            assert client.query(Query("2D-4", (1, 1), shape=SHAPE))["ok"]
        srv.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", srv.port), timeout=0.5)

    def test_deadline_and_overload_errors_cross_the_wire(self):
        engine = QueryEngine()
        with BackgroundServer(engine, port=0) as srv:
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=10) as sock:
                rfile = sock.makefile("rb")
                # timeout_ms so small the queue wait alone exceeds it.
                sock.sendall(json.dumps(
                    {"topology": "2D-4", "source": [3, 2],
                     "shape": list(SHAPE),
                     "timeout_ms": 1e-6}).encode() + b"\n")
                reply = json.loads(rfile.readline())
        assert reply["ok"] is False
        assert reply["error_type"] == "deadline_exceeded"
        assert engine.stats()["shed"] >= 0  # shed server-side, not hung


# ---------------------------------------------------------------------------
# The canonical chaos run: availability + answer equality


@pytest.mark.faults
class TestCanonicalChaos:
    def test_chaos_run_meets_availability_and_equality_floors(self,
                                                              tmp_path):
        shape = (6, 6)
        sources = [(x, y) for x in range(1, shape[0] + 1)
                   for y in range(1, shape[1] + 1)]
        # Fault-free oracle: a separate memory-only engine.
        oracle = QueryEngine()
        expected = {
            src: norm_row(oracle.query(
                Query("2D-4", src, shape=shape)).metrics.as_row())
            for src in sources}

        plan = faults.canonical_plan()
        chaos = QueryEngine(tmp_path / "store")  # store: torn writes bite
        answered = {}
        # The service's cold class waves (run_reactive_multi) build
        # compiled backends, so both backend seams fire while it serves:
        # the mid-run resolve fault in the first class wave, the build
        # fault at the second construction.  Record the query each
        # first fired under.
        backend_seams = (faults.BACKEND_RESOLVE, faults.NATIVE_BUILD)
        fired_at = {}
        with plan.arm():
            with BackgroundServer(chaos, port=0) as srv:
                client = ServiceClient(
                    port=srv.port,
                    retry=RetryPolicy(attempts=6, base_delay=0.01,
                                      seed=42))
                for src in sources:
                    response = client.query(Query(
                        "2D-4", src, shape=shape, timeout_ms=30000))
                    answered[src] = response
                    for seam in backend_seams:
                        if plan.fired(seam) and seam not in fired_at:
                            fired_at[seam] = src
                client.close()
            service_fired = {seam: plan.fired(seam)
                             for seam in backend_seams}
            # Sharded leg of the canonical schedule: worker murder.
            mesh = Mesh2D4(*SHAPE)
            kwargs = dict(trials=6, summary=True,
                          loss=BernoulliBatchLoss(
                              0.2, trial_seeds(0, 0.2, 6)))
            unsharded = run_reactive_batch(mesh, 0, relay_all(mesh),
                                           **kwargs)
            sharded = run_reactive_batch_sharded(
                mesh, 0, relay_all(mesh), workers=3, **kwargs)
            # Backend leg: with both backend seams spent by the service,
            # the compiled tier runs again after its demotions (the
            # breaker stayed closed) and still equals the dense floor.
            calm = run_reactive_batch(mesh, 0, relay_all(mesh),
                                      engine="batch", trials=4,
                                      summary=True)
            for _ in range(2):
                chaotic = run_reactive_batch(mesh, 0, relay_all(mesh),
                                             engine="auto", trials=4,
                                             summary=True)
                assert_summaries_equal(calm, chaotic, "demotion leg")

        # Availability floor: >= 99% of in-deadline queries answered ok.
        ok = sum(1 for r in answered.values() if r.get("ok"))
        availability = ok / len(sources)
        assert availability >= 0.99, f"availability {availability:.3f}"
        # Answer equality: everything answered equals the oracle.
        for src, response in answered.items():
            if response.get("ok"):
                assert response["metrics"] == expected[src], src
        # Bit identity under worker murder.
        assert_summaries_equal(unsharded, sharded, "chaos shard leg")
        # The chaos actually happened.
        stats = plan.stats()
        assert stats[faults.SHARD_KILL]["fired"] == 1
        assert stats[faults.STORE_TORN]["fired"] >= 1
        assert stats[faults.SERVER_DROP]["fired"] >= 1
        if native_available():
            assert stats[faults.BACKEND_RESOLVE]["fired"] == 1
            assert stats[faults.NATIVE_BUILD]["fired"] == 1
            # Both fired in the service leg, and the queries whose class
            # waves were demoted answered the oracle's metrics.
            assert service_fired == {seam: 1 for seam in backend_seams}
            for seam, src in fired_at.items():
                assert answered[src].get("ok"), (seam, src)
                assert answered[src]["metrics"] == expected[src], seam
        assert chaos.cache.store_errors >= 1
        # The server stayed consistent throughout.
        assert chaos.stats()["queries"] >= len(sources)


# ---------------------------------------------------------------------------
# Degraded-tier matrix: REPRO_NO_NATIVE and breaker-forced demotion


class TestDegradedTierMatrix:
    def test_service_query_identical_without_native(self):
        """A warm service query answers identically when the compiled
        tier cannot exist (REPRO_NO_NATIVE in a fresh interpreter)."""
        engine = QueryEngine()
        want = norm_row(engine.query(
            Query("2D-4", (2, 2), shape=SHAPE)).metrics.as_row())
        code = (
            "import json\n"
            "from repro.service import Query, QueryEngine\n"
            "from repro.sim import native, resolve_engine\n"
            "assert not native.native_available()\n"
            "assert resolve_engine('auto', 20) == 'batch'\n"
            "engine = QueryEngine()\n"
            "row = engine.query(Query('2D-4', (2, 2), "
            f"shape={SHAPE!r})).metrics.as_row()\n"
            "row['source'] = list(row['source'])\n"
            "print(json.dumps(row))\n"
        )
        env = dict(os.environ, REPRO_NO_NATIVE="1",
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")]
                       + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        got = json.loads(out.stdout)
        assert got == want

    @needs_packing
    def test_forced_demotion_keeps_answers_identical(self):
        mesh = Mesh2D4(*SHAPE)
        kwargs = dict(trials=4, summary=True)
        want = run_reactive_batch(mesh, 0, relay_all(mesh),
                                  engine="batch", **kwargs)
        engine = QueryEngine()
        service_want = norm_row(engine.query(
            Query("2D-4", (1, 1), shape=SHAPE)).metrics.as_row())

        BREAKER.force_open("compiled", "forced for the degraded matrix")
        tier, reason = resolve_engine("auto", mesh.num_nodes,
                                      explain=True)
        assert tier == "batch" and "circuit breaker" in reason
        got = run_reactive_batch(mesh, 0, relay_all(mesh),
                                 engine="auto", **kwargs)
        assert_summaries_equal(want, got, "forced compiled->batch")
        # The service path answers the same warm query, breaker open.
        service_got = norm_row(engine.query(
            Query("2D-4", (1, 1), shape=SHAPE)).metrics.as_row())
        assert service_got == service_want
