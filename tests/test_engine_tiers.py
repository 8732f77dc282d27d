"""Differential testing across the full engine-tier chain.

The two-tier speed ladder (dense "batch", C word-space "compiled" —
see :mod:`repro.sim.backend`) plus trial-dimension sharding
(:mod:`repro.sim.shard`) all promise **bit identity** with the serial
engine and the pure-python reference.  This suite runs the whole chain
on hypothesis-generated scenarios::

    reference == serial == batch == compiled

and pins the shard-invariance property (``workers=1`` equals
``workers=k`` exactly, for summaries and traces).  When the compiled
tier cannot build, its leg is skipped with the reason
:func:`~repro.sim.native.native_reason` reports — visibly, so a CI log
shows *why* the C path went untested — while a separate test proves the
``engine="compiled"`` request still runs correctly through the fallback
(``REPRO_NO_NATIVE=1``).
"""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core import protocol_for
from repro.faults import FaultPlan
from repro.radio import bitpack
from repro.radio.impairments import (BernoulliBatchLoss, BurstBatchLoss,
                                     trial_seeds)
from repro.sim import (BroadcastSchedule, ReferenceSimulator,
                       native_available, native_reason, replay, replay_batch,
                       replay_batch_sharded, resolve_engine, run_reactive,
                       run_reactive_batch, run_reactive_batch_sharded,
                       run_reactive_multi)
from repro.sim.recovery import RecoveryPolicy
from repro.topology import Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6

MESHES = [
    (Mesh2D4, (5, 4)),
    (Mesh2D8, (4, 4)),
    (Mesh2D3, (5, 4)),
    (Mesh3D6, (3, 3, 3)),
]

#: Word-space tiers under test; the compiled leg is skipped (visibly)
#: where the native kernel cannot build on this host.
TIERS = ["compiled"] if native_available() else []

#: What "compiled"/"auto" resolve to for a servable request here.
NATIVE_TIER = "compiled" if native_available() else "batch"

needs_packing = pytest.mark.skipif(not bitpack.packing_supported(),
                                   reason="big-endian host")


def _warn_if_no_native():
    if not native_available():  # pragma: no cover - env-dependent
        import warnings
        warnings.warn(f"compiled tier not tested: {native_reason()}")


_warn_if_no_native()


def assert_traces_equal(a, b, tag=""):
    assert len(a) == len(b), tag
    for x, y in zip(a, b):
        assert x.tx_events == y.tx_events, tag
        assert x.rx_events == y.rx_events, tag
        assert x.collision_events == y.collision_events, tag
        assert (x.first_rx == y.first_rx).all(), tag
        assert x.dropped_forced == y.dropped_forced, tag


def assert_summaries_equal(a, b, tag=""):
    assert np.array_equal(a.first_rx, b.first_rx), tag
    assert np.array_equal(a.tx_count, b.tx_count), tag
    assert np.array_equal(a.rx_count, b.rx_count), tag
    assert np.array_equal(a.collisions, b.collisions), tag
    assert a.dropped_forced == b.dropped_forced, tag


@st.composite
def tier_scenario(draw, num_nodes):
    """Random batched-wave inputs restricted to the loss kinds the
    compiled tier serves natively (Bernoulli / burst / none)."""
    trials = draw(st.integers(1, 4))
    source = draw(st.integers(0, num_nodes - 1))
    relay_mask = np.array(
        [draw(st.booleans()) for _ in range(num_nodes)], dtype=bool)
    extra_delay = (np.array([draw(st.integers(0, 2))
                             for _ in range(num_nodes)], dtype=np.int64)
                   if draw(st.booleans()) else None)
    forced = {}
    for slot in draw(st.lists(st.integers(1, 8), max_size=2, unique=True)):
        forced[slot] = draw(st.lists(st.integers(0, num_nodes - 1),
                                     min_size=1, max_size=3, unique=True))
    dead_masks = None
    if draw(st.booleans()):
        dead_masks = np.zeros((trials, num_nodes), dtype=bool)
        for b in range(trials):
            for v in draw(st.lists(st.integers(0, num_nodes - 1),
                                   max_size=3, unique=True)):
                if v != source:
                    dead_masks[b, v] = True
    seeds = trial_seeds(draw(st.integers(0, 5)), 0.25, trials)
    kind = draw(st.sampled_from(["none", "bernoulli", "burst"]))
    if kind == "bernoulli":
        loss = BernoulliBatchLoss(draw(st.sampled_from([0.1, 0.3])), seeds)
    elif kind == "burst":
        loss = BurstBatchLoss(draw(st.sampled_from([0.2, 0.5])), seeds,
                              draw(st.sampled_from([1, 2])))
    else:
        loss = None
    recovery = (RecoveryPolicy(timeout=2, max_retries=2, backoff=2,
                               suppression_k=1)
                if draw(st.booleans()) else None)
    return dict(source=source, trials=trials, relay_mask=relay_mask,
                extra_delay=extra_delay, forced_tx=forced,
                dead_masks=dead_masks, loss=loss, recovery=recovery)


@needs_packing
class TestTierChain:
    """reference == serial == batch == compiled, per trial."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_random_scenarios(self, cls, shape):
        mesh = cls(*shape)
        ref = ReferenceSimulator(mesh)

        @given(data=st.data())
        @settings(max_examples=12, deadline=None)
        def check(data):
            kw = data.draw(tier_scenario(mesh.num_nodes))
            source = kw.pop("source")
            recovery = kw.pop("recovery")
            dead_masks, loss = kw["dead_masks"], kw["loss"]
            batch = run_reactive_batch(mesh, source, kw["relay_mask"],
                                       extra_delay=kw["extra_delay"],
                                       forced_tx=kw["forced_tx"],
                                       dead_masks=dead_masks, loss=loss,
                                       trials=kw["trials"],
                                       recovery=recovery)
            for engine in TIERS:
                tiered = run_reactive_batch(mesh, source, kw["relay_mask"],
                                            extra_delay=kw["extra_delay"],
                                            forced_tx=kw["forced_tx"],
                                            dead_masks=dead_masks,
                                            loss=loss, trials=kw["trials"],
                                            recovery=recovery,
                                            engine=engine)
                assert_traces_equal(batch, tiered, engine)
            # The serial and pure-python legs of the chain (recovery is
            # a batched-engine feature; the serial/reference legs run
            # the recovery-free configuration).
            if recovery is None:
                for b, batch_trace in enumerate(batch):
                    dm = None if dead_masks is None else dead_masks[b]
                    sl = None if loss is None else loss.trial_loss(b)
                    serial = run_reactive(mesh, source, kw["relay_mask"],
                                          extra_delay=kw["extra_delay"],
                                          forced_tx=kw["forced_tx"],
                                          dead_mask=dm, loss=sl)
                    assert_traces_equal([batch_trace], [serial], "serial")
                    reference = ref.run_reactive(
                        source, kw["relay_mask"],
                        extra_delay=kw["extra_delay"],
                        forced_tx=kw["forced_tx"], dead_mask=dm, loss=sl)
                    assert_traces_equal([batch_trace], [reference],
                                        "reference")

        check()

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_summary_mode(self, cls, shape):
        mesh = cls(*shape)
        n = mesh.num_nodes
        trials = 6
        seeds = trial_seeds(3, 0.2, trials)
        rng = np.random.default_rng(5)
        relay = rng.random(n) > 0.3
        loss = BernoulliBatchLoss(0.2, seeds)
        pol = RecoveryPolicy(timeout=3, max_retries=2)
        ref = run_reactive_batch(mesh, 0, relay, loss=loss, trials=trials,
                                 summary=True, recovery=pol)
        for engine in TIERS:
            assert_summaries_equal(
                ref,
                run_reactive_batch(mesh, 0, relay, loss=loss,
                                   trials=trials, summary=True,
                                   recovery=pol, engine=engine),
                engine)


@st.composite
def scheduler_scenario(draw, num_nodes):
    """Reactive-plan inputs aimed at the compiled tier's C scheduler:
    repeat offsets ``(1, 3)``, extra delays 0-2, forced pairs early
    enough to be dropped (a node forced before it is informed) and
    explicit ``max_slots`` cut-offs."""
    nodes = st.integers(0, num_nodes - 1)
    trials = draw(st.integers(1, 4))
    repeats = [{v: (1, 3) for v in draw(st.lists(nodes, max_size=3))}
               for _ in range(trials)]
    forced = [{slot: set(draw(st.lists(nodes, min_size=1, max_size=3)))
               for slot in draw(st.lists(st.integers(1, 8), max_size=3,
                                         unique=True))}
              for _ in range(trials)]
    return dict(
        trials=trials,
        sources=np.array([draw(nodes) for _ in range(trials)]),
        relay=np.array(draw(st.lists(
            st.lists(st.booleans(), min_size=num_nodes,
                     max_size=num_nodes),
            min_size=trials, max_size=trials))),
        delay=np.array(draw(st.lists(
            st.lists(st.integers(0, 2), min_size=num_nodes,
                     max_size=num_nodes),
            min_size=trials, max_size=trials)), dtype=np.int64),
        repeats=repeats, forced=forced,
        max_slots=draw(st.one_of(st.none(), st.integers(1, 14))))


def _both_modes(run):
    """(traces, summary) of one run, on the batch and compiled tiers."""
    return {engine: (run(engine=engine, summary=False),
                     run(engine=engine, summary=True))
            for engine in ["batch"] + TIERS}


@needs_packing
@pytest.mark.skipif(not native_available(),
                    reason="native kernel unavailable")
class TestReactiveScheduler:
    """The compiled tier schedules reactive waves in C (a due calendar
    with forced pairs, the per-trial cut-off, the alive filter and the
    recovery calendar); the dense tier's Python scheduler is the oracle,
    trace for trace."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_multi_plans(self, cls, shape):
        mesh = cls(*shape)

        @given(sc=scheduler_scenario(mesh.num_nodes))
        @settings(max_examples=25, deadline=None)
        def check(sc):
            def run(**kw):
                return run_reactive_multi(
                    mesh, sc["sources"], sc["relay"],
                    extra_delays=sc["delay"],
                    repeat_offsets_list=sc["repeats"],
                    forced_tx_list=sc["forced"],
                    max_slots=sc["max_slots"], **kw)

            runs = _both_modes(run)
            for engine in TIERS:
                assert_traces_equal(runs["batch"][0], runs[engine][0],
                                    engine)
                assert_summaries_equal(runs["batch"][1], runs[engine][1],
                                       engine)

        check()

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_shared_plan_with_faults_and_recovery(self, cls, shape):
        mesh = cls(*shape)
        n = mesh.num_nodes

        @given(sc=scheduler_scenario(n), data=st.data())
        @settings(max_examples=25, deadline=None)
        def check(sc, data):
            trials, source = sc["trials"], int(sc["sources"][0])
            dead = np.array(data.draw(st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=trials, max_size=trials)))
            dead[:, source] = False
            loss = BernoulliBatchLoss(
                data.draw(st.sampled_from([0.1, 0.3])),
                trial_seeds(data.draw(st.integers(0, 5)), 0.2, trials))
            policy = RecoveryPolicy(
                timeout=data.draw(st.integers(1, 3)), max_retries=2,
                backoff=2, suppression_k=data.draw(st.integers(0, 2)),
                election=data.draw(st.booleans()))

            def run(**kw):
                return run_reactive_batch(
                    mesh, source, sc["relay"][0],
                    extra_delay=sc["delay"][0],
                    repeat_offsets=sc["repeats"][0],
                    forced_tx=sc["forced"][0], max_slots=sc["max_slots"],
                    dead_masks=dead, loss=loss, recovery=policy, **kw)

            runs = _both_modes(run)
            for engine in TIERS:
                assert_traces_equal(runs["batch"][0], runs[engine][0],
                                    engine)
                assert_summaries_equal(runs["batch"][1], runs[engine][1],
                                       engine)

        check()

    def test_forced_pairs_are_dropped_identically(self):
        """A forced transmission before its node is informed is dropped
        and logged, in slot then node order, on both tiers."""
        mesh = Mesh2D4(6, 5)
        n = mesh.num_nodes
        forced = {1: {n - 1, 7}, 2: {0, n - 2}, 30: {3}}
        runs = _both_modes(lambda **kw: run_reactive_multi(
            mesh, np.array([0, n - 1]), np.ones((2, n), dtype=bool),
            forced_tx_list=[forced, {}], **kw))
        want = runs["batch"][0][0].dropped_forced
        assert want and want == sorted(want)
        for engine in TIERS:
            assert_traces_equal(runs["batch"][0], runs[engine][0], engine)
            assert runs[engine][1].dropped_forced == \
                runs["batch"][1].dropped_forced

    def test_python_scheduler_is_never_called(self, monkeypatch):
        """Structural guard: on the compiled tier a reactive wave —
        repeats, forced pairs and recovery included — and a replay with
        dead nodes, loss and recovery run no Python bucket scheduling,
        no numpy dedup and no dense slot step."""
        from repro.sim import engine as engine_mod
        mesh = Mesh2D4(8, 6)
        n = mesh.num_nodes
        kw = dict(repeat_offsets={5: (1, 3), 9: (2,)},
                  forced_tx={1: [n - 1], 4: [0, 12], 9: [20]},
                  loss=BernoulliBatchLoss(0.25, trial_seeds(7, 0.25, 4)),
                  recovery=RecoveryPolicy(timeout=2, max_retries=2,
                                          election=True))
        relay = np.arange(n) % 3 == 0

        def multi(engine):
            return run_reactive_multi(
                mesh, np.array([0, 17]), np.stack([relay, ~relay]),
                repeat_offsets_list=[kw["repeat_offsets"], {}],
                forced_tx_list=[kw["forced_tx"], {2: [3]}], engine=engine)

        sched = protocol_for("2D-4").compile(mesh, (4, 3)).schedule
        dead = np.zeros((4, n), dtype=bool)
        dead[1, [9, 30]] = dead[3, 22] = True

        def replayed(engine):
            return replay_batch(mesh, sched, mesh.index((4, 3)),
                                dead_masks=dead, loss=kw["loss"],
                                recovery=kw["recovery"], engine=engine)

        want = run_reactive_batch(mesh, 0, relay, engine="batch", **kw)
        want_multi = multi("batch")
        want_replay = replayed("batch")

        def banned(*args, **kwargs):
            raise AssertionError("Python scheduler used on compiled tier")

        monkeypatch.setattr(engine_mod, "push_buckets", banned)
        monkeypatch.setattr(engine_mod, "sorted_unique_pairs", banned)
        monkeypatch.setattr(engine_mod._BatchState, "step", banned)
        assert_traces_equal(
            want, run_reactive_batch(mesh, 0, relay, engine="compiled",
                                     **kw), "compiled")
        assert_traces_equal(want_multi, multi("compiled"), "multi")
        assert_traces_equal(want_replay, replayed("compiled"), "replay")


class TestForcedNodeBounds:
    """Every entry point rejects a forced or scheduled node outside
    ``[0, n)`` with ValueError on every tier, before any kernel sees it
    (a compiled replay used to crash the process on one)."""

    @pytest.mark.parametrize("node", [16, 5000, -3])
    def test_every_entry_point_rejects(self, node):
        mesh = Mesh2D4(4, 4)
        relay = np.ones(mesh.num_nodes, dtype=bool)
        forced = {3: [node]}
        calls = [lambda: run_reactive(mesh, 0, relay, forced_tx=forced)]
        if node >= 0:   # BroadcastSchedule.add rejects negative nodes
            sched = BroadcastSchedule.from_events([(1, 0), (2, node)])
            calls.append(lambda: replay(mesh, sched, 0))
        for engine in ("batch", "compiled"):
            calls += [
                lambda e=engine: run_reactive_batch(
                    mesh, 0, relay, forced_tx=forced, trials=2, engine=e),
                lambda e=engine: run_reactive_multi(
                    mesh, np.array([0, 5]), np.stack([relay, relay]),
                    forced_tx_list=[{}, forced], engine=e)]
            if node >= 0:
                calls += [
                    lambda e=engine: replay_batch(mesh, sched, 0, trials=2,
                                                  engine=e),
                    lambda e=engine: replay_batch(
                        mesh, sched, 0, engine=e,
                        dead_masks=np.zeros((2, 16), dtype=bool))]
        for call in calls:
            with pytest.raises(ValueError, match="out of range"):
                call()


@needs_packing
class TestShardInvariance:
    """workers=1 and workers=k produce bit-identical results."""

    @pytest.mark.parametrize("engine", ["batch"] + TIERS)
    def test_reactive_summary_and_traces(self, engine):
        mesh = Mesh2D4(8, 6)
        n = mesh.num_nodes
        trials = 10
        rng = np.random.default_rng(11)
        relay = rng.random(n) > 0.3
        dead = rng.random((trials, n)) < 0.08
        dead[:, 0] = False
        loss = BernoulliBatchLoss(0.2, trial_seeds(1, 0.2, trials))
        pol = RecoveryPolicy(timeout=3, max_retries=2)
        kw = dict(dead_masks=dead, loss=loss, trials=trials, recovery=pol,
                  engine=engine)
        base = run_reactive_batch_sharded(mesh, 0, relay, workers=1,
                                          summary=True, **kw)
        base_t = run_reactive_batch_sharded(mesh, 0, relay, workers=1, **kw)
        for workers in (3, 4):
            assert_summaries_equal(
                base,
                run_reactive_batch_sharded(mesh, 0, relay, workers=workers,
                                           summary=True, **kw),
                f"{engine}/w{workers}")
            assert_traces_equal(
                base_t,
                run_reactive_batch_sharded(mesh, 0, relay,
                                           workers=workers, **kw),
                f"{engine}/w{workers}")

    def test_replay_summary(self):
        from repro.core import protocol_for
        mesh = Mesh2D4(8, 6)
        sched = protocol_for("2D-4").compile(mesh, (4, 3)).schedule
        src = mesh.index((4, 3))
        trials = 9
        loss = BurstBatchLoss(0.25, trial_seeds(2, 0.25, trials), 2)
        base = replay_batch(mesh, sched, src, loss=loss, trials=trials,
                            summary=True)
        sharded = replay_batch_sharded(mesh, sched, src, loss=loss,
                                       trials=trials, summary=True,
                                       workers=3)
        assert_summaries_equal(base, sharded)

    def test_uneven_shards(self):
        """Trial counts that do not divide evenly still merge exactly."""
        mesh = Mesh2D4(5, 4)
        trials = 7
        loss = BernoulliBatchLoss(0.3, trial_seeds(4, 0.3, trials))
        base = run_reactive_batch(mesh, 0,
                                  np.ones(mesh.num_nodes, dtype=bool),
                                  loss=loss, trials=trials, summary=True)
        sharded = run_reactive_batch_sharded(
            mesh, 0, np.ones(mesh.num_nodes, dtype=bool), loss=loss,
            trials=trials, summary=True, workers=3)
        assert_summaries_equal(base, sharded)
        assert sharded.trials == trials


@needs_packing
@pytest.mark.skipif(not native_available(),
                    reason="native kernel unavailable")
class TestConcurrentKernelCalls:
    """cffi releases the GIL, so two Python threads can be inside the C
    kernel at once.  Nothing serialises them: the kernel must keep all
    its state in the caller's buffers, and concurrent runs must each
    equal the same run made alone."""

    def test_two_threads_match_solo_runs(self):
        # Big enough that both threads sit in the C calls at once:
        # kernel scratch shared between calls shows at this size.
        mesh = Mesh2D4(24, 24)
        trials = 16
        relay = np.ones(mesh.num_nodes, dtype=bool)
        policy = RecoveryPolicy(timeout=2, max_retries=2, backoff=2,
                                suppression_k=1, election=True)

        def run(seed):
            loss = BernoulliBatchLoss(0.25, trial_seeds(seed, 0.25, trials))
            return run_reactive_batch(mesh, 0, relay, loss=loss,
                                      trials=trials, recovery=policy,
                                      engine="compiled")

        seeds = (11, 12)
        solo = {seed: run(seed) for seed in seeds}
        barrier = threading.Barrier(len(seeds))

        def together(seed):
            barrier.wait()
            return run(seed)

        with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
            for attempt in range(8):
                results = list(pool.map(together, seeds))
                for seed, got in zip(seeds, results):
                    assert_traces_equal(solo[seed], got,
                                        f"seed={seed} attempt={attempt}")

    def test_summary_runs_share_fresh_topology_tables(self, monkeypatch):
        """Summary runs on one topology share its pinned kernel tables
        (CSR copies, packed rows, reverse edges), built on first use.
        Two threads that start on a fresh topology build them at once:
        each must still equal the same run made alone, on the compiled
        tier, which is only so if no thread ever sees a table before it
        is filled."""
        from repro.sim import backend, engine
        demoted = []

        def demote(tier, reason=""):
            demoted.append(reason)
            return "batch"

        # A half-built table would fault the compiled run, and the
        # demotion rerun on the dense tier would hide it: count those.
        monkeypatch.setattr(backend, "demote_tier", demote)
        monkeypatch.setattr(engine, "demote_tier", demote)
        trials = 16
        policy = RecoveryPolicy(timeout=2, max_retries=2, backoff=2,
                                suppression_k=1, election=True)

        def run(mesh, seed):
            loss = BernoulliBatchLoss(0.25, trial_seeds(seed, 0.25, trials))
            return run_reactive_batch(mesh, 0,
                                      np.ones(mesh.num_nodes, dtype=bool),
                                      loss=loss, trials=trials,
                                      recovery=policy, summary=True,
                                      engine="compiled")

        seeds = (11, 12)
        solo = {seed: run(Mesh2D4(24, 24), seed) for seed in seeds}
        for attempt in range(4):
            shared = Mesh2D4(24, 24)        # tables not built yet
            barrier = threading.Barrier(len(seeds))

            def together(seed):
                barrier.wait()
                return run(shared, seed)

            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                results = list(pool.map(together, seeds))
            for seed, got in zip(seeds, results):
                assert_summaries_equal(solo[seed], got,
                                       f"seed={seed} attempt={attempt}")
        assert demoted == []


@needs_packing
@pytest.mark.skipif(not native_available(),
                    reason="native kernel unavailable")
class TestOneCallKernel:
    """A compiled wave is one kernel call: a summary run enters the
    kernel once, and a trace run once plus once per trace-log growth,
    resuming exactly where it stopped."""

    @staticmethod
    def entries(run):
        """``run()``'s result and how many times it entered the kernel
        (the fault seam is consulted once per entry)."""
        plan = FaultPlan([])
        with plan.arm():
            out = run()
        return out, plan.stats()[faults.BACKEND_RESOLVE]["consulted"]

    def test_summary_run_is_one_kernel_entry(self):
        mesh = Mesh2D4(16, 16)
        n = mesh.num_nodes
        trials = 8
        dead = np.zeros((trials, n), dtype=bool)
        dead[:, 40] = True
        kwargs = dict(dead_masks=dead, summary=True, engine="compiled",
                      loss=BurstBatchLoss(0.2, trial_seeds(1, 0.2, trials),
                                          2),
                      recovery=RecoveryPolicy())
        got, entries = self.entries(lambda: run_reactive_batch(
            mesh, 0, np.ones(n, dtype=bool), repeat_offsets={5: (2,)},
            **kwargs))
        assert entries == 1
        assert_summaries_equal(
            run_reactive_batch(mesh, 0, np.ones(n, dtype=bool),
                               repeat_offsets={5: (2,)},
                               **dict(kwargs, engine="batch")), got)
        sched = protocol_for("2D-4").compile(mesh, (8, 8)).schedule
        _, entries = self.entries(lambda: replay_batch(
            mesh, sched, mesh.index((8, 8)), **kwargs))
        assert entries == 1

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_trace_reentries_match_dense(self, cls, shape):
        """With trace logs that start at one slot's worst case the
        kernel returns for more room again and again; the resumed waves
        equal the dense tier trace for trace, under every loss kind
        (bursts drawn in C included), recovery and forced pairs."""
        from repro.sim import backend
        mesh = cls(*shape)
        grown = []

        @given(data=st.data())
        @settings(max_examples=12, deadline=None)
        def check(data):
            kw = data.draw(tier_scenario(mesh.num_nodes))
            source = kw.pop("source")
            want = run_reactive_batch(mesh, source, **kw)
            with mock.patch.object(backend, "_LOG_ROWS", 0):
                got, entries = self.entries(lambda: run_reactive_batch(
                    mesh, source, engine="compiled", **kw))
            assert_traces_equal(want, got)
            grown.append(entries)

        check()
        assert max(grown) > 2

    def test_burst_loss_matches_dense(self):
        """Burst blackouts are drawn in C, per trial and slot, over the
        whole burst window: summary and trace runs equal the dense
        tier's at every burst length, with and without recovery."""
        mesh = Mesh2D8(12, 12)
        n = mesh.num_nodes
        trials = 6
        relay = np.ones(n, dtype=bool)
        for p, length in ((0.3, 1), (0.2, 3), (1.0, 2), (0.0, 1)):
            loss = BurstBatchLoss(p, trial_seeds(4, p, trials), length)
            for recovery in (None, RecoveryPolicy(timeout=1)):
                runs = _both_modes(lambda **kw: run_reactive_batch(
                    mesh, 0, relay, loss=loss, recovery=recovery, **kw))
                for engine in TIERS:
                    assert_traces_equal(runs["batch"][0], runs[engine][0])
                    assert_summaries_equal(runs["batch"][1],
                                           runs[engine][1])
                if p == 0.2:
                    # Some trial lost a slot to a burst but not all.
                    reach = runs["batch"][1].reachability
                    assert (reach < 1).any()


class TestSharedTopologyThreads:
    """The service serves one tick's class groups on executor threads,
    so two cold classes of one shape run waves on the same topology —
    and the same :class:`~repro.radio.channel.SlotKernel` — at once:
    serial ``run_reactive`` through ``compile_broadcast``, and dense
    batched waves wherever the native tier is off.  The kernel's slot
    resolves hand out scratch; no thread may see another's."""

    @pytest.mark.parametrize("engine", ["serial", "batch"])
    def test_two_threads_match_solo_runs(self, engine):
        mesh = Mesh2D4(16, 16)
        n = mesh.num_nodes
        relay = np.ones(n, dtype=bool)
        trials = 4

        def run(source):
            if engine == "serial":
                return [run_reactive(mesh, source, relay,
                                     recovery=RecoveryPolicy())]
            loss = BernoulliBatchLoss(0.2, trial_seeds(source, 0.2, trials))
            return run_reactive_batch(mesh, source, relay, loss=loss,
                                      trials=trials, engine="batch",
                                      recovery=RecoveryPolicy())

        sources = (0, n - 1)
        solo = {source: run(source) for source in sources}
        barrier = threading.Barrier(len(sources))

        def together(source):
            barrier.wait()
            return run(source)

        switch = sys.getswitchinterval()
        # Switch threads as often as the interpreter allows, so a
        # shared scratch buffer is overwritten between its fill and its
        # read.
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(sources)) as pool:
                for attempt in range(4):
                    results = list(pool.map(together, sources))
                    for source, got in zip(sources, results):
                        assert_traces_equal(
                            solo[source], got,
                            f"source={source} attempt={attempt}")
        finally:
            sys.setswitchinterval(switch)


class TestFallbacks:
    def test_resolve_engine_rules(self):
        trials = 3
        seeds = trial_seeds(0, 0.1, trials)
        assert resolve_engine("batch", 20) == "batch"
        if bitpack.packing_supported():
            assert resolve_engine("compiled", 20) == NATIVE_TIER
            assert resolve_engine("auto", 20) == NATIVE_TIER
            # Unsupported loss kinds and oversized lattices fall back.
            from repro.radio.impairments import (CounterBernoulliLoss,
                                                 PerTrialBatchLoss)
            per_trial = PerTrialBatchLoss(
                [CounterBernoulliLoss(0.1, int(s)) for s in seeds])
            assert resolve_engine("compiled", 20, per_trial) == "batch"
            assert resolve_engine(
                "compiled", bitpack.MAX_PACKED_NODES + 1) == "batch"
        # Unknown engines (the deleted "packed" tier among them) are
        # rejected with the accepted names.
        from repro.sim.backend import check_engine
        for bad in ("warp", "packed"):
            with pytest.raises(ValueError,
                               match="'batch', 'compiled', 'auto'"):
                check_engine(bad)
            with pytest.raises(ValueError):
                resolve_engine(bad, 20)

    def test_resolve_engine_explain(self):
        tier, reason = resolve_engine("batch", 20, explain=True)
        assert tier == "batch" and "requested" in reason
        if bitpack.packing_supported():
            tier, reason = resolve_engine(
                "compiled", bitpack.MAX_PACKED_NODES + 1, explain=True)
            assert tier == "batch"
            assert "exceeds packed cutoff" in reason
            tier, reason = resolve_engine("compiled", 20, explain=True)
            assert tier == NATIVE_TIER
            assert ("native kernel available" if native_available()
                    else "native unavailable") in reason
            # explain=False stays the bare-string contract.
            assert resolve_engine("compiled", 20) == NATIVE_TIER

    def test_packed_cutoff_env_override(self):
        if not bitpack.packing_supported():
            pytest.skip("packing unsupported on this host")
        cutoff = bitpack.MAX_PACKED_NODES
        assert resolve_engine("auto", cutoff + 1) == "batch"
        tier, reason = resolve_engine("compiled", cutoff + 1, explain=True)
        assert tier == "batch" and f"cutoff {cutoff}" in reason
        assert resolve_engine("auto", cutoff) == NATIVE_TIER

    def test_compiled_request_without_native_dependency(self):
        """engine="compiled" must stay correct when the C tier cannot
        build: REPRO_NO_NATIVE forces the dependency-absent path in a
        fresh interpreter (the availability probe is process-cached)."""
        code = """
import numpy as np
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.sim import native, resolve_engine, run_reactive_batch
from repro.topology import Mesh2D4

assert not native.native_available()
assert "REPRO_NO_NATIVE" in native.native_reason()
assert resolve_engine("compiled", 20) == "batch"
assert resolve_engine("auto", 20) == "batch"
mesh = Mesh2D4(5, 4)
trials = 3
loss = BernoulliBatchLoss(0.2, trial_seeds(0, 0.2, trials))
a = run_reactive_batch(mesh, 0, np.ones(mesh.num_nodes, dtype=bool),
                       loss=loss, trials=trials, summary=True)
b = run_reactive_batch(mesh, 0, np.ones(mesh.num_nodes, dtype=bool),
                       loss=loss, trials=trials, summary=True,
                       engine="compiled")
assert np.array_equal(a.first_rx, b.first_rx)
assert np.array_equal(a.tx_count, b.tx_count)
print("fallback-ok")
"""
        env = dict(os.environ, REPRO_NO_NATIVE="1")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "fallback-ok" in out.stdout
