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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import bitpack
from repro.radio.impairments import (BernoulliBatchLoss, BurstBatchLoss,
                                     trial_seeds)
from repro.sim import (ReferenceSimulator, native_available, native_reason,
                       replay_batch, replay_batch_sharded, resolve_engine,
                       run_reactive, run_reactive_batch,
                       run_reactive_batch_sharded)
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
class TestThreadInvariance:
    """The compiled tier's intra-process thread pool is bit-invariant:
    threads=1 and threads=k produce identical traces and summaries at
    every width, including widths far beyond the work (spans degenerate
    to empty) and the clamp ceiling."""

    WIDTHS = sorted({2, 3, os.cpu_count() or 1, 64} - {1})

    def test_reactive_random_scenarios(self):
        mesh = Mesh2D4(6, 5)

        @given(data=st.data())
        @settings(max_examples=10, deadline=None)
        def check(data):
            kw = data.draw(tier_scenario(mesh.num_nodes))
            source = kw.pop("source")
            recovery = kw.pop("recovery")
            common = dict(extra_delay=kw["extra_delay"],
                          forced_tx=kw["forced_tx"],
                          dead_masks=kw["dead_masks"], loss=kw["loss"],
                          trials=kw["trials"], recovery=recovery,
                          engine="compiled")
            base = run_reactive_batch(mesh, source, kw["relay_mask"],
                                      threads=1, **common)
            for threads in self.WIDTHS:
                assert_traces_equal(
                    base,
                    run_reactive_batch(mesh, source, kw["relay_mask"],
                                       threads=threads, **common),
                    f"threads={threads}")

        check()

    def test_summary_and_replay_widths(self):
        from repro.core import protocol_for
        mesh = Mesh2D4(8, 6)
        trials = 9
        rng = np.random.default_rng(7)
        relay = rng.random(mesh.num_nodes) > 0.3
        loss = BernoulliBatchLoss(0.25, trial_seeds(2, 0.25, trials))
        pol = RecoveryPolicy(timeout=2, max_retries=2, backoff=2,
                             suppression_k=1)
        kw = dict(loss=loss, trials=trials, recovery=pol, summary=True,
                  engine="compiled")
        base = run_reactive_batch(mesh, 0, relay, threads=1, **kw)
        sched = protocol_for("2D-4").compile(mesh, (4, 3)).schedule
        src = mesh.index((4, 3))
        base_replay = replay_batch(mesh, sched, src, threads=1, **kw)
        for threads in self.WIDTHS:
            assert_summaries_equal(
                base,
                run_reactive_batch(mesh, 0, relay, threads=threads, **kw),
                f"reactive threads={threads}")
            assert_summaries_equal(
                base_replay,
                replay_batch(mesh, sched, src, threads=threads, **kw),
                f"replay threads={threads}")

    def test_threads_compose_with_shards(self):
        """Explicit threads=k inside process shards still merges to the
        unsharded threads=1 result (shards default to threads=1; an
        explicit width must pass through unchanged)."""
        mesh = Mesh2D4(8, 6)
        trials = 8
        loss = BernoulliBatchLoss(0.2, trial_seeds(9, 0.2, trials))
        relay = np.ones(mesh.num_nodes, dtype=bool)
        kw = dict(loss=loss, trials=trials, summary=True,
                  engine="compiled")
        base = run_reactive_batch(mesh, 0, relay, threads=1, **kw)
        sharded = run_reactive_batch_sharded(mesh, 0, relay, workers=3,
                                             threads=2, **kw)
        assert_summaries_equal(base, sharded, "workers=3 threads=2")


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
            assert "REPRO_PACKED_MAX_NODES" in reason
            tier, reason = resolve_engine("compiled", 20, explain=True)
            assert tier == NATIVE_TIER
            assert ("native kernel available" if native_available()
                    else "native unavailable") in reason
            # explain=False stays the bare-string contract.
            assert resolve_engine("compiled", 20) == NATIVE_TIER

    def test_packed_cutoff_env_override(self, monkeypatch):
        if not bitpack.packing_supported():
            pytest.skip("packing unsupported on this host")
        from repro.sim.backend import packed_max_nodes
        assert packed_max_nodes() == bitpack.MAX_PACKED_NODES
        monkeypatch.setenv("REPRO_PACKED_MAX_NODES", "100")
        assert packed_max_nodes() == 100
        assert resolve_engine("auto", 101) == "batch"
        tier, reason = resolve_engine("compiled", 101, explain=True)
        assert tier == "batch" and "cutoff 100" in reason
        assert resolve_engine("auto", 100) == NATIVE_TIER
        # Raising the cutoff opens the compiled tier past the default.
        monkeypatch.setenv("REPRO_PACKED_MAX_NODES", "1000000")
        assert resolve_engine(
            "compiled", bitpack.MAX_PACKED_NODES + 1) == NATIVE_TIER
        # Garbage values fall back to the baked-in default.
        monkeypatch.setenv("REPRO_PACKED_MAX_NODES", "not-a-number")
        assert packed_max_nodes() == bitpack.MAX_PACKED_NODES

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

    @pytest.mark.skipif(not native_available(),
                        reason="native kernel unavailable")
    def test_native_threads_env_override(self):
        """REPRO_NATIVE_THREADS pins the default pool width in a fresh
        interpreter, the width is clamped to the kernel's ceiling, and
        the env-widened run stays bit-identical to threads=1."""
        code = """
import numpy as np
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.sim import native, resolve_engine, run_reactive_batch
from repro.topology import Mesh2D4

assert native.default_native_threads() == 3
assert native.resolve_native_threads(None) == 3
assert native.resolve_native_threads(0) == 1
assert native.resolve_native_threads(10**6) == native.MAX_NATIVE_THREADS
tier, reason = resolve_engine("compiled", 20, explain=True)
assert tier == "compiled" and "3 threads" in reason, (tier, reason)
mesh = Mesh2D4(6, 5)
trials = 4
loss = BernoulliBatchLoss(0.2, trial_seeds(0, 0.2, trials))
relay = np.ones(mesh.num_nodes, dtype=bool)
a = run_reactive_batch(mesh, 0, relay, loss=loss, trials=trials,
                       summary=True, engine="compiled", threads=1)
b = run_reactive_batch(mesh, 0, relay, loss=loss, trials=trials,
                       summary=True, engine="compiled")  # env default: 3
assert np.array_equal(a.first_rx, b.first_rx)
assert np.array_equal(a.tx_count, b.tx_count)
assert np.array_equal(a.collisions, b.collisions)
print("threads-ok")
"""
        env = dict(os.environ, REPRO_NATIVE_THREADS="3")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "threads-ok" in out.stdout
