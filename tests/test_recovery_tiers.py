"""Differential testing: the native recovery tier vs the batch recovery
oracle.

The slot-resolve tiers are bit-identical to the dense batch kernel;
this suite extends the contract to the recovery layer.  With a
:class:`RecoveryPolicy` active, ``engine="compiled"`` runs
:class:`~repro.sim.recovery_packed.NativeRecoveryState` (word-packed
known-edge bitset, due-slot buckets, C inner loops) — it must stay
trace-for-trace identical to the
:class:`~repro.sim.recovery.BatchRecoveryState` oracle on
hypothesis-generated scenarios over all four paper topologies, random
policies (elections included — meaningful on 2D-8, whose triangles make
repair possible), loss processes, dead-node masks, and every shard
count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol_for
from repro.radio.impairments import (BernoulliBatchLoss, BurstBatchLoss,
                                     trial_seeds)
from repro.sim import (NativeRecoveryState, RecoveryPolicy, native_available,
                       replay_batch, replay_batch_sharded,
                       run_reactive_batch, run_reactive_batch_sharded)
from repro.sim.native import native_kernel
from repro.topology import Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6

MESHES = [
    (Mesh2D4, (5, 4)),
    (Mesh2D8, (4, 4)),
    (Mesh2D3, (5, 4)),
    (Mesh3D6, (3, 3, 3)),
]

#: The word-space tier under test ("compiled" silently degrades to
#: batch on hosts without a native build — the assertions still run,
#: against the dense recovery state).
TIERS = ["compiled"]


def assert_traces_equal(oracle, tier_traces, tag):
    assert len(oracle) == len(tier_traces)
    for b, (a, c) in enumerate(zip(oracle, tier_traces)):
        assert a.tx_events == c.tx_events, f"{tag} trial {b} tx"
        assert a.rx_events == c.rx_events, f"{tag} trial {b} rx"
        assert a.collision_events == c.collision_events, \
            f"{tag} trial {b} collisions"
        assert (a.first_rx == c.first_rx).all(), f"{tag} trial {b} first_rx"


def assert_summaries_equal(oracle, summary, tag):
    for field in ("first_rx", "tx_count", "rx_count", "collisions"):
        assert np.array_equal(getattr(oracle, field),
                              getattr(summary, field)), f"{tag} {field}"


@st.composite
def recovery_policy(draw):
    return RecoveryPolicy(
        timeout=draw(st.integers(1, 3)),
        max_retries=draw(st.integers(0, 3)),
        backoff=draw(st.integers(1, 2)),
        suppression_k=draw(st.integers(0, 3)),
        election=draw(st.booleans()))


@st.composite
def channel(draw, num_nodes, trials, source):
    """Per-trial dead masks (never the source) and a word-space loss."""
    dead_masks = None
    if draw(st.booleans()):
        dead_masks = np.zeros((trials, num_nodes), dtype=bool)
        for b in range(trials):
            for v in draw(st.lists(st.integers(0, num_nodes - 1),
                                   max_size=3, unique=True)):
                if v != source:
                    dead_masks[b, v] = True
    kind = draw(st.sampled_from(["none", "bernoulli", "burst"]))
    seeds = trial_seeds(draw(st.integers(0, 5)), 0.3, trials)
    if kind == "bernoulli":
        loss = BernoulliBatchLoss(draw(st.sampled_from([0.15, 0.35])), seeds)
    elif kind == "burst":
        loss = BurstBatchLoss(draw(st.sampled_from([0.2, 0.4])), seeds,
                              length=draw(st.integers(1, 3)))
    else:
        loss = None
    return dead_masks, loss


class TestReactiveRecoveryTiers:
    """run_reactive_batch: compiled recovery == batch oracle."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_paper_plans(self, cls, shape):
        mesh = cls(*shape)
        src = tuple(max(1, s // 2) for s in shape)
        plan = protocol_for(mesh.name).relay_plan(mesh, src)
        src_idx = mesh.index(src)

        @given(data=st.data())
        @settings(max_examples=15, deadline=None)
        def check(data):
            policy = data.draw(recovery_policy())
            trials = data.draw(st.integers(1, 4))
            dead_masks, loss = data.draw(
                channel(mesh.num_nodes, trials, src_idx))
            kwargs = dict(extra_delay=plan.extra_delay,
                          repeat_offsets=plan.repeat_offsets,
                          dead_masks=dead_masks, loss=loss,
                          trials=trials, recovery=policy)
            oracle = run_reactive_batch(mesh, src_idx, plan.relay_mask,
                                        engine="batch", **kwargs)
            for tier in TIERS:
                assert_traces_equal(
                    oracle,
                    run_reactive_batch(mesh, src_idx, plan.relay_mask,
                                       engine=tier, **kwargs),
                    tier)

        check()

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_random_relay_masks(self, cls, shape):
        """Arbitrary relay sets: guardians with partially-covered
        neighbourhoods, elections with non-plan relay-like sets."""
        mesh = cls(*shape)

        @given(data=st.data())
        @settings(max_examples=12, deadline=None)
        def check(data):
            policy = data.draw(recovery_policy())
            source = data.draw(st.integers(0, mesh.num_nodes - 1))
            relay_mask = np.array(
                [data.draw(st.booleans()) for _ in range(mesh.num_nodes)],
                dtype=bool)
            trials = data.draw(st.integers(1, 3))
            dead_masks, loss = data.draw(
                channel(mesh.num_nodes, trials, source))
            kwargs = dict(dead_masks=dead_masks, loss=loss,
                          trials=trials, recovery=policy)
            oracle = run_reactive_batch(mesh, source, relay_mask,
                                        engine="batch", **kwargs)
            for tier in TIERS:
                assert_traces_equal(
                    oracle,
                    run_reactive_batch(mesh, source, relay_mask,
                                       engine=tier, **kwargs),
                    tier)

        check()

    def test_elections_fire_on_2d8_dead_relay(self):
        """A dead relay on 2D-8 (triangles => repair possible) must
        drive the election path identically in every tier."""
        mesh = Mesh2D8(5, 5)
        src = (2, 2)
        plan = protocol_for("2D-8").relay_plan(mesh, src)
        src_idx = mesh.index(src)
        relays = plan.relay_mask.nonzero()[0]
        victim = int(relays[relays != src_idx][0])
        trials = 4
        dead_masks = np.zeros((trials, mesh.num_nodes), dtype=bool)
        dead_masks[:, victim] = True
        policy = RecoveryPolicy(timeout=1, max_retries=1, backoff=1,
                                suppression_k=0, election=True)
        kwargs = dict(dead_masks=dead_masks, trials=trials,
                      recovery=policy)
        oracle = run_reactive_batch(mesh, src_idx, plan.relay_mask,
                                    engine="batch", **kwargs)
        # The scenario must actually exercise an election: some node
        # transmits past the ordinary retry window.
        last_tx = max(t for t, _ in oracle[0].tx_events)
        assert last_tx >= policy.election_delay
        for tier in TIERS:
            assert_traces_equal(
                oracle,
                run_reactive_batch(mesh, src_idx, plan.relay_mask,
                                   engine=tier, **kwargs),
                tier)


class TestReplayRecoveryTiers:
    """replay_batch: compiled recovery == batch oracle."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_compiled_schedules(self, cls, shape):
        mesh = cls(*shape)
        src = tuple(max(1, s // 2) for s in shape)
        compiled = protocol_for(mesh.name).compile(mesh, src)
        src_idx = mesh.index(src)

        @given(data=st.data())
        @settings(max_examples=12, deadline=None)
        def check(data):
            policy = data.draw(recovery_policy())
            trials = data.draw(st.integers(1, 3))
            dead_masks, loss = data.draw(
                channel(mesh.num_nodes, trials, src_idx))
            kwargs = dict(dead_masks=dead_masks, loss=loss,
                          trials=trials, recovery=policy)
            oracle = replay_batch(mesh, compiled.schedule, src_idx,
                                  engine="batch", **kwargs)
            for tier in TIERS:
                assert_traces_equal(
                    oracle,
                    replay_batch(mesh, compiled.schedule, src_idx,
                                 engine=tier, **kwargs),
                    tier)

        check()


class TestShardInvarianceWithRecovery:
    """Recovery state rides trial shards: every worker count and tier
    must reproduce the unsharded batch summary bit for bit (the
    counter RNG keys loss draws by trial, not by shard)."""

    @pytest.mark.parametrize("cls,shape", [(Mesh2D4, (6, 5)),
                                           (Mesh2D8, (4, 4))])
    def test_reactive_sharded(self, cls, shape):
        mesh = cls(*shape)
        src = tuple(max(1, s // 2) for s in shape)
        plan = protocol_for(mesh.name).relay_plan(mesh, src)
        src_idx = mesh.index(src)
        trials = 7
        policy = RecoveryPolicy(timeout=2, max_retries=2, backoff=2,
                                suppression_k=2, election=True)
        loss = BernoulliBatchLoss(0.3, trial_seeds(11, 0.3, trials))
        dead_masks = np.zeros((trials, mesh.num_nodes), dtype=bool)
        dead_masks[2, (src_idx + 3) % mesh.num_nodes] = True
        kwargs = dict(loss=loss, trials=trials, dead_masks=dead_masks,
                      recovery=policy, summary=True)
        oracle = run_reactive_batch(mesh, src_idx, plan.relay_mask,
                                    engine="batch", **kwargs)
        for tier in TIERS + ["batch"]:
            for workers in (1, 2, 3):
                sharded = run_reactive_batch_sharded(
                    mesh, src_idx, plan.relay_mask, engine=tier,
                    workers=workers, **kwargs)
                assert_summaries_equal(oracle, sharded,
                                       f"{tier} workers={workers}")

    def test_replay_sharded(self, cls=Mesh2D4, shape=(6, 5)):
        mesh = cls(*shape)
        src = tuple(max(1, s // 2) for s in shape)
        compiled = protocol_for(mesh.name).compile(mesh, src)
        src_idx = mesh.index(src)
        trials = 6
        policy = RecoveryPolicy(timeout=1, max_retries=2, backoff=2,
                                suppression_k=1, election=False)
        loss = BernoulliBatchLoss(0.25, trial_seeds(5, 0.25, trials))
        kwargs = dict(loss=loss, trials=trials, recovery=policy,
                      summary=True)
        oracle = replay_batch(mesh, compiled.schedule, src_idx,
                              engine="batch", **kwargs)
        for tier in TIERS:
            for workers in (1, 2, 3):
                sharded = replay_batch_sharded(
                    mesh, compiled.schedule, src_idx, engine=tier,
                    workers=workers, **kwargs)
                assert_summaries_equal(oracle, sharded,
                                       f"{tier} workers={workers}")


@pytest.mark.skipif(not native_available(),
                    reason="native kernel unavailable")
class TestPackedStateInternals:
    """Directed checks of NativeRecoveryState plumbing the engine-level
    differentials cannot isolate."""

    @staticmethod
    def state(mesh):
        return NativeRecoveryState(mesh, RecoveryPolicy(),
                                   np.ones(mesh.num_nodes, bool), 1,
                                   native_kernel())

    def test_reverse_edge_table_is_involution(self):
        for cls, shape in MESHES:
            mesh = cls(*shape)
            rev = self.state(mesh).rev_edge
            assert np.array_equal(rev[rev], np.arange(len(rev)))
            indptr, indices = (mesh.slot_kernel.indptr,
                               mesh.slot_kernel.indices)
            rows = np.repeat(np.arange(mesh.num_nodes),
                             np.diff(indptr))
            # rev maps edge (u -> v) to (v -> u)
            assert np.array_equal(rows[rev], indices)
            assert np.array_equal(indices[rev], rows)

    def test_coverage_masks_cover_each_row_exactly(self):
        mesh = Mesh2D8(4, 4)
        state = self.state(mesh)
        indptr = mesh.slot_kernel.indptr
        for v in range(mesh.num_nodes):
            bits = set()
            for w, m in zip(state._cov_w[v], state._cov_m[v]):
                for j in range(64):
                    if int(m) >> j & 1:
                        bits.add(int(w) * 64 + j)
            assert bits == set(range(int(indptr[v]), int(indptr[v + 1])))
