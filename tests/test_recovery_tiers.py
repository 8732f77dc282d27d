"""Differential testing: the native recovery tier vs the batch recovery
oracle.

The slot-resolve tiers are bit-identical to the dense batch kernel;
this suite extends the contract to the recovery layer.  With a
:class:`RecoveryPolicy` active, ``engine="compiled"`` runs
:class:`~repro.sim.backend.NativeRecoveryState` (word-packed
known-edge bitset, a C due calendar, the whole machine in the kernel)
— it must stay trace-for-trace identical to the
:class:`~repro.sim.recovery.BatchRecoveryState` oracle on
hypothesis-generated scenarios over all four paper topologies, random
policies (elections included — meaningful on 2D-8, whose triangles make
repair possible), loss processes, dead-node masks, and every shard
count, plus directed calendar edge cases (schedules past the slot
bound, elections without retries) held to the pure-python reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol_for
from repro.radio.impairments import (BernoulliBatchLoss, BurstBatchLoss,
                                     trial_seeds)
from repro.sim import (NativeRecoveryState, RecoveryPolicy,
                       ReferenceSimulator, native_available, replay_batch,
                       replay_batch_sharded, run_reactive_batch,
                       run_reactive_batch_sharded)
from repro.sim.backend import NativeBackend
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
        max_retries=draw(st.integers(0, 5)),
        backoff=draw(st.integers(1, 3)),
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


def reference_trials(mesh, trials, run, dead_masks=None, loss=None):
    """The reference's traces of *trials* trials: ``run(simulator,
    dead_mask=..., loss=...)`` per trial."""
    ref = ReferenceSimulator(mesh)
    return [run(ref,
                dead_mask=None if dead_masks is None else dead_masks[b],
                loss=None if loss is None else loss.trial_loss(b))
            for b in range(trials)]


class TestCalendarEdgeCases:
    """Directed cases of the compiled tier's due calendar, held to the
    pure-python reference at trace level (the dense tier too)."""

    def test_schedules_past_the_slot_bound(self):
        """Backoff 3 over 6 retries reaches 3 * 3**5 = 729 slots ahead,
        far past max_slots: the calendar must drop that work (it can
        never fire) while the horizon still keeps the loop running."""
        mesh = Mesh2D4(6, 5)
        src = mesh.index((3, 2))
        plan = protocol_for(mesh.name).relay_plan(mesh, (3, 2))
        compiled = protocol_for(mesh.name).compile(mesh, (3, 2))
        trials, max_slots = 5, 24
        policy = RecoveryPolicy(timeout=3, max_retries=6, backoff=3,
                                suppression_k=0, election=True)
        loss = BernoulliBatchLoss(0.35, trial_seeds(3, 0.35, trials))
        kwargs = dict(loss=loss, trials=trials, recovery=policy)
        uncut = run_reactive_batch(mesh, src, plan.relay_mask,
                                   engine="batch", **kwargs)
        assert max(t for tr in uncut for t, _ in tr.tx_events) > max_slots
        kwargs["max_slots"] = max_slots
        oracle = reference_trials(
            mesh, trials, lambda ref, **kw: ref.run_reactive(
                src, plan.relay_mask, recovery=policy,
                max_slots=max_slots, **kw), loss=loss)
        replay_oracle = reference_trials(
            mesh, trials, lambda ref, **kw: ref.replay(
                compiled.schedule, src, recovery=policy,
                max_slots=max_slots, **kw), loss=loss)
        for tier in TIERS + ["batch"]:
            assert_traces_equal(
                oracle, run_reactive_batch(mesh, src, plan.relay_mask,
                                           engine=tier, **kwargs), tier)
            assert_traces_equal(
                replay_oracle,
                replay_batch(mesh, compiled.schedule, src, engine=tier,
                             **kwargs), f"{tier} replay")

    def test_elections_without_retries(self):
        """max_retries=0 schedules no guardian check at all; elections
        alone must still repair around a dead relay identically."""
        mesh = Mesh2D8(5, 5)
        src = mesh.index((2, 2))
        plan = protocol_for("2D-8").relay_plan(mesh, (2, 2))
        relays = plan.relay_mask.nonzero()[0]
        trials = 4
        dead_masks = np.zeros((trials, mesh.num_nodes), dtype=bool)
        dead_masks[:, int(relays[relays != src][0])] = True
        policy = RecoveryPolicy(timeout=1, max_retries=0, backoff=2,
                                suppression_k=1, election=True)
        kwargs = dict(dead_masks=dead_masks, trials=trials)
        plain = run_reactive_batch(mesh, src, plan.relay_mask, **kwargs)
        oracle = reference_trials(
            mesh, trials, lambda ref, **kw: ref.run_reactive(
                src, plan.relay_mask, recovery=policy, **kw),
            dead_masks=dead_masks)
        assert (sum(len(tr.tx_events) for tr in oracle)
                > sum(len(tr.tx_events) for tr in plain))
        for tier in TIERS + ["batch"]:
            assert_traces_equal(
                oracle, run_reactive_batch(mesh, src, plan.relay_mask,
                                           engine=tier, recovery=policy,
                                           **kwargs), tier)


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
                                   native_kernel(), 4 * mesh.num_nodes)

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
        """The kernel's coverage decision at a due check reads exactly
        the guardian's CSR row: every bit of the row known clears the
        check without using a retry, any one bit missing fires it.
        Mesh2D8(4, 4) has 84 edge positions, so rows cross word
        boundaries."""
        mesh = Mesh2D8(4, 4)
        n = mesh.num_nodes
        indptr = mesh.slot_kernel.indptr
        policy = RecoveryPolicy(timeout=1, max_retries=2, backoff=1,
                                suppression_k=0, election=False)

        def due_check(v, bits):
            backend = NativeBackend(mesh.slot_kernel, 1, None, None,
                                    need_senders=True,
                                    need_coll_pairs=True)
            backend.bind(np.full((1, n), -1, dtype=np.int64))
            state = backend.make_recovery(mesh, policy, np.ones(n, bool),
                                          1, 8)
            # v alone transmits in slot 1 (an unchecked forced-only
            # plan: v needs no message), so its check is due at slot 2.
            backend.schedule(np.zeros((1, n), dtype=bool),
                             np.zeros((1, n), dtype=np.int64), {},
                             ([1], [0, 1], np.zeros(1, dtype=np.int64),
                              np.full(1, v, dtype=np.int64)),
                             np.full(1, 8, dtype=np.int64), None,
                             checked=False)
            # The two C calls of one slot of the kernel's wave loop.
            lib, w, rs = backend._lib, backend._w, backend._rs
            assert lib.reactive_next_slot(rs, state.c, w.tx_tr,
                                          w.tx_nd) == 1
            lib.resolve_slot(w, state.c, rs, 1, 1)
            state.known[:] = 0
            for e in bits:
                state.known[0, e >> 6] |= np.uint64(1) << np.uint64(e & 63)
            # The scheduler pops the check's retransmission, if any, as
            # slot 2's one pair.
            k = lib.reactive_next_slot(rs, state.c, w.tx_tr, w.tx_nd)
            fired = []
            if k:
                assert rs.slot == 2
                fb, fv = (backend._scratch[name][:k]
                          for name in ("tx_tr", "tx_nd"))
                fired = list(zip(fb.tolist(), fv.tolist()))
            return fired, int(state.retries_used[0, v])

        assert len(mesh.slot_kernel.indices) > 64
        for v in range(n):
            row = range(int(indptr[v]), int(indptr[v + 1]))
            assert due_check(v, row) == ([], 0)
            for e in row:
                assert due_check(v, [x for x in row if x != e]) \
                    == ([(0, v)], 1)
