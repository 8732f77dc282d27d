"""Batching invariance: a B-trial batch vs its B=1 runs.

Trial *b* of ``run_reactive_batch`` / ``replay_batch`` must be
trace-for-trace identical to a one-trial ``run_reactive`` / ``replay``
run with that trial's dead mask and loss process.  The one-trial entry
points are themselves B=1 calls into the same slot loop, so this suite
checks that batching changes no trial's answer — not the loop's
semantics, which the reference differentials
(``tests/test_reference_differential.py``,
``tests/test_recovery_differential.py``) hold against the pure-python
oracle.  It runs hypothesis-generated scenarios on all four paper
topologies — per-trial dead masks, every loss kind (counter-based
Bernoulli/burst, legacy PCG64 adapters), repeats, extra delays, forced
transmissions — plus hardened paper plans and summary/full-trace
consistency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import harden_plan
from repro.core import protocol_for
from repro.radio.impairments import (BernoulliBatchLoss, BernoulliLoss,
                                     BurstBatchLoss, BurstLoss,
                                     PerTrialBatchLoss, trial_seeds)
from repro.sim import (BroadcastSchedule, RecoveryPolicy, replay,
                       replay_batch, run_reactive, run_reactive_batch)
from repro.sim.reference import ReferenceSimulator
from repro.topology import Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6

MESHES = [
    (Mesh2D4, (5, 4)),
    (Mesh2D8, (4, 4)),
    (Mesh2D3, (5, 4)),
    (Mesh3D6, (3, 3, 3)),
]


def assert_trial_equal(batch_trace, single_trace):
    assert batch_trace.tx_events == single_trace.tx_events
    assert batch_trace.rx_events == single_trace.rx_events
    assert batch_trace.collision_events == single_trace.collision_events
    assert (batch_trace.first_rx == single_trace.first_rx).all()
    assert batch_trace.dropped_forced == single_trace.dropped_forced


def trial_kwargs(b, dead_masks, loss):
    return dict(
        dead_mask=None if dead_masks is None else dead_masks[b],
        loss=None if loss is None else loss.trial_loss(b))


@st.composite
def batch_scenario(draw, num_nodes):
    """Random batched-wave inputs: a shared relay plan plus per-trial
    channel realisations (dead masks and a batch loss process)."""
    trials = draw(st.integers(1, 4))
    source = draw(st.integers(0, num_nodes - 1))
    relay_mask = np.array(
        [draw(st.booleans()) for _ in range(num_nodes)], dtype=bool)
    if draw(st.booleans()):
        extra_delay = np.array(
            [draw(st.integers(0, 2)) for _ in range(num_nodes)],
            dtype=np.int64)
    else:
        extra_delay = None
    repeats = {}
    for v in draw(st.lists(st.integers(0, num_nodes - 1),
                           max_size=4, unique=True)):
        repeats[v] = tuple(sorted(draw(st.lists(
            st.integers(1, 3), min_size=1, max_size=2, unique=True))))
    forced = {}
    for slot in draw(st.lists(st.integers(1, 10), max_size=3, unique=True)):
        forced[slot] = draw(st.lists(
            st.integers(0, num_nodes - 1), min_size=1, max_size=3,
            unique=True))
    dead_masks = None
    if draw(st.booleans()):
        dead_masks = np.zeros((trials, num_nodes), dtype=bool)
        for b in range(trials):
            for v in draw(st.lists(st.integers(0, num_nodes - 1),
                                   max_size=3, unique=True)):
                if v != source:
                    dead_masks[b, v] = True
    kind = draw(st.sampled_from(
        ["none", "bernoulli", "burst", "per_trial"]))
    seed = draw(st.integers(0, 5))
    seeds = trial_seeds(seed, 0.25, trials)
    if kind == "bernoulli":
        loss = BernoulliBatchLoss(draw(st.sampled_from([0.1, 0.3])), seeds)
    elif kind == "burst":
        loss = BurstBatchLoss(draw(st.sampled_from([0.2, 0.5])), seeds)
    elif kind == "per_trial":
        # Legacy PCG64 processes, one per trial (exercises the adapter).
        p = draw(st.sampled_from([0.1, 0.3]))
        loss = PerTrialBatchLoss(
            [BernoulliLoss(p, seed=seed + b) if b % 2 == 0
             else BurstLoss(p, seed=seed + b) for b in range(trials)])
    else:
        loss = None
    return dict(source=source, trials=trials, relay_mask=relay_mask,
                extra_delay=extra_delay, repeat_offsets=repeats,
                forced_tx=forced, dead_masks=dead_masks, loss=loss)


class TestReactiveBatchDifferential:
    """run_reactive_batch trial b == run_reactive with trial b's channel."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_random_scenarios(self, cls, shape):
        mesh = cls(*shape)

        @given(data=st.data())
        @settings(max_examples=20, deadline=None)
        def check(data):
            kw = data.draw(batch_scenario(mesh.num_nodes))
            source = kw.pop("source")
            dead_masks, loss = kw["dead_masks"], kw["loss"]
            traces = run_reactive_batch(mesh, source, kw["relay_mask"],
                                        extra_delay=kw["extra_delay"],
                                        repeat_offsets=kw["repeat_offsets"],
                                        forced_tx=kw["forced_tx"],
                                        dead_masks=dead_masks, loss=loss,
                                        trials=kw["trials"])
            assert len(traces) == kw["trials"]
            for b, batch_trace in enumerate(traces):
                assert_trial_equal(
                    batch_trace,
                    run_reactive(mesh, source, kw["relay_mask"],
                                 extra_delay=kw["extra_delay"],
                                 repeat_offsets=kw["repeat_offsets"],
                                 forced_tx=kw["forced_tx"],
                                 **trial_kwargs(b, dead_masks, loss)))

        check()

    @pytest.mark.parametrize("cls,label,shape,src", [
        (Mesh2D4, "2D-4", (8, 6), (4, 3)),
        (Mesh2D8, "2D-8", (8, 6), (4, 3)),
        (Mesh2D3, "2D-3", (8, 6), (4, 3)),
        (Mesh3D6, "3D-6", (4, 4, 3), (2, 2, 2)),
    ])
    def test_hardened_paper_plans(self, cls, label, shape, src):
        """Hardened real relay plans under loss + dead masks, all four
        topologies: the exact configuration the robustness sweeps run."""
        mesh = cls(*shape)
        plan = harden_plan(protocol_for(label).relay_plan(mesh, src), 2)
        src_idx = mesh.index(src)
        trials = 4
        rng = np.random.default_rng(7)
        dead_masks = np.zeros((trials, mesh.num_nodes), dtype=bool)
        for b in range(trials):
            victims = rng.choice(mesh.num_nodes, size=3, replace=False)
            dead_masks[b, victims] = True
        dead_masks[:, src_idx] = False
        loss = BernoulliBatchLoss(0.15, trial_seeds(11, 0.15, trials))
        traces = run_reactive_batch(mesh, src_idx, plan.relay_mask,
                                    extra_delay=plan.extra_delay,
                                    repeat_offsets=plan.repeat_offsets,
                                    dead_masks=dead_masks, loss=loss)
        for b, batch_trace in enumerate(traces):
            assert_trial_equal(
                batch_trace,
                run_reactive(mesh, src_idx, plan.relay_mask,
                             extra_delay=plan.extra_delay,
                             repeat_offsets=plan.repeat_offsets,
                             dead_mask=dead_masks[b],
                             loss=loss.trial_loss(b)))


@st.composite
def random_schedule(draw, num_nodes):
    n_events = draw(st.integers(0, 40))
    events = [
        (draw(st.integers(1, 12)), draw(st.integers(0, num_nodes - 1)))
        for _ in range(n_events)
    ]
    return BroadcastSchedule.from_events(events)


class TestReplayBatchDifferential:
    """replay_batch trial b == replay with trial b's channel."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_random_schedules(self, cls, shape):
        mesh = cls(*shape)

        @given(data=st.data())
        @settings(max_examples=15, deadline=None)
        def check(data):
            sched = data.draw(random_schedule(mesh.num_nodes))
            src = data.draw(st.integers(0, mesh.num_nodes - 1))
            trials = data.draw(st.integers(1, 4))
            dead_masks = None
            if data.draw(st.booleans()):
                dead_masks = np.zeros((trials, mesh.num_nodes), dtype=bool)
                for b in range(trials):
                    for v in data.draw(st.lists(
                            st.integers(0, mesh.num_nodes - 1),
                            max_size=3, unique=True)):
                        dead_masks[b, v] = True
            loss = None
            if data.draw(st.booleans()):
                loss = BernoulliBatchLoss(
                    0.2, trial_seeds(data.draw(st.integers(0, 3)),
                                     0.2, trials))
            single = [replay(mesh, sched, src,
                             **trial_kwargs(b, dead_masks, loss))
                      for b in range(trials)]
            # Both tiers, on schedules that need not be causal.
            for engine in ("batch", "compiled"):
                traces = replay_batch(mesh, sched, src,
                                      dead_masks=dead_masks, loss=loss,
                                      trials=trials, engine=engine)
                for batch_trace, single_trace in zip(traces, single):
                    assert_trial_equal(batch_trace, single_trace)

        check()

    def test_pristine_replay_is_unchecked(self):
        """A pristine replay transmits what the schedule says, even a
        node that never received (how validate_broadcast sees causality
        violations): node 3 transmits in slot 1 on every engine."""
        mesh = Mesh2D4(6, 1)
        sched = BroadcastSchedule.from_events([(1, 0), (1, 3)])
        want = ReferenceSimulator(mesh).replay(sched, 0)
        assert want.tx_events == [(1, 0), (1, 3)]
        got = [replay(mesh, sched, 0)]
        for engine in ("batch", "compiled"):
            got += replay_batch(mesh, sched, 0, trials=1, engine=engine)
        for trace in got:
            assert_trial_equal(trace, want)

    @pytest.mark.parametrize("recovery", [None, RecoveryPolicy(
        timeout=1, max_retries=2, backoff=1, suppression_k=0)])
    def test_max_slots_cuts_every_tier(self, recovery):
        """max_slots=k cuts every replay at slot k, recovering or not,
        on every tier.  Without recovery the cut replay equals a replay
        of the schedule truncated at k; with recovery (whose repairs
        continue past the schedule) it equals the uncut replay's first
        k slots."""
        mesh = Mesh2D8(6, 5)
        src = mesh.index((3, 2))
        sched = protocol_for("2D-8").compile(mesh, (3, 2)).schedule
        trials = 3
        dead = np.zeros((trials, mesh.num_nodes), dtype=bool)
        dead[1, [7, 21]] = dead[2, 12] = True
        loss = BernoulliBatchLoss(0.3, trial_seeds(4, 0.3, trials))
        faults = dict(dead_masks=dead, loss=loss, trials=trials,
                      recovery=recovery)
        for k in (1, 3, sched.max_slot - 1):
            cut = BroadcastSchedule.from_events(
                (t, v) for t, v in sched if t <= k)
            for engine in ("batch", "compiled"):
                for kw in (dict(trials=1), faults):
                    full = replay_batch(mesh, sched, src, engine=engine,
                                        **kw)
                    got = replay_batch(mesh, sched, src, max_slots=k,
                                       engine=engine, **kw)
                    want = replay_batch(mesh, cut, src, engine=engine,
                                        **kw)
                    for b, trace in enumerate(got):
                        single = replay(mesh, sched, src, max_slots=k,
                                        recovery=kw.get("recovery"),
                                        **trial_kwargs(
                                            b, kw.get("dead_masks"),
                                            kw.get("loss")))
                        assert_trial_equal(trace, single)
                        assert trace.tx_events == [
                            e for e in full[b].tx_events if e[0] <= k]
                        assert trace.rx_events == [
                            e for e in full[b].rx_events if e[0] <= k]
                        if kw.get("recovery") is None:
                            assert_trial_equal(trace, want[b])

    def test_perfect_channel_replay(self):
        """No faults: every trial must equal the single perfect replay."""
        mesh = Mesh2D4(8, 6)
        compiled = protocol_for("2D-4").compile(mesh, (4, 3))
        src = mesh.index((4, 3))
        single = replay(mesh, compiled.schedule, src)
        for batch_trace in replay_batch(mesh, compiled.schedule, src,
                                        trials=3):
            assert_trial_equal(batch_trace, single)


class TestSummaryConsistency:
    """TraceSummary must agree with the full traces of the same batch."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_summary_matches_traces(self, cls, shape):
        mesh = cls(*shape)
        label = mesh.name
        src = tuple(1 for _ in shape)
        plan = protocol_for(label).relay_plan(mesh, src)
        src_idx = mesh.index(src)
        trials = 5
        loss = BernoulliBatchLoss(0.2, trial_seeds(3, 0.2, trials))
        common = dict(extra_delay=plan.extra_delay,
                      repeat_offsets=plan.repeat_offsets,
                      forced_tx={2: [src_idx, (src_idx + 5) % mesh.num_nodes]},
                      loss=loss)
        traces = run_reactive_batch(mesh, src_idx, plan.relay_mask, **common)
        s = run_reactive_batch(mesh, src_idx, plan.relay_mask, summary=True,
                               **common)
        assert s.trials == trials
        assert (s.first_rx == np.stack([t.first_rx for t in traces])).all()
        assert (s.num_tx == np.array([t.num_tx for t in traces])).all()
        assert (s.num_rx == np.array([t.num_rx for t in traces])).all()
        assert (s.collisions == np.array(
            [len(t.collision_events) for t in traces])).all()
        assert np.allclose(s.reachability,
                           [t.reachability for t in traces])
        assert (s.delay_slots == np.array(
            [t.delay_slots for t in traces])).all()
        assert s.dropped_forced == [t.dropped_forced for t in traces]
        for b, trace in enumerate(traces):
            assert (s.tx_count[b] == trace.tx_count_per_node()).all()
            assert (s.rx_count[b] == trace.rx_count_per_node()).all()


class TestBatchValidation:
    def test_batch_size_inference_conflict(self):
        mesh = Mesh2D4(4, 4)
        relay = np.ones(mesh.num_nodes, dtype=bool)
        loss = BernoulliBatchLoss(0.1, trial_seeds(0, 0.1, 3))
        with pytest.raises(ValueError, match="inconsistent batch sizes"):
            run_reactive_batch(mesh, 0, relay, loss=loss, trials=4)

    def test_batch_size_required(self):
        mesh = Mesh2D4(4, 4)
        relay = np.ones(mesh.num_nodes, dtype=bool)
        with pytest.raises(ValueError, match="cannot infer"):
            run_reactive_batch(mesh, 0, relay)

    def test_dead_source_rejected(self):
        mesh = Mesh2D4(4, 4)
        relay = np.ones(mesh.num_nodes, dtype=bool)
        dead = np.zeros((2, mesh.num_nodes), dtype=bool)
        dead[1, 0] = True
        with pytest.raises(ValueError, match="source"):
            run_reactive_batch(mesh, 0, relay, dead_masks=dead)
