"""Differential testing: the engine's recovery layer vs the reference.

With the same :class:`RecoveryPolicy`, trial *b* of ``run_reactive_batch``
/ ``replay_batch`` — on every slot-resolve tier — and the one-trial
``run_reactive`` / ``replay`` must stay trace-for-trace identical to
:class:`~repro.sim.reference.ReferenceSimulator` run with that trial's
dead mask and loss process.  The reference's recovery state
(:class:`~repro.sim.reference.ReferenceRecovery`) is per-node python
sets and scalars, independent of the dense tier's ``(B, nnz)`` arrays
and the kernel's word bitsets and due calendar.  Hypothesis-generated
scenarios on all four paper topologies (loss + dead-node masks + random
policies, elections included, + slot cut-offs) enforce that the
implementations agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol_for
from repro.radio.impairments import (BernoulliBatchLoss, BurstBatchLoss,
                                     trial_seeds)
from repro.sim import (RecoveryPolicy, ReferenceSimulator, replay,
                       replay_batch, run_reactive, run_reactive_batch)
from repro.topology import Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6

MESHES = [
    (Mesh2D4, (5, 4)),
    (Mesh2D8, (4, 4)),
    (Mesh2D3, (5, 4)),
    (Mesh3D6, (3, 3, 3)),
]

#: Engine tiers held to the reference ("compiled" degrades to the dense
#: tier where the native build is missing).
TIERS = ("batch", "compiled")


def assert_trial_equal(trace, reference):
    assert trace.tx_events == reference.tx_events
    assert trace.rx_events == reference.rx_events
    assert trace.collision_events == reference.collision_events
    assert (trace.first_rx == reference.first_rx).all()
    assert trace.dropped_forced == reference.dropped_forced


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
    """Per-trial dead masks (never the source) and a batch loss."""
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


def trial_kwargs(b, dead_masks, loss):
    return dict(
        dead_mask=None if dead_masks is None else dead_masks[b],
        loss=None if loss is None else loss.trial_loss(b))


def check_reactive(mesh, source, relay_mask, plan_kwargs, policy, trials,
                   dead_masks, loss, max_slots):
    """Every tier's batch and the one-trial run == the reference."""
    ref = ReferenceSimulator(mesh)
    kwargs = dict(plan_kwargs, recovery=policy, max_slots=max_slots)
    want = [ref.run_reactive(source, relay_mask, **kwargs,
                             **trial_kwargs(b, dead_masks, loss))
            for b in range(trials)]
    for tier in TIERS:
        traces = run_reactive_batch(mesh, source, relay_mask,
                                    dead_masks=dead_masks, loss=loss,
                                    trials=trials, engine=tier, **kwargs)
        for trace, reference in zip(traces, want):
            assert_trial_equal(trace, reference)
    assert_trial_equal(
        run_reactive(mesh, source, relay_mask, **kwargs,
                     **trial_kwargs(0, dead_masks, loss)), want[0])


def check_replay(mesh, schedule, source, policy, trials, dead_masks, loss,
                 max_slots):
    """Every tier's batch and the one-trial replay == the reference."""
    ref = ReferenceSimulator(mesh)
    kwargs = dict(recovery=policy, max_slots=max_slots)
    want = [ref.replay(schedule, source, **kwargs,
                       **trial_kwargs(b, dead_masks, loss))
            for b in range(trials)]
    for tier in TIERS:
        traces = replay_batch(mesh, schedule, source, dead_masks=dead_masks,
                              loss=loss, trials=trials, engine=tier,
                              **kwargs)
        for trace, reference in zip(traces, want):
            assert_trial_equal(trace, reference)
    assert_trial_equal(
        replay(mesh, schedule, source, **kwargs,
               **trial_kwargs(0, dead_masks, loss)), want[0])


#: A slot cut-off or the default bound.
CUTOFFS = st.sampled_from([None, None, 6, 15, 30])


class TestReactiveRecoveryDifferential:
    """run_reactive(_batch) + recovery == the reference, per trial."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_paper_plans(self, cls, shape):
        mesh = cls(*shape)
        src = tuple(max(1, s // 2) for s in shape)
        plan = protocol_for(mesh.name).relay_plan(mesh, src)
        src_idx = mesh.index(src)

        @given(data=st.data())
        @settings(max_examples=20, deadline=None)
        def check(data):
            trials = data.draw(st.integers(1, 4))
            check_reactive(
                mesh, src_idx, plan.relay_mask,
                dict(extra_delay=plan.extra_delay,
                     repeat_offsets=plan.repeat_offsets),
                data.draw(recovery_policy()), trials,
                *data.draw(channel(mesh.num_nodes, trials, src_idx)),
                data.draw(CUTOFFS))

        check()

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_random_relay_masks(self, cls, shape):
        """Recovery on arbitrary relay sets, not just the paper plans —
        exercises guardians with partially-covered neighbourhoods and
        elections with non-plan relay-like sets."""
        mesh = cls(*shape)

        @given(data=st.data())
        @settings(max_examples=15, deadline=None)
        def check(data):
            source = data.draw(st.integers(0, mesh.num_nodes - 1))
            relay_mask = np.array(
                [data.draw(st.booleans()) for _ in range(mesh.num_nodes)],
                dtype=bool)
            trials = data.draw(st.integers(1, 3))
            check_reactive(
                mesh, source, relay_mask, {}, data.draw(recovery_policy()),
                trials, *data.draw(channel(mesh.num_nodes, trials, source)),
                data.draw(CUTOFFS))

        check()


class TestReplayRecoveryDifferential:
    """replay(_batch) + recovery == the reference, per trial."""

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_compiled_schedules(self, cls, shape):
        mesh = cls(*shape)
        src = tuple(max(1, s // 2) for s in shape)
        compiled = protocol_for(mesh.name).compile(mesh, src)
        src_idx = mesh.index(src)

        @given(data=st.data())
        @settings(max_examples=15, deadline=None)
        def check(data):
            trials = data.draw(st.integers(1, 3))
            check_replay(
                mesh, compiled.schedule, src_idx,
                data.draw(recovery_policy()), trials,
                *data.draw(channel(mesh.num_nodes, trials, src_idx)),
                data.draw(CUTOFFS))

        check()

    def test_clean_channel_replay_matches(self):
        mesh = Mesh2D4(8, 6)
        compiled = protocol_for("2D-4").compile(mesh, (4, 3))
        src = mesh.index((4, 3))
        check_replay(mesh, compiled.schedule, src, RecoveryPolicy(), 3,
                     None, None, None)
