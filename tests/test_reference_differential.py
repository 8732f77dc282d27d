"""Differential testing: vectorised engine vs pure-python reference.

The reference simulator re-implements replay, the reactive wave and the
recovery layer with per-node state and no numpy in the decision logic;
both implementations must produce byte-identical traces on identical
inputs — including randomly generated (hypothesis) schedules full of
collisions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (BroadcastSchedule, RecoveryPolicy, ReferenceSimulator,
                       replay, run_reactive)
from repro.topology import Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6
from repro.core import protocol_for


def assert_traces_equal(a, b):
    assert a.tx_events == b.tx_events
    assert a.rx_events == b.rx_events
    assert a.collision_events == b.collision_events
    assert (a.first_rx == b.first_rx).all()


class TestHandBuilt:
    def test_single_tx(self):
        mesh = Mesh2D4(4, 4)
        sched = BroadcastSchedule.from_events([(1, mesh.index((2, 2)))])
        assert_traces_equal(
            replay(mesh, sched, mesh.index((2, 2))),
            ReferenceSimulator(mesh).replay(sched, mesh.index((2, 2))))

    def test_collision_scenario(self):
        mesh = Mesh2D4(5, 1)
        src = 2
        sched = BroadcastSchedule.from_events([(1, 2), (2, 1), (2, 3)])
        assert_traces_equal(
            replay(mesh, sched, src),
            ReferenceSimulator(mesh).replay(sched, src))


@st.composite
def random_schedule(draw, num_nodes):
    n_events = draw(st.integers(0, 40))
    events = [
        (draw(st.integers(1, 12)), draw(st.integers(0, num_nodes - 1)))
        for _ in range(n_events)
    ]
    return BroadcastSchedule.from_events(events)


class TestRandomisedDifferential:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_mesh2d4(self, data):
        mesh = Mesh2D4(5, 4)
        sched = data.draw(random_schedule(mesh.num_nodes))
        src = data.draw(st.integers(0, mesh.num_nodes - 1))
        assert_traces_equal(
            replay(mesh, sched, src),
            ReferenceSimulator(mesh).replay(sched, src))

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_mesh2d8(self, data):
        mesh = Mesh2D8(4, 4)
        sched = data.draw(random_schedule(mesh.num_nodes))
        src = data.draw(st.integers(0, mesh.num_nodes - 1))
        assert_traces_equal(
            replay(mesh, sched, src),
            ReferenceSimulator(mesh).replay(sched, src))

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_mesh2d3(self, data):
        mesh = Mesh2D3(5, 4)
        sched = data.draw(random_schedule(mesh.num_nodes))
        src = data.draw(st.integers(0, mesh.num_nodes - 1))
        assert_traces_equal(
            replay(mesh, sched, src),
            ReferenceSimulator(mesh).replay(sched, src))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_mesh3d6(self, data):
        mesh = Mesh3D6(3, 3, 3)
        sched = data.draw(random_schedule(mesh.num_nodes))
        src = data.draw(st.integers(0, mesh.num_nodes - 1))
        assert_traces_equal(
            replay(mesh, sched, src),
            ReferenceSimulator(mesh).replay(sched, src))


class TestCompiledSchedules:
    """The real compiled protocol schedules must replay identically too."""

    @pytest.mark.parametrize("cls,label,src", [
        (Mesh2D4, "2D-4", (4, 3)),
        (Mesh2D8, "2D-8", (4, 3)),
        (Mesh2D3, "2D-3", (4, 3)),
    ])
    def test_protocol_schedule(self, cls, label, src):
        mesh = cls(8, 6)
        compiled = protocol_for(label).compile(mesh, src)
        src_idx = mesh.index(src)
        assert_traces_equal(
            replay(mesh, compiled.schedule, src_idx),
            ReferenceSimulator(mesh).replay(compiled.schedule, src_idx))

    def test_protocol_schedule_3d(self):
        mesh = Mesh3D6(4, 4, 3)
        compiled = protocol_for("3D-6").compile(mesh, (2, 2, 2))
        src_idx = mesh.index((2, 2, 2))
        assert_traces_equal(
            replay(mesh, compiled.schedule, src_idx),
            ReferenceSimulator(mesh).replay(compiled.schedule, src_idx))


@st.composite
def reactive_scenario(draw, num_nodes):
    """Random reactive-wave inputs: relay mask, delays, repeats, forced
    transmissions, dead nodes and an optional loss process."""
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
    dead = None
    if draw(st.booleans()):
        dead = np.zeros(num_nodes, dtype=bool)
        for v in draw(st.lists(st.integers(0, num_nodes - 1),
                               max_size=3, unique=True)):
            if v != source:
                dead[v] = True
    loss = None
    kind = draw(st.sampled_from(["none", "bernoulli", "burst"]))
    if kind == "bernoulli":
        from repro.radio.impairments import BernoulliLoss
        loss = BernoulliLoss(draw(st.sampled_from([0.1, 0.3])),
                             seed=draw(st.integers(0, 5)))
    elif kind == "burst":
        from repro.radio.impairments import BurstLoss
        loss = BurstLoss(draw(st.sampled_from([0.2, 0.5])),
                         seed=draw(st.integers(0, 5)))
    return dict(source=source, relay_mask=relay_mask,
                extra_delay=extra_delay, repeat_offsets=repeats,
                forced_tx=forced, dead_mask=dead, loss=loss)


def assert_reactive_equal(a, b):
    assert_traces_equal(a, b)
    assert a.dropped_forced == b.dropped_forced


class TestReactiveDifferential:
    """run_reactive (vectorised) vs the pure-python reference wave."""

    @pytest.mark.parametrize("cls,shape", [
        (Mesh2D4, (5, 4)),
        (Mesh2D8, (4, 4)),
        (Mesh2D3, (5, 4)),
        (Mesh3D6, (3, 3, 3)),
    ])
    def test_random_scenarios(self, cls, shape):
        mesh = cls(*shape)
        ref = ReferenceSimulator(mesh)

        @given(data=st.data())
        @settings(max_examples=25, deadline=None)
        def check(data):
            kw = data.draw(reactive_scenario(mesh.num_nodes))
            source = kw.pop("source")
            assert_reactive_equal(
                run_reactive(mesh, source, **kw),
                ref.run_reactive(source, **kw))

        check()

    def test_protocol_waves(self):
        """The actual paper relay plans must match the reference too."""
        for cls, label, src in [(Mesh2D4, "2D-4", (4, 3)),
                                (Mesh2D8, "2D-8", (4, 3)),
                                (Mesh2D3, "2D-3", (4, 3))]:
            mesh = cls(8, 6)
            plan = protocol_for(label).relay_plan(mesh, src)
            src_idx = mesh.index(src)
            assert_reactive_equal(
                run_reactive(mesh, src_idx, plan.relay_mask,
                             extra_delay=plan.extra_delay,
                             repeat_offsets=plan.repeat_offsets),
                ReferenceSimulator(mesh).run_reactive(
                    src_idx, plan.relay_mask,
                    extra_delay=plan.extra_delay,
                    repeat_offsets=plan.repeat_offsets))

    def test_dropped_forced_recorded_identically(self):
        mesh = Mesh2D4(5, 4)
        src = mesh.index((3, 2))
        relay = np.zeros(mesh.num_nodes, dtype=bool)
        # Forced tx by a node that is never informed -> dropped.
        forced = {2: [mesh.index((1, 4)), mesh.index((5, 4))], 5: [src]}
        eng = run_reactive(mesh, src, relay, forced_tx=forced)
        ref = ReferenceSimulator(mesh).run_reactive(
            src, relay, forced_tx=forced)
        assert eng.dropped_forced and eng.dropped_forced == ref.dropped_forced


class TestFaultyReplayDifferential:
    """Replay with dead nodes / loss must match the reference too."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_dead_and_loss(self, data):
        from repro.radio.impairments import BernoulliLoss
        mesh = Mesh2D4(5, 4)
        sched = data.draw(random_schedule(mesh.num_nodes))
        src = data.draw(st.integers(0, mesh.num_nodes - 1))
        dead = np.zeros(mesh.num_nodes, dtype=bool)
        for v in data.draw(st.lists(st.integers(0, mesh.num_nodes - 1),
                                    max_size=3, unique=True)):
            dead[v] = True
        loss = (BernoulliLoss(0.2, seed=data.draw(st.integers(0, 3)))
                if data.draw(st.booleans()) else None)
        assert_traces_equal(
            replay(mesh, sched, src, dead_mask=dead, loss=loss),
            ReferenceSimulator(mesh).replay(
                sched, src, dead_mask=dead, loss=loss))


@st.composite
def recovery_policy(draw):
    return RecoveryPolicy(
        timeout=draw(st.integers(1, 3)),
        max_retries=draw(st.integers(0, 4)),
        backoff=draw(st.integers(1, 3)),
        suppression_k=draw(st.integers(0, 3)),
        election=draw(st.booleans()))


class TestRecoveryReferenceDifferential:
    """The recovery layer on top of arbitrary waves and schedules: the
    one-trial entry points vs the reference's per-node recovery state.
    (``tests/test_recovery_differential.py`` covers the paper plans and
    every tier's batches.)"""

    @pytest.mark.parametrize("cls,shape", [
        (Mesh2D4, (5, 4)),
        (Mesh2D8, (4, 4)),
        (Mesh2D3, (5, 4)),
        (Mesh3D6, (3, 3, 3)),
    ])
    def test_random_waves(self, cls, shape):
        """Delays, repeats and forced transmissions under recovery."""
        mesh = cls(*shape)
        ref = ReferenceSimulator(mesh)

        @given(data=st.data())
        @settings(max_examples=15, deadline=None)
        def check(data):
            kw = data.draw(reactive_scenario(mesh.num_nodes))
            kw["recovery"] = data.draw(recovery_policy())
            source = kw.pop("source")
            assert_reactive_equal(
                run_reactive(mesh, source, **kw),
                ref.run_reactive(source, **kw))

        check()

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_schedules(self, data):
        """Recovery past arbitrary (non-causal, colliding) schedules,
        faulty or pristine, with and without a slot cut-off."""
        from repro.radio.impairments import BernoulliLoss
        mesh = Mesh2D8(4, 4)
        sched = data.draw(random_schedule(mesh.num_nodes))
        src = data.draw(st.integers(0, mesh.num_nodes - 1))
        dead = None
        if data.draw(st.booleans()):
            dead = np.zeros(mesh.num_nodes, dtype=bool)
            for v in data.draw(st.lists(
                    st.integers(0, mesh.num_nodes - 1), max_size=3,
                    unique=True)):
                dead[v] = True
        loss = (BernoulliLoss(0.2, seed=data.draw(st.integers(0, 3)))
                if data.draw(st.booleans()) else None)
        kw = dict(dead_mask=dead, loss=loss,
                  recovery=data.draw(recovery_policy()),
                  max_slots=data.draw(st.sampled_from([None, 8, 20])))
        assert_traces_equal(replay(mesh, sched, src, **kw),
                            ReferenceSimulator(mesh).replay(sched, src, **kw))
