"""Unit tests for the simulation engine (reactive waves and replay)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BroadcastSchedule, replay, run_reactive
from repro.sim.engine import (_forced_schedule, _offset_masks,
                               sorted_unique_pairs)
from repro.topology import Mesh2D4


def line_mesh(length):
    """A 1 x length 2D-4 mesh is a simple path graph — ideal for
    hand-checkable wave tests."""
    return Mesh2D4(length, 1)


class TestReactiveWave:
    def test_line_relay_wave(self):
        mesh = line_mesh(6)
        relay = np.ones(6, dtype=bool)
        trace = run_reactive(mesh, 0, relay)
        # node k receives at slot k, source transmits at slot 1
        for k in range(1, 6):
            assert trace.first_rx[k] == k
        assert trace.all_reached
        assert trace.delay_slots == 5
        # everyone but the last node relays usefully; all 6 transmit once
        assert trace.num_tx == 6

    def test_non_relay_does_not_forward(self):
        mesh = line_mesh(5)
        relay = np.ones(5, dtype=bool)
        relay[2] = False
        trace = run_reactive(mesh, 0, relay)
        assert trace.first_rx[2] == 2
        assert trace.first_rx[3] == -1  # wave stops at the silent node
        assert not trace.all_reached

    def test_source_always_transmits(self):
        mesh = line_mesh(3)
        relay = np.zeros(3, dtype=bool)
        trace = run_reactive(mesh, 1, relay)
        assert trace.tx_events == [(1, 1)]
        assert trace.first_rx[0] == 1
        assert trace.first_rx[2] == 1

    def test_extra_delay_shifts_transmission(self):
        mesh = line_mesh(5)
        relay = np.ones(5, dtype=bool)
        delay = np.zeros(5, dtype=np.int64)
        delay[1] = 2
        trace = run_reactive(mesh, 0, relay, extra_delay=delay)
        # node 1 receives at 1, transmits at 1+1+2 = 4
        assert (4, 1) in trace.tx_events
        assert trace.first_rx[2] == 4

    def test_repeat_offsets_cause_retransmission(self):
        mesh = line_mesh(4)
        relay = np.ones(4, dtype=bool)
        trace = run_reactive(mesh, 0, relay, repeat_offsets={1: (1,)})
        slots = sorted(s for s, v in trace.tx_events if v == 1)
        assert slots == [2, 3]

    def test_invalid_repeat_offset(self):
        mesh = line_mesh(3)
        with pytest.raises(ValueError):
            run_reactive(mesh, 0, np.ones(3, dtype=bool),
                         repeat_offsets={0: (0,)})

    def test_forced_tx_executes_when_informed(self):
        mesh = line_mesh(5)
        relay = np.zeros(5, dtype=bool)
        relay[1] = True
        # wave dies after node 1; force node 2 at slot 5 (informed at 2)
        trace = run_reactive(mesh, 0, relay, forced_tx={5: [2]})
        assert (5, 2) in trace.tx_events
        assert trace.first_rx[3] == 5
        assert trace.dropped_forced == []

    def test_forced_tx_dropped_when_uninformed(self):
        mesh = line_mesh(5)
        relay = np.zeros(5, dtype=bool)
        trace = run_reactive(mesh, 0, relay, forced_tx={3: [4]})
        assert (3, 4) in trace.dropped_forced
        assert all(v != 4 for _, v in trace.tx_events)

    def test_collision_starves_middle_node(self):
        """Two simultaneous neighbours garble the slot; the node between
        them never decodes and the trace records the collision."""
        mesh = Mesh2D4(3, 1)
        relay = np.zeros(3, dtype=bool)
        trace = run_reactive(mesh, 1, relay, forced_tx={2: [0, 2]})
        # both forced at slot 2 (informed at slot 1 by the source)
        assert trace.first_rx[0] == 1 and trace.first_rx[2] == 1
        # node 1 is idle at slot 2 and hears both -> a collision event is
        # recorded even though node 1 already holds the message
        assert (2, 1) in trace.collision_events
        # the middle node cannot "lose" anything; make a clean case:
        mesh2 = Mesh2D4(5, 1)
        relay2 = np.zeros(5, dtype=bool)
        relay2[1] = True
        relay2[3] = False
        tr = run_reactive(mesh2, 2, relay2, forced_tx={2: [3]})
        # slot 2: node 1 (relay, informed at 1) and node 3 (forced) both
        # transmit -> node 2 is transmitter-silent; nodes 0,4 receive fine
        assert tr.first_rx[0] == 2 and tr.first_rx[4] == 2

    def test_bad_source_raises(self):
        mesh = line_mesh(3)
        with pytest.raises(ValueError):
            run_reactive(mesh, 9, np.ones(3, dtype=bool))

    def test_bad_mask_shape_raises(self):
        mesh = line_mesh(3)
        with pytest.raises(ValueError):
            run_reactive(mesh, 0, np.ones(4, dtype=bool))

    def test_negative_extra_delay_raises(self):
        mesh = line_mesh(3)
        with pytest.raises(ValueError):
            run_reactive(mesh, 0, np.ones(3, dtype=bool),
                         extra_delay=np.array([0, -1, 0]))

    def test_terminates_on_silent_network(self):
        mesh = line_mesh(4)
        trace = run_reactive(mesh, 0, np.zeros(4, dtype=bool))
        assert trace.num_tx == 1
        assert trace.last_activity_slot == 1


class TestReplay:
    def test_replay_matches_reactive_trace(self):
        """Replaying the schedule extracted from a reactive run must give
        the identical trace (determinism of the collision model)."""
        mesh = Mesh2D4(6, 4)
        relay = np.ones(mesh.num_nodes, dtype=bool)
        relay[mesh.index((3, 2))] = False
        reactive = run_reactive(mesh, 0, relay)
        replayed = replay(mesh, reactive.as_schedule(), 0)
        assert replayed.tx_events == reactive.tx_events
        assert replayed.rx_events == reactive.rx_events
        assert replayed.collision_events == reactive.collision_events
        assert (replayed.first_rx == reactive.first_rx).all()

    def test_replay_empty_schedule(self):
        mesh = line_mesh(3)
        trace = replay(mesh, BroadcastSchedule(), 0)
        assert trace.num_tx == 0
        assert trace.first_rx[0] == 0
        assert not trace.all_reached

    def test_replay_source_bounds(self):
        mesh = line_mesh(3)
        with pytest.raises(ValueError):
            replay(mesh, BroadcastSchedule(), 5)


@st.composite
def pair_segments(draw):
    """(num_nodes, trials, nodes): a few concatenated segments of
    (trial, node) pairs, each sorted, possibly overlapping each other
    and possibly empty overall — the shape of a slot's pending entries
    plus forced and recovery transmitters."""
    n = draw(st.integers(1, 70))
    pair = st.tuples(st.integers(0, 6), st.integers(0, n - 1))
    segments = draw(st.lists(st.lists(pair, max_size=25), max_size=4))
    pairs = [p for seg in segments for p in sorted(seg)]
    if draw(st.booleans()) and pairs:       # all duplicates of one pair
        pairs = [pairs[0]] * len(pairs)
    tr = np.array([p[0] for p in pairs], dtype=np.int64)
    nd = np.array([p[1] for p in pairs], dtype=np.int64)
    return n, tr, nd


class TestSortedUniquePairs:
    """The batched step's dedup is ``np.unique`` of the pair keys, split
    back into trials and nodes — without ``np.unique``."""

    @given(pair_segments())
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique(self, case):
        n, tr, nd = case
        key = np.unique(tr * n + nd)
        got_tr, got_nd = sorted_unique_pairs(tr, nd, n)
        assert got_tr.dtype == got_nd.dtype == np.int64
        assert np.array_equal(got_tr, key // n)
        assert np.array_equal(got_nd, key % n)

    @pytest.mark.parametrize("pairs,want", [
        ([], []),
        ([(2, 5)], [(2, 5)]),
        ([(1, 3)] * 4, [(1, 3)]),
        ([(0, 1), (0, 4), (1, 0), (0, 4), (0, 9), (1, 0)],
         [(0, 1), (0, 4), (0, 9), (1, 0)]),
    ])
    def test_cases(self, pairs, want):
        tr = np.array([p[0] for p in pairs], dtype=np.int64)
        nd = np.array([p[1] for p in pairs], dtype=np.int64)
        got_tr, got_nd = sorted_unique_pairs(tr, nd, 10)
        assert list(zip(got_tr.tolist(), got_nd.tolist())) == want

    def test_inputs_untouched(self):
        tr = np.array([1, 0, 1], dtype=np.int64)
        nd = np.array([2, 3, 2], dtype=np.int64)
        sorted_unique_pairs(tr, nd, 5)
        assert tr.tolist() == [1, 0, 1] and nd.tolist() == [2, 3, 2]


class TestOffsetMasks:
    """Repeat offsets regrouped per offset: one ``(rows, n)`` mask per
    distinct offset, built once (not one throwaway matrix per entry)."""

    ROWS = [{0: (1, 3), 4: (3,), 7: (2,)}, None, {4: (1,), 5: (3, 6)}]

    def test_equals_reference_construction(self):
        n = 9
        ref = {}
        for b, repeats in enumerate(self.ROWS):
            for v, offs in (repeats or {}).items():
                for off in offs:
                    if off not in ref:
                        ref[off] = np.zeros((len(self.ROWS), n), bool)
                    ref[off][b, v] = True
        got = _offset_masks(n, self.ROWS)
        assert sorted(got) == sorted(ref)
        for off, mask in ref.items():
            assert got[off].dtype == bool
            assert np.array_equal(got[off], mask)
        assert _offset_masks(n, [None]) == {}

    def test_one_allocation_per_distinct_offset(self, monkeypatch):
        calls = []
        zeros = np.zeros

        def counting(*args, **kwargs):
            calls.append(args)
            return zeros(*args, **kwargs)

        monkeypatch.setattr(np, "zeros", counting)
        masks = _offset_masks(9, self.ROWS)
        assert len(calls) == len(masks) == 4


@st.composite
def forced_rows(draw):
    """One shared forced row or one per trial, as ``slot -> nodes``
    mappings or :class:`BroadcastSchedule` objects, with duplicate
    nodes, invalid slots and nodes outside ``[0, n)`` mixed in."""
    n = draw(st.integers(1, 12))
    trials = draw(st.integers(1, 4))
    slots = st.integers(-1, 14) if draw(st.booleans()) else st.integers(1, 14)
    nodes = (st.integers(-2, n + 1) if draw(st.booleans())
             else st.integers(0, n - 1))
    rows = []
    for _ in range(1 if draw(st.booleans()) else trials):
        row = draw(st.dictionaries(slots, st.lists(nodes, max_size=5),
                                   max_size=5))
        if draw(st.booleans()) and all(s >= 1 and all(v >= 0 for v in vs)
                                       for s, vs in row.items()):
            row = BroadcastSchedule.from_events(
                (s, v) for s, vs in row.items() for v in vs)
        rows.append(row)
    max_slots = draw(st.one_of(st.none(), st.integers(0, 16)))
    return rows, trials, n, max_slots


def reference_forced_plan(rows, trials, n, max_slots):
    """The plan as plain sorted ``(slot, trial, node)`` triples, plus
    the per-trial cut-offs, or the ValueError's kind."""
    triples, cuts = set(), []
    for b, row in enumerate(rows):
        if isinstance(row, BroadcastSchedule):
            pairs = set(row)
            last = row.max_slot
        else:
            if any(s < 1 for s in row):
                return "1-based"
            pairs = {(s, v) for s, vs in row.items() for v in vs}
            last = max(row, default=0)
        if any(not 0 <= v < n for _, v in pairs):
            return "out of range"
        cut = max(4 * n + 16, last + 2) if max_slots is None else max_slots
        cuts.append(cut)
        for trial in (range(trials) if len(rows) == 1 else [b]):
            triples |= {(s, trial, v) for s, v in pairs if s <= cut}
    if len(rows) == 1:
        cuts = cuts * trials
    return sorted(triples), cuts


class TestForcedSchedule:
    """Forced plans are built from arrays; they must hold exactly the
    distinct forced triples, slot-grouped, trial-major with nodes
    ascending, cut at each trial's bound, after one bounds check."""

    @given(forced_rows())
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_triples(self, case):
        rows, trials, n, max_slots = case
        want = reference_forced_plan(rows, trials, n, max_slots)
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                _forced_schedule(rows, trials, n, max_slots)
            return
        (slots, ptr, tr, nd), limit = _forced_schedule(rows, trials, n,
                                                       max_slots)
        assert slots == sorted(set(slots)) and len(ptr) == len(slots) + 1
        assert ptr[0] == 0 and ptr[-1] == len(nd) == len(tr)
        got = [(s, t, v) for i, s in enumerate(slots)
               for t, v in zip(tr[ptr[i]:ptr[i + 1]].tolist(),
                               nd[ptr[i]:ptr[i + 1]].tolist())]
        assert got == want[0]
        assert limit.tolist() == want[1]
