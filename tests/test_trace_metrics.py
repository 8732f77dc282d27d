"""Unit tests for trace accounting and paper metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.store import trace_counts
from repro.radio import PAPER_RADIO_MODEL, FirstOrderRadioModel
from repro.sim import compute_metrics, run_reactive
from repro.sim.trace import BroadcastTrace
from repro.topology import Mesh2D4


def make_trace(extra_tx=()):
    """Hand-built trace on a 1x4 line: 0 -> 1 -> 2 -> 3 with one dup."""
    return BroadcastTrace(num_nodes=4, source=0,
                          first_rx=np.array([0, 1, 2, 3]),
                          tx=[(1, 0), (2, 1), (3, 2), *extra_tx],
                          rx=[(1, 1, 0), (2, 2, 1), (3, 3, 2), (3, 1, 2)],
                          collisions=[(2, 0)])


class TestTraceCounts:
    def test_headline_counts(self):
        t = make_trace()
        assert t.num_tx == 3
        assert t.num_rx == 4
        assert t.num_first_rx == 3
        assert t.num_duplicate_rx == 1
        assert t.num_collisions == 1
        assert t.delay_slots == 3
        assert t.last_activity_slot == 3
        assert t.reachability == 1.0
        assert t.all_reached

    def test_unreached(self):
        t = BroadcastTrace(num_nodes=3, source=0,
                           first_rx=np.array([0, 2, -1]))
        assert not t.all_reached
        assert t.reachability == pytest.approx(2 / 3)
        assert t.delay_slots == -1
        assert t.unreached_nodes().tolist() == [2]

    def test_delivery_tree(self):
        t = make_trace()
        tree = t.delivery_tree()
        assert tree == {1: 0, 2: 1, 3: 2}

    def test_delivery_tree_prefers_first_reception(self):
        t = BroadcastTrace(num_nodes=3, source=0,
                           first_rx=np.array([0, 1, 1]),
                           rx=[(1, 1, 0), (1, 2, 0), (2, 2, 1)])
        assert t.delivery_tree() == {1: 0, 2: 0}

    def test_per_node_counts(self):
        t = make_trace()
        assert t.tx_count_per_node().tolist() == [1, 1, 1, 0]
        assert t.rx_count_per_node().tolist() == [0, 2, 1, 1]

    def test_retransmitting_nodes(self):
        t = make_trace(extra_tx=[(4, 1)])
        assert t.retransmitting_nodes() == [1]

    def test_as_schedule(self):
        t = make_trace()
        sched = t.as_schedule()
        assert set(sched) == {(1, 0), (2, 1), (3, 2)}


@st.composite
def event_lists(draw):
    """A node count, a source, first receptions and chronological tx,
    rx and collision event tuples over those nodes."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    slot = st.integers(1, 9)
    tx = sorted(draw(st.lists(st.tuples(slot, node), max_size=20)))
    rx = sorted(draw(st.lists(st.tuples(slot, node, node), max_size=30)))
    coll = sorted(draw(st.lists(st.tuples(slot, node), max_size=10)))
    first_rx = draw(st.lists(st.integers(-1, 9), min_size=n, max_size=n))
    source = draw(node)
    first_rx[source] = 0
    return n, source, np.array(first_rx, dtype=np.int64), tx, rx, coll


class TestColumnarTrace:
    """A trace built from int64 columns and the same trace built from
    tuple lists (the reference's form) agree in every view and count."""

    @given(event_lists())
    @settings(max_examples=150, deadline=None)
    def test_columns_and_tuple_lists_agree(self, case):
        n, source, first_rx, tx, rx, coll = case
        lists = BroadcastTrace(num_nodes=n, source=source, first_rx=first_rx,
                               tx=tx, rx=rx, collisions=coll)
        cols = BroadcastTrace(
            num_nodes=n, source=source, first_rx=first_rx,
            tx=np.array(tx, dtype=np.int64).reshape(-1, 2),
            rx=np.array(rx, dtype=np.int64).reshape(-1, 3),
            collisions=np.array(coll, dtype=np.int64).reshape(-1, 2))
        for t in (lists, cols):
            assert t.tx_events == tx and t.rx_events == rx
            assert t.collision_events == coll
            assert tx == t.tx_events  # a list compares equal both ways
            assert t.tx.shape == (len(tx), 2) and t.tx.dtype == np.int64
        for name in ("num_tx", "num_rx", "num_duplicate_rx",
                     "num_first_rx", "num_collisions", "delay_slots",
                     "last_activity_slot", "reachability", "all_reached"):
            assert getattr(lists, name) == getattr(cols, name), name
        assert cols.num_tx == len(tx) and cols.num_rx == len(rx)
        assert cols.last_activity_slot == max((s for s, _ in tx), default=0)
        for name in ("tx_count_per_node", "rx_count_per_node",
                     "unreached_nodes"):
            assert np.array_equal(getattr(lists, name)(),
                                  getattr(cols, name)()), name
        assert lists.retransmitting_nodes() == cols.retransmitting_nodes()
        assert lists.delivery_tree() == cols.delivery_tree()
        assert lists.as_schedule() == cols.as_schedule()
        by_slot = {}
        for s, v in tx:
            by_slot.setdefault(s, set()).add(v)
        assert cols.slot_sets() == by_slot
        # The store's counts are compute_metrics' reductions.
        mesh = Mesh2D4(n, 1)
        metrics = compute_metrics(cols, mesh)
        assert trace_counts(cols) == {
            "tx": metrics.tx, "rx": metrics.rx,
            "duplicates": metrics.duplicates,
            "collisions": metrics.collisions,
            "delay_slots": metrics.delay_slots,
            "reachability": metrics.reachability,
            "relays": metrics.relay_count,
            "retransmitters": metrics.retransmit_count}
        assert metrics.relay_count == len({v for _, v in tx})

    def test_views_are_read_only(self):
        t = make_trace()
        with pytest.raises(AttributeError):
            t.tx_events = []
        assert isinstance(t.rx_events, tuple)
        assert t.rx_events is t.rx_events  # built once

    def test_rejects_misshapen_rows(self):
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            BroadcastTrace(num_nodes=3, source=0,
                           first_rx=np.array([0, -1, -1]),
                           tx=np.zeros((2, 3), dtype=np.int64))


class TestComputeMetrics:
    def test_against_manual_energy(self):
        mesh = Mesh2D4(6, 1)
        relay = np.ones(6, dtype=bool)
        trace = run_reactive(mesh, 0, relay)
        m = compute_metrics(trace, mesh)
        e_tx = PAPER_RADIO_MODEL.tx_energy(512, mesh.tx_range())
        e_rx = PAPER_RADIO_MODEL.rx_energy(512)
        assert m.energy_j == pytest.approx(
            trace.num_tx * e_tx + trace.num_rx * e_rx)
        assert m.tx == trace.num_tx
        assert m.rx == trace.num_rx
        assert m.reached_all

    def test_collided_energy_flag_increases_energy(self):
        mesh = Mesh2D4(5, 1)
        relay = np.zeros(5, dtype=bool)
        # force a collision at node 2's position via two forced tx
        trace = run_reactive(mesh, 2, relay, forced_tx={2: [1, 3]})
        base = compute_metrics(trace, mesh)
        loud = compute_metrics(trace, mesh, count_collided_rx_energy=True)
        assert trace.num_collisions > 0
        assert loud.energy_j > base.energy_j
        assert loud.energy_j == pytest.approx(
            base.energy_j
            + trace.num_collisions * PAPER_RADIO_MODEL.rx_energy(512))

    def test_custom_model_and_bits(self):
        mesh = Mesh2D4(4, 1)
        relay = np.ones(4, dtype=bool)
        trace = run_reactive(mesh, 0, relay)
        model = FirstOrderRadioModel(e_elec=1e-6, e_amp=0.0)
        m = compute_metrics(trace, mesh, model=model, packet_bits=10)
        assert m.energy_j == pytest.approx(
            (trace.num_tx + trace.num_rx) * 1e-5)

    def test_as_row(self):
        mesh = Mesh2D4(4, 1)
        trace = run_reactive(mesh, 0, np.ones(4, dtype=bool))
        row = compute_metrics(trace, mesh).as_row()
        assert row["topology"] == "2D-4"
        assert row["tx"] == trace.num_tx
        assert 0 <= row["reachability"] <= 1
