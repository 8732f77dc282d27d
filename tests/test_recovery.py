"""Unit tests for the closed-loop recovery layer (beyond the paper).

``src/repro/sim/recovery.py`` adds overhear-ACKs, timeout/backoff
retransmission, Trickle-style suppression, and a last-resort repair
election on top of the slot-synchronous engines.  These tests pin the
behavioural contract on the serial engine; the batch engine is held to
exact serial equivalence by ``tests/test_recovery_differential.py``.
"""

import numpy as np
import pytest

from repro.analysis import harden_plan
from repro.core import protocol_for
from repro.radio import CounterBernoulliLoss
from repro.sim import (BatchRecoveryState, RecoveryPolicy, replay,
                       run_reactive, relay_like_from_schedule,
                       relay_like_mask)
from repro.topology import (Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6,
                            RandomDiskTopology)


@pytest.fixture
def mesh():
    return Mesh2D4(12, 8)


@pytest.fixture
def plan(mesh):
    return protocol_for("2D-4").relay_plan(mesh, (6, 4))


def reactive(mesh, plan, src=(6, 4), **kw):
    return run_reactive(mesh, mesh.index(src), plan.relay_mask,
                        extra_delay=plan.extra_delay,
                        repeat_offsets=plan.repeat_offsets, **kw)


class TestRecoveryPolicy:
    def test_defaults(self):
        pol = RecoveryPolicy()
        assert pol.timeout == 2
        assert pol.max_retries == 3
        assert pol.backoff == 2
        assert pol.suppression_k == 2
        assert pol.election is True

    @pytest.mark.parametrize("kw", [
        {"timeout": 0},
        {"max_retries": -1},
        {"backoff": 0},
        {"suppression_k": -1},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            RecoveryPolicy(**kw)

    def test_election_delay_spans_retry_budget(self):
        pol = RecoveryPolicy(timeout=3, max_retries=2)
        # elections must not race the dead relay's own retry schedule
        assert pol.election_delay == 3 * (2 + 1)

    def test_label(self):
        assert RecoveryPolicy(2, 3, 2, 1).label() == "recovery-t2r3b2k1"
        assert (RecoveryPolicy(2, 2, 1, 2, election=False).label()
                == "recovery-t2r2b1k2-noelect")

    def test_frozen(self):
        with pytest.raises(Exception):
            RecoveryPolicy().timeout = 5


class TestRelayLikeMasks:
    def test_mask_includes_relays_and_source(self, mesh, plan):
        src = mesh.index((6, 4))
        mask = relay_like_mask(mesh.num_nodes, plan.relay_mask, src)
        assert mask[src]
        assert (mask[plan.relay_mask]).all()
        # a non-relay, non-source node must stay out
        others = np.nonzero(~plan.relay_mask)[0]
        others = others[others != src]
        assert not mask[others].any()

    def test_from_schedule(self, mesh):
        compiled = protocol_for("2D-4").compile(mesh, (6, 4))
        mask = relay_like_from_schedule(mesh.num_nodes, compiled.schedule)
        assert set(np.nonzero(mask)[0]) == \
            set(compiled.schedule.transmitting_nodes())


class TestCleanChannel:
    def test_reach_stays_perfect(self, mesh, plan):
        trace = reactive(mesh, plan, recovery=RecoveryPolicy())
        assert trace.reachability == 1.0

    def test_no_retry_storm(self, mesh, plan):
        """On a clean channel nearly every neighbour ACKs by the first
        check, so recovery may only add a handful of transmissions."""
        base = reactive(mesh, plan)
        rec = reactive(mesh, plan, recovery=RecoveryPolicy())
        assert rec.num_tx <= base.num_tx + 10

    def test_noop_policy_is_baseline(self, mesh, plan):
        """max_retries=0 + election=False must leave the wave untouched."""
        base = reactive(mesh, plan)
        rec = reactive(mesh, plan, recovery=RecoveryPolicy(
            max_retries=0, election=False))
        assert rec.tx_events == base.tx_events
        assert rec.rx_events == base.rx_events
        assert (rec.first_rx == base.first_rx).all()


class TestLossyChannel:
    def test_recovery_beats_bare_plan(self, mesh, plan):
        loss = lambda: CounterBernoulliLoss(0.25, seed=3)
        base = reactive(mesh, plan, loss=loss())
        rec = reactive(mesh, plan, loss=loss(),
                       recovery=RecoveryPolicy(election=False))
        assert rec.reachability > base.reachability

    def test_recovery_cheaper_than_blind_r2(self, mesh, plan):
        """The headline trade: recovery must reach at least blind r=2's
        coverage from fewer transmissions on the same channel."""
        loss = lambda: CounterBernoulliLoss(0.2, seed=5)
        blind = reactive(mesh, harden_plan(plan, 2), loss=loss())
        rec = reactive(mesh, plan, loss=loss(), recovery=RecoveryPolicy(
            timeout=2, max_retries=2, backoff=1, suppression_k=2,
            election=False))
        assert rec.reachability >= blind.reachability
        assert rec.num_tx < blind.num_tx

    def test_suppression_reduces_transmissions(self, mesh, plan):
        """Enabling the Trickle counter may only remove retransmissions
        relative to the suppression-free run of the same policy."""
        loss = lambda: CounterBernoulliLoss(0.3, seed=2)
        kw = dict(timeout=2, max_retries=3, backoff=1, election=False)
        free = reactive(mesh, plan, loss=loss(),
                        recovery=RecoveryPolicy(suppression_k=0, **kw))
        trickle = reactive(mesh, plan, loss=loss(),
                           recovery=RecoveryPolicy(suppression_k=1, **kw))
        assert trickle.num_tx <= free.num_tx

    def test_bigger_retry_budget_not_worse(self, mesh, plan):
        loss = lambda: CounterBernoulliLoss(0.3, seed=9)
        r1 = reactive(mesh, plan, loss=loss(), recovery=RecoveryPolicy(
            max_retries=1, election=False))
        r3 = reactive(mesh, plan, loss=loss(), recovery=RecoveryPolicy(
            max_retries=3, election=False))
        assert r3.reachability >= r1.reachability


class TestElection:
    """Last-resort repair: a covered non-relay substitutes for a relay
    that never transmitted.

    The election only has teeth on 2D-8: its Moore neighbourhood has
    triangles, so a substitute adjacent to the dead relay shares
    neighbours with it.  On the triangle-free lattices (2D-4, 2D-3,
    3D-6) an elected substitute reaches none of the dead relay's other
    neighbours, so no local repair is possible there — by anyone.
    """

    def test_election_repairs_dead_relay_2d8(self):
        topo = Mesh2D8(8, 8)
        plan = protocol_for("2D-8").relay_plan(topo, (4, 4))
        src = topo.index((4, 4))
        dead = np.zeros(topo.num_nodes, dtype=bool)
        dead[topo.index((5, 3))] = True
        kw = dict(extra_delay=plan.extra_delay,
                  repeat_offsets=plan.repeat_offsets, dead_mask=dead)
        pol = dict(timeout=2, max_retries=2, backoff=2, suppression_k=0)
        base = run_reactive(topo, src, plan.relay_mask, **kw)
        noelect = run_reactive(topo, src, plan.relay_mask,
                               recovery=RecoveryPolicy(election=False,
                                                       **pol), **kw)
        elect = run_reactive(topo, src, plan.relay_mask,
                             recovery=RecoveryPolicy(election=True,
                                                     **pol), **kw)
        # retries alone cannot substitute for a dead relay...
        assert noelect.reachability == base.reachability
        # ...the election can (partially): (5,3)'s hole shrinks a lot
        assert base.reachability < 0.75
        assert elect.reachability > 0.95

    def test_election_cannot_repair_triangle_free(self, mesh, plan):
        """On 2D-4 a dead relay's other neighbours are unreachable by any
        single substitute — election must not change reachability."""
        src = mesh.index((6, 4))
        relays = np.nonzero(plan.relay_mask)[0]
        victim = int(next(v for v in relays if v != src))
        dead = np.zeros(mesh.num_nodes, dtype=bool)
        dead[victim] = True
        pol = dict(timeout=2, max_retries=2, backoff=2, suppression_k=0)
        noelect = reactive(mesh, plan, dead_mask=dead,
                           recovery=RecoveryPolicy(election=False, **pol))
        elect = reactive(mesh, plan, dead_mask=dead,
                         recovery=RecoveryPolicy(election=True, **pol))
        assert elect.reachability == noelect.reachability


class TestReplayRecovery:
    def test_replay_recovery_beats_bare_replay(self, mesh):
        compiled = protocol_for("2D-4").compile(mesh, (6, 4))
        src = mesh.index((6, 4))
        loss = lambda: CounterBernoulliLoss(0.25, seed=4)
        base = replay(mesh, compiled.schedule, src, loss=loss())
        rec = replay(mesh, compiled.schedule, src, loss=loss(),
                     recovery=RecoveryPolicy(election=False))
        assert rec.reachability > base.reachability

    def test_replay_extends_past_schedule_horizon(self, mesh):
        """Backoff can push retries beyond the static schedule's last
        slot; the replay loop must keep stepping slots to honour them."""
        compiled = protocol_for("2D-4").compile(mesh, (6, 4))
        src = mesh.index((6, 4))
        rec = replay(mesh, compiled.schedule, src,
                     loss=CounterBernoulliLoss(0.4, seed=8),
                     recovery=RecoveryPolicy(timeout=3, max_retries=3,
                                             backoff=2, election=False))
        last_tx = max(t for t, _ in rec.tx_events)
        assert last_tx > compiled.schedule.max_slot

    def test_replay_clean_channel_noop(self, mesh):
        compiled = protocol_for("2D-4").compile(mesh, (6, 4))
        src = mesh.index((6, 4))
        base = replay(mesh, compiled.schedule, src)
        rec = replay(mesh, compiled.schedule, src,
                     recovery=RecoveryPolicy(max_retries=0, election=False))
        assert rec.rx_events == base.rx_events
        assert (rec.first_rx == base.first_rx).all()


class TestBatchRecoveryTables:
    """The dense tier's padded per-node tables come from the slot
    kernel's shared padded rows and positions."""

    @pytest.mark.parametrize("topology", [
        Mesh2D4(12, 8), Mesh2D8(5, 4), Mesh2D3(7, 5), Mesh3D6(3, 4, 2),
        RandomDiskTopology(40, 6.0, 6.0, 1.6, seed=3)],
        ids=lambda t: type(t).__name__)
    def test_tables_equal_per_node_construction(self, topology):
        n = topology.num_nodes
        state = BatchRecoveryState(topology, RecoveryPolicy(),
                                   np.zeros(n, dtype=bool), trials=2)
        indptr = topology.adjacency.indptr
        indices = topology.adjacency.indices
        maxdeg = int(np.diff(indptr).max())
        P = np.zeros((n, maxdeg), dtype=np.int64)
        N = np.full((n, maxdeg), n, dtype=np.int64)
        V = np.zeros((n, maxdeg), dtype=bool)
        for v in range(n):
            s, e = int(indptr[v]), int(indptr[v + 1])
            P[v, :e - s] = np.arange(s, e)
            N[v, :e - s] = indices[s:e]
            V[v, :e - s] = True
        for got, want in ((state._P, P), (state._N, N), (state._V, V)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
