"""Repair elections against every single dead relay of small shapes.

DESIGN §9's repair election: a newly informed non-relay that never
overheard a relay-like neighbour elects itself that relay's substitute.
For every connected shape up to 7x7 on 2D-3, 2D-4 and 2D-8 and up to
4x4x4 on 3D-6, the compiled centre-source schedule is replayed with the
recovery layer and no loss, once for every single dead relay (every
scheduled transmitter but the source), with elections on and off.  The
pure-python reference (:class:`~repro.sim.reference.ReferenceSimulator`)
is the oracle; the engine's batched replay, one dead relay per trial,
must reach the same nodes.

Two findings are asserted per topology:

* a substitute elected *for the dead relay* informs one of that relay's
  neighbours on 2D-8 (whose Moore neighbourhood has triangles), and
  never on 2D-4, 2D-3 or 3D-6: there a substitute is adjacent to the
  dead relay, so it shares no neighbour with it;
* elections still add reach for some dead relay on *every* topology.
  A relay left uninformed behind the hole is silent too, so its
  neighbours elect substitutes for it, and those inform it directly.

Elections can also *lower* reach: on 3D-6 a substitute's transmissions
count toward a live relay's suppression counter and suppress the retry
that would have informed a node its first receptions collided at.  The
full enumeration finds 6 such cases, all on 3D-6;
``test_elections_can_lower_reach`` pins one of them on every tier.

The full run is marked ``exhaustive`` and left out of the default run
(``-m exhaustive`` opts in); the default run checks every
``STRIDE``-th dead relay of every shape.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from repro import make_topology, protocol_for
from repro.sim import RecoveryPolicy, ReferenceSimulator, replay_batch
from repro.sim.reference import ReferenceRecovery

SHAPES = {
    "2D-3": list(itertools.product(range(2, 8), repeat=2)),
    "2D-4": list(itertools.product(range(2, 8), repeat=2)),
    "2D-8": list(itertools.product(range(2, 8), repeat=2)),
    "3D-6": list(itertools.product(range(2, 5), repeat=3)),
}

#: Elections on, and the same policy with elections off.
ELECT = RecoveryPolicy()
NO_ELECT = RecoveryPolicy(election=False)

#: Dead-relay stride of the default run (prime, so the sampled relays
#: spread over shapes and positions).
STRIDE = 3


def _recording_elections(monkeypatch) -> list:
    """Record every election the reference fires as ``(slot, node,
    target)``."""
    fired = []
    pre_slot = ReferenceRecovery.pre_slot

    def recorded(self, t):
        due = {w: self.elec_target[w] for w in range(self.n)
               if self.elec_slot[w] == t}
        out = pre_slot(self, t)
        fired.extend((t, w, target) for w, target in due.items()
                     if w in out)
        return out

    monkeypatch.setattr(ReferenceRecovery, "pre_slot", recorded)
    return fired


def _check_label(label: str, stride: int, monkeypatch) -> Counter:
    """Replay every *stride*-th dead relay of every connected *label*
    shape; count the cases where elections add reach and where a
    substitute for the dead relay informs one of its neighbours."""
    fired = _recording_elections(monkeypatch)
    seen = Counter()
    cases = []
    for shape in SHAPES[label]:
        topology = make_topology(label, shape=shape)
        if connected_components(topology.adjacency, directed=False)[0] > 1:
            continue
        centre = tuple((s + 1) // 2 for s in shape)
        source = topology.index(centre)
        schedule = protocol_for(topology).compile(topology, centre).schedule
        relays = sorted(set(schedule.transmitting_nodes()) - {source})
        cases += [(topology, source, schedule, dead) for dead in relays]
    for topology, source, schedule, dead in cases[::stride]:
        n = topology.num_nodes
        dead_mask = np.zeros(n, dtype=bool)
        dead_mask[dead] = True
        ref = ReferenceSimulator(topology)
        fired.clear()
        on = ref.replay(schedule, source, dead_mask, recovery=ELECT)
        substitutes = {(t, w) for t, w, target in fired if target == dead}
        off = ref.replay(schedule, source, dead_mask, recovery=NO_ELECT)
        for policy, want in ((ELECT, on), (NO_ELECT, off)):
            [got] = replay_batch(topology, schedule, source,
                                 dead_masks=dead_mask[None],
                                 recovery=policy, engine="auto")
            assert np.array_equal(got.first_rx, want.first_rx), (
                label, topology.shape, dead)
        seen["cases"] += 1
        if (on.first_rx >= 0).sum() > (off.first_rx >= 0).sum():
            seen["elections add reach"] += 1
        around = set(topology.neighbor_indices(dead).tolist())
        if any((t, w) in substitutes and on.first_rx[v] == t
               for t, v, w in on.rx_events if v in around):
            seen["substitute informs a neighbour"] += 1
    return seen


#: Whether a substitute for the dead relay ever informs one of the dead
#: relay's neighbours: only where the lattice has triangles.
REPAIRS_AROUND_THE_HOLE = {"2D-3": False, "2D-4": False, "2D-8": True,
                           "3D-6": False}


def _assert_findings(label: str, seen: Counter) -> None:
    assert seen["cases"] > 0
    assert bool(seen["substitute informs a neighbour"]) \
        == REPAIRS_AROUND_THE_HOLE[label], seen
    assert seen["elections add reach"] > 0, seen


@pytest.mark.parametrize("label", sorted(SHAPES))
def test_every_dead_relay_strided(label, monkeypatch):
    _assert_findings(label, _check_label(label, STRIDE, monkeypatch))


@pytest.mark.exhaustive
@pytest.mark.parametrize("label", sorted(SHAPES))
def test_every_dead_relay(label, monkeypatch):
    _assert_findings(label, _check_label(label, 1, monkeypatch))


def test_elections_can_lower_reach():
    """3D-6 3x4x3, centre source (2, 2, 2), dead relay (1, 2, 2).

    Without elections the guardian retries of relays (2, 2, 1) and
    (2, 2, 3) at slot 16 inform (2, 1, 1) and (2, 1, 3), whose two
    earlier receptions collided.  With elections, (1, 2, 1) and
    (1, 2, 3) elect themselves substitutes for the dead relay at slots
    10 and 14; the two relays overhear them, reach their suppression
    count before slot 16 and skip the retry, so the two nodes stay
    uninformed: 33 of 35 live nodes against all 35.
    """
    topology = make_topology("3D-6", shape=(3, 4, 3))
    centre = (2, 2, 2)
    source = topology.index(centre)
    schedule = protocol_for(topology).compile(topology, centre).schedule
    dead_mask = np.zeros(topology.num_nodes, dtype=bool)
    dead_mask[topology.index((1, 2, 2))] = True
    reference = ReferenceSimulator(topology)
    reach = {}
    for policy in (ELECT, NO_ELECT):
        want = reference.replay(schedule, source, dead_mask,
                                recovery=policy)
        for engine in ("batch", "compiled"):
            [got] = replay_batch(topology, schedule, source,
                                 dead_masks=dead_mask[None],
                                 recovery=policy, engine=engine)
            assert np.array_equal(got.first_rx, want.first_rx), (
                policy, engine)
        reach[policy.election] = int((want.first_rx >= 0).sum())
    assert reach == {True: 33, False: 35}
