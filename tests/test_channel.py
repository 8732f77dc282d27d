"""Unit tests for the slotted collision channel."""

import numpy as np
import pytest

from repro.radio import Packet, resolve_slot, unique_transmitter
from repro.topology import Mesh2D4

from .slot_oracle import resolve


@pytest.fixture
def mesh():
    return Mesh2D4(5, 5)


def mask_for(mesh, coords):
    m = np.zeros(mesh.num_nodes, dtype=bool)
    for c in coords:
        m[mesh.index(c)] = True
    return m


class TestResolveSlot:
    def test_single_transmitter_reaches_all_neighbors(self, mesh):
        tx = mask_for(mesh, [(3, 3)])
        out = resolve_slot(mesh.adjacency, tx)
        for nb in mesh.neighbors((3, 3)):
            assert out.received[mesh.index(nb)]
        assert out.received.sum() == 4
        assert out.collided.sum() == 0

    def test_two_transmitters_collide_at_common_neighbor(self, mesh):
        tx = mask_for(mesh, [(2, 3), (4, 3)])
        out = resolve_slot(mesh.adjacency, tx)
        # (3,3) hears both -> collision
        assert out.collided[mesh.index((3, 3))]
        assert not out.received[mesh.index((3, 3))]
        # (1,3) hears only (2,3)
        assert out.received[mesh.index((1, 3))]

    def test_transmitter_is_deaf(self, mesh):
        """Half-duplex: a transmitter never receives in its own slot."""
        tx = mask_for(mesh, [(3, 3), (3, 4)])
        out = resolve_slot(mesh.adjacency, tx)
        assert not out.received[mesh.index((3, 3))]
        assert not out.received[mesh.index((3, 4))]
        assert not out.collided[mesh.index((3, 3))]

    def test_heard_counts(self, mesh):
        tx = mask_for(mesh, [(2, 2), (2, 4), (4, 3)])
        out = resolve_slot(mesh.adjacency, tx)
        assert out.heard[mesh.index((2, 3))] == 2
        assert out.heard[mesh.index((3, 3))] == 1
        assert out.heard[mesh.index((5, 5))] == 0

    def test_silence(self, mesh):
        tx = mask_for(mesh, [])
        out = resolve_slot(mesh.adjacency, tx)
        assert out.received.sum() == 0
        assert out.collided.sum() == 0
        assert out.heard.sum() == 0

    def test_three_way_collision(self, mesh):
        tx = mask_for(mesh, [(2, 3), (4, 3), (3, 2)])
        out = resolve_slot(mesh.adjacency, tx)
        assert out.heard[mesh.index((3, 3))] == 3
        assert out.collided[mesh.index((3, 3))]

    def test_shape_mismatch_raises(self, mesh):
        with pytest.raises(ValueError):
            resolve_slot(mesh.adjacency, np.zeros(7, dtype=bool))


class TestUniqueTransmitter:
    def test_attributes_single_sender(self, mesh):
        tx = mask_for(mesh, [(3, 3)])
        sender = unique_transmitter(mesh.adjacency, tx, mesh.index((3, 4)))
        assert sender == mesh.index((3, 3))

    def test_ambiguous_returns_minus_one(self, mesh):
        tx = mask_for(mesh, [(2, 3), (4, 3)])
        assert unique_transmitter(
            mesh.adjacency, tx, mesh.index((3, 3))) == -1

    def test_silence_returns_minus_one(self, mesh):
        tx = mask_for(mesh, [])
        assert unique_transmitter(
            mesh.adjacency, tx, mesh.index((3, 3))) == -1


class TestPacket:
    def test_defaults(self):
        p = Packet()
        assert p.bits == 512
        assert p.seq == 0

    def test_with_seq(self):
        p = Packet(bits=128, source=(1, 1))
        q = p.with_seq(5)
        assert q.seq == 5
        assert q.bits == 128
        assert q.source == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Packet(bits=0)
        with pytest.raises(ValueError):
            Packet(seq=-1)

    def test_frozen(self):
        p = Packet()
        with pytest.raises(Exception):
            p.bits = 9  # type: ignore[misc]


class TestSlotKernel:
    """The batched kernel must agree bit-for-bit with resolve_slot +
    per-receiver unique_transmitter."""

    def _check(self, topo, tx_indices):
        from repro.radio.channel import SlotKernel
        kernel = SlotKernel(topo.adjacency)
        tx_nodes = np.array(sorted(tx_indices), dtype=np.int64)
        mask = np.zeros(topo.num_nodes, dtype=bool)
        mask[tx_nodes] = True
        heard, received, collided, senders = resolve(kernel, tx_nodes)
        ref = resolve_slot(topo.adjacency, mask)
        assert (heard == ref.heard).all()
        assert (received == ref.received).all()
        assert (collided == ref.collided).all()
        for v in np.nonzero(received)[0]:
            assert senders[v] == unique_transmitter(topo.adjacency, mask, v)

    def test_empty_slot(self, mesh):
        self._check(mesh, [])

    def test_single_transmitter(self, mesh):
        self._check(mesh, [mesh.index((3, 3))])

    def test_colliding_pair(self, mesh):
        self._check(mesh, [mesh.index((2, 3)), mesh.index((4, 3))])

    def test_random_slots_all_topologies(self):
        from repro.topology import Mesh2D3, Mesh2D8, Mesh3D6
        rng = np.random.default_rng(7)
        for topo in (Mesh2D4(6, 5), Mesh2D8(5, 5), Mesh2D3(6, 5),
                     Mesh3D6(3, 3, 3)):
            for _ in range(25):
                k = int(rng.integers(0, topo.num_nodes // 2))
                tx = rng.choice(topo.num_nodes, size=k, replace=False)
                self._check(topo, tx)

    def test_scratch_buffer_reuse_is_safe(self, mesh):
        """Back-to-back resolves must not corrupt each other's results."""
        from repro.radio.channel import SlotKernel
        kernel = SlotKernel(mesh.adjacency)
        a = np.array([mesh.index((3, 3))], dtype=np.int64)
        b = np.array([mesh.index((1, 1))], dtype=np.int64)
        _, recv_a, _, senders_a = resolve(kernel, a)
        senders_a_snapshot = senders_a[recv_a].copy()
        resolve(kernel, b)
        _, recv_a2, _, senders_a2 = resolve(kernel, a)
        assert (senders_a2[recv_a2] == senders_a_snapshot).all()

    def test_neighbour_table_published_filled(self, mesh, monkeypatch):
        """Threads share a topology's kernel, so the lazily built padded
        neighbour table must not be visible before it is filled: a
        concurrent resolve would gather padding only."""
        from repro.radio.channel import SlotKernel
        kernel = SlotKernel(mesh.adjacency)
        repeat = np.repeat

        def building(*args, **kwargs):
            assert "padded_rows" not in kernel._derived
            return repeat(*args, **kwargs)

        monkeypatch.setattr(np, "repeat", building)
        resolve(kernel, np.array([mesh.index((3, 3))], dtype=np.int64))
        assert "padded_rows" in kernel._derived

    def test_batch_scratch_keyed_on_trials_and_nodes(self):
        """Interleaving resolve_batch on kernels of different node
        counts but equal trial counts must not cross-corrupt: the
        scratch is keyed on the full (trials, n) shape, not trials
        alone (regression for the trials-only cache key)."""
        from repro.radio.channel import SlotKernel
        from repro.topology import Mesh2D8
        small = Mesh2D4(4, 4)
        big = Mesh2D8(6, 6)
        ks, kb = SlotKernel(small.adjacency), SlotKernel(big.adjacency)
        rng = np.random.default_rng(13)
        trials = 3
        for _ in range(6):
            for topo, kernel in ((small, ks), (big, kb)):
                k = int(rng.integers(1, topo.num_nodes // 2))
                nd = np.sort(rng.choice(topo.num_nodes, size=k,
                                        replace=False)).astype(np.int64)
                tr = np.sort(rng.integers(0, trials, size=k)
                             ).astype(np.int64)
                out = kernel.resolve_batch(nd, tr, trials)
                # The next resolve_batch reuses this scratch: snapshot.
                heard, received, collided, senders = (x.copy() for x in out)
                assert heard.shape == (trials, topo.num_nodes)
                # Per-trial reference via the unbatched resolver.
                for b in range(trials):
                    ref_h, ref_r, ref_c, ref_s = resolve(
                        kernel, np.unique(nd[tr == b]))
                    assert (heard[b] == ref_h).all()
                    assert (received[b] == ref_r).all()
                    assert (collided[b] == ref_c).all()
                    rx = np.nonzero(ref_r)[0]
                    assert (senders[b, rx] == ref_s[rx]).all()
