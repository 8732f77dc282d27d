"""Bit-packed word layout and the word-space slot resolve vs the dense
CSR kernel.

The compiled tier's value is entirely conditional on being *exactly*
the dense kernel 64x denser — these tests pin the pack layout, the
packed neighbour table, the C carry-save collision resolve and its
sender attribution (and the recovery bits it sets per decode) against
the dense reference, plus the
integer-threshold Bernoulli equivalence the compiled loss draws rely
on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import bitpack
from repro.radio.impairments import (BernoulliBatchLoss, BurstBatchLoss,
                                     bernoulli_threshold, counter_slot_keys,
                                     counter_uniforms, trial_seeds)
from repro.sim import (BroadcastSchedule, RecoveryPolicy, native_available,
                       replay, replay_batch)
from repro.sim.engine import _BatchState
from repro.sim.reference import ReferenceSimulator
from repro.topology import Mesh2D3, Mesh2D4, Mesh2D8, Mesh3D6

pytestmark = pytest.mark.skipif(not bitpack.packing_supported(),
                                reason="big-endian host")

MESHES = [(Mesh2D4, (5, 4)), (Mesh2D8, (4, 4)),
          (Mesh2D3, (5, 4)), (Mesh3D6, (3, 3, 3))]


def unpack(words, n):
    """``(B, W)`` words back to a boolean ``(B, n)`` matrix."""
    bits = np.unpackbits(np.ascontiguousarray(words).view(np.uint8),
                         axis=1, bitorder="little")
    return bits[:, :n].astype(bool)


def forced_only(backend, slots):
    """Schedule ``[(slot, tr, nd), ...]`` (slots ascending, pairs
    (trial, node)-sorted and unique) on *backend* as an unchecked
    forced-only plan: no relays and no source, so every pair transmits
    in its slot whether or not its node holds the message."""
    n, batch = backend._n, backend._batch
    ptr = np.cumsum([0] + [len(nd) for _, _, nd in slots])
    forced = ([slot for slot, _, _ in slots], ptr.tolist(),
              np.concatenate([tr for _, tr, _ in slots]),
              np.concatenate([nd for _, _, nd in slots]))
    backend.schedule(np.zeros((1, n), dtype=bool),
                     np.zeros((1, n), dtype=np.int64), {}, forced,
                     np.full(batch, slots[-1][0], dtype=np.int64), None,
                     checked=False)


def drive(backend, slots):
    """Run *slots* (see :func:`forced_only`) through the kernel slot by
    slot, calling the two C functions the kernel's ``run_wave`` loop
    calls: ``reactive_next_slot`` pops each slot's pairs and
    ``resolve_slot`` resolves and commits them.

    Yields each slot's ``(rt, rn, sv, coll, nt, nn)``: received pairs,
    their senders (``None`` when not requested), collision pairs (trace
    mode) or the bound per-trial totals (summary mode), and the newly
    informed pairs.  Views into the backend's scratch, valid until the
    next step.
    """
    forced_only(backend, slots)
    lib, ffi, w, rs = backend._lib, backend._ffi, backend._w, backend._rs
    rec = ffi.NULL if backend._recovery is None else backend._recovery.c
    out = backend._scratch
    for slot, tr, nd in slots:
        k = lib.reactive_next_slot(rs, rec, w.tx_tr, w.tx_nd)
        assert rs.slot == slot
        got = out["tx_tr"][:k], out["tx_nd"][:k]
        assert np.array_equal(got[0], tr) and np.array_equal(got[1], nd)
        lib.resolve_slot(w, rec, rs, slot, k)
        yield (out["rx_tr"][:w.n_rx], out["rx_nd"][:w.n_rx],
               out["rx_sv"][:w.n_rx] if w.need_senders else None,
               ((out["coll_tr"][:w.n_coll], out["coll_nd"][:w.n_coll])
                if w.trace else w.collisions),
               out["new_tr"][:w.n_new], out["new_nd"][:w.n_new])


class TestPacking:
    def test_num_words(self):
        assert bitpack.num_words(1) == 1
        assert bitpack.num_words(64) == 1
        assert bitpack.num_words(65) == 2
        assert bitpack.num_words(4096) == 64

    @given(st.integers(0, 2**32), st.integers(1, 150), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, seed, n, b):
        rng = np.random.default_rng(seed)
        mask = rng.random((b, n)) < 0.4
        words = bitpack.pack_bool_matrix(mask)
        assert words.shape == (b, bitpack.num_words(n))
        assert np.array_equal(unpack(words, n), mask)
        # set-bit count over words == row sums of the boolean matrix
        assert np.array_equal(
            np.bitwise_count(words).sum(axis=1), mask.sum(axis=1))

    def test_bit_layout(self):
        # Node v must be bit (v & 63) of word (v >> 6) — the layout the
        # C kernel hard-codes.
        mask = np.zeros((1, 130), dtype=bool)
        mask[0, [0, 63, 64, 129]] = True
        w = bitpack.pack_bool_matrix(mask)[0]
        assert w[0] == (1 | (1 << 63))
        assert w[1] == 1
        assert w[2] == 2


@pytest.mark.skipif(not native_available(),
                    reason="native kernel unavailable")
class TestPackedResolve:
    """The compiled word-space resolve, slot by slot, against the dense
    kernel's ``resolve_batch``."""

    @staticmethod
    def backend(kernel, trials):
        from repro.sim.backend import NativeBackend
        backend = NativeBackend(kernel, trials, None, None,
                                need_senders=True, need_coll_pairs=True)
        backend.bind(np.full((trials, kernel.num_nodes), -1,
                             dtype=np.int64))
        return backend

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_matches_dense_kernel(self, cls, shape):
        mesh = cls(*shape)
        kernel = mesh.slot_kernel
        n = mesh.num_nodes
        # The neighbour table row v is v's CSR neighbour set.
        table = unpack(kernel.neighbour_words(), n)
        assert np.array_equal(table, mesh.adjacency.toarray() != 0)
        edge = {(int(r), int(c)): e for r in range(n)
                for e, c in enumerate(kernel.indices[kernel.indptr[r]:
                                                     kernel.indptr[r + 1]],
                                      start=int(kernel.indptr[r]))}
        rng = np.random.default_rng(42)
        for trials in (1, 3, 6):
            backend = self.backend(kernel, trials)
            # No retries and no elections: the recovery calendar stays
            # silent, so the kernel transmits exactly the forced pairs
            # and only the per-decode bookkeeping runs.
            rec = backend.make_recovery(
                mesh, RecoveryPolicy(max_retries=0, election=False),
                np.ones(n, bool), trials, 16)
            known = np.zeros((trials, len(kernel.indices)), dtype=bool)
            heard_total = np.zeros((trials, n), dtype=np.int64)
            slots = []
            for t in range(1, 16):
                pairs = {(int(rng.integers(trials)), int(rng.integers(n)))
                         for _ in range(int(rng.integers(1, n)))}
                arr = np.array(sorted(pairs), dtype=np.int64)
                slots.append((t, arr[:, 0].copy(), arr[:, 1].copy()))
            for (t, tr, nd), (rt, rn, sv, (ct, cn), _, _) in zip(
                    slots, drive(backend, slots)):
                heard, received, collided, senders = kernel.resolve_batch(
                    nd, tr, trials)
                drt, drn = received.nonzero()
                assert np.array_equal(rt, drt)
                assert np.array_equal(rn, drn)
                dct, dcn = collided.nonzero()
                assert np.array_equal(ct, dct)
                assert np.array_equal(cn, dcn)
                assert np.array_equal(sv, senders[drt, drn])
                # The fused recovery update: each decode bumps the
                # receiver's heard counter and sets the overhear bit at
                # the CSR position of (rn -> sv) and the ACK bit at
                # (sv -> rn).
                for b, r, w in zip(drt, drn, senders[drt, drn]):
                    known[b, edge[r, w]] = known[b, edge[w, r]] = True
                    heard_total[b, r] += 1
                assert np.array_equal(
                    unpack(rec.known, known.shape[1]), known)
                assert np.array_equal(rec.heard_total, heard_total)


@pytest.mark.skipif(not native_available(),
                    reason="native kernel unavailable")
class TestFusedCommit:
    """The compiled kernel commits each slot itself (``first_rx``, the
    newly informed pairs and, in summary mode, the counts).  Slot by
    slot it must leave exactly the arrays the dense tier's numpy commit
    (:meth:`_BatchState.commit_sparse`) leaves, at every batch size
    (B=1 included)."""

    @pytest.mark.parametrize("trials", [1, 2, 3, 5])
    @pytest.mark.parametrize("summary", [True, False])
    @pytest.mark.parametrize("loss_kind", ["none", "bernoulli", "burst"])
    @pytest.mark.parametrize("dead", [False, True])
    def test_matches_dense_commit(self, trials, summary, loss_kind,
                                  dead):
        mesh = Mesh2D4(9, 8)                # 72 nodes: two words a row
        kernel = mesh.slot_kernel
        n = mesh.num_nodes
        rng = np.random.default_rng([trials, summary, dead,
                                     len(loss_kind)])
        seeds = trial_seeds(3, 0.3, trials)
        loss = {"none": None,
                "bernoulli": BernoulliBatchLoss(0.3, seeds),
                "burst": BurstBatchLoss(0.4, seeds, 2)}[loss_kind]
        dead_masks = None
        if dead:
            dead_masks = rng.random((trials, n)) < 0.1
            dead_masks[:, 0] = False
        kw = dict(dead_masks=dead_masks, loss=loss)
        dense = _BatchState(mesh, 0, trials, summary, engine="batch", **kw)
        fused = _BatchState(mesh, 0, trials, summary, engine="compiled",
                            **kw)
        assert dense.backend is None and fused.backend is not None
        slots = []
        for t in range(1, 30):
            pick = rng.random((trials, n)) < 0.12
            if dead:
                pick &= ~dead_masks
            slots.append((t, *pick.nonzero()))
        for (t, tr, nd), (frt, frn, fsv, fcoll, fnt, fnn) in zip(
                slots, drive(fused.backend, slots)):
            # The dense tier's step, by hand.
            _, received, collided, senders = kernel.resolve_batch(
                nd, tr, trials)
            if dead:
                received &= ~dead_masks
                collided &= ~dead_masks
            if loss is not None:
                received = loss.apply_batch(t, received)
            rt, rn = received.nonzero()
            coll = (collided.sum(axis=1) if summary
                    else collided.nonzero())
            nt, nn = dense.commit_sparse(t, tr, nd, rt, rn,
                                         senders[rt, rn], coll)
            assert np.array_equal(frt, rt) and np.array_equal(frn, rn)
            if summary:                     # no recovery: no senders
                assert fsv is None
            else:
                assert np.array_equal(fsv, senders[rt, rn])
            assert np.array_equal(fnt, nt) and np.array_equal(fnn, nn)
            assert np.array_equal(fused.first_rx, dense.first_rx), t
            if summary:
                assert fcoll == fused.backend._ffi.cast(
                    "int64_t *", fused.backend._ffi.from_buffer(
                        fused.collisions))
                assert np.array_equal(fused.tx_count, dense.tx_count)
                assert np.array_equal(fused.rx_count, dense.rx_count)
                assert np.array_equal(fused.collisions, dense.collisions)
            else:
                assert np.array_equal(fcoll[0], coll[0])
                assert np.array_equal(fcoll[1], coll[1])
        assert (dense.first_rx > 0).any()

    def test_bind_validates_arrays(self):
        from repro.sim.backend import NativeBackend
        mesh = Mesh2D4(4, 4)
        backend = NativeBackend(mesh.slot_kernel, 2, None, None,
                                need_senders=False, need_coll_pairs=False)
        grid = np.full((2, 16), -1, dtype=np.int64)
        one = np.zeros(1, np.int64)
        with pytest.raises(RuntimeError, match="bind"):
            forced_only(backend, [(1, one, one)])
        with pytest.raises(ValueError):
            backend.bind(grid)              # summary mode needs counts
        with pytest.raises(ValueError):     # ... all three of them
            backend.bind(grid, None, None, np.zeros(2, np.int64))
        with pytest.raises(ValueError):
            backend.bind(grid.astype(np.int32), np.zeros_like(grid),
                         np.zeros_like(grid), np.zeros(2, np.int64))


class TestBernoulliThreshold:
    #: Edge seeds and edge slots of the counter stream.
    EDGE_SEEDS = [0, 1, 2**64 - 1]
    EDGE_SLOTS = [1, 2, 2**20, 2**32 + 7, 2**40 - 1, 2**40]
    #: Loss rates at the ends of the integer threshold: just above 0
    #: (threshold 1), middling, and the last few below and at 1.
    EDGE_PS = [2.0 ** -60, 0.5, 1 - 2.0 ** -52, 1 - 2.0 ** -53, 1.0]

    @given(st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_threshold_exact(self, p):
        """u >= p  <=>  (bits >> 11) >= threshold, for u = k * 2^-53."""
        t = bernoulli_threshold(p)
        inv = 2.0 ** -53
        for k in (0, 1, t - 1, t, t + 1, (1 << 53) - 1):
            if 0 <= k < (1 << 53):
                assert (k * inv >= p) == (k >= t), (p, t, k)

    def test_counter_keys_consistent(self):
        """Drawing via slot keys reproduces counter_uniforms exactly."""
        from repro.radio.impairments import _splitmix64
        for seeds in (trial_seeds(7, 0.3, 5),
                      np.array(self.EDGE_SEEDS, dtype=np.uint64)):
            for slot in (1, 2, 9, 2**40):
                keys = counter_slot_keys(seeds, slot)
                n = 40
                nodes = np.arange(n, dtype=np.uint64)
                bits = _splitmix64(keys[:, None] ^ nodes[None, :])
                u = (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
                assert np.array_equal(u, counter_uniforms(seeds, slot, n))

    @pytest.mark.skipif(not native_available(),
                        reason="native kernel unavailable")
    @pytest.mark.parametrize("p", EDGE_PS)
    def test_compiled_keys_match_dense_draws(self, p):
        """The compiled kernel derives each slot key in C; at edge seeds
        and slots up to 2**40 its decodes equal the dense tier's
        ``counter_uniforms >= p`` mask draw for draw."""
        from repro.sim.backend import NativeBackend
        mesh = Mesh2D4(9, 8)
        kernel = mesh.slot_kernel
        n, trials = mesh.num_nodes, len(self.EDGE_SEEDS)
        loss = BernoulliBatchLoss(p, self.EDGE_SEEDS)
        backend = NativeBackend(kernel, trials, loss, None,
                                need_senders=False, need_coll_pairs=True)
        backend.bind(np.full((trials, n), -1, dtype=np.int64))
        rng = np.random.default_rng(5)
        slots = [(slot, *(rng.random((trials, n)) < 0.1).nonzero())
                 for slot in self.EDGE_SLOTS]
        for (slot, tr, nd), (rt, rn, *_) in zip(slots,
                                                 drive(backend, slots)):
            _, received, _, _ = kernel.resolve_batch(nd, tr, trials)
            want = loss.apply_batch(slot, received).nonzero()
            assert np.array_equal(rt, want[0]), slot
            assert np.array_equal(rn, want[1]), slot

    @pytest.mark.parametrize("p", EDGE_PS)
    def test_compiled_run_at_far_slots_matches_dense(self, p):
        """A whole compiled replay with edge seeds, transmitting at
        slots up to 2**40, is trace-identical to the dense tier, the
        serial engine and the reference oracle.  Every loop skips the
        idle slots in between, so none of them walks 2**40 slots."""
        mesh = Mesh2D4(9, 8)
        source = mesh.index((4, 4))
        sched = BroadcastSchedule.from_events(
            [(1, source)] + [(slot, v) for slot in self.EDGE_SLOTS[1:]
                             for v in range(0, mesh.num_nodes, 3)])
        loss = BernoulliBatchLoss(p, self.EDGE_SEEDS)
        runs = [replay_batch(mesh, sched, source, loss=loss,
                             engine=engine)
                for engine in ("batch", "compiled")]
        oracle = ReferenceSimulator(mesh)
        for b, (dense, fused) in enumerate(zip(*runs)):
            trial = loss.trial_loss(b)
            for other in (fused, replay(mesh, sched, source, loss=trial),
                          oracle.replay(sched, source, loss=trial)):
                assert dense.rx_events == other.rx_events
                assert dense.tx_events == other.tx_events
                assert dense.collision_events == other.collision_events
                assert np.array_equal(dense.first_rx, other.first_rx)
        if p == 0.5:
            assert any(t.rx_events for t in runs[0])
