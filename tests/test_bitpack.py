"""Bit-packed word layout and the word-space slot resolve vs the dense
CSR kernel.

The compiled tier's value is entirely conditional on being *exactly*
the dense kernel 64x denser — these tests pin the pack layout, the
packed neighbour table, the C carry-save collision resolve and its
sender/edge attribution against the dense reference, plus the
integer-threshold Bernoulli equivalence the compiled loss draws rely
on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio import bitpack
from repro.radio.impairments import (bernoulli_threshold, counter_slot_keys,
                                     counter_uniforms, trial_seeds)
from repro.sim import native_available
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
        return NativeBackend(kernel, trials, None, None,
                             need_senders=True, need_coll_pairs=True,
                             threads=1)

    @pytest.mark.parametrize("cls,shape", MESHES)
    def test_matches_dense_kernel(self, cls, shape):
        mesh = cls(*shape)
        kernel = mesh.slot_kernel
        n = mesh.num_nodes
        # The neighbour table row v is v's CSR neighbour set.
        table = unpack(kernel.neighbour_words(), n)
        assert np.array_equal(table, mesh.adjacency.toarray() != 0)
        rng = np.random.default_rng(42)
        for trials in (1, 3, 6):
            backend = self.backend(kernel, trials)
            for t in range(1, 16):
                pairs = {(int(rng.integers(trials)), int(rng.integers(n)))
                         for _ in range(int(rng.integers(1, n)))}
                arr = np.array(sorted(pairs), dtype=np.int64)
                tr, nd = arr[:, 0].copy(), arr[:, 1].copy()
                heard, received, collided, senders = kernel.resolve_batch(
                    nd, tr, trials)
                rt, rn, sv, (ct, cn) = backend.resolve(t, tr, nd)
                drt, drn = received.nonzero()
                assert np.array_equal(rt, drt)
                assert np.array_equal(rn, drn)
                dct, dcn = collided.nonzero()
                assert np.array_equal(ct, dct)
                assert np.array_equal(cn, dcn)
                assert np.array_equal(sv, senders[drt, drn])
                # last_epos: the CSR position of each (rn -> sv) edge.
                epos = backend.last_epos
                assert np.array_equal(kernel.indices[epos], sv)
                assert ((kernel.indptr[rn] <= epos)
                        & (epos < kernel.indptr[rn + 1])).all()

    def test_empty_slot(self):
        mesh = Mesh2D4(4, 4)
        backend = self.backend(mesh.slot_kernel, 2)
        e = np.empty(0, dtype=np.int64)
        rt, rn, sv, (ct, cn) = backend.resolve(1, e, e)
        assert len(rt) == len(rn) == len(sv) == 0
        assert len(ct) == len(cn) == 0


class TestBernoulliThreshold:
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
        seeds = trial_seeds(7, 0.3, 5)
        for slot in (1, 2, 9):
            keys = counter_slot_keys(seeds, slot)
            n = 40
            nodes = np.arange(n, dtype=np.uint64)
            bits = _splitmix64(keys[:, None] ^ nodes[None, :])
            u = (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
            assert np.array_equal(u, counter_uniforms(seeds, slot, n))
