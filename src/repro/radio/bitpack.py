"""Bit-packed per-trial node state: ``uint64`` words instead of booleans.

The dense batched kernel (:meth:`~repro.radio.channel.SlotKernel.
resolve_batch`) materialises ``(trials, n)`` arrays every slot; at the
64x64-grid / 1024-trial target that is tens of MB of memory traffic per
slot for state that is fundamentally one bit per (trial, node).  The
compiled tier (:mod:`repro.sim.native`) packs that state 64x denser: a
trial's node set is ``ceil(n / 64)`` little-endian ``uint64`` words
(bit ``v & 63`` of word ``v >> 6`` is node ``v``), so a whole 4096-node
trial row is 512 bytes — cache-resident — and set algebra (union,
intersection, difference) runs one word op per 64 nodes.

This module holds the layout the C kernel reads: :func:`num_words`,
:func:`pack_bool_matrix` (alive masks) and :func:`neighbour_words`, the
``(n, W)`` neighbour-word table its carry-save slot resolve
accumulates.  The recovery tier (:mod:`repro.sim.recovery_packed`)
reuses the same layout over CSR edge positions.

Packing assumes a little-endian host (bit ``i`` of the uint64 view is
bit ``i % 8`` of byte ``i // 8``); :func:`packing_supported` gates the
compiled tier so a big-endian host silently falls back to the dense
kernel instead of corrupting results.
"""

from __future__ import annotations

import sys

import numpy as np

__all__ = [
    "BIT",
    "MAX_PACKED_NODES",
    "neighbour_words",
    "num_words",
    "pack_bool_matrix",
    "packing_supported",
]

#: BIT[j] = 1 << j as uint64 (python ints promote int64 and overflow).
BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)

#: Largest node count for which the packed neighbour-word table is
#: built (memory: ``n * ceil(n/64) * 8`` bytes, 32 MB at the cap).
#: Beyond it the engine falls back to the dense CSR kernel, whose
#: footprint stays O(edges).
MAX_PACKED_NODES = 16384


def packing_supported() -> bool:
    """True where the uint64 view of ``np.packbits(bitorder='little')``
    output has bit ``i`` of a word meaning node ``64*w + i`` — i.e. on
    little-endian hosts.  Big-endian hosts use the dense kernel."""
    return sys.byteorder == "little"


def num_words(num_nodes: int) -> int:
    """Packed words per trial row: ``ceil(n / 64)``."""
    return (int(num_nodes) + 63) >> 6


def pack_bool_matrix(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(B, n)`` matrix into ``(B, ceil(n/64))`` words.

    Bit ``v & 63`` of word ``v >> 6`` in row *b* is ``mask[b, v]``;
    the pad bits of the last word are zero.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("pack_bool_matrix expects a (B, n) matrix")
    b, n = mask.shape
    w = num_words(n)
    out = np.zeros((b, w * 8), dtype=np.uint8)
    packed = np.packbits(mask, axis=1, bitorder="little")
    out[:, :packed.shape[1]] = packed
    return out.view(np.uint64)


def neighbour_words(indptr: np.ndarray, indices: np.ndarray,
                    num_nodes: int) -> np.ndarray:
    """The ``(n, W)`` uint64 neighbourhood table of a CSR adjacency:
    row *v* is the bit set of *v*'s neighbours.

    O(n^2 / 8) bytes, hence the :data:`MAX_PACKED_NODES` gate.
    """
    if not packing_supported():
        raise RuntimeError("bit-packed kernels need a little-endian host")
    n = int(num_nodes)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    table = np.zeros((n, num_words(n)), dtype=np.uint64)
    # Neighbour lists can share words, so scatter with the or-ufunc.
    np.bitwise_or.at(table, (rows, indices >> 6), BIT[indices & 63])
    return table
