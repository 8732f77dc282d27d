"""Slot-synchronous radio channel with collision semantics.

The paper assumes (Section 2) that all sensors are time-synchronised and
the channel is symmetric.  Its collision analysis (Section 3) implicitly
uses the classic packet-radio model, which we make explicit here:

* Time is divided into slots; a transmission occupies exactly one slot and
  is heard by every lattice neighbour of the transmitter.
* A node *decodes* the packet in a slot iff **exactly one** of its
  neighbours transmits in that slot (two or more -> collision, garbled) and
  the node itself is not transmitting (half-duplex).
* Transmitters hear nothing during their own slot.

:func:`resolve_slot` is the single vectorised kernel implementing this —
one sparse mat-vec per slot, as recommended by the HPC guides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse

from .. import profiling
from . import bitpack


@dataclass(frozen=True)
class SlotOutcome:
    """Per-node outcome of one slot.

    Attributes
    ----------
    heard:
        Number of in-range transmitters per node (0 = silence).
    received:
        Boolean; node decoded the packet this slot (exactly one transmitter
        among neighbours, node itself silent).
    collided:
        Boolean; node heard >= 2 simultaneous transmitters (and was not
        itself transmitting) — garbled air time.
    """

    heard: np.ndarray
    received: np.ndarray
    collided: np.ndarray


def resolve_slot(adjacency: sparse.csr_matrix,
                 transmitting: np.ndarray) -> SlotOutcome:
    """Resolve one slot of the collision model.

    Parameters
    ----------
    adjacency:
        Symmetric CSR adjacency of the topology.
    transmitting:
        Boolean vector, True where the node transmits this slot.

    Returns
    -------
    SlotOutcome with per-node ``heard`` counts, ``received`` and
    ``collided`` flags.
    """
    n = adjacency.shape[0]
    if transmitting.shape != (n,):
        raise ValueError(
            f"transmitting mask has shape {transmitting.shape}, "
            f"expected ({n},)")
    heard = adjacency.dot(transmitting.astype(np.int8)).astype(np.int64)
    idle = ~transmitting
    received = (heard == 1) & idle
    collided = (heard >= 2) & idle
    return SlotOutcome(heard=heard, received=received, collided=collided)


class SlotKernel:
    """Batched collision kernel bound to one topology's adjacency.

    :func:`resolve_slot` pays the scipy sparse-dispatch overhead and a
    per-receiver :func:`unique_transmitter` scan on every slot.  This
    kernel keeps the CSR arrays as plain numpy and resolves a slot from
    the *transmitter list* instead of a dense mask: one vectorised CSR row
    gather over the transmitters, one ``bincount`` for the ``heard``
    counts, and one scatter that attributes every clean decode to its
    sender — replacing all ``unique_transmitter`` calls for the slot in a
    single pass.

    The outcome is bit-identical to ``resolve_slot`` +
    ``unique_transmitter`` (see the differential tests).
    """

    def __init__(self, adjacency: sparse.csr_matrix) -> None:
        adjacency = adjacency.tocsr()
        self.num_nodes = int(adjacency.shape[0])
        self._indptr = adjacency.indptr.astype(np.int64)
        self._indices = adjacency.indices.astype(np.int64)
        self.max_degree = (int(np.diff(self._indptr).max())
                           if self.num_nodes else 0)
        # Scratch buffers reused across resolve()/resolve_batch() calls.
        self._senders = np.empty(self.num_nodes, dtype=np.int64)
        self._batch_senders = None
        # Flat (trials * n) outcome buffers of resolve_batch, reset
        # sparsely via the previous call's touched-cell list.
        self._batch_heard = None
        self._batch_received = None
        self._batch_collided = None
        self._batch_touched = np.empty(0, dtype=np.int64)
        self._nbr_words: Optional[np.ndarray] = None

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of the bound adjacency (read-only use)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array of the bound adjacency (read-only use)."""
        return self._indices

    def resolve(self, tx_nodes: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Resolve one slot given the array of transmitting node indices.

        Returns ``(heard, received, collided, senders)``.  ``senders[v]``
        is the delivering neighbour wherever ``received[v]`` is True and
        garbage elsewhere; the senders array is a scratch buffer reused by
        the next ``resolve`` call, so consumers must copy out what they
        need before resolving another slot.
        """
        tx_nodes = np.asarray(tx_nodes, dtype=np.int64)
        n = self.num_nodes
        senders = self._senders
        if len(tx_nodes) == 1:
            # Dominant case in wave tails and repair rounds: one CSR row.
            v = int(tx_nodes[0])
            nbrs = self._indices[self._indptr[v]:self._indptr[v + 1]]
            heard = np.bincount(nbrs, minlength=n)
            senders[nbrs] = v
        else:
            starts = self._indptr[tx_nodes]
            counts = self._indptr[tx_nodes + 1] - starts
            total = int(counts.sum())
            if total:
                # Position k of the gather maps to offset (k - row start in
                # the output) within its CSR row: vectorised multi-slice
                # gather.
                out_starts = counts.cumsum() - counts
                pos = (np.arange(total, dtype=np.int64)
                       - out_starts.repeat(counts)
                       + starts.repeat(counts))
                nbrs = self._indices[pos]
                heard = np.bincount(nbrs, minlength=n)
                # Exactly one writer reaches any node with heard == 1, so
                # the scatter leaves the unique sender there; collided or
                # silent entries hold garbage and are never read.
                senders[nbrs] = tx_nodes.repeat(counts)
            else:
                heard = np.zeros(n, dtype=np.int64)
        received = heard == 1
        collided = heard >= 2
        # Half-duplex: transmitters hear nothing.
        received[tx_nodes] = False
        collided[tx_nodes] = False
        return heard, received, collided, senders

    def neighbour_words(self) -> np.ndarray:
        """Lazily built ``(n, ceil(n/64))`` packed neighbour table of
        this CSR adjacency (see :func:`repro.radio.bitpack.
        neighbour_words`).  Raises on big-endian hosts; callers gate on
        :func:`repro.radio.bitpack.packing_supported`.
        """
        if self._nbr_words is None:
            self._nbr_words = bitpack.neighbour_words(
                self._indptr, self._indices, self.num_nodes)
        return self._nbr_words

    def _batch_buffers(self, trials: int
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray]:
        """(Re)build the per-batch scratch, keyed on the full ``(trials,
        n)`` shape: two kernels of different ``n`` can interleave calls
        with the same trial count without corrupting each other."""
        n = self.num_nodes
        senders = self._batch_senders
        if senders is None or senders.shape != (trials, n):
            # Narrower-than-int64 heard accumulator where the degree
            # bound permits: counts are capped by max_degree, so uint8
            # is exact on every lattice the paper uses (degree <= 26).
            heard_dtype = np.uint8 if self.max_degree < 255 else np.int64
            self._batch_senders = np.empty((trials, n), dtype=np.int64)
            self._batch_heard = np.zeros(trials * n, dtype=heard_dtype)
            self._batch_received = np.zeros(trials * n, dtype=bool)
            self._batch_collided = np.zeros(trials * n, dtype=bool)
            self._batch_touched = np.empty(0, dtype=np.int64)
        return (self._batch_senders, self._batch_heard,
                self._batch_received, self._batch_collided)

    def resolve_batch(self, tx_nodes: np.ndarray, tx_trials: np.ndarray,
                      trials: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
        """Resolve one slot for *trials* independent trials at once.

        ``(tx_trials[i], tx_nodes[i])`` are the (trial, node) transmission
        pairs of the slot across the whole batch.  The physics is the same
        as :meth:`resolve` applied per trial, but all trials share a
        single CSR row gather; a neighbour hit of trial *b* lands in flat
        cell ``b * n + neighbour``, so every trial's airspace stays
        independent.  Counting is sparse — unique hit cells with
        multiplicities — and lands in a reused narrow accumulator that is
        reset cell-by-cell from the previous slot's touched list, so no
        dense ``(B, n)`` int64 array is zeroed, written, or compared per
        slot.  A single transmission pair (wave tails, repair rounds)
        skips counting entirely: every neighbour decodes.

        Returns ``(heard, received, collided, senders)``, each of shape
        ``(trials, num_nodes)``.  All four are scratch buffers reused by
        the next ``resolve_batch`` call (and keyed on the full
        ``(trials, num_nodes)`` shape), so consumers must finish with a
        slot before resolving the next; ``senders`` is only meaningful
        where ``received`` is True.
        """
        tx_nodes = np.asarray(tx_nodes, dtype=np.int64)
        tx_trials = np.asarray(tx_trials, dtype=np.int64)
        n = self.num_nodes
        senders, heard, received, collided = self._batch_buffers(trials)
        prev = self._batch_touched
        if len(prev):
            heard[prev] = 0
            received[prev] = False
            collided[prev] = False
        if len(tx_nodes) == 1:
            # Single-transmitter fast path: one CSR row, no counting —
            # every neighbour decodes and attributes the same sender.
            v = int(tx_nodes[0])
            nbrs = self._indices[self._indptr[v]:self._indptr[v + 1]]
            cells = int(tx_trials[0]) * n + nbrs
            heard[cells] = 1
            received[cells] = True
            senders[int(tx_trials[0]), nbrs] = v
            self._batch_touched = cells
        else:
            with profiling.phase("gather"):
                starts = self._indptr[tx_nodes]
                counts = self._indptr[tx_nodes + 1] - starts
                total = int(counts.sum())
                if total:
                    out_starts = counts.cumsum() - counts
                    pos = (np.arange(total, dtype=np.int64)
                           - out_starts.repeat(counts)
                           + starts.repeat(counts))
                    nbrs = self._indices[pos]
                    keys = tx_trials.repeat(counts) * n + nbrs
            if total:
                with profiling.phase("bincount"):
                    uniq, cnt = np.unique(keys, return_counts=True)
                    heard[uniq] = cnt
                    received[uniq[cnt == 1]] = True
                    collided[uniq[cnt >= 2]] = True
                # heard == 1 cells have exactly one writer: the sender.
                senders.reshape(-1)[keys] = tx_nodes.repeat(counts)
                # Half-duplex: transmitters hear nothing in their trial.
                tx_cells = tx_trials * n + tx_nodes
                received[tx_cells] = False
                collided[tx_cells] = False
                self._batch_touched = uniq
            else:
                self._batch_touched = np.empty(0, dtype=np.int64)
        return (heard.reshape(trials, n), received.reshape(trials, n),
                collided.reshape(trials, n), senders)


def unique_transmitter(adjacency: sparse.csr_matrix,
                       transmitting: np.ndarray,
                       receiver: int) -> int:
    """Index of the unique transmitting neighbour of *receiver*, or -1.

    Only meaningful when the receiver decoded the slot; used for trace
    attribution (who delivered the packet to whom).
    """
    start, end = adjacency.indptr[receiver], adjacency.indptr[receiver + 1]
    nbrs = adjacency.indices[start:end]
    txs = nbrs[transmitting[nbrs]]
    if len(txs) == 1:
        return int(txs[0])
    return -1
