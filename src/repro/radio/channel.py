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

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

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
    the *transmitter list* instead of a dense mask: one gather of the
    transmitters' neighbour rows, one ``bincount`` for the ``heard``
    counts, and one scatter that attributes every clean decode to its
    sender — replacing all ``unique_transmitter`` calls for the slot in a
    single pass.

    The outcome is bit-identical to ``resolve_slot`` +
    ``unique_transmitter`` (see the differential tests).
    """

    def __init__(self, adjacency: sparse.csr_matrix) -> None:
        adjacency = adjacency.tocsr()
        if not adjacency.has_sorted_indices:
            # Every table below walks rows in ascending node order.
            adjacency = adjacency.sorted_indices()
        self.num_nodes = int(adjacency.shape[0])
        self._indptr = adjacency.indptr.astype(np.int64)
        self._indices = adjacency.indices.astype(np.int64)
        self.max_degree = (int(np.diff(self._indptr).max())
                           if self.num_nodes else 0)
        self._derived: Dict[str, object] = {}
        # resolve_batch's scratch, one set per thread: the threads that
        # serve one topology share its kernel.
        self._local = threading.local()

    def __getstate__(self) -> dict:
        # Derived tables (some hold C pointers) and per-thread scratch
        # stay behind; the receiving process rebuilds them on demand.
        state = dict(self.__dict__, _derived={})
        del state["_local"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._local = threading.local()

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of the bound adjacency (read-only use)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array of the bound adjacency (read-only use)."""
        return self._indices

    def derived(self, name: str, build: Callable[["SlotKernel"], object]):
        """The table *name*, built by ``build(self)`` on first use and
        shared by every later caller.

        Threads share a topology's kernel, so a table is published only
        once fully built; when two threads race, both build and the
        first published copy wins.
        """
        table = self._derived.get(name)
        if table is None:
            table = self._derived.setdefault(name, build(self))
        return table

    def padded_rows(self) -> np.ndarray:
        """``(n, max_degree)`` neighbour rows padded with node ``n``: a
        slot's neighbour gather is one fancy index, and the padding
        lands in one spare counting bin and one spare sender cell."""
        def build(kernel: "SlotKernel") -> np.ndarray:
            n, indptr = kernel.num_nodes, kernel._indptr
            degrees = np.diff(indptr)
            rows = np.full((n, kernel.max_degree), n, dtype=np.int64)
            rows[np.repeat(np.arange(n), degrees),
                 np.arange(len(kernel._indices))
                 - np.repeat(indptr[:-1], degrees)] = kernel._indices
            return rows
        return self.derived("padded_rows", build)

    def padded_positions(self) -> np.ndarray:
        """``(n, max_degree)`` CSR data positions of each node's edges,
        aligned with :meth:`padded_rows` and padded with 0."""
        def build(kernel: "SlotKernel") -> np.ndarray:
            # A node's k-th neighbour sits at CSR position indptr[v] + k.
            return np.where(
                kernel.padded_rows() < kernel.num_nodes,
                kernel._indptr[:-1, None] + np.arange(kernel.max_degree),
                0)
        return self.derived("padded_positions", build)

    def neighbour_lists(self) -> List[Tuple[int, ...]]:
        """Each node's neighbours as a sorted tuple of ints: the table
        the compiler's fix planner walks in plain Python."""
        def build(kernel: "SlotKernel") -> List[Tuple[int, ...]]:
            indptr = kernel._indptr.tolist()
            indices = kernel._indices.tolist()
            return [tuple(indices[a:b])
                    for a, b in zip(indptr, indptr[1:])]
        return self.derived("neighbour_lists", build)

    def neighbour_words(self) -> np.ndarray:
        """Lazily built ``(n, ceil(n/64))`` packed neighbour table of
        this CSR adjacency (see :func:`repro.radio.bitpack.
        neighbour_words`).  Raises on big-endian hosts; callers gate on
        :func:`repro.radio.bitpack.packing_supported`.
        """
        return self.derived("neighbour_words", lambda kernel: (
            bitpack.neighbour_words(kernel._indptr, kernel._indices,
                                    kernel.num_nodes)))

    def rev_edge(self) -> np.ndarray:
        """Reverse-edge table: the CSR position of ``(col -> row)`` for
        each ``(row -> col)`` data position.  The adjacency is
        symmetric, so every reversed key exists."""
        def build(kernel: "SlotKernel") -> np.ndarray:
            n, indices = kernel.num_nodes, kernel._indices
            rows = np.repeat(np.arange(n, dtype=np.int64),
                             np.diff(kernel._indptr))
            keys = rows * n + indices
            order = np.argsort(keys, kind="stable")
            return np.ascontiguousarray(
                order[np.searchsorted(keys[order], indices * n + rows)])
        return self.derived("rev_edge", build)

    def _batch_buffers(self, trials: int):
        """This thread's per-batch scratch, keyed on the full ``(trials,
        n)`` shape.  Rows are ``n + 1`` wide: column ``n`` takes the
        padded rows' padding.  Two kernels of different ``n`` can
        interleave calls with the same trial count without corrupting
        each other, and so can two threads on one kernel."""
        local = self._local
        if getattr(local, "trials", None) != trials:
            # Narrower-than-int64 heard accumulator where the degree
            # bound permits: counts are capped by max_degree, so uint8
            # is exact on every lattice the paper uses (degree <= 26).
            cells = trials * (self.num_nodes + 1)
            heard_dtype = np.uint8 if self.max_degree < 255 else np.int64
            local.flat = (np.zeros(cells, dtype=heard_dtype),
                          np.zeros(cells, dtype=bool),
                          np.zeros(cells, dtype=bool),
                          np.empty(cells, dtype=np.int64))
            # The (trials, n) views handed out: every column but the
            # padding one.
            local.grids = tuple(flat.reshape(trials, -1)[:, :-1]
                                for flat in local.flat)
            local.touched = np.empty(0, dtype=np.int64)
            local.trials = trials
        return local

    def resolve_batch(self, tx_nodes: np.ndarray, tx_trials: np.ndarray,
                      trials: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
        """Resolve one slot for *trials* independent trials at once.

        ``(tx_trials[i], tx_nodes[i])`` are the (trial, node) transmission
        pairs of the slot across the whole batch.  The physics is
        :func:`resolve_slot` + :func:`unique_transmitter` applied per
        trial, but all trials share a single padded-row gather; a neighbour hit of trial *b* lands in
        flat cell ``b * (n + 1) + neighbour``, so every trial's airspace
        stays independent.  Counting is sparse — unique hit cells with
        multiplicities — and lands in a reused narrow accumulator that is
        reset cell-by-cell from the previous slot's touched list, so no
        dense ``(B, n)`` int64 array is zeroed, written, or compared per
        slot.  A single transmission pair (wave tails, repair rounds)
        skips counting entirely: every neighbour decodes.

        Returns ``(heard, received, collided, senders)``, each a
        ``(trials, num_nodes)`` view of scratch that this thread's next
        ``resolve_batch`` call on this kernel reuses (keyed on the full
        ``(trials, num_nodes)`` shape), so consumers must finish with a
        slot before resolving the next; ``senders`` is only meaningful
        where ``received`` is True.
        """
        tx_nodes = np.asarray(tx_nodes, dtype=np.int64)
        tx_trials = np.asarray(tx_trials, dtype=np.int64)
        width = self.num_nodes + 1
        buf = self._batch_buffers(trials)
        heard, received, collided, senders = buf.flat
        prev = buf.touched
        if len(prev):
            heard[prev] = 0
            received[prev] = False
            collided[prev] = False
        if len(tx_nodes) == 1:
            # Single-transmitter fast path: one CSR row, no counting —
            # every neighbour decodes and attributes the same sender.
            v = int(tx_nodes[0])
            cells = (int(tx_trials[0]) * width
                     + self._indices[self._indptr[v]:self._indptr[v + 1]])
            heard[cells] = 1
            received[cells] = True
            senders[cells] = v
            buf.touched = cells
            return buf.grids
        with profiling.phase("gather"):
            keys = (self.padded_rows()[tx_nodes]
                    + (tx_trials * width)[:, None]).ravel()
        with profiling.phase("bincount"):
            uniq, cnt = np.unique(keys, return_counts=True)
            heard[uniq] = cnt
            received[uniq[cnt == 1]] = True
            collided[uniq[cnt >= 2]] = True
        # heard == 1 cells have exactly one writer: the sender.
        senders[keys] = tx_nodes.repeat(self.max_degree)
        # Half-duplex: transmitters hear nothing in their trial.
        tx_cells = tx_trials * width + tx_nodes
        received[tx_cells] = False
        collided[tx_cells] = False
        buf.touched = uniq
        return buf.grids


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
