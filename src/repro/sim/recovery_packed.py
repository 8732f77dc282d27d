"""Word-packed recovery state: the ``compiled`` tier of the closed-loop
recovery layer.

:class:`~repro.sim.recovery.BatchRecoveryState` vectorises the recovery
machine over ``(B, nnz)`` boolean known-edge matrices, but three of its
costs scale badly on recovery-heavy cells and are identical under every
slot-resolve tier — the Amdahl bottleneck BENCH_kernel's
``recovery_grid`` exposed:

* every slot scans the full ``(B, n)`` ``chk_slot``/``elec_slot``
  arrays for due work (``== t`` + ``nonzero`` over B*n elements, twice,
  whether or not anything is due);
* every decode pair pays a ``searchsorted`` over the sorted ``row * n +
  col`` edge keys to find its CSR position;
* the per-check "all neighbours covered?" test gathers ``max_degree``
  booleans per (trial, node) pair.

:class:`NativeRecoveryState` removes all three while computing the
*same state machine* (:mod:`repro.sim.recovery` documents it; the
differential suite holds it to trace equality with the batch state):

* **due buckets** — ``chk_slot``/``elec_slot`` stay the source of truth,
  but every assignment also appends the (trial, node) pair to a
  ``slot -> pairs`` bucket; ``pre_slot`` pops its bucket and drops the
  stale entries (``chk_slot[b, v] != t``), so the per-slot cost scales
  with the *due* count, not ``B * n``.  A pair's scheduled slots are
  strictly increasing (episodes start once, reschedules move forward),
  so a bucket never holds duplicates;
* **edge-keyed word bitset** — the known-edge state is ``(B,
  ceil(nnz/64))`` uint64 words, bit ``e & 63`` of word ``e >> 6`` for
  CSR data position *e* (:mod:`repro.radio.bitpack` layout over edge
  positions instead of node ids).  The ACK/overhear pair of a decode is
  two bits: the (receiver -> sender) position falls out of the
  compiled resolve's sender attribution for free, and the (sender ->
  receiver) position is one precomputed ``rev_edge`` lookup.  A node's
  coverage test is an exact mask compare over the <= 2 words its
  contiguous CSR row spans;
* **C inner loops** — the two hot loops (per-decode bit sets + heard
  counters, per-check covered/suppression/reschedule) run in the cffi
  kernel's ``recovery_post_slot``/``recovery_checks`` (see
  :mod:`repro.sim.native`).  Election bookkeeping stays numpy —
  elections fire at most once per (trial, node) and never dominate.

Instances are built by the compiled backend
(:meth:`~repro.sim.backend.NativeBackend.make_recovery`), which also
feeds ``post_slot`` the attribution edge positions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .. import profiling
from ..radio.bitpack import num_words
from ..topology.base import Topology
from .recovery import RecoveryPolicy

__all__ = ["NativeRecoveryState", "push_buckets"]

_EMPTY = np.empty(0, dtype=np.int64)
_U64 = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: ``slot -> [(trials, nodes), ...]`` pair buckets.
Buckets = Dict[int, List[Tuple[np.ndarray, np.ndarray]]]


def push_buckets(buckets: Buckets, tr: np.ndarray, nd: np.ndarray,
                 slots: np.ndarray) -> int:
    """Bucket (trial, node) pairs by their per-pair *slots* (non-empty);
    returns the latest slot.  Pairs all due in one slot — the common
    case — go in as one entry without a grouping pass."""
    lo, hi = int(slots.min()), int(slots.max())
    if lo == hi:
        buckets.setdefault(lo, []).append((tr, nd))
        return hi
    for s in np.unique(slots):
        sel = slots == s
        buckets.setdefault(int(s), []).append((tr[sel], nd[sel]))
    return hi


class NativeRecoveryState:
    """B-trial recovery state over a word-packed known-edge bitset, its
    hot inner loops in the cffi kernel *module*.

    Bit-identical to :class:`~repro.sim.recovery.BatchRecoveryState` by
    construction: same per-(trial, node) scalars, same update order,
    same horizon growth — only the known-edge representation and the
    due-work discovery differ.
    """

    def __init__(self, topology: Topology, policy: RecoveryPolicy,
                 relay_like: np.ndarray, trials: int, module) -> None:
        kernel = topology.slot_kernel
        n = topology.num_nodes
        self.policy = policy
        self.n = n
        self.trials = trials
        self.relay_like = np.asarray(relay_like, dtype=bool)
        indptr = np.ascontiguousarray(kernel.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(kernel.indices, dtype=np.int64)
        self._indptr = indptr
        nnz = len(indices)
        self.words_e = max(num_words(nnz), 1)
        degrees = np.diff(indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        # Reverse-edge table: the CSR position of (col -> row) for each
        # (row -> col) data position.  The adjacency is symmetric, so
        # every reversed key exists; one argsort + searchsorted at init
        # replaces the per-slot searchsorted of the dense batch state.
        keys = rows * n + indices
        order = np.argsort(keys, kind="stable")
        self.rev_edge = np.ascontiguousarray(
            order[np.searchsorted(keys[order], indices * n + rows)])
        # Coverage masks: node v is covered iff every bit of its
        # contiguous CSR range [indptr[v], indptr[v+1]) is set, i.e. a
        # word-masked compare over the <= ceil(max_degree/64)+1 words
        # the range spans.
        s, e = indptr[:-1], indptr[1:]
        w0 = s >> 6
        w1 = np.maximum(e - 1, s) >> 6
        span = int((w1 - w0 + 1).max()) if n else 1
        j = np.arange(span, dtype=np.int64)
        w = w0[:, None] + j[None, :]
        valid = (w <= w1[:, None]) & (e > s)[:, None]
        lo = np.maximum(s[:, None], w << 6)
        hi = np.minimum(e[:, None], (w + 1) << 6)
        length = np.maximum(hi - lo, 0)
        lc = np.clip(length, 1, 64).astype(np.uint64)  # dodge >>64 UB
        mask = ((_ALL_ONES >> (np.uint64(64) - lc))
                << (lo & 63).astype(np.uint64))
        self._cov_w = np.where(valid, w, 0)
        self._cov_m = np.where(valid & (length > 0), mask, _U64(0))
        # Padded per-node neighbour tables (election target search);
        # vectorised build, pad sentinel n.
        maxdeg = int(degrees.max()) if n else 0
        jd = np.arange(max(maxdeg, 1), dtype=np.int64)
        dvalid = jd[None, :] < degrees[:, None]
        pos = np.minimum(s[:, None] + jd[None, :], max(nnz - 1, 0))
        self._P = np.where(dvalid, pos, 0)
        self._N = np.where(dvalid, indices[pos] if nnz else 0, n)
        self._V = dvalid
        self._relay_ext = np.append(self.relay_like, False)
        self.known = np.zeros((trials, self.words_e), dtype=np.uint64)
        self.heard_total = np.zeros((trials, n), dtype=np.int64)
        self.has_tx = np.zeros((trials, n), dtype=bool)
        self.chk_slot = np.zeros((trials, n), dtype=np.int64)
        self.chk_base = np.zeros((trials, n), dtype=np.int64)
        self.retries_used = np.zeros((trials, n), dtype=np.int64)
        self.elec_slot = np.zeros((trials, n), dtype=np.int64)
        self.elec_base = np.zeros((trials, n), dtype=np.int64)
        self.elec_pos = np.zeros((trials, n), dtype=np.int64)
        self.horizon = 0
        self._chk_due: Buckets = {}
        self._elec_due: Buckets = {}
        self._ffi, self._lib = module.ffi, module.lib
        ffi = self._ffi

        def pin(array, ctype):
            return array, ffi.cast(ctype, ffi.from_buffer(array))

        # The state arrays are allocated once here and never
        # reallocated, so the pinned views stay valid for the run.
        self._c_known = pin(self.known, "uint64_t *")
        self._c_heard = pin(self.heard_total, "int64_t *")
        self._c_chk_slot = pin(self.chk_slot, "int64_t *")
        self._c_chk_base = pin(self.chk_base, "int64_t *")
        self._c_retries = pin(self.retries_used, "int64_t *")
        self._c_indptr = pin(self._indptr, "const int64_t *")
        self._c_rev = pin(self.rev_edge, "const int64_t *")
        self._c_counts = pin(np.zeros(3, dtype=np.int64), "int64_t *")

    # ------------------------------------------------------------------

    def _pop_due(self, due: Buckets, slots: np.ndarray, t: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Pop bucket *t* and drop entries whose slot moved or cleared."""
        entries = due.pop(t, None)
        if not entries:
            return _EMPTY, _EMPTY
        if len(entries) == 1:
            bt, vt = entries[0]
        else:
            bt = np.concatenate([p[0] for p in entries])
            vt = np.concatenate([p[1] for p in entries])
        live = slots[bt, vt] == t
        if live.all():
            return bt, vt
        return bt[live], vt[live]

    def _edge_bit(self, bt: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Known-bit test of CSR edge positions *pos* in trials *bt*."""
        return ((self.known[bt, pos >> 6]
                 >> (pos & 63).astype(np.uint64)) & _U64(1)).astype(bool)

    def _as_i64(self, array: np.ndarray):
        array = np.ascontiguousarray(array, dtype=np.int64)
        return array, self._ffi.cast("const int64_t *",
                                     self._ffi.from_buffer(array))

    # ------------------------------------------------------------------

    def _process_checks(self, t: int, bt: np.ndarray, vt: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Guardian checks due at *t*: covered test, suppression,
        retry accounting, rescheduling.  Returns the firing pairs."""
        pol = self.policy
        k = len(vt)
        kb, pb = self._as_i64(bt)
        kv, pv = self._as_i64(vt)
        fire_b = np.empty(k, dtype=np.int64)
        fire_v = np.empty(k, dtype=np.int64)
        res_b = np.empty(k, dtype=np.int64)
        res_v = np.empty(k, dtype=np.int64)
        res_slot = np.empty(k, dtype=np.int64)
        ffi, out = self._ffi, self._c_counts
        cast = lambda a: ffi.cast("int64_t *", ffi.from_buffer(a))
        self._lib.recovery_checks(
            t, k, pb, pv, self.n, self.words_e, self._c_indptr[1],
            self._c_known[1], self._c_chk_slot[1], self._c_chk_base[1],
            self._c_retries[1], self._c_heard[1],
            pol.timeout, pol.max_retries, pol.backoff, pol.suppression_k,
            cast(fire_b), cast(fire_v),
            cast(res_b), cast(res_v), cast(res_slot), out[1])
        n_fire, n_res, max_slot = map(int, out[0])
        if n_res:
            push_buckets(self._chk_due, res_b[:n_res], res_v[:n_res],
                         res_slot[:n_res])
            self.horizon = max(self.horizon, max_slot)
        return fire_b[:n_fire], fire_v[:n_fire]

    # ------------------------------------------------------------------

    def pre_slot(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Checks/elections due at *t*: returns retransmitting
        ``(trials, nodes)`` pair arrays (order unspecified; the engine
        dedup-sorts recovery pairs)."""
        pol = self.policy
        out_tr, out_nd = [], []
        bt, vt = self._pop_due(self._chk_due, self.chk_slot, t)
        if len(vt):
            fb, fv = self._process_checks(t, bt, vt)
            if len(fv):
                out_tr.append(fb)
                out_nd.append(fv)
        bt, wt = self._pop_due(self._elec_due, self.elec_slot, t)
        if len(wt):
            with profiling.phase("recovery-election"):
                self.elec_slot[bt, wt] = 0        # one-shot
                ok = ~self._edge_bit(bt, self.elec_pos[bt, wt])
                if pol.suppression_k > 0:
                    ok &= (self.heard_total[bt, wt]
                           - self.elec_base[bt, wt] < pol.suppression_k)
                out_tr.append(bt[ok])
                out_nd.append(wt[ok])
        if not out_nd:
            return _EMPTY, _EMPTY
        return np.concatenate(out_tr), np.concatenate(out_nd)

    # ------------------------------------------------------------------

    def post_slot(self, t: int, tr: np.ndarray, nd: np.ndarray,
                  rt: np.ndarray, rn: np.ndarray, sv: np.ndarray,
                  nt: np.ndarray, nn: np.ndarray,
                  epos: np.ndarray) -> None:
        """Account one resolved batch slot (mirrors
        :meth:`~repro.sim.recovery.BatchRecoveryState.post_slot`).

        *epos* are the CSR positions of the (receiver -> sender) edges,
        as produced by the compiled backend's sender attribution.
        """
        pol = self.policy
        if len(rn):
            # Heard counters plus the ACK/overhear bit pair per decoded
            # (receiver, sender) edge.
            kt, pt = self._as_i64(rt)
            kn, pn = self._as_i64(rn)
            ke, pe = self._as_i64(epos)
            self._lib.recovery_post_slot(
                len(kn), pt, pn, pe, self._c_rev[1],
                self.n, self.words_e, self._c_known[1], self._c_heard[1])
        fresh = ~self.has_tx[tr, nd]
        if fresh.any():
            ft, fn = tr[fresh], nd[fresh]
            self.has_tx[ft, fn] = True
            if pol.max_retries > 0:
                due = t + pol.timeout
                self.chk_slot[ft, fn] = due
                self.chk_base[ft, fn] = self.heard_total[ft, fn]
                self.retries_used[ft, fn] = 0
                self._chk_due.setdefault(due, []).append((ft, fn))
                self.horizon = max(self.horizon, due)
        if pol.election and len(nn):
            with profiling.phase("recovery-election"):
                self._schedule_elections(t, nt, nn)

    def _schedule_elections(self, t: int, nt: np.ndarray,
                            nn: np.ndarray) -> None:
        """Schedule one-shot substitute transmissions for newly informed
        non-relays with an unheard relay-like neighbour."""
        pol = self.policy
        sel = ~self.relay_like[nn]
        et, en = nt[sel], nn[sel]
        if not len(en):
            return
        nb = self._N[en]
        pb = self._P[en]
        cand = (self._V[en] & self._relay_ext[nb]
                & ~self._edge_bit(et[:, None], pb))
        tgt = np.where(cand, nb, self.n).min(axis=1)
        has = tgt < self.n
        et, en, tgt = et[has], en[has], tgt[has]
        if not len(en):
            return
        rank = ((self._N[tgt] < en[:, None]) & self._V[tgt]).sum(axis=1)
        slot = t + pol.election_delay + rank
        self.elec_slot[et, en] = slot
        self.elec_base[et, en] = self.heard_total[et, en]
        self.elec_pos[et, en] = np.where(self._N[en] == tgt[:, None],
                                         self._P[en], 0).sum(axis=1)
        self.horizon = max(self.horizon,
                           push_buckets(self._elec_due, et, en, slot))
