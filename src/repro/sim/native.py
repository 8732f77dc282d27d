"""Optional compiled slot kernel (C via cffi), ``engine="compiled"``.

The dense batch tier materialises ``(trials, n)`` arrays every slot.
This module resolves the slot in word space instead (the
:mod:`repro.radio.bitpack` layout, 64 nodes per ``uint64``): a small C
kernel fuses the whole slot — carry-save accumulate, half-duplex, alive
mask, counter-RNG loss, sparse extraction, sender attribution — into
one pass over the packed words, drawing Bernoulli erasures with the
identical splitmix64 stream (each trial's slot key derived in C from
its seed and the slot, as
:func:`~repro.radio.impairments.counter_slot_keys` does) and the
integer threshold of
:func:`~repro.radio.impairments.bernoulli_threshold`, so its output is
bit-identical to the dense tier (the differential suite runs the full
``reference == serial == batch == compiled`` chain).

``resolve_slot`` also *commits* the slot into the caller's run arrays:
it stamps ``first_rx`` in place and emits the newly informed (trial,
node) pairs, and in summary mode bumps the ``tx_count``/``rx_count``
matrices and adds collisions into the per-trial totals.  Its inputs
are the sorted unique transmission pairs, the slot, the per-trial loss
seeds (or blackout flags) and those arrays; its outputs are the
received pairs (with senders and their CSR edge positions), the
collision pairs (trace mode) and the new pairs, all in (trial, node)
order.

The kernel is single-threaded and holds no static mutable state: every
buffer it touches is passed in by the caller, so concurrent calls on
separate backends (cffi releases the GIL) never share anything.  The
multi-core path is process sharding (:mod:`repro.sim.shard`), which is
bit-identical at every worker count.

The dependency handling is deliberately soft:

* nothing here is imported at package import time except by the engine
  dispatcher, which calls :func:`native_kernel` inside a fallback;
* the C source is compiled **lazily, at first use**, with :mod:`cffi`
  and the system C compiler; the build directory lives inside the
  repository (``.native_build/``, git-ignored) and the module name
  embeds a source hash, so rebuilds happen only when the kernel
  changes;
* any failure — cffi missing, no compiler, unwritable build dir —
  is recorded as :func:`native_reason` and the engine silently falls
  back to the dense batch tier; the environment variable
  ``REPRO_NO_NATIVE=1`` forces that path (the test suite uses it to
  cover dependency-absent hosts).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from pathlib import Path
from typing import Optional, Tuple

__all__ = ["default_native_threads", "native_available",
           "native_kernel", "native_reason", "native_state"]

_CDEF = """
void resolve_slot(
    int64_t n, int64_t words,
    const int64_t *indptr, const int64_t *indices,
    const uint64_t *nbr_words,
    const int64_t *tx_tr, const int64_t *tx_nd, int64_t npairs,
    const uint64_t *alive_words,
    int64_t slot,
    int loss_kind, const uint64_t *loss_seeds, uint64_t loss_threshold,
    const uint8_t *slot_survive,
    int need_senders, int need_coll_pairs,
    uint64_t *ones, uint64_t *twos, uint64_t *txw,
    int64_t *first_rx, int64_t *tx_count, int64_t *rx_count,
    int64_t *rx_tr, int64_t *rx_nd, int64_t *rx_sv, int64_t *rx_ep,
    int64_t *new_tr, int64_t *new_nd,
    int64_t *coll_tr, int64_t *coll_nd, int64_t *coll_counts,
    int64_t *out_counts);
void recovery_post_slot(
    int64_t nrx, const int64_t *rt, const int64_t *rn,
    const int64_t *epos, const int64_t *rev_edge,
    int64_t n, int64_t words_e,
    uint64_t *known, int64_t *heard_total);
void recovery_checks(
    int64_t t, int64_t k,
    const int64_t *bt, const int64_t *vt,
    int64_t n, int64_t words_e, const int64_t *indptr,
    const uint64_t *known,
    int64_t *chk_slot, int64_t *chk_base,
    int64_t *retries_used, const int64_t *heard_total,
    int64_t timeout, int64_t max_retries, int64_t backoff,
    int64_t suppression_k,
    int64_t *fire_b, int64_t *fire_v,
    int64_t *res_b, int64_t *res_v, int64_t *res_slot,
    int64_t *out_counts);
"""

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* ---------------------------------------------------------------------
 * Portable bit ops: __builtin fast paths on GCC/Clang, pure-C fallback
 * elsewhere.  The fallbacks are exact (same results, just slower), so
 * tier bit-identity never depends on the compiler.
 * ------------------------------------------------------------------- */
#if defined(__GNUC__) || defined(__clang__)
#  define CTZ64(x)    __builtin_ctzll(x)
#  define POPCNT64(x) __builtin_popcountll(x)
#else
static int kernel_ctz64(uint64_t x)
{
    int c = 0;
    while (!(x & 1ULL)) { x >>= 1; c++; }
    return c;
}
static int kernel_pop64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}
#  define CTZ64(x)    kernel_ctz64(x)
#  define POPCNT64(x) kernel_pop64(x)
#endif

/* splitmix64 finalizer -- must match repro.radio.impairments exactly */
static inline uint64_t sm64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Carry-save accumulate of one neighbour row, 4-way unrolled so -O3
 * turns the independent OR/AND lanes into vector ops on any target
 * with 128/256-bit integer SIMD; the tail loop keeps it exact for any
 * word count. */
static inline void accum_words(uint64_t *o, uint64_t *t2,
                               const uint64_t *row, int64_t words)
{
    int64_t w = 0;
    for (; w + 4 <= words; w += 4) {
        uint64_t r0 = row[w],     r1 = row[w + 1];
        uint64_t r2 = row[w + 2], r3 = row[w + 3];
        t2[w]     |= o[w]     & r0;  o[w]     |= r0;
        t2[w + 1] |= o[w + 1] & r1;  o[w + 1] |= r1;
        t2[w + 2] |= o[w + 2] & r2;  o[w + 2] |= r2;
        t2[w + 3] |= o[w + 3] & r3;  o[w + 3] |= r3;
    }
    for (; w < words; w++) {
        t2[w] |= o[w] & row[w];
        o[w]  |= row[w];
    }
}

/* ---------------------------------------------------------------------
 * Slot resolve and commit.
 *
 * Pairs (tx_tr[i], tx_nd[i]) are sorted by (trial, node) and unique.
 * ones/twos/txw are (B, words) caller-owned scratch; the rows of the
 * trials active in THIS call are zeroed here before use, so stale rows
 * of other trials are never read.  Loss kinds: 0 none, 1 Bernoulli
 * (survive iff (sm64(key ^ node) >> 11) >= threshold, with the trial's
 * slot key derived here as sm64(sm64(loss_seeds[b]) ^ slot) -- the
 * counter_slot_keys stream), 2 whole-slot blackout where
 * slot_survive[b] == 0.  Extraction order is (trial, node) ascending:
 * pairs group trials in ascending order, words ascend within a row,
 * and bits are pulled lowest-first.
 *
 * The slot is also committed here.  first_rx is the caller's (B, n)
 * first-reception matrix: every decode of a node with first_rx < 0
 * stamps it with `slot` and is emitted as a newly informed pair
 * (new_tr, new_nd), a subsequence of the rx stream in the same order.
 * tx_count/rx_count, when non-NULL (summary mode), are the caller's
 * (B, n) counters, bumped once per transmission/decode; in summary mode
 * (need_coll_pairs == 0) collisions are added straight into the
 * caller's per-trial coll_counts.
 *
 * Every rx/collision is a neighbour of some transmitter, so each
 * output stream holds at most npairs * max_degree entries; the caller
 * sizes its scratch accordingly.  out_counts = {n_rx, n_coll, n_new}.
 * ------------------------------------------------------------------- */
void resolve_slot(
    int64_t n, int64_t words,
    const int64_t *indptr, const int64_t *indices,
    const uint64_t *nbr_words,
    const int64_t *tx_tr, const int64_t *tx_nd, int64_t npairs,
    const uint64_t *alive_words,
    int64_t slot,
    int loss_kind, const uint64_t *loss_seeds, uint64_t loss_threshold,
    const uint8_t *slot_survive,
    int need_senders, int need_coll_pairs,
    uint64_t *ones, uint64_t *twos, uint64_t *txw,
    int64_t *first_rx, int64_t *tx_count, int64_t *rx_count,
    int64_t *rx_tr, int64_t *rx_nd, int64_t *rx_sv, int64_t *rx_ep,
    int64_t *new_tr, int64_t *new_nd,
    int64_t *coll_tr, int64_t *coll_nd, int64_t *coll_counts,
    int64_t *out_counts)
{
    size_t row_bytes = (size_t)words * sizeof(uint64_t);
    int64_t n_rx = 0, n_new = 0, n_coll = 0;
    int64_t i;

    for (i = 0; i < npairs; i++) {
        int64_t b = tx_tr[i];
        uint64_t *o = ones + b * words;
        uint64_t *t2 = twos + b * words;
        uint64_t *tx = txw + b * words;
        if (i == 0 || tx_tr[i - 1] != b) {
            memset(o, 0, row_bytes);
            memset(t2, 0, row_bytes);
            memset(tx, 0, row_bytes);
        }
        accum_words(o, t2, nbr_words + tx_nd[i] * words, words);
        tx[tx_nd[i] >> 6] |= 1ULL << (tx_nd[i] & 63);
        if (tx_count)
            tx_count[b * n + tx_nd[i]]++;
    }

    for (i = 0; i < npairs; i++) {
        int64_t b = tx_tr[i];
        const uint64_t *o, *t2, *tx, *alive;
        int64_t *frx = first_rx + b * n;
        uint64_t key = 0;
        int blackout;
        int64_t w;
        if (i > 0 && tx_tr[i - 1] == b)
            continue;                       /* one pass per active trial */
        o = ones + b * words;
        t2 = twos + b * words;
        tx = txw + b * words;
        alive = alive_words ? alive_words + b * words : 0;
        if (loss_kind == 1)
            key = sm64(sm64(loss_seeds[b]) ^ (uint64_t)slot);
        blackout = (loss_kind == 2 && !slot_survive[b]);
        for (w = 0; w < words; w++) {
            uint64_t quiet = ~tx[w];
            uint64_t rx = o[w] & ~t2[w] & quiet;
            uint64_t cl = t2[w] & quiet;
            uint64_t m;
            if (alive) {
                rx &= alive[w];
                cl &= alive[w];
            }
            if (rx) {
                if (blackout) {
                    rx = 0;
                } else if (loss_kind == 1 && loss_threshold) {
                    m = rx;
                    while (m) {
                        int j = CTZ64(m);
                        m &= m - 1;
                        uint64_t node = (uint64_t)(w << 6) + j;
                        if ((sm64(key ^ node) >> 11) < loss_threshold)
                            rx &= ~(1ULL << j);
                    }
                }
            }
            m = rx;
            while (m) {
                int j = CTZ64(m);
                m &= m - 1;
                int64_t node = (w << 6) + j;
                rx_tr[n_rx] = b;
                rx_nd[n_rx] = node;
                if (need_senders) {
                    int64_t sv = -1, ep = -1;
                    int64_t e;
                    for (e = indptr[node]; e < indptr[node + 1]; e++) {
                        int64_t u = indices[e];
                        if (tx[u >> 6] & (1ULL << (u & 63))) {
                            sv = u;
                            ep = e;
                            break;          /* heard == 1: unique hit */
                        }
                    }
                    rx_sv[n_rx] = sv;
                    if (rx_ep)
                        rx_ep[n_rx] = ep;   /* CSR pos of (node -> sv) */
                }
                n_rx++;
                if (rx_count)
                    rx_count[b * n + node]++;
                if (frx[node] < 0) {
                    frx[node] = slot;
                    new_tr[n_new] = b;
                    new_nd[n_new] = node;
                    n_new++;
                }
            }
            if (need_coll_pairs) {
                m = cl;
                while (m) {
                    int j = CTZ64(m);
                    m &= m - 1;
                    coll_tr[n_coll] = b;
                    coll_nd[n_coll] = (w << 6) + j;
                    n_coll++;
                }
            } else {
                coll_counts[b] += POPCNT64(cl);
            }
        }
    }
    out_counts[0] = n_rx;
    out_counts[1] = n_coll;
    out_counts[2] = n_new;
}

/* ---------------------------------------------------------------------
 * Recovery post-slot: per clean decode (trial rt[i], receiver rn[i])
 * bump the heard counter and set both known-edge bits -- the overhear
 * (receiver -> sender, CSR position epos[i]) and the ACK (sender ->
 * receiver, its precomputed reverse position).  known is (B, words_e)
 * uint64 over CSR edge positions: bit e & 63 of word e >> 6.
 * ------------------------------------------------------------------- */
void recovery_post_slot(
    int64_t nrx, const int64_t *rt, const int64_t *rn,
    const int64_t *epos, const int64_t *rev_edge,
    int64_t n, int64_t words_e,
    uint64_t *known, int64_t *heard_total)
{
    int64_t i;
    for (i = 0; i < nrx; i++) {
        int64_t b = rt[i];
        int64_t e = epos[i];
        int64_t r = rev_edge[e];
        uint64_t *row = known + b * words_e;
        heard_total[b * n + rn[i]]++;
        row[e >> 6] |= 1ULL << (e & 63);    /* overhear */
        row[r >> 6] |= 1ULL << (r & 63);    /* ACK */
    }
}

/* ---------------------------------------------------------------------
 * Recovery guardian checks due at slot t for pairs (bt[i], vt[i])
 * whose chk_slot equals t (caller pre-filters staleness).  Mirrors
 * BatchRecoveryState.pre_slot's check branch exactly: a covered node
 * (every bit of its CSR row range [indptr[v], indptr[v+1]) set in
 * known) clears its check without consuming a retry; otherwise the
 * check consumes one retry, fires unless >= suppression_k decodes were
 * overheard since the previous check, and reschedules at
 * t + timeout * backoff^used while budget remains.  Outputs: firing
 * pairs, rescheduled pairs + their slots (for the caller's due
 * buckets), out_counts = {n_fire, n_res, max rescheduled slot}.  Each
 * output stream holds at most k entries, in input order.
 * ------------------------------------------------------------------- */
void recovery_checks(
    int64_t t, int64_t k,
    const int64_t *bt, const int64_t *vt,
    int64_t n, int64_t words_e, const int64_t *indptr,
    const uint64_t *known,
    int64_t *chk_slot, int64_t *chk_base,
    int64_t *retries_used, const int64_t *heard_total,
    int64_t timeout, int64_t max_retries, int64_t backoff,
    int64_t suppression_k,
    int64_t *fire_b, int64_t *fire_v,
    int64_t *res_b, int64_t *res_v, int64_t *res_slot,
    int64_t *out_counts)
{
    int64_t n_fire = 0, n_res = 0, max_slot = 0;
    int64_t i;
    for (i = 0; i < k; i++) {
        int64_t b = bt[i], v = vt[i];
        const uint64_t *row = known + b * words_e;
        int64_t s = indptr[v], e = indptr[v + 1];
        int covered = 1;
        int64_t w, heard, used;
        for (w = s >> 6; covered && s < e && w <= (e - 1) >> 6; w++) {
            int64_t wlo = s > (w << 6) ? s : (w << 6);
            int64_t whi = e < ((w + 1) << 6) ? e : ((w + 1) << 6);
            int64_t len = whi - wlo;
            uint64_t mask = (len >= 64 ? ~0ULL
                             : ((1ULL << len) - 1)) << (wlo & 63);
            if ((row[w] & mask) != mask)
                covered = 0;
        }
        if (covered) {
            chk_slot[b * n + v] = 0;
            continue;
        }
        heard = heard_total[b * n + v];
        if (suppression_k <= 0
            || heard - chk_base[b * n + v] < suppression_k) {
            fire_b[n_fire] = b;
            fire_v[n_fire] = v;
            n_fire++;
        }
        used = retries_used[b * n + v] + 1;
        retries_used[b * n + v] = used;
        chk_base[b * n + v] = heard;
        if (used < max_retries) {
            int64_t step = timeout, j, nxt;
            for (j = 0; j < used; j++)
                step *= backoff;
            nxt = t + step;
            chk_slot[b * n + v] = nxt;
            res_b[n_res] = b;
            res_v[n_res] = v;
            res_slot[n_res] = nxt;
            n_res++;
            if (nxt > max_slot)
                max_slot = nxt;
        } else {
            chk_slot[b * n + v] = 0;
        }
    }
    out_counts[0] = n_fire;
    out_counts[1] = n_res;
    out_counts[2] = max_slot;
}
"""

_state: Optional[Tuple[Optional[object], Optional[str]]] = None


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def _build() -> object:
    import cffi

    digest = hashlib.sha1((_CDEF + _SOURCE).encode()).hexdigest()[:12]
    modname = f"_repro_native_{digest}"
    build_dir = _repo_root() / ".native_build"
    build_dir.mkdir(exist_ok=True)
    existing = sorted(build_dir.glob(f"{modname}*.so"))
    if not existing:
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(modname, _SOURCE, extra_compile_args=["-O3"])
        ffi.compile(tmpdir=str(build_dir))
        existing = sorted(build_dir.glob(f"{modname}*.so"))
    if not existing:
        raise RuntimeError("cffi compile produced no extension module")
    spec = importlib.util.spec_from_file_location(modname, existing[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def native_kernel():
    """The compiled kernel module (``.lib`` / ``.ffi``), or ``None``.

    The first call builds (or reloads) the extension; the outcome —
    including any failure reason — is cached for the process lifetime.
    """
    global _state
    if _state is None:
        if os.environ.get("REPRO_NO_NATIVE"):
            _state = (None, "disabled via REPRO_NO_NATIVE")
        else:
            try:
                _state = (_build(), None)
            except Exception as exc:  # soft dependency: never hard-fail
                _state = (None, f"{type(exc).__name__}: {exc}")
    return _state[0]


def native_available() -> bool:
    """True when the compiled tier can run on this host."""
    return native_kernel() is not None


def native_reason() -> Optional[str]:
    """Why the compiled tier is unavailable (``None`` when it is)."""
    native_kernel()
    return _state[1]


def native_state() -> Tuple[Optional[bool], Optional[str]]:
    """(available?, reason) without forcing the lazy build.

    The health endpoint's view of the compiled tier: ``(None, ...)``
    before the first build attempt (probing would trigger a C compile —
    exactly what a cheap liveness probe must not do), then the cached
    verdict of :func:`native_kernel`.
    """
    if _state is None:
        return None, "not yet probed (build is lazy)"
    return _state[0] is not None, _state[1]


def default_native_threads() -> int:
    """Threads the compiled kernel runs on: always 1.

    The kernel is single-threaded; multi-core runs shard trials across
    processes (``workers=``) instead.
    """
    return 1
