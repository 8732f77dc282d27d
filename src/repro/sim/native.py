"""Optional compiled slot kernel (C via cffi), ``engine="compiled"``.

The dense batch tier materialises ``(trials, n)`` arrays every slot.
This module resolves the slot in word space instead (the
:mod:`repro.radio.bitpack` layout, 64 nodes per ``uint64``): a small C
kernel fuses the whole slot — carry-save accumulate, half-duplex, alive
mask, counter-RNG loss, sparse extraction, sender attribution — into
one pass over the packed words, drawing Bernoulli erasures and burst
blackouts with the identical splitmix64 stream (each trial's slot key
derived in C from its seed and the slot, as
:func:`~repro.radio.impairments.counter_slot_keys` does) and the
integer threshold of
:func:`~repro.radio.impairments.bernoulli_threshold`, so its output is
bit-identical to the dense tier (the differential suite runs the full
``reference == serial == batch == compiled`` chain).

``resolve_slot`` also *commits* the slot into the run's arrays: it
stamps ``first_rx`` in place and emits the newly informed (trial, node)
pairs, and in summary mode bumps the ``tx_count``/``rx_count`` matrices
and adds collisions into the per-trial totals.  It reads everything
through one ``wave_t`` struct: the topology's tables, the loss, the
run's arrays, the per-slot scratch (the sorted unique transmission
pairs in; the received pairs with senders, the collision pairs in trace
mode and the new pairs out, all in (trial, node) order) and the trace
logs.

The closed-loop recovery machine
(:class:`repro.sim.backend.NativeRecoveryState`) runs in the kernel
too, over one ``recovery_t`` struct that points at
the state arrays the Python object owns and carries the policy scalars
and the running ``horizon``.  ``resolve_slot`` takes it (``NULL``
without recovery) and also does the post-slot accounting: guardian
checks start at first transmissions, each clean decode bumps a heard
counter and sets its ACK/overhear bit pair, and the trial's newly
informed nodes hold their elections.  The scheduler's
``recovery_pre_slot`` walks the slot's due checks and elections in a C
calendar (a ring of slot heads over intrusive per-pair lists) and adds
the pairs that retransmit.

Every batched run is scheduled in the kernel as well, over one
``reactive_t`` struct: the plan rows (relay flags, extra delays, one
mask per distinct repeat offset; shared or one row per trial), the
per-trial slot cut-off, the forced pairs in slot order with a
dropped-forced log, and a due calendar of ring heads over one intrusive
link per (trial, node, repeat index).  ``resolve_slot`` pushes every
newly informed relay into the calendar; ``reactive_next_slot`` advances
to the next slot that transmits (skipping straight to the next forced
slot while nothing else is due), pops its links, ORs in the forced
pairs (informed ones, logging the rest as dropped, unless
``check_forced`` is off) and the recovery retransmitters, and reads the
per-trial transmit bitmap back as sorted unique pairs.  A replay is such
a run with no relays, no source start and the schedule as its forced
pairs.

``run_wave`` is the one entry point a run calls: it loops
``reactive_next_slot`` and ``resolve_slot`` until the wave is over, and
in trace mode appends each slot's transmissions, decodes and collisions
as ``(slot, trial, node[, sender])`` rows to three logs the caller
owns.  It returns early only when a log could not hold one more slot's
worst case (``B * n`` rows); the caller grows the log and calls again,
and the wave resumes where it stopped.  A summary run is thus one C
call, and a trace run one call plus one per log growth.

The kernel is single-threaded and holds no static mutable state: every
buffer it touches is passed in by the caller, so concurrent calls on
separate backends (cffi releases the GIL) never share anything.  The
tables that depend on the topology alone (:class:`TopologyTables`) are
built once per :class:`~repro.radio.channel.SlotKernel` and only read
by the kernel, so concurrent runs share them.  The
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

import numpy as np

__all__ = ["TopologyTables", "default_native_threads", "native_available",
           "native_kernel", "native_reason", "native_state", "pointer",
           "topology_tables"]

#: The recovery state struct, declared to cffi and defined in C alike.
_RECOVERY_T = """
typedef struct {
    int64_t n, words_e;
    const int64_t *indptr, *indices, *rev_edge;
    const uint8_t *relay_like;
    uint64_t *known;
    int64_t *heard_total;
    uint8_t *has_tx;
    int64_t *chk_base, *retries_used;
    int64_t *elec_base, *elec_pos;
    int64_t timeout, max_retries, backoff, suppression_k;
    int64_t election, election_delay;
    int64_t slot_bound, ring_mask;
    int64_t *chk_head, *chk_next, *elec_head, *elec_next;
    int64_t horizon;
} recovery_t;
"""

#: The reactive scheduler struct, declared to cffi and defined in C alike.
_REACTIVE_T = """
typedef struct {
    int64_t n, batch, words;
    const uint8_t *relay;
    const int64_t *delay;
    int64_t plan_stride, n_offsets, rep_plane;
    const uint8_t *rep_masks;
    const int64_t *rep_offsets;
    const int64_t *limit;
    int64_t max_limit, ring_mask;
    int64_t *head, *next;
    int64_t n_forced_slots, forced_cursor, check_forced;
    const int64_t *forced_slot, *forced_ptr, *forced_tr, *forced_nd;
    int64_t n_dropped;
    int64_t *drop_slot, *drop_tr, *drop_nd;
    const int64_t *first_rx;
    const uint64_t *alive;
    uint64_t *txw;
    uint8_t *touched;
    int64_t slot, horizon;
} reactive_t;
"""

#: The wave struct: the run's tables, loss, commit arrays, scratch and
#: trace logs, declared to cffi and defined in C alike.
_WAVE_T = """
typedef struct {
    int64_t n, batch, words;
    const int64_t *indptr, *indices, *nbr_span;
    const uint64_t *nbr_words, *alive;
    int64_t loss_kind, burst_length;
    const uint64_t *loss_seeds;
    uint64_t loss_threshold;
    int64_t need_senders, trace;
    uint64_t *ones, *twos, *txw;
    int64_t *first_rx, *tx_count, *rx_count, *collisions;
    int64_t *tx_tr, *tx_nd;
    int64_t *rx_tr, *rx_nd, *rx_sv, *new_tr, *new_nd, *coll_tr, *coll_nd;
    int64_t n_rx, n_coll, n_new;
    int64_t *log[3];
    int64_t log_len[3], log_cap[3];
} wave_t;
"""

_CDEF = _RECOVERY_T + _REACTIVE_T + _WAVE_T + """
void reactive_start(reactive_t *rs, const int64_t *sources);
int64_t reactive_next_slot(reactive_t *rs, recovery_t *rec,
                           int64_t *tx_tr, int64_t *tx_nd);
void resolve_slot(wave_t *w, recovery_t *rec, reactive_t *rs,
                  int64_t slot, int64_t npairs);
int64_t run_wave(wave_t *w, reactive_t *rs, recovery_t *rec);
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
 * Closed-loop recovery state (repro.sim.backend.NativeRecoveryState
 * owns every buffer; this struct only points at them).
 *
 * Per (trial b, node v) pair, id = b * n + v: the heard counter, the
 * has-transmitted flag, the guardian check (chk_base, retries_used)
 * and the one-shot election (elec_base; elec_pos, the CSR position of
 * the (v -> target) edge).  known is (B, words_e) uint64 over CSR edge
 * positions: bit e & 63 of word e >> 6 says the edge's row node knows
 * its column node holds the message.
 *
 * Due work sits in a calendar: a power-of-two ring of slot heads
 * (ring_mask + 1 of them, one ring for checks and one for elections)
 * threading intrusive per-pair lists (chk_next / elec_next, -1 ends a
 * list).  A pair is pending at most once per list -- a check is only
 * rescheduled by its own firing, an election is scheduled once -- so
 * one link per pair suffices.  The ring spans the farthest schedule
 * distance (capped by slot_bound) and the scheduler visits every slot
 * up to horizon, so a ring head only ever holds pairs due in its own
 * slot.  The run never reaches a slot past slot_bound: work due there
 * only raises horizon and is not enqueued.  The policy scalars arrive
 * capped at slot_bound + 1, which keeps every slot sum exact while it
 * can matter and free of overflow beyond.
 * ------------------------------------------------------------------- */
""" + _RECOVERY_T + r"""

static inline int known_bit(const uint64_t *row, int64_t e)
{
    return (int)((row[e >> 6] >> (e & 63)) & 1ULL);
}

static inline void rec_push(recovery_t *rec, int64_t *head, int64_t *next,
                            int64_t id, int64_t s)
{
    if (s > rec->horizon)
        rec->horizon = s;
    if (s <= rec->slot_bound) {
        next[id] = head[s & rec->ring_mask];
        head[s & rec->ring_mask] = id;
    }
}

/* Node v of trial b is newly informed at slot t: schedule its one-shot
 * substitute transmission if it is no relay and some relay-like
 * neighbour is still unheard (the lowest-indexed one is the target),
 * staggered by v's rank among the target's neighbours.  Reads v's
 * known bits, so it runs after the trial's decodes of this slot. */
static void rec_elect(recovery_t *rec, int64_t b, int64_t v, int64_t t)
{
    const int64_t *indptr = rec->indptr, *indices = rec->indices;
    const uint64_t *row = rec->known + b * rec->words_e;
    int64_t id = b * rec->n + v, tgt = rec->n, pos = 0, rank = 0, e;
    if (rec->relay_like[v])
        return;
    for (e = indptr[v]; e < indptr[v + 1]; e++) {
        int64_t u = indices[e];
        if (u < tgt && rec->relay_like[u] && !known_bit(row, e)) {
            tgt = u;
            pos = e;
        }
    }
    if (tgt == rec->n)
        return;
    for (e = indptr[tgt]; e < indptr[tgt + 1]; e++)
        rank += indices[e] < v;
    rec->elec_base[id] = rec->heard_total[id];
    rec->elec_pos[id] = pos;
    rec_push(rec, rec->elec_head, rec->elec_next, id,
             t + rec->election_delay + rank);
}

/* Node v's CSR row [indptr[v], indptr[v+1]) fully set in known: every
 * neighbour is known to hold the message.  An exact masked compare
 * over the words the contiguous range spans. */
static int rec_covered(const recovery_t *rec, const uint64_t *row,
                       int64_t v)
{
    int64_t s = rec->indptr[v], e = rec->indptr[v + 1], w;
    for (w = s >> 6; s < e && w <= (e - 1) >> 6; w++) {
        int64_t wlo = s > (w << 6) ? s : (w << 6);
        int64_t whi = e < ((w + 1) << 6) ? e : ((w + 1) << 6);
        int64_t len = whi - wlo;
        uint64_t mask = (len >= 64 ? ~0ULL
                         : ((1ULL << len) - 1)) << (wlo & 63);
        if ((row[w] & mask) != mask)
            return 0;
    }
    return 1;
}

/* ---------------------------------------------------------------------
 * Recovery pre-slot: pop slot t's due checks and elections, returning
 * the pairs that retransmit (fire_b/fire_v, capacity 2 * B * n; order
 * unspecified -- reactive_next_slot ORs them into its bitmap).  Mirrors
 * BatchRecoveryState.pre_slot: a covered guardian clears its check
 * without consuming a retry; otherwise the check consumes one retry,
 * fires unless >= suppression_k decodes were overheard since the
 * previous check, and reschedules at t + timeout * backoff^used while
 * budget remains.  An election fires once, unless its target was
 * overheard meanwhile or suppression cancels it.
 * ------------------------------------------------------------------- */
static int64_t recovery_pre_slot(recovery_t *rec, int64_t t,
                                 int64_t *fire_b, int64_t *fire_v)
{
    int64_t n = rec->n, k = 0, id, nxt;
    int64_t ring = t & rec->ring_mask;

    id = rec->chk_head[ring];
    rec->chk_head[ring] = -1;
    for (; id >= 0; id = nxt) {
        int64_t b = id / n, v = id % n, heard, used, step, j;
        nxt = rec->chk_next[id];
        if (rec_covered(rec, rec->known + b * rec->words_e, v))
            continue;                       /* episode over */
        heard = rec->heard_total[id];
        if (rec->suppression_k <= 0
            || heard - rec->chk_base[id] < rec->suppression_k) {
            fire_b[k] = b;
            fire_v[k] = v;
            k++;
        }
        used = ++rec->retries_used[id];
        rec->chk_base[id] = heard;
        if (used < rec->max_retries) {
            step = rec->timeout;            /* saturates past the bound */
            for (j = 0; j < used && step <= rec->slot_bound; j++)
                step = step > rec->slot_bound / rec->backoff
                       ? rec->slot_bound + 1 : step * rec->backoff;
            rec_push(rec, rec->chk_head, rec->chk_next, id, t + step);
        }
    }

    id = rec->elec_head[ring];
    rec->elec_head[ring] = -1;
    for (; id >= 0; id = nxt) {
        int64_t b = id / n, v = id % n;
        nxt = rec->elec_next[id];
        if (known_bit(rec->known + b * rec->words_e, rec->elec_pos[id]))
            continue;                       /* target overheard after all */
        if (rec->suppression_k > 0
            && rec->heard_total[id] - rec->elec_base[id]
               >= rec->suppression_k)
            continue;
        fire_b[k] = b;
        fire_v[k] = v;
        k++;
    }
    return k;
}

/* ---------------------------------------------------------------------
 * Reactive scheduler (the engine's reactive loop owns every buffer;
 * this struct only points at them).
 *
 * The plan rows: relay (rows, n) flags, delay (rows, n) extra slots and
 * one (rows, n) mask per distinct repeat offset (rep_masks, n_offsets
 * planes of rep_plane bytes, offsets in rep_offsets).  rows is B for
 * per-trial plans (plan_stride n) and 1 for a shared plan (plan_stride
 * 0).  A relay newly informed at slot t transmits at t + 1 + delay and
 * again at each of its repeat offsets after that.
 *
 * Each of those transmissions is one calendar link: id = (r * B + b) *
 * n + v for repeat index r (0 the first transmission, r + 1 offset r).
 * A node is newly informed once per trial, so every link is pending at
 * most once; the ring of slot heads spans the farthest schedule
 * distance, capped by the slot bound, as in the recovery calendar.
 * Work due past the trial's cut-off limit[b] only raises horizon, the
 * latest slot any link was scheduled for.
 *
 * Forced transmissions sit in slot order (forced_slot, with the pairs
 * of slot i at forced_ptr[i]..forced_ptr[i + 1], trial-major with nodes
 * ascending).  With check_forced, one the node cannot make (not informed
 * before the slot) goes to the drop log instead, which is sized for
 * every forced pair; without it (a pristine replay) all transmit.
 * ------------------------------------------------------------------- */
""" + _REACTIVE_T + r"""

static inline void react_push(reactive_t *rs, int64_t id, int64_t b,
                              int64_t s)
{
    if (s > rs->horizon)
        rs->horizon = s;
    if (s <= rs->limit[b]) {
        rs->next[id] = rs->head[s & rs->ring_mask];
        rs->head[s & rs->ring_mask] = id;
    }
}

/* Node v of trial b was informed at slot t: schedule its transmissions
 * if it relays (always, for a source: force). */
static void react_relay(reactive_t *rs, int64_t b, int64_t v, int64_t t,
                        int force)
{
    int64_t p = b * rs->plan_stride + v, base, r;
    int64_t link = b * rs->n + v, step = rs->batch * rs->n;
    if (!force && !rs->relay[p])
        return;
    base = t + 1 + rs->delay[p];
    react_push(rs, link, b, base);
    for (r = 0; r < rs->n_offsets; r++)
        if (rs->rep_masks[r * rs->rep_plane + p])
            react_push(rs, link + (r + 1) * step, b,
                       base + rs->rep_offsets[r]);
}

/* Schedule every trial's source (it transmits whether it relays or
 * not). */
void reactive_start(reactive_t *rs, const int64_t *sources)
{
    int64_t b;
    for (b = 0; b < rs->batch; b++)
        react_relay(rs, b, sources[b], 0, 1);
}

/* Trial b's row of the transmit bitmap, zeroed on its first touch in
 * the slot. */
static inline uint64_t *react_row(reactive_t *rs, int64_t b,
                                  int64_t *ntouched)
{
    uint64_t *row = rs->txw + b * rs->words;
    if (!rs->touched[b]) {
        rs->touched[b] = 1;
        (*ntouched)++;
        memset(row, 0, (size_t)rs->words * sizeof(uint64_t));
    }
    return row;
}

static inline int react_alive(const reactive_t *rs, int64_t b, int64_t v)
{
    return !rs->alive
        || ((rs->alive[b * rs->words + (v >> 6)] >> (v & 63)) & 1ULL);
}

/* ---------------------------------------------------------------------
 * Reactive pre-slot: advance rs->slot to the next slot that transmits
 * and return its sorted unique (trial, node) pairs in tx_tr/tx_nd
 * (capacity B * n, and 2 * B * n with a recovery state, whose fired
 * pairs pass through them), or 0 once the run is over: the next slot
 * is past max_limit, or no relay, forced or recovery work remains.
 * While links or recovery work are pending the slots are visited one
 * by one; otherwise the walk skips straight to the next forced slot,
 * so far-future forced slots cost nothing in between.  Per slot,
 * mirroring the dense tier's loop: the calendar's due links, the
 * forced pairs (alive ones whose node was informed before the slot,
 * unless unchecked; uninformed ones are logged as dropped), and --
 * with rec -- the recovery calendar's retransmitters, all ORed into the
 * per-trial transmit bitmap (txw, which resolve_slot rebuilds from the
 * pairs) and read back in (trial, node) order.
 * ------------------------------------------------------------------- */
int64_t reactive_next_slot(reactive_t *rs, recovery_t *rec,
                           int64_t *tx_tr, int64_t *tx_nd)
{
    int64_t n = rs->n, words = rs->words;
    for (;;) {
        int64_t t, ntouched = 0, k = 0, id, nxt, i, b, w, ring;
        if (rs->slot < rs->horizon || (rec && rs->slot < rec->horizon))
            t = rs->slot + 1;
        else if (rs->forced_cursor < rs->n_forced_slots)
            t = rs->forced_slot[rs->forced_cursor];
        else
            return 0;
        if (t > rs->max_limit)
            return 0;
        rs->slot = t;
        ring = t & rs->ring_mask;

        id = rs->head[ring];
        rs->head[ring] = -1;
        for (; id >= 0; id = nxt) {
            int64_t v = id % n;
            uint64_t *row = react_row(rs, (id / n) % rs->batch,
                                      &ntouched);
            nxt = rs->next[id];
            row[v >> 6] |= 1ULL << (v & 63);
        }

        if (rs->forced_cursor < rs->n_forced_slots
            && rs->forced_slot[rs->forced_cursor] == t) {
            int64_t c = rs->forced_cursor++;
            for (i = rs->forced_ptr[c]; i < rs->forced_ptr[c + 1]; i++) {
                int64_t v = rs->forced_nd[i], f;
                b = rs->forced_tr[i];
                f = rs->first_rx[b * n + v];
                if (!rs->check_forced || (f >= 0 && f < t)) {
                    if (react_alive(rs, b, v)) {
                        uint64_t *row = react_row(rs, b, &ntouched);
                        row[v >> 6] |= 1ULL << (v & 63);
                    }
                } else {
                    rs->drop_slot[rs->n_dropped] = t;
                    rs->drop_tr[rs->n_dropped] = b;
                    rs->drop_nd[rs->n_dropped] = v;
                    rs->n_dropped++;
                }
            }
        }

        if (rec) {
            /* Retransmitters are informed (hence alive) by
             * construction; their pairs land in the output buffers
             * and are consumed before the read-back overwrites them. */
            int64_t nfire = recovery_pre_slot(rec, t, tx_tr, tx_nd);
            for (i = 0; i < nfire; i++) {
                uint64_t *row = react_row(rs, tx_tr[i], &ntouched);
                row[tx_nd[i] >> 6] |= 1ULL << (tx_nd[i] & 63);
            }
        }

        for (b = 0; ntouched > 0 && b < rs->batch; b++) {
            const uint64_t *row = rs->txw + b * words;
            if (!rs->touched[b])
                continue;
            rs->touched[b] = 0;
            ntouched--;
            for (w = 0; w < words; w++) {
                uint64_t m = row[w];
                while (m) {
                    int j = CTZ64(m);
                    m &= m - 1;
                    tx_tr[k] = b;
                    tx_nd[k] = (w << 6) + j;
                    k++;
                }
            }
        }
        if (k)
            return k;
    }
}

/* ---------------------------------------------------------------------
 * Slot resolve and commit, over one wave_t struct (the engine's backend
 * owns every buffer it points at).
 *
 * The slot's pairs (w->tx_tr[i], w->tx_nd[i]), i < npairs, are sorted by
 * (trial, node) and unique.  ones/twos/txw are (B, words) scratch, and
 * nbr_span[2v], nbr_span[2v + 1] the words [lo, hi) node v's neighbour
 * row spans: an active trial's counting words are zeroed and scanned
 * over the hull of its transmitters' spans only, and its txw row is
 * zeroed whole, so stale words are never read.  Loss kinds: 0 none, 1
 * Bernoulli (survive iff (sm64(key ^ node) >> 11) >= threshold, with the
 * trial's slot key derived here as sm64(sm64(loss_seeds[b]) ^ slot) --
 * the counter_slot_keys stream), 2 whole-slot blackout bursts (the slot
 * is blacked out iff some start draw s in [slot - burst_length + 1,
 * slot], s >= 1, has (sm64(sm64(sm64(seed) ^ s)) >> 11) < threshold --
 * BurstBatchLoss.slot_survival in the same integer form).  Extraction
 * order is (trial, node) ascending: pairs group trials in ascending
 * order, words ascend within a row, and bits are pulled lowest-first.
 *
 * The slot is also committed here.  first_rx is the run's (B, n)
 * first-reception matrix: every decode of a node with first_rx < 0
 * stamps it with `slot` and is emitted as a newly informed pair
 * (new_tr, new_nd), a subsequence of the rx stream (rx_tr, rx_nd, and
 * the senders rx_sv when need_senders or rec) in the same order.  In
 * summary mode (trace == 0) tx_count/rx_count, the run's (B, n)
 * counters, are bumped once per transmission/decode and collisions are
 * added into the per-trial totals; in trace mode the collision pairs go
 * to coll_tr/coll_nd instead.  Each stream holds at most B * n entries
 * (a pair decodes or collides at most once per slot); n_rx, n_coll and
 * n_new report the slot's counts.
 *
 * With a recovery state (rec non-NULL) the slot's recovery accounting
 * runs here too, in BatchRecoveryState.post_slot's order: each first
 * transmission starts a guardian check, each clean decode bumps the
 * receiver's heard counter and sets its overhear/ACK bit pair, and once
 * a trial's decodes are done its newly informed nodes hold elections.
 * With a reactive scheduler (rs non-NULL) those newly informed nodes
 * that relay also enter its calendar.
 * ------------------------------------------------------------------- */
""" + _WAVE_T + r"""

static int burst_blackout(const wave_t *w, int64_t b, int64_t slot)
{
    uint64_t seed = sm64(w->loss_seeds[b]);
    int64_t s = slot - w->burst_length + 1;
    for (s = s < 1 ? 1 : s; s <= slot; s++)
        if ((sm64(sm64(seed ^ (uint64_t)s)) >> 11) < w->loss_threshold)
            return 1;
    return 0;
}

/* Zero the words of [a, z) that the trial's span [*lo, *hi) does not
 * cover yet, and widen the span to the hull of both. */
static inline void widen_span(uint64_t *o, uint64_t *t2, int64_t *lo,
                              int64_t *hi, int64_t a, int64_t z)
{
    if (*lo >= *hi) {
        *lo = a;
        *hi = a;
    }
    if (a < *lo) {
        memset(o + a, 0, (size_t)(*lo - a) * sizeof(uint64_t));
        memset(t2 + a, 0, (size_t)(*lo - a) * sizeof(uint64_t));
        *lo = a;
    }
    if (z > *hi) {
        memset(o + *hi, 0, (size_t)(z - *hi) * sizeof(uint64_t));
        memset(t2 + *hi, 0, (size_t)(z - *hi) * sizeof(uint64_t));
        *hi = z;
    }
}

void resolve_slot(wave_t *w, recovery_t *rec, reactive_t *rs,
                  int64_t slot, int64_t npairs)
{
    const int64_t n = w->n, words = w->words;
    const int64_t *tx_tr = w->tx_tr, *tx_nd = w->tx_nd;
    const int64_t *indptr = w->indptr, *indices = w->indices;
    int64_t n_rx = 0, n_new = 0, n_coll = 0;
    int64_t i0, i1;

    /* One pass per active trial: its pairs are the run [i0, i1). */
    for (i0 = 0; i0 < npairs; i0 = i1) {
        const int64_t b = tx_tr[i0];
        uint64_t *o = w->ones + b * words;
        uint64_t *t2 = w->twos + b * words;
        uint64_t *tx = w->txw + b * words;
        const uint64_t *alive = w->alive ? w->alive + b * words : 0;
        int64_t *frx = w->first_rx + b * n;
        int64_t lo = 0, hi = 0, wd, q, new_start = n_new;
        uint64_t key = 0;
        int blackout;

        /* Accumulate the transmitters' neighbour rows over the words
         * they span (a row is zero outside its span), zeroing the
         * trial's scratch words as the span grows. */
        memset(tx, 0, (size_t)words * sizeof(uint64_t));
        for (i1 = i0; i1 < npairs && tx_tr[i1] == b; i1++) {
            const int64_t v = tx_nd[i1], id = b * n + v;
            const int64_t a = w->nbr_span[2 * v], z = w->nbr_span[2 * v + 1];
            if (a < z) {
                widen_span(o, t2, &lo, &hi, a, z);
                accum_words(o + a, t2 + a, w->nbr_words + v * words + a,
                            z - a);
            }
            tx[v >> 6] |= 1ULL << (v & 63);
            if (!w->trace)
                w->tx_count[id]++;
            if (rec && !rec->has_tx[id]) {
                /* First transmission: start the guardian episode.  A
                 * transmitter decodes nothing this slot, so its heard
                 * counter is already final. */
                rec->has_tx[id] = 1;
                if (rec->max_retries > 0) {
                    rec->chk_base[id] = rec->heard_total[id];
                    rec->retries_used[id] = 0;
                    rec_push(rec, rec->chk_head, rec->chk_next, id,
                             slot + rec->timeout);
                }
            }
        }

        if (w->loss_kind == 1)
            key = sm64(sm64(w->loss_seeds[b]) ^ (uint64_t)slot);
        blackout = w->loss_kind == 2 && burst_blackout(w, b, slot);
        for (wd = lo; wd < hi; wd++) {
            uint64_t quiet = ~tx[wd];
            uint64_t rx = o[wd] & ~t2[wd] & quiet;
            uint64_t cl = t2[wd] & quiet;
            uint64_t m;
            if (alive) {
                rx &= alive[wd];
                cl &= alive[wd];
            }
            if (rx) {
                if (blackout) {
                    rx = 0;
                } else if (w->loss_kind == 1) {
                    /* Branch-free: a draw's outcome is unpredictable. */
                    uint64_t lost = 0;
                    m = rx;
                    while (m) {
                        int j = CTZ64(m);
                        uint64_t node = (uint64_t)(wd << 6) + j;
                        m &= m - 1;
                        lost |= (uint64_t)((sm64(key ^ node) >> 11)
                                           < w->loss_threshold) << j;
                    }
                    rx &= ~lost;
                }
            }
            m = rx;
            while (m) {
                int j = CTZ64(m);
                m &= m - 1;
                int64_t node = (wd << 6) + j;
                w->rx_tr[n_rx] = b;
                w->rx_nd[n_rx] = node;
                if (w->need_senders || rec) {
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
                    w->rx_sv[n_rx] = sv;
                    if (rec) {
                        /* The decode's overhear bit (node -> sv, CSR
                         * position ep) and ACK bit (sv -> node). */
                        uint64_t *krow = rec->known + b * rec->words_e;
                        int64_t r = rec->rev_edge[ep];
                        rec->heard_total[b * n + node]++;
                        krow[ep >> 6] |= 1ULL << (ep & 63);
                        krow[r >> 6] |= 1ULL << (r & 63);
                    }
                }
                n_rx++;
                if (!w->trace)
                    w->rx_count[b * n + node]++;
                if (frx[node] < 0) {
                    frx[node] = slot;
                    w->new_tr[n_new] = b;
                    w->new_nd[n_new] = node;
                    n_new++;
                }
            }
            if (w->trace) {
                m = cl;
                while (m) {
                    int j = CTZ64(m);
                    m &= m - 1;
                    w->coll_tr[n_coll] = b;
                    w->coll_nd[n_coll] = (wd << 6) + j;
                    n_coll++;
                }
            } else {
                w->collisions[b] += POPCNT64(cl);
            }
        }
        if (rs)
            for (q = new_start; q < n_new; q++)
                react_relay(rs, b, w->new_nd[q], slot, 0);
        if (rec && rec->election)
            for (; new_start < n_new; new_start++)
                rec_elect(rec, b, w->new_nd[new_start], slot);
    }
    w->n_rx = n_rx;
    w->n_coll = n_coll;
    w->n_new = n_new;
}

/* Append k rows of (slot, tr[i], nd[i] [, sv[i]]) to trace log j. */
static void log_rows(wave_t *w, int j, int64_t slot, int64_t k,
                     const int64_t *tr, const int64_t *nd,
                     const int64_t *sv)
{
    int64_t cols = sv ? 4 : 3, i;
    int64_t *row = w->log[j] + w->log_len[j] * cols;
    for (i = 0; i < k; i++, row += cols) {
        row[0] = slot;
        row[1] = tr[i];
        row[2] = nd[i];
        if (sv)
            row[3] = sv[i];
    }
    w->log_len[j] += k;
}

/* ---------------------------------------------------------------------
 * One whole wave: reactive_next_slot and resolve_slot, slot after slot,
 * until the run is over (returns 0).  In trace mode each slot's
 * transmissions, decodes (with senders) and collisions are appended to
 * logs 0, 1 and 2 as (slot, trial, node[, sender]) rows; the call
 * returns 1 before a slot whenever some log cannot hold that slot's
 * worst case (B * n rows), and the caller grows it and calls again --
 * every piece of the run's state lives in the structs, so the wave
 * resumes exactly where it stopped.
 * ------------------------------------------------------------------- */
int64_t run_wave(wave_t *w, reactive_t *rs, recovery_t *rec)
{
    const int64_t worst = w->batch * w->n;
    for (;;) {
        int64_t k, j;
        if (w->trace)
            for (j = 0; j < 3; j++)
                if (w->log_cap[j] - w->log_len[j] < worst)
                    return 1;
        k = reactive_next_slot(rs, rec, w->tx_tr, w->tx_nd);
        if (!k)
            return 0;
        resolve_slot(w, rec, rs, rs->slot, k);
        if (w->trace) {
            log_rows(w, 0, rs->slot, k, w->tx_tr, w->tx_nd, 0);
            log_rows(w, 1, rs->slot, w->n_rx, w->rx_tr, w->rx_nd,
                     w->rx_sv);
            log_rows(w, 2, rs->slot, w->n_coll, w->coll_tr, w->coll_nd, 0);
        }
    }
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


def pointer(ffi, array, ctype: str = "int64_t *"):
    """A C pointer into *array*'s buffer.  It does not keep *array*
    alive: the caller does, for as long as the kernel may use it."""
    return ffi.cast(ctype, ffi.from_buffer(array))


class TopologyTables:
    """One topology's kernel tables, pinned: the int64 CSR arrays, the
    packed neighbour table and the reverse-edge table, with their C
    pointers.  They depend on the topology alone, so
    :func:`topology_tables` builds them once per
    :class:`~repro.radio.channel.SlotKernel` and every run shares them
    (the kernel only reads them)."""

    def __init__(self, kernel) -> None:
        ffi = native_kernel().ffi
        self.indptr, self.indices = kernel.indptr, kernel.indices
        self.nbr_words = kernel.neighbour_words()
        self.rev_edge = kernel.rev_edge()
        self.words = self.nbr_words.shape[1]
        self.words_e = max(-(-len(self.indices) // 64), 1)
        # Each node's neighbour row spans words [lo, hi): a lattice row
        # touches a few of them, whatever the topology's size.
        n, indptr = kernel.num_nodes, self.indptr
        full = np.flatnonzero(np.diff(indptr))
        self.nbr_span = np.zeros((n, 2), dtype=np.int64)
        if len(full):
            starts = indptr[full]
            self.nbr_span[full, 0] = np.minimum.reduceat(
                self.indices, starts) >> 6
            self.nbr_span[full, 1] = (np.maximum.reduceat(
                self.indices, starts) >> 6) + 1
        self.indptr_p = pointer(ffi, self.indptr)
        self.indices_p = pointer(ffi, self.indices)
        self.nbr_words_p = pointer(ffi, self.nbr_words, "uint64_t *")
        self.rev_edge_p = pointer(ffi, self.rev_edge)
        self.nbr_span_p = pointer(ffi, self.nbr_span)


def topology_tables(kernel) -> TopologyTables:
    """*kernel*'s :class:`TopologyTables`, built on first use (needs
    the compiled kernel)."""
    return kernel.derived("native_tables", TopologyTables)


def default_native_threads() -> int:
    """Threads the compiled kernel runs on: always 1.

    The kernel is single-threaded; multi-core runs shard trials across
    processes (``workers=``) instead.
    """
    return 1
