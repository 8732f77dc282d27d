"""Optional compiled slot kernel (C via cffi), ``engine="compiled"``.

The dense batch tier materialises ``(trials, n)`` arrays every slot.
This module resolves the slot in word space instead (the
:mod:`repro.radio.bitpack` layout, 64 nodes per ``uint64``): a small C
kernel fuses the whole slot — carry-save accumulate, half-duplex, alive
mask, counter-RNG loss, sparse extraction, sender attribution — into
one pass over the packed words, drawing Bernoulli erasures with the
identical splitmix64 stream and the integer threshold of
:func:`~repro.radio.impairments.bernoulli_threshold`, so its output is
bit-identical to the dense tier (the differential suite runs the full
``reference == serial == batch == compiled`` chain).

**Intra-process parallelism.**  The three hot entry points
(``resolve_slot``, ``recovery_post_slot``, ``recovery_checks``) take a
leading ``nthreads`` argument and fan their (trial, word) cell space
out over a persistent pthread pool (created lazily inside the
extension, capped at :data:`MAX_NATIVE_THREADS`, reset on ``fork`` so
trial-sharded worker processes respawn their own).  The partitioning
is *static and trial-aligned*: every thread derives its contiguous
span of the (trial, node)-sorted input with the same integer formula,
computes exactly what the serial kernel would compute for those
trials, and writes its sparse outputs at a disjoint precomputed offset
(``span_start * max_degree``); the caller's thread then compacts the
per-thread runs in ascending thread order.  Because spans never split
a trial and compaction preserves span order, the merged output is the
serial (trial, node)-ascending order bit for bit — no atomics, no
reductions, no thread-count-dependent results.  cffi calls release the
GIL, so Python-side thread pools overlap with the kernel too (kernel
jobs themselves serialise on one internal job lock).

Thread-count resolution (:func:`resolve_native_threads`): an explicit
``threads=`` wins; otherwise the ``REPRO_NATIVE_THREADS`` environment
variable; otherwise the scheduler affinity mask size (the honest core
count under cgroup/taskset pinning), falling back to ``os.cpu_count``.

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

``REPRO_NATIVE_DEBUG=1`` selects a ThreadSanitizer build
(``-fsanitize=thread -g -O1``, its own hashed module name so it never
shadows the release build); where the toolchain lacks tsan the build
fails and the ordinary fallback chain degrades to the batch tier,
exactly as for any other build failure.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from pathlib import Path
from typing import Optional, Tuple

__all__ = ["MAX_NATIVE_THREADS", "default_native_threads",
           "native_available", "native_kernel", "native_reason",
           "native_state", "resolve_native_threads"]

#: Hard cap on kernel pool width; mirrors ``KERNEL_MAX_THREADS`` in the
#: C source (the pool's static bookkeeping is sized to it).
MAX_NATIVE_THREADS = 64

_CDEF = """
int64_t kernel_max_threads(void);
void resolve_slot(
    int64_t nthreads,
    int64_t n, int64_t words, int64_t max_degree,
    const int64_t *indptr, const int64_t *indices,
    const uint64_t *nbr_words,
    const int64_t *tx_tr, const int64_t *tx_nd, int64_t npairs,
    const uint64_t *alive_words,
    int loss_kind, const uint64_t *loss_keys, uint64_t loss_threshold,
    const uint8_t *slot_survive,
    int need_senders, int need_coll_pairs,
    uint64_t *ones, uint64_t *twos, uint64_t *txw,
    int64_t *rx_tr, int64_t *rx_nd, int64_t *rx_sv, int64_t *rx_ep,
    int64_t *coll_tr, int64_t *coll_nd, int64_t *coll_counts,
    int64_t *out_counts);
void recovery_post_slot(
    int64_t nthreads,
    int64_t nrx, const int64_t *rt, const int64_t *rn,
    const int64_t *epos, const int64_t *rev_edge,
    int64_t n, int64_t words_e,
    uint64_t *known, int64_t *heard_total);
void recovery_checks(
    int64_t nthreads,
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
#include <pthread.h>

#define KERNEL_MAX_THREADS 64

int64_t kernel_max_threads(void) { return KERNEL_MAX_THREADS; }

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
 * Persistent worker pool.
 *
 * One pool per process, created lazily on the first call that asks for
 * width > 1 and kept for the process lifetime.  A job is a plain
 * fn(ctx, tid, width) broadcast: the calling thread participates as
 * tid 0, workers pick up 1..width-1, and every worker wakes per job
 * (those with tid >= width just acknowledge).  Jobs are serialised on
 * job_mu, so concurrent callers (Python thread pools: cffi releases
 * the GIL) queue instead of corrupting the shared descriptor.
 *
 * Determinism does not depend on the pool at all -- partitioning is a
 * pure function of (input, width) and output slots are disjoint -- so
 * the pool needs no ordering guarantees beyond start/finish.
 *
 * fork() safety: a forked child inherits this bookkeeping but none of
 * the worker threads, so an atfork handler resets the pool (and
 * re-arms the mutexes) -- the child's first threaded call respawns
 * its own workers.  Trial-sharded runs default to threads=1 in the
 * shards precisely to avoid oversubscription, but the reset keeps
 * explicit threads x processes compositions correct too.
 * ------------------------------------------------------------------- */
typedef void (*job_fn)(void *ctx, int64_t tid, int64_t width);

static pthread_mutex_t job_mu  = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t pool_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t  pool_go   = PTHREAD_COND_INITIALIZER;
static pthread_cond_t  pool_done = PTHREAD_COND_INITIALIZER;
static pthread_once_t  pool_once = PTHREAD_ONCE_INIT;
static int      pool_size = 0;       /* spawned workers (ids 1..size) */
static uint64_t pool_seq = 0;        /* job generation counter */
static int      pool_pending = 0;    /* workers yet to ack this job */
static job_fn   pool_fn = 0;
static void    *pool_ctx = 0;
static int64_t  pool_width = 0;

static void pool_reset_after_fork(void)
{
    pthread_mutex_init(&job_mu, NULL);
    pthread_mutex_init(&pool_mu, NULL);
    pthread_cond_init(&pool_go, NULL);
    pthread_cond_init(&pool_done, NULL);
    pool_size = 0;
    pool_seq = 0;
    pool_pending = 0;
}

static void pool_register_atfork(void)
{
    pthread_atfork(NULL, NULL, pool_reset_after_fork);
}

static void *pool_worker(void *arg)
{
    int64_t tid = (int64_t)(intptr_t)arg;
    uint64_t seen = 0;
    pthread_mutex_lock(&pool_mu);
    for (;;) {
        while (pool_seq == seen)
            pthread_cond_wait(&pool_go, &pool_mu);
        seen = pool_seq;
        {
            job_fn  fn = pool_fn;
            void   *ctx = pool_ctx;
            int64_t width = pool_width;
            pthread_mutex_unlock(&pool_mu);
            if (tid < width)
                fn(ctx, tid, width);
            pthread_mutex_lock(&pool_mu);
        }
        if (--pool_pending == 0)
            pthread_cond_signal(&pool_done);
    }
    return 0;
}

/* Run fn over `width` logical threads; returns the width actually
 * used (narrowed when thread creation fails -- never an error). */
static int64_t pool_run(job_fn fn, void *ctx, int64_t width)
{
    if (width > KERNEL_MAX_THREADS)
        width = KERNEL_MAX_THREADS;
    if (width <= 1) {
        fn(ctx, 0, 1);
        return 1;
    }
    pthread_once(&pool_once, pool_register_atfork);
    pthread_mutex_lock(&job_mu);
    pthread_mutex_lock(&pool_mu);
    while (pool_size < width - 1) {
        pthread_t th;
        if (pthread_create(&th, NULL, pool_worker,
                           (void *)(intptr_t)(pool_size + 1)) != 0)
            break;
        pthread_detach(th);
        pool_size++;
    }
    if (width > pool_size + 1)
        width = pool_size + 1;
    if (width <= 1) {
        pthread_mutex_unlock(&pool_mu);
        pthread_mutex_unlock(&job_mu);
        fn(ctx, 0, 1);
        return 1;
    }
    pool_fn = fn;
    pool_ctx = ctx;
    pool_width = width;
    pool_pending = pool_size;
    pool_seq++;
    pthread_cond_broadcast(&pool_go);
    pthread_mutex_unlock(&pool_mu);
    fn(ctx, 0, width);
    pthread_mutex_lock(&pool_mu);
    while (pool_pending)
        pthread_cond_wait(&pool_done, &pool_mu);
    pthread_mutex_unlock(&pool_mu);
    pthread_mutex_unlock(&job_mu);
    return width;
}

/* Static trial-aligned split of a (trial, ...)-sorted array: thread
 * `tid` of `width` owns [span(tid), span(tid+1)).  Pure function of
 * (tr, len, tid, width): every participant computes the same bounds,
 * and a span never starts mid-trial, so per-trial state is written by
 * exactly one thread. */
static int64_t trial_span(const int64_t *tr, int64_t len,
                          int64_t tid, int64_t width)
{
    int64_t lo;
    if (tid >= width)
        return len;
    lo = tid * len / width;
    while (lo > 0 && lo < len && tr[lo] == tr[lo - 1])
        lo++;
    return lo;
}

/* ---------------------------------------------------------------------
 * Slot resolve.
 *
 * Pairs (tx_tr[i], tx_nd[i]) are sorted by (trial, node) and unique.
 * ones/twos/txw are (B, words) caller-owned scratch; the rows of the
 * trials active in THIS call are zeroed here before use, so stale rows
 * of other trials are never read.  Loss kinds: 0 none, 1 Bernoulli
 * (survive iff (sm64(key ^ node) >> 11) >= threshold), 2 whole-slot
 * blackout where slot_survive[b] == 0.  Extraction order is (trial,
 * node) ascending: pairs group trials in ascending order, words ascend
 * within a row, and bits are pulled lowest-first.
 *
 * Threaded runs split the pair array at trial boundaries; a span
 * covering pairs [lo, hi) writes its sparse outputs at offset
 * lo * max_degree (every rx/collision is a neighbour of some
 * transmitter, so a span emits at most (hi - lo) * max_degree entries
 * per stream -- the offsets are disjoint by construction).  The caller
 * thread then compacts the spans in ascending order, which *is* the
 * serial emission order because spans are trial-ascending.
 * ------------------------------------------------------------------- */
typedef struct {
    int64_t n, words, max_degree;
    const int64_t *indptr, *indices;
    const uint64_t *nbr_words;
    const int64_t *tx_tr, *tx_nd;
    int64_t npairs;
    const uint64_t *alive_words;
    int loss_kind;
    const uint64_t *loss_keys;
    uint64_t loss_threshold;
    const uint8_t *slot_survive;
    int need_senders, need_coll_pairs;
    uint64_t *ones, *twos, *txw;
    int64_t *rx_tr, *rx_nd, *rx_sv, *rx_ep;
    int64_t *coll_tr, *coll_nd, *coll_counts;
    int64_t span_rx[KERNEL_MAX_THREADS];
    int64_t span_coll[KERNEL_MAX_THREADS];
} resolve_ctx;

static void resolve_span(resolve_ctx *c, int64_t lo, int64_t hi,
                         int64_t base, int64_t *rx_out, int64_t *coll_out)
{
    int64_t words = c->words;
    size_t row_bytes = (size_t)words * sizeof(uint64_t);
    int64_t *rx_tr = c->rx_tr + base;
    int64_t *rx_nd = c->rx_nd + base;
    int64_t *rx_sv = c->rx_sv ? c->rx_sv + base : 0;
    int64_t *rx_ep = c->rx_ep ? c->rx_ep + base : 0;
    int64_t *coll_tr = c->coll_tr ? c->coll_tr + base : 0;
    int64_t *coll_nd = c->coll_nd ? c->coll_nd + base : 0;
    int64_t n_rx = 0, n_coll = 0;
    int64_t i;

    for (i = lo; i < hi; i++) {
        int64_t b = c->tx_tr[i];
        uint64_t *o = c->ones + b * words;
        uint64_t *t2 = c->twos + b * words;
        uint64_t *tx = c->txw + b * words;
        if (i == lo || c->tx_tr[i - 1] != b) {
            memset(o, 0, row_bytes);
            memset(t2, 0, row_bytes);
            memset(tx, 0, row_bytes);
        }
        accum_words(o, t2, c->nbr_words + c->tx_nd[i] * words, words);
        tx[c->tx_nd[i] >> 6] |= 1ULL << (c->tx_nd[i] & 63);
    }

    for (i = lo; i < hi; i++) {
        int64_t b = c->tx_tr[i];
        const uint64_t *o, *t2, *tx, *alive;
        uint64_t key;
        int blackout;
        int64_t w;
        if (i > lo && c->tx_tr[i - 1] == b)
            continue;                       /* one pass per active trial */
        o = c->ones + b * words;
        t2 = c->twos + b * words;
        tx = c->txw + b * words;
        alive = c->alive_words ? c->alive_words + b * words : 0;
        key = c->loss_keys ? c->loss_keys[b] : 0;
        blackout = (c->loss_kind == 2 && !c->slot_survive[b]);
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
                } else if (c->loss_kind == 1 && c->loss_threshold) {
                    m = rx;
                    while (m) {
                        int j = CTZ64(m);
                        m &= m - 1;
                        uint64_t node = (uint64_t)(w << 6) + j;
                        if ((sm64(key ^ node) >> 11) < c->loss_threshold)
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
                if (c->need_senders) {
                    int64_t sv = -1, ep = -1;
                    int64_t e;
                    for (e = c->indptr[node];
                         e < c->indptr[node + 1]; e++) {
                        int64_t u = c->indices[e];
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
            }
            if (c->need_coll_pairs) {
                m = cl;
                while (m) {
                    int j = CTZ64(m);
                    m &= m - 1;
                    coll_tr[n_coll] = b;
                    coll_nd[n_coll] = (w << 6) + j;
                    n_coll++;
                }
            } else {
                c->coll_counts[b] += POPCNT64(cl);
            }
        }
    }
    *rx_out = n_rx;
    *coll_out = n_coll;
}

static void resolve_job(void *arg, int64_t tid, int64_t width)
{
    resolve_ctx *c = (resolve_ctx *)arg;
    int64_t lo = trial_span(c->tx_tr, c->npairs, tid, width);
    int64_t hi = trial_span(c->tx_tr, c->npairs, tid + 1, width);
    c->span_rx[tid] = 0;
    c->span_coll[tid] = 0;
    if (lo < hi)
        resolve_span(c, lo, hi, lo * c->max_degree,
                     &c->span_rx[tid], &c->span_coll[tid]);
}

void resolve_slot(
    int64_t nthreads,
    int64_t n, int64_t words, int64_t max_degree,
    const int64_t *indptr, const int64_t *indices,
    const uint64_t *nbr_words,
    const int64_t *tx_tr, const int64_t *tx_nd, int64_t npairs,
    const uint64_t *alive_words,
    int loss_kind, const uint64_t *loss_keys, uint64_t loss_threshold,
    const uint8_t *slot_survive,
    int need_senders, int need_coll_pairs,
    uint64_t *ones, uint64_t *twos, uint64_t *txw,
    int64_t *rx_tr, int64_t *rx_nd, int64_t *rx_sv, int64_t *rx_ep,
    int64_t *coll_tr, int64_t *coll_nd, int64_t *coll_counts,
    int64_t *out_counts)
{
    resolve_ctx c;
    int64_t used, t, n_rx = 0, n_coll = 0;
    c.n = n; c.words = words; c.max_degree = max_degree;
    c.indptr = indptr; c.indices = indices; c.nbr_words = nbr_words;
    c.tx_tr = tx_tr; c.tx_nd = tx_nd; c.npairs = npairs;
    c.alive_words = alive_words;
    c.loss_kind = loss_kind; c.loss_keys = loss_keys;
    c.loss_threshold = loss_threshold; c.slot_survive = slot_survive;
    c.need_senders = need_senders; c.need_coll_pairs = need_coll_pairs;
    c.ones = ones; c.twos = twos; c.txw = txw;
    c.rx_tr = rx_tr; c.rx_nd = rx_nd; c.rx_sv = rx_sv; c.rx_ep = rx_ep;
    c.coll_tr = coll_tr; c.coll_nd = coll_nd;
    c.coll_counts = coll_counts;

    used = pool_run(resolve_job, &c, nthreads);
    /* Compact the per-span runs in span order: dest <= src always
     * (earlier spans emit at most their offset), so memmove suffices
     * and the result is the serial emission order. */
    for (t = 0; t < used; t++) {
        int64_t lo = trial_span(tx_tr, npairs, t, used);
        int64_t base = lo * max_degree;
        int64_t cr = c.span_rx[t], cc = c.span_coll[t];
        if (cr && n_rx != base) {
            memmove(rx_tr + n_rx, rx_tr + base, cr * sizeof(int64_t));
            memmove(rx_nd + n_rx, rx_nd + base, cr * sizeof(int64_t));
            if (need_senders) {
                memmove(rx_sv + n_rx, rx_sv + base, cr * sizeof(int64_t));
                if (rx_ep)
                    memmove(rx_ep + n_rx, rx_ep + base,
                            cr * sizeof(int64_t));
            }
        }
        if (cc && n_coll != base) {
            memmove(coll_tr + n_coll, coll_tr + base,
                    cc * sizeof(int64_t));
            memmove(coll_nd + n_coll, coll_nd + base,
                    cc * sizeof(int64_t));
        }
        n_rx += cr;
        n_coll += cc;
    }
    out_counts[0] = n_rx;
    out_counts[1] = n_coll;
}

/* ---------------------------------------------------------------------
 * Recovery post-slot: per clean decode (trial rt[i], receiver rn[i])
 * bump the heard counter and set both known-edge bits -- the overhear
 * (receiver -> sender, CSR position epos[i]) and the ACK (sender ->
 * receiver, its precomputed reverse position).  known is (B, words_e)
 * uint64 over CSR edge positions: bit e & 63 of word e >> 6.
 *
 * Decodes arrive (trial, node)-sorted, so the trial-aligned split
 * gives every thread exclusive ownership of its trials' known/heard
 * rows -- pure per-row accumulation, no shared writes, and the final
 * state is independent of the split (hence of the thread count).
 * ------------------------------------------------------------------- */
typedef struct {
    int64_t nrx;
    const int64_t *rt, *rn, *epos, *rev_edge;
    int64_t n, words_e;
    uint64_t *known;
    int64_t *heard_total;
} post_ctx;

static void post_span(const post_ctx *c, int64_t lo, int64_t hi)
{
    int64_t i;
    for (i = lo; i < hi; i++) {
        int64_t b = c->rt[i];
        int64_t e = c->epos[i];
        int64_t r = c->rev_edge[e];
        uint64_t *row = c->known + b * c->words_e;
        c->heard_total[b * c->n + c->rn[i]]++;
        row[e >> 6] |= 1ULL << (e & 63);    /* overhear */
        row[r >> 6] |= 1ULL << (r & 63);    /* ACK */
    }
}

static void post_job(void *arg, int64_t tid, int64_t width)
{
    post_ctx *c = (post_ctx *)arg;
    int64_t lo = trial_span(c->rt, c->nrx, tid, width);
    int64_t hi = trial_span(c->rt, c->nrx, tid + 1, width);
    if (lo < hi)
        post_span(c, lo, hi);
}

void recovery_post_slot(
    int64_t nthreads,
    int64_t nrx, const int64_t *rt, const int64_t *rn,
    const int64_t *epos, const int64_t *rev_edge,
    int64_t n, int64_t words_e,
    uint64_t *known, int64_t *heard_total)
{
    post_ctx c;
    c.nrx = nrx; c.rt = rt; c.rn = rn;
    c.epos = epos; c.rev_edge = rev_edge;
    c.n = n; c.words_e = words_e;
    c.known = known; c.heard_total = heard_total;
    pool_run(post_job, &c, nthreads);
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
 * buckets), out_counts = {n_fire, n_res, max rescheduled slot}.
 *
 * Due pairs are unique, so any contiguous split gives disjoint state
 * writes; a span over [lo, hi) emits at most (hi - lo) entries per
 * output stream and writes them at offset lo, and span-order
 * compaction reproduces the serial emission order.  max_slot is a max
 * over per-span maxima -- order-free.
 * ------------------------------------------------------------------- */
typedef struct {
    int64_t t, k;
    const int64_t *bt, *vt;
    int64_t n, words_e;
    const int64_t *indptr;
    const uint64_t *known;
    int64_t *chk_slot, *chk_base, *retries_used;
    const int64_t *heard_total;
    int64_t timeout, max_retries, backoff, suppression_k;
    int64_t *fire_b, *fire_v;
    int64_t *res_b, *res_v, *res_slot;
    int64_t span_fire[KERNEL_MAX_THREADS];
    int64_t span_res[KERNEL_MAX_THREADS];
    int64_t span_max[KERNEL_MAX_THREADS];
} checks_ctx;

static void checks_job(void *arg, int64_t tid, int64_t width)
{
    checks_ctx *c = (checks_ctx *)arg;
    int64_t lo = tid * c->k / width;
    int64_t hi = (tid + 1) * c->k / width;
    c->span_fire[tid] = 0;
    c->span_res[tid] = 0;
    c->span_max[tid] = 0;
    if (lo < hi) {
        int64_t *fire_b = c->fire_b + lo, *fire_v = c->fire_v + lo;
        int64_t *res_b = c->res_b + lo, *res_v = c->res_v + lo;
        int64_t *res_slot = c->res_slot + lo;
        int64_t n_fire = 0, n_res = 0, max_slot = 0;
        int64_t i;
        for (i = lo; i < hi; i++) {
            int64_t b = c->bt[i], v = c->vt[i];
            const uint64_t *row = c->known + b * c->words_e;
            int64_t s = c->indptr[v], e = c->indptr[v + 1];
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
                c->chk_slot[b * c->n + v] = 0;
                continue;
            }
            heard = c->heard_total[b * c->n + v];
            if (c->suppression_k <= 0
                || heard - c->chk_base[b * c->n + v]
                   < c->suppression_k) {
                fire_b[n_fire] = b;
                fire_v[n_fire] = v;
                n_fire++;
            }
            used = c->retries_used[b * c->n + v] + 1;
            c->retries_used[b * c->n + v] = used;
            c->chk_base[b * c->n + v] = heard;
            if (used < c->max_retries) {
                int64_t step = c->timeout, j, nxt;
                for (j = 0; j < used; j++)
                    step *= c->backoff;
                nxt = c->t + step;
                c->chk_slot[b * c->n + v] = nxt;
                res_b[n_res] = b;
                res_v[n_res] = v;
                res_slot[n_res] = nxt;
                n_res++;
                if (nxt > max_slot)
                    max_slot = nxt;
            } else {
                c->chk_slot[b * c->n + v] = 0;
            }
        }
        c->span_fire[tid] = n_fire;
        c->span_res[tid] = n_res;
        c->span_max[tid] = max_slot;
    }
}

void recovery_checks(
    int64_t nthreads,
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
    checks_ctx c;
    int64_t used, i, n_fire = 0, n_res = 0, max_slot = 0;
    c.t = t; c.k = k; c.bt = bt; c.vt = vt;
    c.n = n; c.words_e = words_e; c.indptr = indptr; c.known = known;
    c.chk_slot = chk_slot; c.chk_base = chk_base;
    c.retries_used = retries_used; c.heard_total = heard_total;
    c.timeout = timeout; c.max_retries = max_retries;
    c.backoff = backoff; c.suppression_k = suppression_k;
    c.fire_b = fire_b; c.fire_v = fire_v;
    c.res_b = res_b; c.res_v = res_v; c.res_slot = res_slot;

    used = pool_run(checks_job, &c, nthreads);
    for (i = 0; i < used; i++) {
        int64_t lo = i * k / used;
        int64_t cf = c.span_fire[i], cr = c.span_res[i];
        if (cf && n_fire != lo) {
            memmove(fire_b + n_fire, fire_b + lo, cf * sizeof(int64_t));
            memmove(fire_v + n_fire, fire_v + lo, cf * sizeof(int64_t));
        }
        if (cr && n_res != lo) {
            memmove(res_b + n_res, res_b + lo, cr * sizeof(int64_t));
            memmove(res_v + n_res, res_v + lo, cr * sizeof(int64_t));
            memmove(res_slot + n_res, res_slot + lo,
                    cr * sizeof(int64_t));
        }
        n_fire += cf;
        n_res += cr;
        if (c.span_max[i] > max_slot)
            max_slot = c.span_max[i];
    }
    out_counts[0] = n_fire;
    out_counts[1] = n_res;
    out_counts[2] = max_slot;
}
"""

_state: Optional[Tuple[Optional[object], Optional[str]]] = None


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def _build_flags() -> Tuple[str, list, list]:
    """(mode tag, compile args, link args) for the requested build.

    ``REPRO_NATIVE_DEBUG=1`` selects the ThreadSanitizer build; the tag
    feeds the module-name digest so debug and release extensions keep
    separate caches and never shadow each other.
    """
    if os.environ.get("REPRO_NATIVE_DEBUG"):
        return ("debug-tsan",
                ["-O1", "-g", "-fsanitize=thread", "-pthread"],
                ["-fsanitize=thread", "-pthread"])
    return ("release", ["-O3", "-pthread"], ["-pthread"])


def _build() -> object:
    import cffi

    mode, compile_args, link_args = _build_flags()
    digest = hashlib.sha1(
        (_CDEF + _SOURCE + mode).encode()).hexdigest()[:12]
    modname = f"_repro_native_{digest}"
    build_dir = _repo_root() / ".native_build"
    build_dir.mkdir(exist_ok=True)
    existing = sorted(build_dir.glob(f"{modname}*.so"))
    if not existing:
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(modname, _SOURCE,
                       extra_compile_args=compile_args,
                       extra_link_args=link_args)
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
    """Kernel thread count used when the caller passes ``threads=None``.

    ``REPRO_NATIVE_THREADS`` (clamped to ``[1, MAX_NATIVE_THREADS]``)
    overrides; otherwise the scheduler affinity mask size — the honest
    CPU budget under cgroup/taskset pinning — with ``os.cpu_count`` as
    the non-POSIX fallback.  Read on every call so tests and long-lived
    processes can retune it.
    """
    raw = os.environ.get("REPRO_NATIVE_THREADS")
    if raw:
        try:
            return max(1, min(int(raw), MAX_NATIVE_THREADS))
        except ValueError:
            pass
    try:
        cpus = len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_NATIVE_THREADS))


def resolve_native_threads(threads: Optional[int]) -> int:
    """The kernel pool width a ``threads=`` request actually gets."""
    if threads is None:
        return default_native_threads()
    return max(1, min(int(threads), MAX_NATIVE_THREADS))
