"""Slot-resolve backend dispatch: the ``engine=`` tier above "batch".

:func:`~repro.sim.engine.run_reactive_batch`,
:func:`~repro.sim.engine.replay_batch` and
:func:`~repro.sim.engine.run_reactive_multi` accept ``engine`` in

* ``"batch"`` — the dense CSR kernel
  (:meth:`~repro.radio.channel.SlotKernel.resolve_batch`), always
  available, the default of the first two;
* ``"compiled"`` — the cffi/C word-space kernel
  (:mod:`repro.sim.native`), optional dependency;
* ``"auto"`` — compiled if it builds, else batch; the default of
  ``run_reactive_multi`` (the symmetry path's class waves).

The compiled backend runs a whole batched run in one kernel call: a
``reactive_t`` scheduler (:meth:`NativeBackend.schedule`) takes the
engine's plan — relay rows, forced pairs by slot (a replay's schedule
among them), each trial's cut-off — and :meth:`NativeBackend.run`
hands it to the kernel's ``run_wave``, which pops every transmitting
slot as sorted unique (trial, node) pairs and resolves it into
**sparse** outcomes — received pairs with sender attribution plus
either collision pairs (trace mode) or per-trial collision counts
(summary mode) — in the exact (trial, node)-sorted order of the dense
path, bit for bit (Bernoulli and burst draws use the same counter RNG
stream via the integer threshold of
:func:`~repro.radio.impairments.bernoulli_threshold`).  Each slot is
committed into the run arrays bound by :meth:`NativeBackend.bind`
(``first_rx``, and the counts in summary mode), its newly informed
relays go back into the calendar, and in trace mode its events are
appended to event logs the backend owns and grows.  The engine runs no
per-slot Python on this tier: a summary run is one C call, a trace run
one call plus one per log growth.

Fallback rules (silent, by design — callers ask for a *tier*, not a
hard requirement): losses other than ``None`` /
:class:`~repro.radio.impairments.BernoulliBatchLoss` /
:class:`~repro.radio.impairments.BurstBatchLoss` cannot be applied in
word space, node counts beyond
:data:`~repro.radio.bitpack.MAX_PACKED_NODES` would blow up the packed
neighbour table, big-endian hosts break the packing layout, and
a missing native build has no kernel to run — each of these degrades to
the dense kernel.  :func:`resolve_engine` reports the tier that would
actually run — and, with ``explain=True``, which rule decided it — for
benchmarks and CLI output.

The compiled backend also owns the matching **recovery state**
(:meth:`NativeBackend.make_recovery`, :class:`NativeRecoveryState`):
once it is made, every slot of the wave also runs the recovery
post-slot accounting and the recovery calendar's due checks and
elections, inside the same kernel call.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .. import faults
from ..radio import bitpack
from ..radio.channel import SlotKernel
from ..radio.impairments import (BatchLoss, BernoulliBatchLoss,
                                 BurstBatchLoss, bernoulli_threshold)
from ..topology.base import Topology
from . import native
from .recovery import RecoveryPolicy

__all__ = ["BREAKER", "BackendFault", "CircuitBreaker", "ENGINES",
           "NativeRecoveryState", "demote_tier", "make_backend",
           "resolve_engine"]

#: Engine names accepted by the batched entry points.
ENGINES = ("batch", "compiled", "auto")

#: Loss classes the compiled tier can draw directly (exact types: a
#: subclass may override semantics the kernel does not replicate).
_WORD_LOSSES = (BernoulliBatchLoss, BurstBatchLoss)


def check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")


class BackendFault(RuntimeError):
    """The compiled backend failed mid-run.

    Raised by the engine loop when a backend call (or backend
    construction inside a run) throws; carries the tier that failed so
    the demotion wrapper can retry on the dense tier.  Tier bit-identity
    makes the retried run's answer equal to what the failed tier would
    have produced.
    """

    def __init__(self, tier: str, cause: BaseException):
        self.tier = tier
        self.cause = cause
        super().__init__(f"{tier} backend fault: "
                         f"{type(cause).__name__}: {cause}")


class CircuitBreaker:
    """Consecutive-failure breaker over the compiled tier.

    One failure demotes only the run that saw it; *repeated* failures
    (``threshold`` in a row, per tier) open the breaker so subsequent
    runs skip the flaky tier for ``cooldown_s`` seconds without paying
    a doomed construction or a mid-run retry.  After the cooldown the
    tier is probed again (half-open: one more failure re-opens it
    immediately).  :func:`resolve_engine` consults the breaker, so the
    demotion reason lands in the CLI engine-decision line.
    """

    TIERS = ("compiled",)

    def __init__(self, threshold: int = 3, cooldown_s: float = 30.0,
                 clock=time.monotonic):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures: Dict[str, int] = {}
        self._open_until: Dict[str, float] = {}
        self._reason: Dict[str, str] = {}

    def record_failure(self, tier: str, reason: str = "") -> None:
        with self._lock:
            count = self._failures.get(tier, 0) + 1
            self._failures[tier] = count
            if reason:
                self._reason[tier] = reason
            if count >= self.threshold:
                self._open_until[tier] = self._clock() + self.cooldown_s

    def record_success(self, tier: str) -> None:
        with self._lock:
            self._failures[tier] = 0
            self._open_until.pop(tier, None)

    def force_open(self, tier: str, reason: str = "forced open") -> None:
        """Open the breaker by hand (ops escape hatch / tests)."""
        with self._lock:
            self._failures[tier] = self.threshold
            self._reason[tier] = reason
            self._open_until[tier] = self._clock() + self.cooldown_s

    def allowed(self, tier: str) -> bool:
        with self._lock:
            until = self._open_until.get(tier)
            if until is None:
                return True
            if self._clock() >= until:
                # Half-open: allow one probe; a failure re-opens at once.
                self._open_until.pop(tier, None)
                self._failures[tier] = self.threshold - 1
                return True
            return False

    def reason(self, tier: str) -> str:
        with self._lock:
            return self._reason.get(tier, "repeated failures")

    def state(self) -> Dict[str, Dict[str, object]]:
        """Wire-friendly snapshot, one entry per breaker-guarded tier."""
        with self._lock:
            now = self._clock()
            out: Dict[str, Dict[str, object]] = {}
            for tier in self.TIERS:
                until = self._open_until.get(tier)
                is_open = until is not None and now < until
                out[tier] = {
                    "open": is_open,
                    "failures": self._failures.get(tier, 0),
                    "reason": self._reason.get(tier, "") if is_open else "",
                }
            return out

    def reset(self) -> None:
        with self._lock:
            self._failures.clear()
            self._open_until.clear()
            self._reason.clear()


#: Process-global breaker guarding the compiled tier; surfaced in
#: the ``health`` wire response and the CLI engine-decision line.
BREAKER = CircuitBreaker()

#: Demotion ladder.  ``batch`` has no entry: the dense kernel is the
#: floor and has no backend object to fault.
_DEMOTION = {"compiled": "batch"}


def demote_tier(tier: str, reason: str = "") -> str:
    """Record *tier*'s failure in the breaker; return the tier below."""
    BREAKER.record_failure(tier, reason)
    return _DEMOTION[tier]


def _packable(num_nodes: int,
              loss: Optional[BatchLoss]) -> Tuple[bool, str]:
    """(compiled tier can serve this request?, reason)."""
    if not bitpack.packing_supported():
        return False, "big-endian host: word packing unsupported"
    if num_nodes <= 0:
        return False, "empty topology"
    if num_nodes > bitpack.MAX_PACKED_NODES:
        return False, (f"n={num_nodes} exceeds packed cutoff "
                       f"{bitpack.MAX_PACKED_NODES}")
    if not (loss is None or type(loss) in _WORD_LOSSES):
        return False, (f"loss type {type(loss).__name__} has no "
                       f"word-space draw")
    return True, "word-space tier available"


def resolve_engine(engine: str, num_nodes: int,
                   loss: Optional[BatchLoss] = None,
                   explain: bool = False
                   ) -> Union[str, Tuple[str, str]]:
    """The tier that would actually run for this request.

    Applies the fallback rules without building anything heavier than
    the native-availability probe.  With ``explain=True`` returns
    ``(tier, reason)`` — the reason names which fallback rule (if any)
    decided the tier, for CLI output and benchmarks.
    """
    check_engine(engine)

    def result(tier: str, reason: str):
        return (tier, reason) if explain else tier

    if engine == "batch":
        return result("batch", "batch tier requested")
    ok, why = _packable(num_nodes, loss)
    if not ok:
        return result("batch", why)
    # "compiled" or "auto": take the native tier when it builds and the
    # breaker lets it; the dense floor otherwise.
    if not BREAKER.allowed("compiled"):
        return result("batch", f"circuit breaker open: compiled "
                               f"({BREAKER.reason('compiled')})")
    if not native.native_available():
        return result("batch",
                      f"native unavailable ({native.native_reason()})")
    return result("compiled", "native kernel available")


class _LossSpec:
    """Word-space view of the slot loss: kind 0 none / 1 Bernoulli /
    2 whole-slot blackout bursts, each drawn in C against the integer
    threshold of :func:`~repro.radio.impairments.bernoulli_threshold`."""

    def __init__(self, loss: Optional[BatchLoss]) -> None:
        self.kind = 0
        self.seeds = np.zeros(1, dtype=np.uint64)
        self.threshold = 0
        self.length = 1
        if type(loss) in _WORD_LOSSES:
            self.threshold = bernoulli_threshold(loss.p)
            if self.threshold:
                self.kind = 1 if type(loss) is BernoulliBatchLoss else 2
                self.seeds = np.ascontiguousarray(loss.seeds,
                                                  dtype=np.uint64)
                self.length = getattr(loss, "length", 1)


class NativeRecoveryState:
    """B-trial recovery state for the compiled tier, run by the kernel
    *module* through one ``recovery_t`` struct.

    Bit-identical to :class:`~repro.sim.recovery.BatchRecoveryState`:
    same per-(trial, node) scalars, same update order, same horizon
    growth.  Only two things differ:

    * **edge-keyed word bitset** — the known-edge state is ``(B,
      ceil(nnz/64))`` uint64 words, bit ``e & 63`` of word ``e >> 6``
      for CSR data position *e*.  A decode's ACK/overhear pair is two
      bits: the (receiver -> sender) position falls out of the resolve's
      sender attribution, the (sender -> receiver) one is a lookup in
      the topology's reverse-edge table
      (:meth:`~repro.radio.channel.SlotKernel.rev_edge`).  A node's
      coverage test is a mask compare over the words its CSR row spans;
    * **a C due calendar** — checks and elections are due in a
      power-of-two ring of slot heads over intrusive per-pair lists.
      The kernel's scheduler walks slot *t*'s lists and adds the
      retransmitting pairs to the slot, so a slot costs its *due* count,
      not ``B * n``.  The ring spans the policy's farthest schedule
      distance, capped by *slot_bound* (the last slot the run can
      reach): work past the bound can never fire, so it only raises the
      horizon.

    The struct points at arrays carved from one block (kept alive here)
    and at the topology's shared tables; the kernel keeps no state of
    its own.  Built by :meth:`NativeBackend.make_recovery`.
    """

    def __init__(self, topology: Topology, policy: RecoveryPolicy,
                 relay_like: np.ndarray, trials: int, module,
                 slot_bound: int) -> None:
        tables = native.topology_tables(topology.slot_kernel)
        n = topology.num_nodes
        self.policy = policy
        self.n = n
        self.trials = trials
        self.relay_like = np.asarray(relay_like, dtype=np.uint8)
        self.rev_edge = tables.rev_edge
        # Calendar ring: one head per slot of the farthest distance any
        # check or election is scheduled ahead, within the slot bound.
        maxdeg = topology.slot_kernel.max_degree
        far = max(policy.timeout * policy.backoff
                  ** min(max(policy.max_retries - 1, 0), 64),
                  policy.election_delay + maxdeg if policy.election else 0)
        ring = 1 << max(min(far, slot_bound), 0).bit_length()
        # Every array carved from one int64 block.  Only the heard
        # counters, the known bits and the ring heads need filling: the
        # kernel writes a check's or an election's scalars when it
        # schedules it, before it reads them, and a link when it pushes
        # it.  has_tx is a flag per pair, the block's last bytes.
        grid = trials * n
        words_e = tables.words_e
        sizes = dict(heard_total=grid, known=trials * words_e,
                     heads=2 * ring, chk_base=grid, retries_used=grid,
                     elec_base=grid, elec_pos=grid, links=2 * grid,
                     has_tx=-(-grid // 8))
        block = np.empty(sum(sizes.values()), dtype=np.int64)
        view, at = {}, 0
        for name, size in sizes.items():
            view[name] = block[at:at + size]
            at += size
        view["heard_total"][:] = 0
        view["known"][:] = 0
        view["heads"][:] = -1
        view["has_tx"][:] = 0
        self._block = block
        self.known = view["known"].view(np.uint64).reshape(trials, words_e)
        self.has_tx = view["has_tx"].view(np.bool_)[:grid].reshape(trials, n)
        for name in ("heard_total", "chk_base", "retries_used", "elec_base",
                     "elec_pos"):
            setattr(self, name, view[name].reshape(trials, n))
        self._heads = view["heads"].reshape(2, ring)
        self._links = view["links"].reshape(2, grid)
        ffi = module.ffi

        def ptr(array, ctype="int64_t *"):
            return native.pointer(ffi, array, ctype)

        self._tables = tables  # the struct points into them
        # Policy scalars capped at one past the bound: exact wherever a
        # slot sum can still fire, and never overflowing int64.
        cap = max(slot_bound, 0) + 1
        c = self.c = ffi.new("recovery_t *")
        c.n, c.words_e = n, words_e
        c.indptr, c.indices = tables.indptr_p, tables.indices_p
        c.rev_edge = tables.rev_edge_p
        c.relay_like = ptr(self.relay_like, "uint8_t *")
        c.known = ptr(self.known, "uint64_t *")
        c.heard_total = ptr(self.heard_total)
        c.has_tx = ptr(self.has_tx, "uint8_t *")
        c.chk_base, c.retries_used = ptr(self.chk_base), ptr(self.retries_used)
        c.elec_base, c.elec_pos = ptr(self.elec_base), ptr(self.elec_pos)
        c.timeout = min(policy.timeout, cap)
        c.max_retries = min(policy.max_retries, cap)
        c.backoff = min(policy.backoff, cap)
        c.suppression_k = min(policy.suppression_k, cap)
        c.election = int(policy.election)
        c.election_delay = min(policy.election_delay, cap)
        c.slot_bound, c.ring_mask = slot_bound, ring - 1
        c.chk_head, c.elec_head = ptr(self._heads[0]), ptr(self._heads[1])
        c.chk_next, c.elec_next = ptr(self._links[0]), ptr(self._links[1])
        c.horizon = 0

    @property
    def horizon(self) -> int:
        """The latest slot any check or election has been scheduled."""
        return self.c.horizon


#: Rows each trace log starts with beyond one slot's worst case (B * n
#: rows): most waves then run in one kernel call.
_LOG_ROWS = 1 << 12


class NativeBackend:
    """cffi/C tier (``engine="compiled"``): a whole batched run in one
    kernel call.

    :meth:`bind` hands the backend the run's ``first_rx`` matrix (and,
    in summary mode, its count arrays), :meth:`make_recovery` adds the
    recovery state, :meth:`schedule` the plan, and :meth:`run` then runs
    the wave to its end in C, updating those arrays in place.
    """

    name = "compiled"

    def __init__(self, kernel: SlotKernel, batch: int,
                 loss: Optional[BatchLoss],
                 alive_masks: Optional[np.ndarray],
                 need_senders: bool, need_coll_pairs: bool) -> None:
        faults.check(faults.NATIVE_BUILD,
                     detail="native kernel build/dlopen failure")
        module = native.native_kernel()
        if module is None:  # pragma: no cover - guarded by make_backend
            raise RuntimeError(f"native tier unavailable: "
                               f"{native.native_reason()}")
        self._module = module
        self._ffi, self._lib = module.ffi, module.lib
        self._recovery: Optional[NativeRecoveryState] = None
        tables = native.topology_tables(kernel)
        self._n = n = kernel.num_nodes
        self._batch = batch
        self._trace = need_coll_pairs
        spec = _LossSpec(loss)
        # Every buffer the kernel reads or writes is kept here for the
        # run: the C pointers into them do not keep them alive.
        self._keep = [tables]
        w = self._w = self._ffi.new("wave_t *")
        w.n, w.batch, w.words = n, batch, tables.words
        w.indptr, w.indices = tables.indptr_p, tables.indices_p
        w.nbr_words, w.nbr_span = tables.nbr_words_p, tables.nbr_span_p
        if alive_masks is not None:
            w.alive = self._pin(bitpack.pack_bool_matrix(alive_masks),
                                "uint64_t *")
        w.loss_kind, w.burst_length = spec.kind, spec.length
        w.loss_seeds = self._pin(spec.seeds, "uint64_t *")
        w.loss_threshold = spec.threshold
        w.need_senders, w.trace = int(need_senders), int(need_coll_pairs)
        self._bound = False
        self._rs = self._ffi.NULL
        self._logs: List[np.ndarray] = []

    def _pin(self, array: np.ndarray, ctype: str = "int64_t *"):
        """A C pointer into *array*, which the backend keeps alive."""
        self._keep.append(array)
        return native.pointer(self._ffi, array, ctype)

    def bind(self, first_rx: np.ndarray,
             tx_count: Optional[np.ndarray] = None,
             rx_count: Optional[np.ndarray] = None,
             collisions: Optional[np.ndarray] = None) -> None:
        """Commit the run into these arrays, in place.

        *first_rx* is the ``(B, n)`` int64 first-reception matrix
        (``-1`` = not yet informed).  *tx_count*/*rx_count* (``(B,
        n)``) and *collisions* (``(B,)``) are the summary-mode counters;
        pass them exactly when the backend was built without collision
        pairs.  All must be C-contiguous int64: the kernel writes
        through pointers pinned here.
        """
        grid = (self._batch, self._n)
        # The kernel writes the counters whenever it is not tracing.
        if any((array is None) != self._trace
               for array in (tx_count, rx_count, collisions)):
            raise ValueError("the count arrays are bound exactly in "
                             "summary mode")
        w = self._w
        for name, array, shape in (("first_rx", first_rx, grid),
                                   ("tx_count", tx_count, grid),
                                   ("rx_count", rx_count, grid),
                                   ("collisions", collisions, grid[:1])):
            if array is None:
                continue
            if (array.dtype != np.int64 or array.shape != shape
                    or not array.flags.c_contiguous):
                raise ValueError(f"commit arrays must be C-contiguous "
                                 f"int64 of shape {shape}")
            setattr(w, name, self._pin(array))
        self._bound = True

    def make_recovery(self, topology: Topology, policy: RecoveryPolicy,
                      relay_like: np.ndarray, trials: int,
                      slot_bound: int) -> NativeRecoveryState:
        """The recovery state matching this tier, run by the kernel:
        every slot of the wave also runs its post-slot accounting and
        its due checks and elections.  *slot_bound* is the last slot the
        run can reach."""
        self._recovery = NativeRecoveryState(
            topology, policy, relay_like, trials, self._module, slot_bound)
        return self._recovery

    def schedule(self, relay: np.ndarray, delay: np.ndarray,
                 offsets: Dict[int, np.ndarray],
                 forced: Tuple[List[int], List[int], np.ndarray,
                               np.ndarray],
                 limit: np.ndarray, sources: Optional[np.ndarray],
                 checked: bool = True) -> None:
        """Build the ``reactive_t`` scheduler the kernel runs.

        Takes the engine's plan — ``(rows, n)`` *relay* flags and
        *delay*, ``offset -> (rows, n)`` repeat masks, with rows 1 for a
        shared plan and B otherwise — plus the *forced* pairs by slot
        (``(slots, ptr, trials, nodes)``, see
        :data:`~repro.sim.engine.ForcedPlan`), each
        trial's slot cut-off *limit* and its *sources*.  ``sources=None``
        starts no source (a replay); ``checked=False`` lets every forced
        pair transmit whether or not its node was informed (a pristine
        replay).  Also carves the run's scratch and, in trace mode, its
        event logs.  Call after :meth:`bind` and :meth:`make_recovery`.
        """
        if not self._bound:
            raise RuntimeError("NativeBackend.schedule before bind()")
        ffi, n, batch = self._ffi, self._n, self._batch
        rows = relay.shape[0]
        max_limit = int(limit.max())
        # Distances past the bound are capped one beyond it: such work
        # only raises the horizon, exactly as the uncapped value would.
        cap = max_limit + 1
        offs = sorted(offsets)
        far = 1 + int(delay.max(initial=0)) + max(offs, default=0)
        ring = 1 << min(far, max_limit).bit_length()
        f_slots, f_ptr, f_tr, f_nd = forced
        grid, words = batch * n, int(self._w.words)
        # With recovery the fired pairs pass through the slot's pairs.
        width = grid * (1 if self._recovery is None else 2)
        # Every int64 array the structs point at, carved from one block.
        # Besides the copied-in plan, only the calendar heads need
        # filling: the kernel writes all other scratch before reading.
        sizes = dict(rep_offsets=len(offs), limit=batch, head=ring,
                     next=(len(offs) + 1) * grid,
                     forced_slot=len(f_slots), forced_ptr=len(f_ptr),
                     forced_tr=len(f_tr), forced_nd=len(f_nd),
                     drop_slot=len(f_nd), drop_tr=len(f_nd),
                     drop_nd=len(f_nd), sources=batch,
                     tx_tr=width, tx_nd=width, rx_tr=grid, rx_nd=grid,
                     rx_sv=grid, new_tr=grid, new_nd=grid, coll_tr=grid,
                     coll_nd=grid, ones=batch * words, twos=batch * words,
                     txw=batch * words)
        block = np.empty(sum(sizes.values()), dtype=np.int64)
        base = self._pin(block)
        arrays, ptrs, at = {}, {}, 0
        for name, size in sizes.items():
            arrays[name], ptrs[name] = block[at:at + size], base + at
            at += size
        for name, values in (("rep_offsets", [min(o, cap) for o in offs]),
                             ("limit", limit), ("head", -1),
                             ("forced_slot", f_slots),
                             ("forced_ptr", f_ptr), ("forced_tr", f_tr),
                             ("forced_nd", f_nd)):
            arrays[name][:] = values
        self._scratch = arrays
        w = self._w
        for name in ("tx_tr", "tx_nd", "rx_tr", "rx_nd", "rx_sv", "new_tr",
                     "new_nd", "coll_tr", "coll_nd"):
            setattr(w, name, ptrs[name])
        for name in ("ones", "twos", "txw"):
            setattr(w, name, ffi.cast("uint64_t *", ptrs[name]))
        # ffi.new zero-fills: slot, horizon, forced_cursor and n_dropped
        # start at 0.
        rs = self._rs = ffi.new("reactive_t *")
        for name in ("rep_offsets", "limit", "head", "next", "forced_slot",
                     "forced_ptr", "forced_tr", "forced_nd", "drop_slot",
                     "drop_tr", "drop_nd"):
            setattr(rs, name, ptrs[name])
        rs.relay = self._pin(np.ascontiguousarray(relay).view(np.uint8),
                             "uint8_t *")
        rs.delay = self._pin(np.ascontiguousarray(
            np.minimum(delay, cap) if far > cap else delay, dtype=np.int64))
        if offs:
            rs.rep_masks = self._pin(np.ascontiguousarray(
                np.stack([offsets[o] for o in offs]), dtype=np.uint8),
                "uint8_t *")
        rs.touched = self._pin(np.zeros(batch, dtype=np.uint8), "uint8_t *")
        rs.n, rs.batch, rs.words = n, batch, words
        rs.plan_stride = 0 if rows == 1 else n
        rs.n_offsets, rs.rep_plane = len(offs), rows * n
        rs.max_limit, rs.ring_mask = max_limit, ring - 1
        rs.n_forced_slots, rs.check_forced = len(f_slots), int(checked)
        rs.first_rx, rs.alive, rs.txw = w.first_rx, w.alive, w.txw
        if self._trace:
            self._logs = [np.empty((0, cols), dtype=np.int64)
                          for cols in (3, 4, 3)]
            self._grow_logs(_LOG_ROWS)
        if sources is not None:
            arrays["sources"][:] = sources
            self._lib.reactive_start(rs, ptrs["sources"])

    def _grow_logs(self, spare: int = 0) -> None:
        """Give every trace log room for one more slot's worst case
        (``B * n`` rows) plus *spare* rows, at least doubling a log that
        has to move."""
        w, worst = self._w, self._batch * self._n
        for j, log in enumerate(self._logs):
            used = w.log_len[j]
            if len(log) - used >= worst + spare:
                continue
            grown = np.empty((max(2 * len(log), used + worst + spare),
                              log.shape[1]), dtype=np.int64)
            grown[:used] = log[:used]
            self._logs[j] = grown           # keeps the log alive
            w.log[j] = native.pointer(self._ffi, grown)
            w.log_cap[j] = len(grown)

    def run(self) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Run the scheduled wave to its end in the kernel.

        Every slot's Bernoulli or burst draws, commit, recovery
        accounting and relay scheduling happen in C.  In trace mode the
        kernel appends each slot's events to the backend's logs and
        returns early whenever a log could overflow on the next slot;
        the log grows and the wave resumes.  Returns the trace-mode
        ``(tx, rx, collision)`` logs — ``(slot, trial, node)`` rows, the
        decodes with their sender as a fourth column — in slot then
        (trial, node) order, or ``None`` in summary mode.  The fault
        seam is consulted once per kernel entry.
        """
        rec = self._ffi.NULL if self._recovery is None else self._recovery.c
        while True:
            faults.check(faults.BACKEND_RESOLVE, key=(self.name,),
                         detail="native wave")
            if not self._lib.run_wave(self._w, self._rs, rec):
                break
            self._grow_logs()
        if not self._trace:
            return None
        w = self._w
        return tuple(log[:w.log_len[j]] for j, log in enumerate(self._logs))

    def dropped_forced(self) -> Iterable[Tuple[int, int, int]]:
        """``(slot, trial, node)`` of each forced transmission the
        scheduler dropped, in slot then (trial, node) order."""
        k = self._rs.n_dropped
        return zip(*(self._scratch[name][:k].tolist()
                     for name in ("drop_slot", "drop_tr", "drop_nd")))


def make_backend(kernel: SlotKernel, batch: int, engine: str,
                 loss: Optional[BatchLoss],
                 alive_masks: Optional[np.ndarray],
                 need_senders: bool, need_coll_pairs: bool
                 ) -> Optional[NativeBackend]:
    """Build the backend for *engine*, or ``None`` for the dense tier.

    ``None`` (i.e. "use :meth:`~repro.radio.channel.SlotKernel.
    resolve_batch`") is returned both for ``engine="batch"`` and for
    any request the compiled tier cannot serve — see the module
    docstring for the fallback rules.
    """
    if resolve_engine(engine, kernel.num_nodes, loss) == "batch":
        return None
    try:
        return NativeBackend(kernel, batch, loss, alive_masks,
                             need_senders, need_coll_pairs)
    except Exception as exc:
        # A tier that cannot even construct (dlopen/build failure,
        # injected or organic) demotes this run and feeds the breaker;
        # the run itself still happens, on the dense tier.
        demote_tier("compiled", f"{type(exc).__name__}: {exc}")
        return None
