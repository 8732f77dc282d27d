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

The compiled backend runs a whole batched run in its kernel: a
``reactive_t`` scheduler (:meth:`NativeBackend.schedule`) takes the
engine's plan — relay rows, forced pairs by slot (a replay's schedule
among them), each trial's cut-off — and :meth:`NativeBackend.next_slot`
pops the next transmitting slot as sorted unique (trial, node) pairs;
:meth:`NativeBackend.resolve_next` resolves them into **sparse**
outcomes — received pairs with sender attribution plus either collision
pairs (trace mode) or per-trial collision counts (summary mode) — in
the exact (trial, node)-sorted order of the dense path, bit for bit
(loss draws use the same counter RNG stream via the integer threshold
of :func:`~repro.radio.impairments.bernoulli_threshold`).  It also
commits the slot into the run arrays bound by :meth:`NativeBackend.bind`
(``first_rx``, and the counts in summary mode) and pushes the newly
informed relays back into the calendar, so the engine runs no numpy
commit on this tier.

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
(:meth:`NativeBackend.make_recovery`, see
:mod:`repro.sim.recovery_packed`): once it is made, every resolve runs
the recovery post-slot accounting and every :meth:`NativeBackend.
next_slot` the recovery calendar's due checks and elections, inside the
same two C calls.  A compiled slot — reactive or replayed, recovering or
not — is those two calls.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from .. import faults, profiling
from ..radio import bitpack
from ..radio.channel import SlotKernel
from ..radio.impairments import (BatchLoss, BernoulliBatchLoss,
                                 BurstBatchLoss, bernoulli_threshold)
from ..topology.base import Topology
from . import native
from .recovery import RecoveryPolicy
from .recovery_packed import NativeRecoveryState

__all__ = ["BREAKER", "BackendFault", "CircuitBreaker", "ENGINES",
           "demote_tier", "make_backend", "resolve_engine"]

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
    2 whole-slot blackout."""

    def __init__(self, loss: Optional[BatchLoss]) -> None:
        self.kind = 0
        self.seeds = np.zeros(1, dtype=np.uint64)
        self.threshold = 0
        self.burst: Optional[BurstBatchLoss] = None
        if type(loss) is BernoulliBatchLoss:
            threshold = bernoulli_threshold(loss.p)
            if threshold:
                self.kind = 1
                self.seeds = np.ascontiguousarray(loss.seeds,
                                                  dtype=np.uint64)
                self.threshold = threshold
        elif type(loss) is BurstBatchLoss:
            self.kind = 2
            self.burst = loss


class NativeBackend:
    """cffi/C tier (``engine="compiled"``): one fused word-space C
    pass per slot that resolves *and* commits it.

    :meth:`bind` hands the backend the run's ``first_rx`` matrix (and,
    in summary mode, its count arrays) once; a run then calls
    :meth:`schedule` once and alternates :meth:`next_slot` and
    :meth:`resolve_next`, the kernel choosing each slot's pairs and
    updating those arrays in place.
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
        nbr_words = kernel.neighbour_words()
        self._n = kernel.num_nodes
        self._words = nbr_words.shape[1]
        self._max_degree = max(kernel.max_degree, 1)
        self._batch = batch
        self._need_senders = need_senders
        self._need_coll_pairs = need_coll_pairs
        ffi = self._ffi
        keep = self._pin
        self._loss = _LossSpec(loss)
        self._seeds = keep(self._loss.seeds, "uint64_t *")
        self._indptr = keep(kernel.indptr, "int64_t *")
        self._indices = keep(kernel.indices, "int64_t *")
        self._nbr_words = keep(nbr_words, "uint64_t *")
        if alive_masks is None:
            self._alive = (None, ffi.NULL)
        else:
            self._alive = keep(bitpack.pack_bool_matrix(alive_masks),
                               "uint64_t *")
        rows, base = keep(np.zeros((3, batch, self._words),
                                   dtype=np.uint64), "uint64_t *")
        plane = batch * self._words
        self._ones, self._twos, self._txw = (
            (rows[i], base + i * plane) for i in range(3))
        self._out_counts = keep(np.zeros(3, dtype=np.int64), "int64_t *")
        self._first_rx = self._tx_count = self._rx_count = None
        self._collisions = (None, ffi.NULL)
        self._rs = ffi.NULL
        self._args: Optional[tuple] = None
        self._cap = 0
        self._grow(min(batch * self._n, 1 << 10) + 1)

    def _pin(self, array: np.ndarray, ctype: str = "int64_t *"):
        # from_buffer pins the array; keep both so neither the ndarray
        # nor the cdata is collected mid-run.
        ffi = self._ffi
        return array, ffi.cast(ctype, ffi.from_buffer(array))

    def bind(self, first_rx: np.ndarray,
             tx_count: Optional[np.ndarray] = None,
             rx_count: Optional[np.ndarray] = None,
             collisions: Optional[np.ndarray] = None) -> None:
        """Commit every later slot into these run arrays, in place.

        *first_rx* is the ``(B, n)`` int64 first-reception matrix
        (``-1`` = not yet informed).  *tx_count*/*rx_count* (``(B,
        n)``) and *collisions* (``(B,)``) are the summary-mode counters;
        pass them exactly when the backend was built without collision
        pairs.  All must be C-contiguous int64: the kernel writes
        through pointers pinned here, once per run.
        """
        def pinned(array, shape):
            if array is None:
                return None, self._ffi.NULL
            if (array.dtype != np.int64 or array.shape != shape
                    or not array.flags.c_contiguous):
                raise ValueError(f"commit arrays must be C-contiguous "
                                 f"int64 of shape {shape}")
            return self._pin(array)

        grid = (self._batch, self._n)
        if (collisions is None) != self._need_coll_pairs:
            raise ValueError("collision counts are bound exactly in "
                             "summary mode")
        self._first_rx = pinned(first_rx, grid)
        self._tx_count = pinned(tx_count, grid)
        self._rx_count = pinned(rx_count, grid)
        self._collisions = pinned(collisions, (self._batch,))
        self._args = None

    def _grow(self, cap: int) -> None:
        """Size the output scratch for *cap* entries, geometrically.
        No stream ever exceeds ``B * n`` entries: a (trial, node) pair
        decodes or collides at most once per slot."""
        if cap <= self._cap:
            return
        cap = min(max(cap, 2 * self._cap), self._batch * self._n + 1)
        block, base = self._pin(np.empty((7, cap), dtype=np.int64))
        (self._rx_tr, self._rx_nd, self._rx_sv, self._new_tr,
         self._new_nd, self._coll_tr, self._coll_nd) = (
            (block[i], base + i * cap) for i in range(7))
        self._cap = cap
        self._args = None

    def _kernel_args(self) -> tuple:
        """``resolve_slot``'s arguments after the per-slot ones: fixed
        for a run until :meth:`bind`, :meth:`_grow`,
        :meth:`make_recovery` or :meth:`schedule` repoints them."""
        spec, rec = self._loss, self._recovery
        self._args = (
            self._n, self._words,
            self._indptr[1], self._indices[1], self._nbr_words[1],
            self._alive[1], spec.kind, self._seeds[1], spec.threshold,
            int(self._need_senders), int(self._need_coll_pairs),
            self._ones[1], self._twos[1], self._txw[1],
            self._first_rx[1], self._tx_count[1], self._rx_count[1],
            self._rx_tr[1], self._rx_nd[1], self._rx_sv[1],
            self._new_tr[1], self._new_nd[1],
            self._coll_tr[1], self._coll_nd[1], self._collisions[1],
            self._ffi.NULL if rec is None else rec.c, self._rs,
            self._out_counts[1])
        return self._args

    def make_recovery(self, topology: Topology, policy: RecoveryPolicy,
                      relay_like: np.ndarray, trials: int,
                      slot_bound: int) -> NativeRecoveryState:
        """The recovery state matching this tier, run by the kernel:
        every later :meth:`resolve_next` also does its post-slot
        accounting, and every :meth:`next_slot` its due checks and
        elections.  *slot_bound* is the last slot the run can reach."""
        self._recovery = NativeRecoveryState(
            topology, policy, relay_like, trials, self._module, slot_bound)
        self._args = None
        return self._recovery

    def schedule(self, relay: np.ndarray, delay: np.ndarray,
                 offsets: Dict[int, np.ndarray],
                 forced: Tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray],
                 limit: np.ndarray, sources: Optional[np.ndarray],
                 checked: bool = True) -> None:
        """Run the scheduler in the kernel from now on.

        Takes the engine's plan — ``(rows, n)`` *relay* flags and
        *delay*, ``offset -> (rows, n)`` repeat masks, with rows 1 for a
        shared plan and B otherwise — plus the *forced* pairs by slot
        (``(slots, ptr, trials, nodes)``, see
        :data:`~repro.sim.engine.ForcedPlan`), each
        trial's slot cut-off *limit* and its *sources*, and builds the
        ``reactive_t`` calendar the kernel reads.  ``sources=None``
        starts no source (a replay); ``checked=False`` lets every forced
        pair transmit whether or not its node was informed (a pristine
        replay).  Every later :meth:`resolve_next` pushes the newly
        informed relays into the calendar, and :meth:`next_slot` pops
        it.  Call after :meth:`bind` and :meth:`make_recovery`.
        """
        if self._first_rx is None:
            raise RuntimeError("NativeBackend.schedule before bind()")
        ffi, n, batch = self._ffi, self._n, self._batch
        keep = self._pin
        rows = relay.shape[0]
        max_limit = int(limit.max())
        # Distances past the bound are capped one beyond it: such work
        # only raises the horizon, exactly as the uncapped value would.
        cap = max_limit + 1
        offs = sorted(offsets)
        far = 1 + int(delay.max(initial=0)) + max(offs, default=0)
        ring = 1 << min(far, max_limit).bit_length()
        f_slots, f_ptr, f_tr, f_nd = forced
        # With recovery the fired pairs pass through the output buffers.
        width = batch * n * (1 if self._recovery is None else 2)
        # Every int64 array the struct points at, carved from one block.
        sizes = dict(rep_offsets=len(offs), limit=batch, head=ring,
                     next=(len(offs) + 1) * batch * n,
                     forced_slot=len(f_slots), forced_ptr=len(f_ptr),
                     forced_tr=len(f_tr), forced_nd=len(f_nd),
                     drop_slot=len(f_nd), drop_tr=len(f_nd),
                     drop_nd=len(f_nd),
                     tx_tr=width, tx_nd=width, sources=batch)
        block, base = keep(np.empty(sum(sizes.values()), dtype=np.int64))
        self._plan = plan = {}
        at = 0
        for name, size in sizes.items():
            plan[name] = block[at:at + size], base + at
            at += size
        for name, values in (("rep_offsets", [min(o, cap) for o in offs]),
                             ("limit", limit), ("head", -1),
                             ("forced_slot", f_slots),
                             ("forced_ptr", f_ptr), ("forced_tr", f_tr),
                             ("forced_nd", f_nd)):
            plan[name][0][:] = values
        self._tx = plan.pop("tx_tr"), plan.pop("tx_nd")
        starts = plan.pop("sources")
        plan.update(
            relay=keep(np.ascontiguousarray(relay).view(np.uint8),
                       "uint8_t *"),
            delay=keep(np.ascontiguousarray(
                np.minimum(delay, cap) if far > cap else delay,
                dtype=np.int64)),
            rep_masks=(keep(np.ascontiguousarray(
                np.stack([offsets[o] for o in offs]), dtype=np.uint8),
                "uint8_t *") if offs else (None, ffi.NULL)),
            touched=keep(np.zeros(batch, dtype=np.uint8), "uint8_t *"))
        # ffi.new zero-fills: slot, horizon, forced_cursor and n_dropped
        # start at 0.
        rs = self._rs = ffi.new("reactive_t *")
        for name, (_, ptr) in plan.items():
            setattr(rs, name, ptr)
        rs.n, rs.batch, rs.words = n, batch, self._words
        rs.plan_stride = 0 if rows == 1 else n
        rs.n_offsets, rs.rep_plane = len(offs), rows * n
        rs.max_limit, rs.ring_mask = max_limit, ring - 1
        rs.n_forced_slots, rs.check_forced = len(f_slots), int(checked)
        rs.first_rx = self._first_rx[1]
        rs.alive, rs.txw = self._alive[1], self._txw[1]
        self._args = None
        if sources is not None:
            starts[0][:] = sources
            self._lib.reactive_start(rs, starts[1])

    @property
    def slot(self) -> int:
        """The slot :meth:`next_slot` last advanced to."""
        return self._rs.slot

    def next_slot(self) -> int:
        """Advance the scheduler to the next slot that transmits.

        Returns its pair count (``0`` once the run is over); the slot is
        :attr:`slot` and the sorted unique pairs, relay, forced and
        recovery alike, wait in the scheduler's buffers for
        :meth:`resolve_next`.
        """
        rec = self._recovery
        return self._lib.reactive_next_slot(
            self._rs, self._ffi.NULL if rec is None else rec.c,
            self._tx[0][1], self._tx[1][1])

    def resolve_next(self, k: int) -> None:
        """Resolve and commit the *k* pairs :meth:`next_slot` chose.

        The C pass draws the Bernoulli losses itself (the slot keys of
        :func:`~repro.radio.impairments.counter_slot_keys`), stamps
        ``first_rx`` for every first decode, schedules the relays among
        the newly informed nodes and, in summary mode, bumps the bound
        ``tx_count``/``rx_count`` and adds the slot's collisions into
        the bound ``collisions`` vector.  With a recovery state made, it
        also runs that state's post-slot update.  In trace mode,
        :meth:`events` then holds the slot's events.
        """
        faults.check(faults.BACKEND_RESOLVE, key=(self.name,),
                     detail="native slot resolve")
        # Every rx/collision is a neighbour of some transmitter.
        if k * self._max_degree >= self._cap:
            self._grow(k * self._max_degree + 1)
        args = self._args or self._kernel_args()
        t = self._rs.slot
        surv_ptr = self._ffi.NULL
        surv = None  # keep the buffer alive across the C call
        if self._loss.kind == 2:
            with profiling.phase("loss-rng"):
                surv = self._loss.burst.slot_survival(t).astype(np.uint8)
                surv_ptr = self._ffi.cast("uint8_t *",
                                          self._ffi.from_buffer(surv))
        with profiling.phase("resolve"):
            self._lib.resolve_slot(t, self._tx[0][1], self._tx[1][1], k,
                                   surv_ptr, *args)

    def events(self, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray,
                                      Tuple[np.ndarray, np.ndarray]]:
        """The trace-mode events of the slot :meth:`resolve_next` just
        ran with *k* pairs: ``(tr, nd, rt, rn, sv, (ct, cn))`` —
        transmissions, then decodes with senders, then collisions.
        Views into reused scratch, valid until the next call."""
        n_rx, n_coll, _ = self._out_counts[0].tolist()
        return (self._tx[0][0][:k], self._tx[1][0][:k],
                self._rx_tr[0][:n_rx], self._rx_nd[0][:n_rx],
                self._rx_sv[0][:n_rx],
                (self._coll_tr[0][:n_coll], self._coll_nd[0][:n_coll]))

    def dropped_forced(self) -> Iterable[Tuple[int, int, int]]:
        """``(slot, trial, node)`` of each forced transmission the
        scheduler dropped, in slot then (trial, node) order."""
        k = self._rs.n_dropped
        return zip(*(self._plan[name][0][:k].tolist()
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
