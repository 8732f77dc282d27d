"""Slot-resolve backend dispatch: the ``engine=`` tier above "batch".

:func:`~repro.sim.engine.run_reactive_batch` and
:func:`~repro.sim.engine.replay_batch` accept ``engine`` in

* ``"batch"`` — the dense CSR kernel
  (:meth:`~repro.radio.channel.SlotKernel.resolve_batch`), always
  available, the default;
* ``"compiled"`` — the cffi/C word-space kernel
  (:mod:`repro.sim.native`), optional dependency;
* ``"auto"`` — compiled if it builds, else batch.

The compiled backend consumes the slot's deduplicated, (trial,
node)-sorted transmission pairs and produces **sparse** outcomes —
received pairs with sender attribution plus either collision pairs
(trace mode) or per-trial collision counts (summary mode) — in the
exact (trial, node)-sorted order of the dense path, bit for bit (loss
draws use the same counter RNG stream via the integer threshold of
:func:`~repro.radio.impairments.bernoulli_threshold`).

Fallback rules (silent, by design — callers ask for a *tier*, not a
hard requirement): losses other than ``None`` /
:class:`~repro.radio.impairments.BernoulliBatchLoss` /
:class:`~repro.radio.impairments.BurstBatchLoss` cannot be applied in
word space, node counts beyond :func:`packed_max_nodes` (default
:data:`~repro.radio.bitpack.MAX_PACKED_NODES`, overridable via the
``REPRO_PACKED_MAX_NODES`` environment variable) would blow up the
packed neighbour table, big-endian hosts break the packing layout, and
a missing native build has no kernel to run — each of these degrades to
the dense kernel.  :func:`resolve_engine` reports the tier that would
actually run — and, with ``explain=True``, which rule decided it — for
benchmarks and CLI output.

The compiled backend also owns the matching **recovery state**
(:meth:`NativeBackend.make_recovery`, see
:mod:`repro.sim.recovery_packed`): each resolve with sender attribution
additionally records the CSR edge positions of its decodes
(``last_epos``), which the packed recovery update consumes directly
instead of re-deriving them per slot.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .. import faults, profiling
from ..radio import bitpack
from ..radio.channel import SlotKernel
from ..radio.impairments import (BatchLoss, BernoulliBatchLoss,
                                 BurstBatchLoss, bernoulli_threshold,
                                 counter_slot_keys)
from ..topology.base import Topology
from . import native
from .recovery import RecoveryPolicy
from .recovery_packed import NativeRecoveryState

__all__ = ["BREAKER", "BackendFault", "CircuitBreaker", "ENGINES",
           "demote_tier", "make_backend", "packed_max_nodes",
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

    Raised by the engine loops when ``backend.resolve`` (or backend
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


def packed_max_nodes() -> int:
    """Node-count cutoff of the compiled tier.

    Defaults to :data:`~repro.radio.bitpack.MAX_PACKED_NODES` (the
    packed neighbour table is ``n * ceil(n/64)`` words, quadratic-ish in
    *n*); the environment variable ``REPRO_PACKED_MAX_NODES`` overrides
    it for hosts where the memory/speed trade-off differs.  Read on
    every call so tests and long-lived processes can retune it.
    """
    raw = os.environ.get("REPRO_PACKED_MAX_NODES")
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return bitpack.MAX_PACKED_NODES


def _packable(num_nodes: int,
              loss: Optional[BatchLoss]) -> Tuple[bool, str]:
    """(compiled tier can serve this request?, reason)."""
    if not bitpack.packing_supported():
        return False, "big-endian host: word packing unsupported"
    cutoff = packed_max_nodes()
    if num_nodes <= 0:
        return False, "empty topology"
    if num_nodes > cutoff:
        return False, (f"n={num_nodes} exceeds packed cutoff {cutoff} "
                       f"(override with REPRO_PACKED_MAX_NODES)")
    if not (loss is None or type(loss) in _WORD_LOSSES):
        return False, (f"loss type {type(loss).__name__} has no "
                       f"word-space draw")
    return True, "word-space tier available"


def resolve_engine(engine: str, num_nodes: int,
                   loss: Optional[BatchLoss] = None,
                   explain: bool = False,
                   threads: Optional[int] = None
                   ) -> Union[str, Tuple[str, str]]:
    """The tier that would actually run for this request.

    Applies the fallback rules without building anything heavier than
    the native-availability probe.  With ``explain=True`` returns
    ``(tier, reason)`` — the reason names which fallback rule (if any)
    decided the tier, for CLI output and benchmarks; for the compiled
    tier it also reports the kernel thread count the ``threads=``
    request resolves to (``None`` meaning "all allowed cores", see
    :func:`~repro.sim.native.resolve_native_threads`).
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
    width = native.resolve_native_threads(threads)
    return result("compiled",
                  f"native kernel available ({width} thread"
                  f"{'s' if width != 1 else ''})")


class _LossSpec:
    """Word-space view of the slot loss: kind 0 none / 1 Bernoulli /
    2 whole-slot blackout."""

    def __init__(self, loss: Optional[BatchLoss]) -> None:
        self.kind = 0
        self.seeds = None
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
    pass per slot."""

    name = "compiled"

    def __init__(self, kernel: SlotKernel, batch: int,
                 loss: Optional[BatchLoss],
                 alive_masks: Optional[np.ndarray],
                 need_senders: bool, need_coll_pairs: bool,
                 threads: Optional[int] = None) -> None:
        faults.check(faults.NATIVE_BUILD,
                     detail="native kernel build/dlopen failure")
        module = native.native_kernel()
        if module is None:  # pragma: no cover - guarded by make_backend
            raise RuntimeError(f"native tier unavailable: "
                               f"{native.native_reason()}")
        self._module = module
        self._ffi, self._lib = module.ffi, module.lib
        #: Kernel pool width; resolved once (None -> env/affinity) so
        #: a backend's tier choice is stable for its lifetime.
        self.threads = native.resolve_native_threads(threads)
        self.last_epos: Optional[np.ndarray] = None
        nbr_words = kernel.neighbour_words()
        self._n = kernel.num_nodes
        self._words = nbr_words.shape[1]
        self._max_degree = max(kernel.max_degree, 1)
        self._loss = _LossSpec(loss)
        self._batch = batch
        self._need_senders = need_senders
        self._need_coll_pairs = need_coll_pairs
        ffi = self._ffi

        def keep(array, ctype):
            # from_buffer pins the array; stash both so neither the
            # ndarray nor the cdata is collected mid-run.
            return array, ffi.cast(ctype, ffi.from_buffer(array))

        self._indptr = keep(kernel.indptr, "int64_t *")
        self._indices = keep(kernel.indices, "int64_t *")
        self._nbr_words = keep(nbr_words, "uint64_t *")
        if alive_masks is None:
            self._alive = (None, ffi.NULL)
        else:
            self._alive = keep(bitpack.pack_bool_matrix(alive_masks),
                               "uint64_t *")
        shape = (batch, self._words)
        self._ones = keep(np.zeros(shape, dtype=np.uint64), "uint64_t *")
        self._twos = keep(np.zeros(shape, dtype=np.uint64), "uint64_t *")
        self._txw = keep(np.zeros(shape, dtype=np.uint64), "uint64_t *")
        self._coll_counts = keep(np.zeros(batch, dtype=np.int64),
                                 "int64_t *")
        self._out_counts = keep(np.zeros(2, dtype=np.int64), "int64_t *")
        self._cap = 0
        self._grow(64)

    def _grow(self, cap: int) -> None:
        if cap <= self._cap:
            return
        keep = lambda a: (a, self._ffi.cast("int64_t *",
                                            self._ffi.from_buffer(a)))
        self._rx_tr = keep(np.empty(cap, dtype=np.int64))
        self._rx_nd = keep(np.empty(cap, dtype=np.int64))
        self._rx_sv = keep(np.empty(cap, dtype=np.int64))
        self._rx_ep = keep(np.empty(cap, dtype=np.int64))
        self._coll_tr = keep(np.empty(cap, dtype=np.int64))
        self._coll_nd = keep(np.empty(cap, dtype=np.int64))
        self._cap = cap

    def make_recovery(self, topology: Topology, policy: RecoveryPolicy,
                      relay_like: np.ndarray,
                      trials: int) -> NativeRecoveryState:
        """The recovery state matching this tier (C inner loops)."""
        return NativeRecoveryState(topology, policy, relay_like, trials,
                                   self._module, threads=self.threads)

    def resolve(self, t: int, tr: np.ndarray, nd: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray],
                           Union[np.ndarray,
                                 Tuple[np.ndarray, np.ndarray]]]:
        """Resolve one slot; pairs must be (trial, node)-sorted unique.

        Returns ``(rt, rn, sv, coll)``: received pairs in (trial,
        node) order, their senders (or ``None`` when not requested),
        and collisions as ``(ct, cn)`` pairs or per-trial counts.  The
        arrays are views into reused scratch, valid until the next
        call.
        """
        faults.check(faults.BACKEND_RESOLVE, key=(self.name,),
                     detail="native slot resolve")
        ffi, lib = self._ffi, self._lib
        tr = np.ascontiguousarray(tr, dtype=np.int64)
        nd = np.ascontiguousarray(nd, dtype=np.int64)
        # Every rx/collision is a neighbour of some transmitter.
        self._grow(len(nd) * self._max_degree + 1)
        spec = self._loss
        keys_ptr = surv_ptr = ffi.NULL
        keys = surv = None  # keep buffers alive across the C call
        with profiling.phase("loss-rng"):
            if spec.kind == 1:
                keys = np.ascontiguousarray(
                    counter_slot_keys(spec.seeds, t))
                keys_ptr = ffi.cast("uint64_t *", ffi.from_buffer(keys))
            elif spec.kind == 2:
                surv = spec.burst.slot_survival(t).astype(np.uint8)
                surv_ptr = ffi.cast("uint8_t *", ffi.from_buffer(surv))
        counts = self._coll_counts[0]
        if not self._need_coll_pairs:
            counts[:] = 0
        with profiling.phase("resolve"):
            lib.resolve_slot(
                self.threads,
                self._n, self._words, self._max_degree,
                self._indptr[1], self._indices[1], self._nbr_words[1],
                ffi.cast("int64_t *", ffi.from_buffer(tr)),
                ffi.cast("int64_t *", ffi.from_buffer(nd)), len(nd),
                self._alive[1],
                spec.kind, keys_ptr, spec.threshold, surv_ptr,
                int(self._need_senders), int(self._need_coll_pairs),
                self._ones[1], self._twos[1], self._txw[1],
                self._rx_tr[1], self._rx_nd[1], self._rx_sv[1],
                self._rx_ep[1],
                self._coll_tr[1], self._coll_nd[1],
                self._coll_counts[1], self._out_counts[1])
        n_rx, n_coll = map(int, self._out_counts[0])
        rt = self._rx_tr[0][:n_rx]
        rn = self._rx_nd[0][:n_rx]
        sv = self._rx_sv[0][:n_rx] if self._need_senders else None
        self.last_epos = (self._rx_ep[0][:n_rx]
                          if self._need_senders else None)
        if self._need_coll_pairs:
            coll = (self._coll_tr[0][:n_coll], self._coll_nd[0][:n_coll])
        else:
            coll = counts
        return rt, rn, sv, coll


def make_backend(kernel: SlotKernel, batch: int, engine: str,
                 loss: Optional[BatchLoss],
                 alive_masks: Optional[np.ndarray],
                 need_senders: bool, need_coll_pairs: bool,
                 threads: Optional[int] = None
                 ) -> Optional[NativeBackend]:
    """Build the backend for *engine*, or ``None`` for the dense tier.

    ``None`` (i.e. "use :meth:`~repro.radio.channel.SlotKernel.
    resolve_batch`") is returned both for ``engine="batch"`` and for
    any request the compiled tier cannot serve — see the module
    docstring for the fallback rules.  ``threads`` is the kernel pool
    width: ``None`` means "all allowed cores" per
    :func:`~repro.sim.native.resolve_native_threads`; results are
    bit-identical at every width.
    """
    if resolve_engine(engine, kernel.num_nodes, loss) == "batch":
        return None
    try:
        return NativeBackend(kernel, batch, loss, alive_masks,
                             need_senders, need_coll_pairs,
                             threads=threads)
    except Exception as exc:
        # A tier that cannot even construct (dlopen/build failure,
        # injected or organic) demotes this run and feeds the breaker;
        # the run itself still happens, on the dense tier.
        demote_tier("compiled", f"{type(exc).__name__}: {exc}")
        return None
