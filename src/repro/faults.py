"""Deterministic fault injection for the serving stack.

The simulated radios have had an adversary since PR 1 — seeded loss
processes, dead nodes, churn.  The *machine* running the simulations
did not: a killed shard worker, a torn store write, or a native-kernel
failure mid-run would stall or tear down the whole pipeline.  This
module gives the infrastructure the same treatment the radios get: a
seeded, replayable adversary.

A :class:`FaultPlan` is a set of :class:`FaultSpec` entries, one per
instrumented *seam* (a named decision point compiled into production
code).  Arming a plan (``with plan.arm(): ...``) installs it as the
process-global adversary; every seam consult is counted, and the spec
decides — by occurrence index, by caller-supplied key, or by seeded
hash rate — whether the fault fires at that consult.  Decisions depend
only on ``(seed, seam, occurrence, key)``, never on wall-clock or
thread timing, so a chaos run is exactly replayable.

Seams compiled into the stack:

========================  ====================================================
``shard.worker_kill``     a shard worker calls ``os._exit`` mid-job
                          (keyed by ``(shard_index, attempt)``)
``store.torn_write``      an ArtifactStore shard write appends partial
                          payload bytes and dies before the index publish
``native.build``          the native kernel fails to build/dlopen when a
                          compiled backend is constructed
``backend.resolve``       the compiled backend faults mid-run (keyed by
                          tier name ``"compiled"``)
``compile.slow``          a schedule compile stalls for ``delay_s`` seconds
``server.drop_connection``  the server aborts the TCP connection instead
                          of writing a response
``server.garble_response``  the server writes a non-JSON line in place of
                          the response
========================  ====================================================

When no plan is armed every helper is a cheap no-op, so the seams cost
one global read on hot paths.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "canonical_plan",
    "active",
    "fires",
    "check",
    "sleep_if",
    "SHARD_KILL",
    "STORE_TORN",
    "NATIVE_BUILD",
    "BACKEND_RESOLVE",
    "COMPILE_SLOW",
    "SERVER_DROP",
    "SERVER_GARBLE",
]

#: Seam names.  Production code consults seams by these constants; plans
#: address them by the same strings.
SHARD_KILL = "shard.worker_kill"
STORE_TORN = "store.torn_write"
NATIVE_BUILD = "native.build"
BACKEND_RESOLVE = "backend.resolve"
COMPILE_SLOW = "compile.slow"
SERVER_DROP = "server.drop_connection"
SERVER_GARBLE = "server.garble_response"

SEAMS = (
    SHARD_KILL,
    STORE_TORN,
    NATIVE_BUILD,
    BACKEND_RESOLVE,
    COMPILE_SLOW,
    SERVER_DROP,
    SERVER_GARBLE,
)


class InjectedFault(RuntimeError):
    """Raised at a seam when the armed plan decides the fault fires.

    Deliberately a plain ``RuntimeError`` subclass: resilience code must
    survive it through the same paths that handle organic failures, not
    through an injected-fault special case.
    """

    def __init__(self, seam: str, detail: str = ""):
        self.seam = seam
        msg = f"injected fault at seam {seam!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _u01(seed: int, seam: str, occurrence: int) -> float:
    """Uniform [0, 1) draw keyed on (seed, seam, occurrence) only."""
    x = (seed & _MASK64) ^ (zlib.crc32(seam.encode()) << 32) ^ occurrence
    return _splitmix64(x) / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """When a single seam fires.

    Exactly one of the three triggers is consulted, in priority order:

    ``keys``
        fire whenever the caller-supplied key is in the set (e.g. a
        shard kill keyed by ``(shard_index, attempt)``);
    ``at``
        fire at these 0-based occurrence indices of the seam;
    ``rate``
        fire at this probability per consult, drawn from the plan seed.

    ``limit`` caps total fires of the spec regardless of trigger, and
    ``delay_s`` is the stall duration for latency seams consumed via
    :func:`sleep_if`.
    """

    seam: str
    at: Tuple[int, ...] = ()
    keys: FrozenSet[tuple] = frozenset()
    rate: float = 0.0
    delay_s: float = 0.0
    limit: Optional[int] = None


class FaultPlan:
    """A seeded set of fault specs plus per-seam consult/fire counters."""

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0):
        self.seed = int(seed)
        self._specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.seam in self._specs:
                raise ValueError(f"duplicate spec for seam {spec.seam!r}")
            self._specs[spec.seam] = spec
        self._lock = threading.Lock()
        self._consults: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    def spec(self, seam: str) -> Optional[FaultSpec]:
        return self._specs.get(seam)

    def fires(self, seam: str, key: Optional[tuple] = None) -> bool:
        """Count one consult of *seam* and decide whether it faults."""
        with self._lock:
            n = self._consults.get(seam, 0)
            self._consults[seam] = n + 1
            spec = self._specs.get(seam)
            if spec is None:
                return False
            fired = self._fired.get(seam, 0)
            if spec.limit is not None and fired >= spec.limit:
                return False
            if spec.keys:
                hit = key in spec.keys
            elif spec.at:
                hit = n in spec.at
            elif spec.rate > 0.0:
                hit = _u01(self.seed, seam, n) < spec.rate
            else:
                hit = False
            if hit:
                self._fired[seam] = fired + 1
            return hit

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-seam ``{"consulted": n, "fired": k}`` counters."""
        with self._lock:
            out = {}
            for seam in sorted(set(self._consults) | set(self._specs)):
                out[seam] = {
                    "consulted": self._consults.get(seam, 0),
                    "fired": self._fired.get(seam, 0),
                }
            return out

    def fired(self, seam: str) -> int:
        with self._lock:
            return self._fired.get(seam, 0)

    def arm(self) -> "_Armed":
        """Install this plan as the process-global adversary (context mgr)."""
        return _Armed(self)


_armed: Optional[FaultPlan] = None
_arm_lock = threading.Lock()


class _Armed:
    def __init__(self, plan: FaultPlan):
        self._plan = plan

    def __enter__(self) -> FaultPlan:
        global _armed
        with _arm_lock:
            if _armed is not None:
                raise RuntimeError("a FaultPlan is already armed")
            _armed = self._plan
        return self._plan

    def __exit__(self, *exc) -> None:
        global _armed
        with _arm_lock:
            _armed = None


def active() -> Optional[FaultPlan]:
    """The armed plan, or None.  Seam helpers below are the usual API."""
    return _armed


def fires(seam: str, key: Optional[tuple] = None) -> bool:
    """True when the armed plan fires *seam* at this consult."""
    plan = _armed
    if plan is None:
        return False
    return plan.fires(seam, key)


def check(seam: str, key: Optional[tuple] = None, detail: str = "") -> None:
    """Raise :class:`InjectedFault` when the armed plan fires *seam*."""
    plan = _armed
    if plan is not None and plan.fires(seam, key):
        raise InjectedFault(seam, detail)


def sleep_if(seam: str) -> None:
    """Stall for the spec's ``delay_s`` when the armed plan fires *seam*."""
    plan = _armed
    if plan is not None and plan.fires(seam):
        spec = plan.spec(seam)
        if spec is not None and spec.delay_s > 0.0:
            time.sleep(spec.delay_s)


def canonical_plan(seed: int = 2003) -> FaultPlan:
    """The canonical chaos schedule used by the suite and the benchmark.

    One plan covering every failure domain: worker murder on the first
    attempt of shard 1, torn store writes under the first two compiles
    that publish, one mid-run fault of the compiled backend and one
    build failure at its *second* construction (the first run demotes
    mid-run, the second at construction, so both demotion paths of the
    circuit breaker fire), sporadic slow compiles, and dropped/garbled
    server responses early in the connection's life.
    """
    return FaultPlan(
        [
            FaultSpec(SHARD_KILL, keys=frozenset({(1, 0)})),
            FaultSpec(STORE_TORN, at=(0, 3)),
            FaultSpec(NATIVE_BUILD, at=(1,)),
            FaultSpec(BACKEND_RESOLVE, keys=frozenset({("compiled",)}),
                      limit=1),
            FaultSpec(COMPILE_SLOW, rate=0.3, delay_s=0.01),
            FaultSpec(SERVER_DROP, at=(2, 11)),
            FaultSpec(SERVER_GARBLE, at=(5, 17)),
        ],
        seed=seed,
    )
