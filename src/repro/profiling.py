"""Opt-in per-phase timing of the simulation hot path.

The benchmark scripts' ``--profile`` flag needs to know where the slot
budget goes (CSR gather vs counting vs loss RNG vs recovery update vs
shard merge) without slowing down normal runs.  This module keeps one
module-level accumulator that is ``None`` unless a profile capture is
active; when profiling is off :func:`phase` returns one shared no-op
context manager after a single global check, so the engine pays
(almost) nothing in the common case.

Phases are free-form names; the engine currently emits ``resolve``,
``commit``, ``loss-rng``, and — with a recovery policy active —
``recovery-pre`` (due checks/elections before the slot),
``recovery-post`` (ACK/overhear + episode accounting after it), and
``recovery-election`` (the election bookkeeping *inside* the other two:
a sub-phase, so its time is also counted by its parent — do not sum it
with them).  Those are the dense tier's phases.  On the compiled tier a
whole run — reactive or replayed, recovering or not — is one kernel
call (its scheduling, loss draws, commit, recovery and trace-mode event
logs all run in C) and counts as ``resolve`` alone: ``commit``,
``loss-rng`` and the ``recovery-*`` phases appear only on the dense
tier.

Not thread-safe, and deliberately not process-aware: a sharded run
profiles only the parent process (per-shard phases happen in workers),
which is why the benchmarks capture profiles with sharding disabled.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import ContextManager, Dict, Iterator, Optional

_times: Optional[Dict[str, float]] = None


def enabled() -> bool:
    """True while a capture is active (hot-path guard)."""
    return _times is not None


def start() -> None:
    """Begin a capture, discarding any previous one."""
    global _times
    _times = {}


def stop() -> Dict[str, float]:
    """End the capture and return ``{phase: seconds}``."""
    global _times
    out = _times or {}
    _times = None
    return dict(out)


def add(phase: str, seconds: float) -> None:
    """Accumulate *seconds* into *phase* (no-op when not capturing)."""
    if _times is not None:
        _times[phase] = _times.get(phase, 0.0) + seconds


@contextmanager
def _timed(name: str) -> Iterator[None]:
    t0 = perf_counter()
    try:
        yield
    finally:
        add(name, perf_counter() - t0)


#: The context manager :func:`phase` hands out while nothing is
#: captured: one shared, reusable no-op.
_OFF = nullcontext()


def phase(name: str) -> ContextManager[None]:
    """Time a block into *name*.  Free when no capture is active: the
    one shared no-op context manager comes back, and nothing is built
    per call."""
    if _times is None:
        return _OFF
    return _timed(name)
