"""Trial-dimension sharding of the batched Monte-Carlo entry points.

A batch of B trials has no cross-trial coupling anywhere in the engine
— pending transmissions, loss draws, failure masks and recovery state
are all per-trial rows — so the batch splits into contiguous trial
slices that run in separate processes and merge back with
:func:`~repro.sim.summary.merge_summaries` (summaries) or plain list
concatenation (traces).

Bit-identity of the sharded run rests on two properties the lower
layers provide:

* the counter RNG keys every draw on the trial's **seed value**
  (:func:`~repro.radio.impairments.counter_slot_keys`), never on its
  row index, so :meth:`~repro.radio.impairments.BatchLoss.slice_trials`
  yields exactly the rows the unsharded run would have drawn;
* the shared ``max_slots`` horizon default depends only on the plan,
  not the batch size, so every shard simulates the same slot window.

The shard-invariance property test pins down that ``workers=1`` and
``workers=k`` produce identical results.

The compiled recovery state (packed word bitsets, native C update)
rides trial shards for free: each shard's backend builds its own
recovery state sized to the shard's trial slice, and because every
piece of recovery state is a per-trial row keyed by the trial's seed
value, the sliced runs reproduce the unsharded run bit for bit at
every worker count and on every engine tier.

Workers are plain ``ProcessPoolExecutor`` processes (the same
fan-out machinery as the analysis layers); callers pick the count —
the analysis layers pass it through
:func:`~repro.analysis.sweep.effective_workers`, which degrades to
serial on single-CPU hosts and caps at the trial count.  Sharding is
the only multi-core path: the compiled kernel itself is
single-threaded, so k shards use k cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Tuple, Union

import numpy as np

from .. import faults
from .engine import _resolve_trials, replay_batch, run_reactive_batch
from .summary import TraceSummary, merge_summaries
from .trace import BroadcastTrace

__all__ = ["MAX_SHARD_ATTEMPTS", "ShardFailure", "replay_batch_sharded",
           "run_reactive_batch_sharded", "shard_ranges"]

#: Per-shard submit attempts before :class:`ShardFailure`; the first
#: attempt plus two pool rebuilds.
MAX_SHARD_ATTEMPTS = 3


class ShardFailure(RuntimeError):
    """A shard's worker process kept dying after every retry."""


def shard_ranges(trials: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` trial ranges splitting *trials* as evenly
    as possible over at most *shards* non-empty parts."""
    shards = max(1, min(int(shards), int(trials)))
    bounds = np.linspace(0, trials, shards + 1).astype(int)
    return [(int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _slice_kwargs(kwargs: dict, lo: int, hi: int) -> dict:
    """The keyword set of the shard covering trial rows ``lo:hi``."""
    kw = dict(kwargs)
    kw["trials"] = hi - lo
    dead = kw.get("dead_masks")
    if dead is not None:
        kw["dead_masks"] = dead[lo:hi]
    loss = kw.get("loss")
    if loss is not None:
        kw["loss"] = loss.slice_trials(lo, hi)
    return kw


def _worker(job):
    entry, args, kw = job
    if kw.pop("_fault_kill", False):  # injected worker murder
        os._exit(113)
    return entry(*args, **kw)


def _armed_job(job, index: int, attempt: int):
    """Tag the job when the fault plan kills this (shard, attempt)."""
    if not faults.fires(faults.SHARD_KILL, key=(index, attempt)):
        return job
    kw = dict(job[-1])
    kw["_fault_kill"] = True
    return job[:-1] + (kw,)


def _fan_out(worker, jobs, workers: int):
    """Run every job, resubmitting only the shards whose worker died.

    A worker that dies (``os._exit``, OOM kill, segfault) breaks the
    whole ``ProcessPoolExecutor``: its own job and every job still
    pending there fail with ``BrokenProcessPool``, while jobs that
    already returned keep their results.  Shards are therefore
    submitted individually; the survivors' results are kept, the pool
    is rebuilt, and **only the dead shards** are resubmitted — cheap,
    and bit-identical, because the job's trial slice (and through it
    every counter-RNG draw) is a pure function of the shard bounds,
    not of which attempt ran it.  Worker exceptions that are *not*
    pool breakage (a bad argument, say) propagate immediately: retry
    is for dead processes, not for bugs.
    """
    results: List[object] = [None] * len(jobs)
    remaining = list(range(len(jobs)))
    for attempt in range(MAX_SHARD_ATTEMPTS):
        failed: List[int] = []
        with ProcessPoolExecutor(
                max_workers=min(workers, len(remaining))) as pool:
            futures = [(i, pool.submit(worker,
                                       _armed_job(jobs[i], i, attempt)))
                       for i in remaining]
            for i, future in futures:
                try:
                    results[i] = future.result()
                except BrokenProcessPool:
                    failed.append(i)
        if not failed:
            return results
        remaining = failed
    raise ShardFailure(
        f"shards {remaining} lost their worker process in "
        f"{MAX_SHARD_ATTEMPTS} consecutive attempts")


def _merge(parts) -> Union[TraceSummary, List[BroadcastTrace]]:
    if isinstance(parts[0], TraceSummary):
        return merge_summaries(parts)
    out: List[BroadcastTrace] = []
    for p in parts:
        out.extend(p)
    return out


def _sharded(entry, args: tuple, kwargs: dict, workers: Optional[int]
             ) -> Union[TraceSummary, List[BroadcastTrace]]:
    """``entry(*args, **kwargs)`` with the trial dimension split over
    *workers* processes; the batch size is validated exactly as the
    unsharded call validates it, before any shard is cut."""
    batch, _ = _resolve_trials(kwargs.get("trials"),
                               kwargs.get("dead_masks"),
                               kwargs.get("loss"), args[0].num_nodes)
    ranges = shard_ranges(batch, workers or 1)
    if len(ranges) <= 1:
        return entry(*args, **kwargs)
    jobs = [(entry, args, _slice_kwargs(kwargs, lo, hi))
            for lo, hi in ranges]
    return _merge(_fan_out(_worker, jobs, len(ranges)))


def run_reactive_batch_sharded(
    topology, source: int, relay_mask, *, workers: Optional[int] = None,
    **kwargs) -> Union[TraceSummary, List[BroadcastTrace]]:
    """:func:`~repro.sim.engine.run_reactive_batch` with the trial
    dimension split over *workers* processes.

    Accepts every keyword of the unsharded entry point and returns a
    bit-identical result for any *workers* value; ``workers=None`` or
    ``1`` (or a single-trial batch) runs in-process.
    """
    return _sharded(run_reactive_batch, (topology, source, relay_mask),
                    kwargs, workers)


def replay_batch_sharded(
    topology, schedule, source: int, *, workers: Optional[int] = None,
    **kwargs) -> Union[TraceSummary, List[BroadcastTrace]]:
    """:func:`~repro.sim.engine.replay_batch` with the trial dimension
    split over *workers* processes; see
    :func:`run_reactive_batch_sharded`."""
    return _sharded(replay_batch, (topology, schedule, source), kwargs,
                    workers)
