"""Process fan-out: the package's one process pool.

Every parallel path in the package is a set of independent jobs: the
trial slices of one Monte-Carlo batch, the sources (or source classes)
of a sweep, the sizes of a scaling curve, the failure counts of a
recompile sweep, the distinct sources of a lifetime run.  They all run
through :func:`fan_out`, an ordered map that cuts its items into
contiguous chunks, runs the chunks on worker processes and returns the
results in item order, so a parallel result is bit-identical to the
in-process one at every worker count.  A worker that dies is replaced
and only its chunk is resubmitted (:func:`_fan_out`).

Worker counts: the analysis entry points pass their ``workers=`` through
:func:`~repro.analysis.sweep.effective_workers` once, which degrades to
in-process on single-CPU hosts and caps at the job count.  The
trial-sharded entry points below take their count as given.  The
compiled kernel itself is single-threaded, so k workers use k cores.

Trial sharding.  A batch of B trials has no cross-trial coupling
anywhere in the engine — pending transmissions, loss draws, failure
masks and recovery state are all per-trial rows — so the batch splits
into contiguous trial slices that run as separate jobs and merge back
with :func:`~repro.sim.summary.merge_summaries` (summaries) or plain
list concatenation (traces).

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
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import faults
from .engine import _resolve_trials, replay_batch, run_reactive_batch
from .summary import TraceSummary, merge_summaries
from .trace import BroadcastTrace

__all__ = ["CHUNKS_PER_WORKER", "MAX_SHARD_ATTEMPTS", "ShardFailure",
           "each", "fan_out", "replay_batch_sharded",
           "run_reactive_batch_sharded", "shard_ranges"]

#: Per-chunk submit attempts before :class:`ShardFailure`; the first
#: attempt plus two pool rebuilds.
MAX_SHARD_ATTEMPTS = 3

#: Chunks cut per worker: enough that one slow chunk does not leave the
#: other workers idle at the end, few enough that per-chunk set-up (the
#: pickled job, a class batch's shared fixpoint) stays amortised.
CHUNKS_PER_WORKER = 4


class ShardFailure(RuntimeError):
    """A chunk's worker process kept dying after every retry."""


def fan_out(fn: Callable[[list], list], items: Sequence, workers: int,
            weights: Optional[Sequence[float]] = None) -> list:
    """``fn`` over contiguous chunks of *items*; one result per item,
    in item order.

    *fn* takes a list of items and returns a list of one result per
    item (:func:`each` lifts a per-item function).  With ``workers <=
    1``, or when the items make one chunk, every item runs in-process
    as one chunk.  Otherwise the items are cut into contiguous chunks,
    about :data:`CHUNKS_PER_WORKER` per worker and balanced by
    *weights* (one per item by default), and the chunks run on at most
    *workers* processes, so *fn* and every item must pickle.
    """
    items = list(items)
    chunks = _chunks(items, workers, weights) if workers > 1 else [items]
    if len(chunks) <= 1:
        return fn(items) if items else []
    return [result for part in _fan_out(fn, chunks, workers)
            for result in part]


def each(fn: Callable) -> Callable[[list], list]:
    """The :func:`fan_out` chunk function applying *fn* to every item."""
    return functools.partial(_each, fn)


def _each(fn, chunk: list) -> list:
    return [fn(item) for item in chunk]


def _chunks(items: list, workers: int,
            weights: Optional[Sequence[float]] = None) -> List[list]:
    """Contiguous non-empty chunks of *items*, each closed once its
    weight reaches ``1 / (CHUNKS_PER_WORKER * workers)`` of the total."""
    if weights is None:
        weights = [1] * len(items)
    target = sum(weights) / (CHUNKS_PER_WORKER * workers)
    chunks: List[list] = []
    current: list = []
    weight = 0
    for item, w in zip(items, weights):
        current.append(item)
        weight += w
        if weight >= target:
            chunks.append(current)
            current, weight = [], 0
    if current:
        chunks.append(current)
    return chunks


def _worker(fn, chunk: list, kill: bool) -> list:
    if kill:  # injected worker murder
        os._exit(113)
    return fn(chunk)


def _fan_out(fn, chunks: List[list], workers: int) -> List[list]:
    """Run every chunk, resubmitting only the chunks whose worker died.

    A worker that dies (``os._exit``, OOM kill, segfault) breaks the
    whole ``ProcessPoolExecutor``: its own job and every job still
    pending there fail with ``BrokenProcessPool``, while jobs that
    already returned keep their results.  Chunks are therefore
    submitted individually; the survivors' results are kept, the pool
    is rebuilt, and **only the dead chunks** are resubmitted — cheap,
    and bit-identical, because a chunk's result (a trial slice's every
    counter-RNG draw, a source's compilation) is a pure function of the
    chunk, not of which attempt ran it.  The fault plan's
    ``SHARD_KILL`` seam is consulted once per ``(chunk, attempt)``.
    Worker exceptions that are *not* pool breakage (a bad argument,
    say) propagate immediately: retry is for dead processes, not for
    bugs.
    """
    results: List[list] = [[] for _ in chunks]
    remaining = list(range(len(chunks)))
    for attempt in range(MAX_SHARD_ATTEMPTS):
        failed: List[int] = []
        with ProcessPoolExecutor(
                max_workers=min(workers, len(remaining))) as pool:
            futures = [(i, pool.submit(
                _worker, fn, chunks[i],
                faults.fires(faults.SHARD_KILL, key=(i, attempt))))
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
        f"chunks {remaining} lost their worker process in "
        f"{MAX_SHARD_ATTEMPTS} consecutive attempts")


# ---------------------------------------------------------------------------
# Trial sharding of the batched Monte-Carlo entry points


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


def _run_shard(entry, args: tuple, kwargs: dict):
    return entry(*args, **kwargs)


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
    *workers* processes, one shard per worker; the batch size is
    validated exactly as the unsharded call validates it, before any
    shard is cut."""
    batch, _ = _resolve_trials(kwargs.get("trials"),
                               kwargs.get("dead_masks"),
                               kwargs.get("loss"), args[0].num_nodes)
    ranges = shard_ranges(batch, workers or 1)
    if len(ranges) <= 1:
        return entry(*args, **kwargs)
    shards = [_slice_kwargs(kwargs, lo, hi) for lo, hi in ranges]
    return _merge(fan_out(
        each(functools.partial(_run_shard, entry, args)), shards,
        len(shards)))


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
