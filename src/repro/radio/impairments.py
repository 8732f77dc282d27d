"""Channel impairments: packet loss and node failures.

The paper assumes an ideal (loss-free) channel — its only impairment is
the collision model.  Real sensor radios also suffer fading and
interference, and sensor nodes die.  These models let the benchmarks
measure how gracefully the compiled schedules degrade (and what hardening
them costs); they are *extensions*, clearly separated from the paper's
own experiments.

Loss processes are deterministic given their seed **per slot**, not per
call: the same slot always draws the same erasures, so a reactive run and
a replay of its schedule see identical channels.

Two RNG families coexist:

* the original :class:`BernoulliLoss` / :class:`BurstLoss` draw from a
  fresh PCG64 generator seeded by ``(seed, slot)`` — one generator
  construction per slot, inherently serial per trial;
* the *counter-based* :class:`CounterBernoulliLoss` /
  :class:`CounterBurstLoss` hash ``(seed, slot, node)`` triples straight
  to uniforms (splitmix64 finalizer), so the draws of **B independent
  trials** are one broadcasted ``(B, n)`` array operation.  The batched
  Monte-Carlo engine (:func:`repro.sim.engine.run_reactive_batch`) uses
  the matching :class:`BernoulliBatchLoss` whose row *b* is bit-identical
  to ``CounterBernoulliLoss(p, seeds[b])`` — the serial-equivalence
  guarantee the differential tests pin down.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Sequence

import numpy as np


class LossProcess(abc.ABC):
    """Per-slot packet-erasure process applied after collision resolution."""

    @abc.abstractmethod
    def apply(self, slot: int, received: np.ndarray) -> np.ndarray:
        """Return the subset of *received* that survives slot *slot*."""


class PerfectChannel(LossProcess):
    """No losses (the paper's channel)."""

    def apply(self, slot: int, received: np.ndarray) -> np.ndarray:
        return received


class BernoulliLoss(LossProcess):
    """Each successful decode is independently erased with probability p.

    Models fast fading / ambient interference.  Erasures are drawn from a
    per-slot RNG seeded by ``(seed, slot)`` so outcomes do not depend on
    the order in which slots are simulated.
    """

    def __init__(self, p: float, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self.p = float(p)
        self.seed = int(seed)

    def apply(self, slot: int, received: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            return received
        rng = np.random.default_rng((self.seed, slot))
        survive = rng.random(received.shape[0]) >= self.p
        return received & survive

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BernoulliLoss p={self.p} seed={self.seed}>"


class BurstLoss(LossProcess):
    """Whole-slot blackouts: with probability p a slot erases everything.

    Models wide-band interference bursts (e.g. a colocated radar sweep) —
    the hardest case for slot-synchronous schedules because an entire
    wavefront is lost at once.
    """

    def __init__(self, p: float, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"burst probability must be in [0, 1], got {p}")
        self.p = float(p)
        self.seed = int(seed)

    def apply(self, slot: int, received: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            return received
        rng = np.random.default_rng((self.seed, slot))
        if rng.random() < self.p:
            return np.zeros_like(received)
        return received

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BurstLoss p={self.p} seed={self.seed}>"


# ---------------------------------------------------------------------------
# Counter-based RNG: hash (seed, slot, counter) -> uniform, fully vectorised
# ---------------------------------------------------------------------------

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a bijective avalanche mix on uint64."""
    x = x + _GOLDEN
    x = (x ^ (x >> _U64(30))) * _MIX1
    x = (x ^ (x >> _U64(27))) * _MIX2
    return x ^ (x >> _U64(31))


def _as_u64(value: int) -> np.uint64:
    return _U64(int(value) & _MASK64)


def counter_slot_keys(seeds, slot: int) -> np.ndarray:
    """Per-trial stream keys of one slot: ``splitmix64(splitmix64(seed)
    ^ slot)``.  This is the exact intermediate of
    :func:`counter_uniforms`; the compiled engine tier derives the same
    keys in C (:mod:`repro.sim.native`) to draw the same uniforms
    word-by-word."""
    seeds_arr = np.atleast_1d(np.asarray(seeds))
    if seeds_arr.dtype != np.uint64:
        seeds_arr = (seeds_arr.astype(object) & _MASK64).astype(np.uint64)
    return _splitmix64(_splitmix64(seeds_arr) ^ _as_u64(slot))


def bernoulli_threshold(p: float) -> int:
    """Smallest integer T with ``T * 2**-53 >= p``.

    :func:`counter_uniforms` produces ``u = k * 2**-53`` for an integer
    ``k < 2**53``; every such product is exact in float64, so the float
    comparison ``u >= p`` is equivalent to the integer comparison
    ``k >= T``.  The compiled loss path uses the integer form and stays
    bit-identical to the dense tier.  ``T == 2**53`` means no draw
    survives (p too close to 1); ``T == 0`` means every draw survives.
    """
    if p <= 0.0:
        return 0
    t = int(np.ceil(p * float(1 << 53)))
    if t > (1 << 53):
        return 1 << 53
    # Float rounding in the ceil can land one off in either direction;
    # nudge with exact comparisons.
    while t > 0 and (t - 1) * _INV_2_53 >= p:
        t -= 1
    while t < (1 << 53) and t * _INV_2_53 < p:
        t += 1
    return t


def counter_uniforms(seeds, slot: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) for every ``(seed, slot, index)`` triple.

    *seeds* is a scalar or a 1-D array of B trial seeds; the result has
    shape ``(count,)`` for a scalar seed and ``(B, count)`` otherwise.
    Each value depends only on its own triple (a stateless counter RNG),
    so computing a single row or the whole B-row grid yields bit-identical
    numbers — the property that makes batched trials exactly reproduce
    serial ones.
    """
    key = counter_slot_keys(seeds, slot)
    idx = np.arange(count, dtype=np.uint64)
    bits = _splitmix64(key[:, None] ^ idx[None, :])
    u = (bits >> _U64(11)).astype(np.float64) * _INV_2_53
    return u[0] if np.isscalar(seeds) or np.ndim(seeds) == 0 else u


def trial_seeds(seed: int, parameter: float, trials: int) -> np.ndarray:
    """Decorrelated per-trial seeds for one point of a parameter sweep.

    Mixes the sweep *parameter* (loss rate, failure count, ...) into the
    stream so that different parameters draw genuinely different
    randomness.  The previous ``seed * 1000 + trial`` scheme ignored the
    parameter entirely: every loss rate of a degradation curve reused the
    identical erasure pattern, correlating the whole curve.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    param_bits = np.float64(parameter).view(np.uint64)
    base = _splitmix64(np.array([_as_u64(seed)])) ^ param_bits
    return _splitmix64(_splitmix64(base) ^ np.arange(trials, dtype=np.uint64))


class CounterBernoulliLoss(LossProcess):
    """Bernoulli erasures drawn from the counter-based RNG.

    Semantically identical to :class:`BernoulliLoss` (i.i.d. erasure with
    probability p, deterministic per ``(seed, slot)``), but each decode's
    fate is a pure function of ``(seed, slot, node)`` — no generator
    state — so B trials' draws vectorise into one ``(B, n)`` pass
    (:class:`BernoulliBatchLoss`).
    """

    def __init__(self, p: float, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self.p = float(p)
        self.seed = int(seed)

    def apply(self, slot: int, received: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            return received
        u = counter_uniforms(self.seed, slot, received.shape[0])
        return received & (u >= self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CounterBernoulliLoss p={self.p} seed={self.seed}>"


class CounterBurstLoss(LossProcess):
    """Whole-slot blackouts drawn from the counter-based RNG.

    *length* extends each burst: a burst *starting* at slot s (its start
    draw fires with probability p) blacks out slots ``s .. s+length-1``,
    so slot t is erased iff any start draw in ``[t-length+1, t]`` fired.
    Being a pure function of the slot window, the process stays stateless
    (slot-order independent) and its batch variant bit-identical.
    ``length=1`` is the original single-slot burst.
    """

    def __init__(self, p: float, seed: int = 0, length: int = 1) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"burst probability must be in [0, 1], got {p}")
        if length < 1:
            raise ValueError(f"burst length must be >= 1, got {length}")
        self.p = float(p)
        self.seed = int(seed)
        self.length = int(length)

    def apply(self, slot: int, received: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            return received
        for s in range(max(1, slot - self.length + 1), slot + 1):
            u = counter_uniforms(self.seed, s, 1)
            if u[0] < self.p:
                return np.zeros_like(received)
        return received

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CounterBurstLoss p={self.p} seed={self.seed} "
                f"length={self.length}>")


# ---------------------------------------------------------------------------
# Batch losses: B independent trials' channels in one array operation
# ---------------------------------------------------------------------------

class BatchLoss(abc.ABC):
    """Per-slot erasure process over a ``(B, n)`` batch of trials.

    Contract: row *b* of :meth:`apply_batch` must equal what
    :meth:`trial_loss` (b)'s serial ``apply`` would do to that row — the
    serial-equivalence invariant the differential suite enforces.
    """

    trials: int

    @abc.abstractmethod
    def apply_batch(self, slot: int, received: np.ndarray) -> np.ndarray:
        """Return the subset of *received* ``(B, n)`` surviving *slot*."""

    @abc.abstractmethod
    def trial_loss(self, trial: int) -> LossProcess:
        """The serial :class:`LossProcess` equivalent of one trial's row."""

    def slice_trials(self, lo: int, hi: int) -> "BatchLoss":
        """The sub-batch covering trial rows ``lo:hi``.

        Used by trial-dimension sharding: because the counter RNG keys
        every draw by the trial's own seed (not its batch position),
        slicing the seed array yields shard results bit-identical to the
        unsharded run.  Subclasses without a slice stay shard-ineligible.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support trial slicing")


class BernoulliBatchLoss(BatchLoss):
    """B independent Bernoulli channels, one vectorised draw per slot.

    Row *b* is bit-identical to ``CounterBernoulliLoss(p, seeds[b])``.
    """

    def __init__(self, p: float, seeds: Sequence[int]) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self.p = float(p)
        self.seeds = np.asarray(
            [int(s) & _MASK64 for s in np.asarray(seeds).tolist()],
            dtype=np.uint64)
        if self.seeds.ndim != 1 or len(self.seeds) == 0:
            raise ValueError("seeds must be a non-empty 1-D sequence")
        self.trials = len(self.seeds)

    def apply_batch(self, slot: int, received: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            return received
        u = counter_uniforms(self.seeds, slot, received.shape[1])
        return received & (u >= self.p)

    def trial_loss(self, trial: int) -> LossProcess:
        return CounterBernoulliLoss(self.p, int(self.seeds[trial]))

    def slice_trials(self, lo: int, hi: int) -> "BernoulliBatchLoss":
        return BernoulliBatchLoss(self.p, self.seeds[lo:hi])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BernoulliBatchLoss p={self.p} trials={self.trials}>"


class BurstBatchLoss(BatchLoss):
    """B independent blackout channels, one draw window per slot.

    Row *b* is bit-identical to ``CounterBurstLoss(p, seeds[b], length)``.
    """

    def __init__(self, p: float, seeds: Sequence[int],
                 length: int = 1) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"burst probability must be in [0, 1], got {p}")
        if length < 1:
            raise ValueError(f"burst length must be >= 1, got {length}")
        self.p = float(p)
        self.seeds = np.asarray(
            [int(s) & _MASK64 for s in np.asarray(seeds).tolist()],
            dtype=np.uint64)
        if self.seeds.ndim != 1 or len(self.seeds) == 0:
            raise ValueError("seeds must be a non-empty 1-D sequence")
        self.trials = len(self.seeds)
        self.length = int(length)

    def apply_batch(self, slot: int, received: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            return received
        return received & self.slot_survival(slot)[:, None]

    def slot_survival(self, slot: int) -> np.ndarray:
        """``(B,)`` True where the trial's slot is *not* blacked out.

        The dense tier broadcasts it over columns; the compiled kernel
        draws the same window of start draws in C, against the integer
        threshold of :func:`bernoulli_threshold`.
        """
        survive = np.ones(self.trials, dtype=bool)
        if self.p == 0.0:
            return survive
        for s in range(max(1, slot - self.length + 1), slot + 1):
            u = counter_uniforms(self.seeds, s, 1)
            survive &= u[:, 0] >= self.p
        return survive

    def trial_loss(self, trial: int) -> LossProcess:
        return CounterBurstLoss(self.p, int(self.seeds[trial]), self.length)

    def slice_trials(self, lo: int, hi: int) -> "BurstBatchLoss":
        return BurstBatchLoss(self.p, self.seeds[lo:hi], self.length)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<BurstBatchLoss p={self.p} trials={self.trials} "
                f"length={self.length}>")


class PerTrialBatchLoss(BatchLoss):
    """Adapter batching arbitrary serial :class:`LossProcess` objects.

    Applies each trial's own process to its row — a python loop over B,
    so no vectorisation win, but it lets the batch engine reproduce runs
    that used the legacy PCG64 losses (or mixed loss kinds) exactly.
    """

    def __init__(self, losses: Sequence[LossProcess]) -> None:
        self.losses: List[LossProcess] = list(losses)
        if not self.losses:
            raise ValueError("need at least one trial loss")
        self.trials = len(self.losses)

    def apply_batch(self, slot: int, received: np.ndarray) -> np.ndarray:
        out = np.empty_like(received)
        for b, loss in enumerate(self.losses):
            out[b] = loss.apply(slot, received[b])
        return out

    def trial_loss(self, trial: int) -> LossProcess:
        return self.losses[trial]

    def slice_trials(self, lo: int, hi: int) -> "PerTrialBatchLoss":
        return PerTrialBatchLoss(self.losses[lo:hi])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PerTrialBatchLoss trials={self.trials}>"


def dead_mask_from_coords(topology, coords: Iterable) -> np.ndarray:
    """Boolean per-node mask flagging the failed nodes in *coords*."""
    mask = np.zeros(topology.num_nodes, dtype=bool)
    for c in coords:
        mask[topology.index(c)] = True
    return mask


def random_dead_mask(topology, count: int, seed: int = 0,
                     protect: Sequence[int] = ()) -> np.ndarray:
    """Kill *count* uniformly random nodes (never the ones in *protect*).

    Deterministic given the seed; used by the fault-injection benchmarks.
    """
    n = topology.num_nodes
    allowed = np.ones(n, dtype=bool)
    allowed[[v for v in map(int, protect) if 0 <= v < n]] = False
    candidates = np.flatnonzero(allowed)
    if count > len(candidates):
        raise ValueError(
            f"cannot kill {count} of {len(candidates)} candidate nodes")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=count, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[candidates[chosen]] = True
    return mask
