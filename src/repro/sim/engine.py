"""Slot-synchronous broadcast simulation engine.

Two execution modes:

* :func:`run_reactive` — drives the *wave* semantics of the paper's
  protocols: a designated relay transmits one slot after it first
  successfully receives the message (plus an optional per-node extra delay,
  e.g. the 3D-6 z-relay staggering), optionally repeating its transmission
  a fixed number of slots later (the paper's designated retransmitters),
  and optional *forced* transmissions at absolute slots (repair
  retransmissions added by the schedule compiler).

* :func:`replay` — executes a fixed :class:`BroadcastSchedule` verbatim.
  Used to audit compiled schedules: the replayed trace must achieve 100 %
  reachability and respect causality (see :mod:`repro.core.validate`).

A replay is a wave with no relays, no source start and the schedule as
its forced transmissions, so one slot loop, :func:`_reactive_loop`,
runs both modes.  A faulty replay *checks* its forced pairs as a
reactive run does (a node that never received cannot forward); a
pristine one does not, which is how
:func:`~repro.core.validate.validate_broadcast` sees causality
violations.  Replays report no dropped forced transmissions.  The loop
skips straight to the next forced slot while no relay or recovery work
is due, so far-future slots cost nothing in between.  Only forced pairs
are filtered by liveness (a replay's source may be dead): a dead node
never receives, so it is never a pending relay or a recovery
retransmitter.

The loop is *trial-batched*: :func:`run_reactive_batch` and
:func:`replay_batch` advance B independent Monte-Carlo trials (same plan,
per-trial loss/failure realisations) together, and
:func:`run_reactive_multi` advances B waves with per-trial sources and
plans.  :func:`run_reactive` and :func:`replay` are their one-trial
(B=1) calls on ``engine="auto"``.  Every entry point takes or picks a
slot-resolve tier of :mod:`repro.sim.backend`, demotes to the dense
tier on a backend fault, and only shapes its arguments for
:func:`_reactive_loop`, in which a shared plan is a single broadcast
row.  On the dense tier that loop schedules in Python (slot buckets)
around one resolve/commit/recovery step (:meth:`_BatchState.step`); on
the compiled tier one kernel call runs the whole wave, scheduling,
resolving and (in trace mode) logging every slot in C.  Trial *b* of a
batch is trace-for-trace identical to the one-trial run with trial *b*'s
channel; ``tests/test_batch_differential.py`` pins that down.
Aggregate consumers pass ``summary=True`` to get a
:class:`~repro.sim.summary.TraceSummary` (first_rx / tx / rx counts /
collisions only) and skip the per-event logs entirely.

Both produce a full :class:`~repro.sim.trace.BroadcastTrace` under the
collision model of :mod:`repro.radio.channel`; events accumulate into
preallocated, geometrically grown numpy buffers whose rows become the
trace's columns.  The independent oracle is the pure-python
:mod:`repro.sim.reference` (relay waves, replays and the recovery
layer); the differential suites hold every tier to its traces.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .. import profiling
from ..radio.impairments import BatchLoss, LossProcess, PerTrialBatchLoss
from ..topology.base import Topology
from .backend import (BREAKER, BackendFault, check_engine, demote_tier,
                      make_backend)
from .recovery import (BatchRecoveryState, RecoveryPolicy,
                       relay_like_from_schedule, relay_like_mask)
from .schedule import BroadcastSchedule
from .summary import TraceSummary
from .trace import BroadcastTrace

#: One trial's repeat offsets (``node -> offsets``) and forced
#: transmissions (``slot -> nodes``).
_Repeats = Optional[Mapping[int, Tuple[int, ...]]]
_Forced = Optional[Mapping[int, Iterable[int]]]

#: ``slot -> [(trials, nodes), ...]`` pair buckets.
Buckets = Dict[int, List[Tuple[np.ndarray, np.ndarray]]]

#: Forced pairs by slot: the distinct slots ascending, the offsets of
#: each slot's run (``slots[i]``'s pairs are ``ptr[i]:ptr[i + 1]``), and
#: the pairs' trials and nodes, trial-major with nodes ascending.
ForcedPlan = Tuple[List[int], List[int], np.ndarray, np.ndarray]

_EMPTY = np.empty(0, dtype=np.int64)


def _forced_pairs(forced: Union[_Forced, BroadcastSchedule],
                  num_nodes: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """One trial's forced transmissions — a schedule's for a replay — as
    distinct ``(slot, node)`` pairs in slot then node order, in two
    arrays, plus the default slot cut-off: ``4 * n + 16``, or two past
    the last forced slot.

    Every entry point's forced or scheduled nodes pass through here, so
    this is the one bounds check, made before any kernel sees a node.
    """
    if not forced:
        return _EMPTY, _EMPTY, 4 * num_nodes + 16
    if isinstance(forced, BroadcastSchedule):
        slots, nodes = forced.to_arrays()
        last = forced.max_slot
    else:
        last = max(forced)
        if min(forced) < 1:
            raise ValueError(f"forced slots are 1-based, got "
                             f"{min(forced)}")
        groups = [list(row) for row in forced.values()]
        slots = np.repeat(np.fromiter(forced, np.int64, len(forced)),
                          [len(row) for row in groups])
        nodes = np.fromiter(chain.from_iterable(groups), np.int64,
                            len(slots))
        if len(nodes) > 1:
            order = np.lexsort((nodes, slots))
            slots, nodes = slots[order], nodes[order]
            fresh = np.empty(len(nodes), dtype=bool)
            fresh[0] = True
            np.not_equal(nodes[1:], nodes[:-1], out=fresh[1:])
            fresh[1:] |= slots[1:] != slots[:-1]
            slots, nodes = slots[fresh], nodes[fresh]
    # Negative nodes wrap to huge unsigned ones: one max checks both ends.
    if len(nodes) and nodes.view(np.uint64).max() >= num_nodes:
        bad = nodes[(nodes < 0) | (nodes >= num_nodes)][0]
        raise ValueError(f"node index {bad} out of range [0, {num_nodes})")
    return slots, nodes, max(4 * num_nodes + 16, last + 2)


def _slot_runs(slots: np.ndarray) -> Tuple[List[int], List[int]]:
    """The distinct values of the ascending positive *slots* and the
    offsets of their runs (run ``i`` is ``ptr[i]:ptr[i + 1]``)."""
    starts = np.flatnonzero(np.diff(slots, prepend=0))
    return slots[starts].tolist(), starts.tolist() + [len(slots)]


def _shaped(array, shape: Tuple[int, ...], name: str, dtype) -> np.ndarray:
    array = np.asarray(array, dtype=dtype)
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    return array


def _delays(extra_delay: Optional[np.ndarray], shape: Tuple[int, ...],
            name: str) -> np.ndarray:
    if extra_delay is None:
        return np.zeros(shape, dtype=np.int64)
    extra_delay = _shaped(extra_delay, shape, name, np.int64)
    if (extra_delay < 0).any():
        raise ValueError("extra_delay must be non-negative")
    return extra_delay


class _EventLog:
    """Preallocated, geometrically grown (slot, ...) event buffer.

    Events land in int64 numpy rows during the simulation, so the hot
    loop never performs per-event list appends, and the rows become the
    columns of the :class:`BroadcastTrace`.
    """

    __slots__ = ("_buf", "_len")

    def __init__(self, columns: int, capacity: int = 128) -> None:
        self._buf = np.empty((capacity, columns), dtype=np.int64)
        self._len = 0

    def extend(self, slot: int, *columns: np.ndarray) -> None:
        k = len(columns[0])
        if k == 0:
            return
        need = self._len + k
        if need > self._buf.shape[0]:
            grown = np.empty((max(2 * self._buf.shape[0], need),
                              self._buf.shape[1]), dtype=np.int64)
            grown[:self._len] = self._buf[:self._len]
            self._buf = grown
        rows = self._buf[self._len:need]
        rows[:, 0] = slot
        for j, col in enumerate(columns, start=1):
            rows[:, j] = col
        self._len = need

    def rows(self) -> np.ndarray:
        """The logged ``(k, columns)`` rows (a view of the buffer)."""
        return self._buf[:self._len]


def run_reactive(
    topology: Topology,
    source: int,
    relay_mask: np.ndarray,
    *,
    extra_delay: Optional[np.ndarray] = None,
    repeat_offsets: _Repeats = None,
    forced_tx: _Forced = None,
    max_slots: Optional[int] = None,
    dead_mask: Optional[np.ndarray] = None,
    loss: Optional["LossProcess"] = None,
    recovery: Optional[RecoveryPolicy] = None,
) -> BroadcastTrace:
    """Run a reactive relay wave and return its trace.

    This is one trial of :func:`run_reactive_batch` on ``engine="auto"``
    (a *loss* runs as a one-trial
    :class:`~repro.radio.impairments.PerTrialBatchLoss`, so on the dense
    tier).

    Parameters
    ----------
    topology:
        The network.
    source:
        0-based index of the originating node (always transmits, whether or
        not flagged in *relay_mask*).
    relay_mask:
        Boolean array; True for nodes that relay the message (transmit once,
        one slot after their first successful reception).
    extra_delay:
        Optional int array of additional slots each relay waits beyond the
        default ``first_rx + 1`` (paper: z-relays in the source plane wait
        one extra slot; border relays in Fig. 9 wait two).
    repeat_offsets:
        ``node -> (off1, off2, ...)``: after the node's first transmission
        at slot ``s`` it transmits again at ``s + off`` for each offset
        (the paper's designated retransmitters use ``(1,)``).
    forced_tx:
        ``slot -> nodes`` absolute extra transmissions (compiler repairs).
        A forced transmission is dropped (and recorded in
        ``trace.dropped_forced``) if the node is not informed before that
        slot — a compiled schedule must never trigger this.
    max_slots:
        Safety bound; defaults to ``4 * num_nodes + 16``, or two past the
        last forced slot.
    dead_mask:
        Optional boolean array of failed nodes: they never transmit and
        never receive (fault-injection extension).
    loss:
        Optional :class:`~repro.radio.impairments.LossProcess` erasing
        successful decodes after collision resolution.
    recovery:
        Optional :class:`~repro.sim.recovery.RecoveryPolicy` enabling the
        closed-loop recovery layer (overhear-ACKs, timeout/backoff
        retransmission, suppression, repair election).
    """
    return run_reactive_batch(
        topology, source, relay_mask, extra_delay=extra_delay,
        repeat_offsets=repeat_offsets, forced_tx=forced_tx,
        max_slots=max_slots, dead_masks=_one_trial_mask(topology, dead_mask),
        loss=None if loss is None else PerTrialBatchLoss([loss]),
        trials=1, recovery=recovery, engine="auto")[0]


def replay(topology: Topology, schedule: BroadcastSchedule,
           source: int,
           dead_mask: Optional[np.ndarray] = None,
           loss: Optional["LossProcess"] = None,
           *,
           recovery: Optional[RecoveryPolicy] = None,
           max_slots: Optional[int] = None) -> BroadcastTrace:
    """Execute a fixed schedule verbatim and return the trace: one trial
    of :func:`replay_batch` on ``engine="auto"``, a *loss* as in
    :func:`run_reactive`.

    *dead_mask* / *loss* inject faults into the replay: failed nodes
    neither transmit nor receive, and the loss process erases decodes.
    A fault-injected replay also drops the transmissions of nodes that
    (because of the faults) never obtained the message — a real node
    cannot forward a packet it does not hold.

    With *recovery*, the closed-loop recovery layer runs on top of the
    schedule: scheduled transmitters double as recovery guardians, and
    the replay continues past the schedule horizon while repairs are
    pending.  *max_slots* cuts every replay, recovering or not, as it
    cuts a reactive run; it defaults to ``4 * n + 16``, or two past the
    schedule.
    """
    return replay_batch(
        topology, schedule, source,
        dead_masks=_one_trial_mask(topology, dead_mask), loss=None if loss is None else PerTrialBatchLoss([loss]),
        trials=1, recovery=recovery, max_slots=max_slots,
        engine="auto")[0]


def _one_trial_mask(topology: Topology, dead_mask: Optional[np.ndarray]
                    ) -> Optional[np.ndarray]:
    """A one-trial *dead_mask* as the ``(1, n)`` batch mask."""
    if dead_mask is None:
        return None
    return _shaped(dead_mask, (topology.num_nodes,), "dead_mask", bool)[None]


def sorted_unique_pairs(tr: np.ndarray, nd: np.ndarray, num_nodes: int
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``(trial, node)`` pairs in (trial, node) order:
    exactly ``np.unique(tr * num_nodes + nd)`` split back into trials
    and nodes, by one sort and an adjacent-difference mask.  A slot's
    pairs are mostly a few already-sorted runs, which the stable
    (merging) sort takes in near-linear time."""
    key = tr * num_nodes + nd
    key.sort(kind="stable")
    if len(key) > 1:
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    return np.divmod(key, num_nodes)


def push_buckets(buckets: Buckets, tr: np.ndarray, nd: np.ndarray,
                 slots: np.ndarray) -> None:
    """Bucket (trial, node) pairs by their per-pair *slots* (non-empty).
    Pairs all due in one slot — the common case — go in as one entry
    without a grouping pass."""
    lo, hi = int(slots.min()), int(slots.max())
    if lo == hi:
        buckets.setdefault(lo, []).append((tr, nd))
        return
    for s in np.unique(slots):
        sel = slots == s
        buckets.setdefault(int(s), []).append((tr[sel], nd[sel]))


def _offset_masks(num_nodes: int, repeats_rows: Sequence[_Repeats]
                  ) -> Dict[int, np.ndarray]:
    """Repeat offsets regrouped by offset: ``off -> (rows, n)`` mask of
    the nodes repeating ``off`` slots after each transmission, so
    scheduling a batch of newly informed relays is one boolean gather per
    distinct offset instead of a per-node python loop."""
    masks: Dict[int, np.ndarray] = {}
    for b, repeats in enumerate(repeats_rows):
        # Nodes grouped by their offsets: a hardened plan gives almost
        # every relay the same tuple, so each group is one scatter.
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for v, offs in (repeats or {}).items():
            groups.setdefault(tuple(offs), []).append(v)
        for offs, nodes in groups.items():
            for off in offs:
                if off < 1:
                    raise ValueError(
                        f"repeat offsets must be >= 1, got {off}")
                mask = masks.get(int(off))
                if mask is None:
                    mask = masks[int(off)] = np.zeros(
                        (len(repeats_rows), num_nodes), dtype=bool)
                mask[b, nodes] = True
    return masks


def _forced_schedule(forced_rows: Sequence[Union[_Forced,
                                                 BroadcastSchedule]],
                     trials: int, num_nodes: int, max_slots: Optional[int]
                     ) -> Tuple[ForcedPlan, np.ndarray]:
    """Every trial's forced transmissions as one :data:`ForcedPlan`,
    plus each trial's slot cut-off: the one-trial ``max_slots`` default
    (which depends on the trial's own forced set) unless *max_slots* is
    given.  A single row (a replay's schedule, or a shared
    ``forced_tx``) applies to every trial.  Pairs past a trial's cut-off
    are removed, since the trial would neither execute nor record them.
    """
    if len(forced_rows) == 1:
        slots, nodes, bound = _forced_pairs(forced_rows[0], num_nodes)
        cut = bound if max_slots is None else max_slots
        limit = np.full(trials, cut, dtype=np.int64)
        # The row is slot-sorted, so its cut keeps a prefix.
        k = np.searchsorted(slots, cut, side="right")
        if not k:
            return ([], [0], _EMPTY, _EMPTY), limit
        distinct, ptr = _slot_runs(slots[:k])
        starts = np.array(ptr[:-1], dtype=np.int64)
        counts = np.diff(ptr)
        # Tile the row into every trial: slot i's run is one segment of
        # its counts[i] nodes per trial.
        seg = np.repeat(counts, trials)
        start = np.zeros(len(seg), dtype=np.int64)
        np.cumsum(seg[:-1], out=start[1:])
        at = np.repeat(np.repeat(starts, trials) - start, seg)
        at += np.arange(len(at), dtype=np.int64)
        tr = np.repeat(np.arange(len(seg), dtype=np.int64) % trials, seg)
        return (distinct, [p * trials for p in ptr], tr, nodes[at]), limit
    # Per-trial rows, in one pass: every trial's pairs in flat lists,
    # one bounds check, one cut-off filter and one sort by (slot,
    # trial, node).  The checks raise what _forced_pairs would raise
    # for the first faulty trial.
    rows = [f._slots if isinstance(f, BroadcastSchedule) else (f or {})
            for f in forced_rows]
    sl: List[int] = []
    tr: List[int] = []
    nd: List[int] = []
    for b, row in enumerate(rows):
        for slot, vs in row.items():
            k = len(nd)
            nd.extend(vs)
            sl.extend([slot] * (len(nd) - k))
            tr.extend([b] * (len(nd) - k))
    slots = np.array(sl, dtype=np.int64)
    trial = np.array(tr, dtype=np.int64)
    nodes = np.array(nd, dtype=np.int64)
    early = [b for b, row in enumerate(rows) if row and min(row) < 1]
    # Negative nodes wrap to huge unsigned ones: one compare checks both
    # ends.
    wild = np.flatnonzero(nodes.view(np.uint64) >= num_nodes)
    if early and (not len(wild) or early[0] <= trial[wild[0]]):
        raise ValueError(f"forced slots are 1-based, got "
                         f"{min(rows[early[0]])}")
    if len(wild):
        raise ValueError(f"node index {nodes[wild[0]]} out of range "
                         f"[0, {num_nodes})")
    if max_slots is None:
        last = np.array([max(row, default=0) for row in rows],
                        dtype=np.int64)
        limit = np.maximum(4 * num_nodes + 16, last + 2)
    else:
        limit = np.full(trials, max_slots, dtype=np.int64)
        keep = slots <= max_slots
        slots, trial, nodes = slots[keep], trial[keep], nodes[keep]
    order = np.lexsort((nodes, trial, slots))
    slots, trial, nodes = slots[order], trial[order], nodes[order]
    if len(nodes) > 1:
        fresh = np.empty(len(nodes), dtype=bool)
        fresh[0] = True
        np.not_equal(nodes[1:], nodes[:-1], out=fresh[1:])
        fresh[1:] |= trial[1:] != trial[:-1]
        fresh[1:] |= slots[1:] != slots[:-1]
        slots, trial, nodes = slots[fresh], trial[fresh], nodes[fresh]
    return (*_slot_runs(slots), trial, nodes), limit


def _resolve_trials(trials: Optional[int],
                    dead_masks: Optional[np.ndarray],
                    loss: Optional[BatchLoss],
                    num_nodes: int) -> Tuple[int, Optional[np.ndarray]]:
    """Infer/validate the batch size B and normalise *dead_masks*."""
    if dead_masks is not None:
        dead_masks = np.asarray(dead_masks, dtype=bool)
        if dead_masks.ndim != 2 or dead_masks.shape[1] != num_nodes:
            raise ValueError(
                f"dead_masks must have shape (trials, {num_nodes})")
    candidates = []
    if trials is not None:
        candidates.append(int(trials))
    if loss is not None:
        candidates.append(int(loss.trials))
    if dead_masks is not None:
        candidates.append(int(dead_masks.shape[0]))
    if not candidates:
        raise ValueError(
            "cannot infer the batch size: pass trials=, a BatchLoss, or "
            "a (trials, n) dead_masks array")
    b = candidates[0]
    if any(c != b for c in candidates[1:]):
        raise ValueError(
            f"inconsistent batch sizes: trials={trials}, "
            f"loss={'-' if loss is None else loss.trials}, "
            f"dead_masks={'-' if dead_masks is None else dead_masks.shape}")
    if b < 1:
        raise ValueError("need at least one trial")
    return b, dead_masks


class _BatchState:
    """One batched simulation: its (B, n) arrays and its slot step.

    Owns the per-trial first-reception matrix, the count matrices
    (summary mode) or, on the dense tier, the per-event logs (trace
    mode; the compiled kernel keeps its own), the slot-resolve tier and
    the recovery state.  :meth:`step` is the dense
    tier's resolve/commit/recovery step; the compiled backend runs the
    same step inside its kernel.  With a recovery policy, *slot_bound*
    is the last slot the loop can reach.
    """

    def __init__(self, topology: Topology, source: Union[int, np.ndarray],
                 trials: int, summary: bool, *,
                 dead_masks: Optional[np.ndarray] = None,
                 loss: Optional[BatchLoss] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 relay_like: Optional[np.ndarray] = None,
                 engine: str = "batch", slot_bound: int = 0) -> None:
        n = topology.num_nodes
        self.n = n
        self.source = source
        self.trials = trials
        self.summary = summary
        self.kernel = topology.slot_kernel
        self.alive = None if dead_masks is None else ~dead_masks
        self.loss = loss
        # Trial b originates at sources[b]: its own node under
        # run_reactive_multi, the broadcast scalar source otherwise.
        self.sources = np.broadcast_to(np.asarray(source, dtype=np.int64),
                                       (trials,))
        self.first_rx = np.full((trials, n), -1, dtype=np.int64)
        self.first_rx[np.arange(trials), self.sources] = 0
        self.dropped_forced: List[List[Tuple[int, int]]] = [
            [] for _ in range(trials)]
        if summary:
            self.tx_count = np.zeros((trials, n), dtype=np.int64)
            self.rx_count = np.zeros((trials, n), dtype=np.int64)
            self.collisions = np.zeros(trials, dtype=np.int64)
        self.need_senders = not summary or recovery is not None
        self.backend = make_backend(self.kernel, trials, engine, loss,
                                    self.alive,
                                    need_senders=self.need_senders,
                                    need_coll_pairs=not summary)
        if self.backend is None and not summary:
            # The dense tier's trace logs; the kernel keeps its own.
            self.tx_log = _EventLog(3)    # slot, trial, node
            self.rx_log = _EventLog(4)    # slot, trial, receiver, sender
            self.coll_log = _EventLog(3)  # slot, trial, node
        elif self.backend is not None:
            # The compiled kernel commits each slot into these arrays.
            self.backend.bind(self.first_rx, *((self.tx_count,
                                                self.rx_count,
                                                self.collisions)
                                               if summary else ()))
        self.rec = None
        if recovery is not None:
            if self.backend is not None:
                # The compiled backend owns a recovery state matched to
                # its resolve tier (bit-identical to BatchRecoveryState)
                # and runs its post-slot update inside the resolve.
                self.rec = self.backend.make_recovery(
                    topology, recovery, relay_like, trials, slot_bound)
            else:
                self.rec = BatchRecoveryState(topology, recovery,
                                              relay_like, trials)

    def step(self, t: int, tr: np.ndarray, nd: np.ndarray,
             dedup: bool) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Run slot *t*: the caller's ``(trial, node)`` transmissions plus
        the recovery layer's, resolved, committed and fed back to the
        recovery state.  Returns the newly informed pairs, or ``None``
        for a silent slot.

        The caller's pairs must be alive; *dedup* says they may repeat or
        leave (trial, node) order (several pending segments in one slot).
        """
        rec = self.rec
        if rec is not None:
            with profiling.phase("recovery-pre"):
                r_tr, r_nd = rec.pre_slot(t)
            if len(r_nd):
                # Recovery retransmitters are informed (hence alive) by
                # construction, but they carry no order of their own and
                # can duplicate scheduled transmissions.
                tr = np.concatenate([tr, r_tr])
                nd = np.concatenate([nd, r_nd])
                dedup = True
        if len(nd) == 0:
            return None
        if dedup:
            # A slot's transmitters are a *set*: duplicates collapse, and
            # the sorted-unique order is the one the event logs rely on.
            tr, nd = sorted_unique_pairs(tr, nd, self.n)
        _, received, collided, senders = self.kernel.resolve_batch(
            nd, tr, self.trials)
        if self.alive is not None:
            received &= self.alive
            collided &= self.alive
        if self.loss is not None:
            with profiling.phase("loss-rng"):
                received = self.loss.apply_batch(t, received)
        with profiling.phase("commit"):
            rt, rn = received.nonzero()
            sv = senders[rt, rn] if self.need_senders else None
            coll = (collided.sum(axis=1) if self.summary
                    else collided.nonzero())
            nt, nn = self.commit_sparse(t, tr, nd, rt, rn, sv, coll)
        if rec is not None:
            with profiling.phase("recovery-post"):
                rec.post_slot(t, tr, nd, rt, rn, sv, nt, nn)
        return nt, nn

    def commit_sparse(self, t: int, tr: np.ndarray, nd: np.ndarray,
                      rt: np.ndarray, rn: np.ndarray,
                      sv: Optional[np.ndarray],
                      coll: Union[np.ndarray,
                                  Tuple[np.ndarray, np.ndarray]]
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Log one resolved slot from sparse outcomes (the dense tier's
        commit; the compiled kernel fuses the same update).

        ``(rt, rn)`` are the received pairs in (trial, node) order with
        senders *sv* (required in trace mode); *coll* is the per-trial
        collision-count vector (summary mode) or ``(ct, cn)`` collision
        pairs (trace mode).  Returns the newly informed pairs.
        """
        if self.summary:
            # (tr, nd) and (rt, rn) pairs are unique within a slot, so
            # plain fancy-index increments suffice (no np.add.at).
            self.tx_count[tr, nd] += 1
            self.rx_count[rt, rn] += 1
            self.collisions += coll
        else:
            self.tx_log.extend(t, tr, nd)
            self.coll_log.extend(t, *coll)
            self.rx_log.extend(t, rt, rn, sv)
        new = self.first_rx[rt, rn] < 0
        nt, nn = rt[new], rn[new]
        self.first_rx[nt, nn] = t
        return nt, nn

    def finish(self, logs: Optional[Tuple[np.ndarray, np.ndarray,
                                          np.ndarray]] = None
               ) -> Union[TraceSummary, List[BroadcastTrace]]:
        """The run's result.  In trace mode *logs* are the compiled
        tier's ``(tx, rx, collision)`` event rows; the dense tier's own
        logs are used when it is ``None``."""
        if self.backend is not None:
            BREAKER.record_success(self.backend.name)
        if self.summary:
            return TraceSummary(
                num_nodes=self.n, source=self.source, trials=self.trials,
                first_rx=self.first_rx, tx_count=self.tx_count,
                rx_count=self.rx_count, collisions=self.collisions,
                dropped_forced=self.dropped_forced)
        if logs is None:
            logs = (self.tx_log.rows(), self.rx_log.rows(),
                    self.coll_log.rows())
        tx, rx, coll = (self._by_trial(rows, columns) for rows, columns in
                        zip(logs, ((0, 2), (0, 2, 3), (0, 2))))
        return [BroadcastTrace(
                    num_nodes=self.n, source=int(self.sources[b]),
                    first_rx=self.first_rx[b].copy(), tx=tx[b], rx=rx[b],
                    collisions=coll[b], dropped_forced=self.dropped_forced[b])
                for b in range(self.trials)]

    def _by_trial(self, rows: np.ndarray, columns: Tuple[int, ...]
                  ) -> List[np.ndarray]:
        """Split ``(slot, trial, ...)`` event *rows* into per-trial rows
        of *columns*, each its own copy (a cached trace never pins the
        batch's log).

        Rows were appended slot by slot in (trial, node) order, so a
        stable sort on the trial column keeps each trial's events in
        chronological, node-sorted order.
        """
        columns = np.array(columns)
        if self.trials == 1:
            return [rows[:, columns]]
        order = np.argsort(rows[:, 1], kind="stable")
        cuts = np.zeros(self.trials + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[:, 1], minlength=self.trials),
                  out=cuts[1:])
        picked = rows[order[:, None], columns]
        cuts = cuts.tolist()
        return [picked[cuts[b]:cuts[b + 1]].copy()
                for b in range(self.trials)]


def _reactive_loop(
    state: _BatchState,
    relay: np.ndarray,
    delay: np.ndarray,
    offsets: Dict[int, np.ndarray],
    forced: ForcedPlan,
    limit: np.ndarray,
    *,
    replay: bool = False,
    checked: bool = True,
) -> Union[TraceSummary, List[BroadcastTrace]]:
    """The batched slot loop of every batched entry point.

    Trial *b* originates at its source in *state* (per-trial, or one
    scalar source) and follows plan row *b* of *relay* / *delay* /
    *offsets* — or row 0 for every trial when the plan is one shared
    row.  *forced* and the per-trial cut-off *limit* come from
    :func:`_forced_schedule`.  A *replay* starts no source and records
    no dropped forced pairs, and with ``checked=False`` its forced pairs
    transmit whether or not their node was informed.
    The compiled tier hands all of this to the kernel's scheduler
    (:func:`_compiled_reactive_loop`); the dense tier schedules here, in
    Python slot buckets — the oracle the C calendar is held to.
    """
    backend = state.backend
    if backend is not None:
        return _compiled_reactive_loop(state, backend, relay, delay,
                                       offsets, forced, limit, replay,
                                       checked)
    # A replay's plan has no relays: skipping the per-slot relay lookup
    # keeps a small-lattice batched replay within 5% of a slot walk.
    relays = relay.any()
    shared = relay.shape[0] == 1
    if shared:
        # A shared plan's one row is indexed by node alone: a 1-D gather
        # costs a third of a mixed scalar/array one, every slot.
        relay, delay = relay[0], delay[0]
        offsets = {off: mask[0] for off, mask in offsets.items()}

    def at(rows, tr, nd):
        return rows[nd] if shared else rows[tr, nd]

    pending: Buckets = {}

    def schedule_pairs(tr: np.ndarray, nd: np.ndarray,
                       base: np.ndarray) -> None:
        """Schedule (trial, node) pairs firing at per-pair *base* slots,
        plus each node's repeat transmissions."""
        push_buckets(pending, tr, nd, base)
        for off, mask in offsets.items():
            has = at(mask, tr, nd)
            if has.any():
                push_buckets(pending, tr[has], nd[has], base[has] + off)

    if not replay:
        all_trials = np.arange(state.trials, dtype=np.int64)
        schedule_pairs(all_trials, state.sources,
                       1 + at(delay, all_trials, state.sources))

    f_slots, f_ptr, f_tr, f_nd = forced
    fi = 0
    rec = state.rec
    cut, max_limit = int(limit.min()), int(limit.max())
    t = 0
    while True:
        # Step while relay or recovery work is pending, else skip to
        # the next forced slot.
        if pending or (rec is not None and t < rec.horizon):
            t += 1
        elif fi < len(f_slots):
            t = f_slots[fi]
        else:
            break
        if t > max_limit:
            break
        entries = pending.pop(t, None)
        if entries:
            tr = np.concatenate([e[0] for e in entries])
            nd = np.concatenate([e[1] for e in entries])
            if t > cut:
                # Per-trial cut-off: trial b's slots end at its own
                # bound.
                keep = limit[tr] >= t
                tr, nd = tr[keep], nd[keep]
        else:
            tr, nd = _EMPTY, _EMPTY
        # Each pending entry is a subset of a sorted-unique commit, so
        # a lone entry needs no dedup pass.
        segments = len(entries) if entries else 0
        if fi < len(f_slots) and f_slots[fi] == t:
            ft = f_tr[f_ptr[fi]:f_ptr[fi + 1]]
            fn = f_nd[f_ptr[fi]:f_ptr[fi + 1]]
            fi += 1
            if checked:
                # Informed before t: first_rx in [0, t), -1 wrapping to
                # a huge unsigned value.
                ok = state.first_rx[ft, fn].view(np.uint64) < t
                if not replay:
                    for b, v in zip(ft[~ok].tolist(), fn[~ok].tolist()):
                        state.dropped_forced[b].append((t, v))
                if state.alive is not None:
                    ok &= state.alive[ft, fn]
                ft, fn = ft[ok], fn[ok]
            if segments:
                tr, nd = np.concatenate([tr, ft]), np.concatenate([nd, fn])
            else:
                tr, nd = ft, fn
            segments += 1
        new = state.step(t, tr, nd, dedup=segments > 1)
        if new is None or not relays:
            continue
        nt, nn = new
        if len(nn):
            rel = at(relay, nt, nn)
            if rel.any():
                rel_t, rel_n = nt[rel], nn[rel]
                schedule_pairs(rel_t, rel_n,
                               t + 1 + at(delay, rel_t, rel_n))
    return state.finish()


def _compiled_reactive_loop(
    state: _BatchState,
    backend,
    relay: np.ndarray,
    delay: np.ndarray,
    offsets: Dict[int, np.ndarray],
    forced: ForcedPlan,
    limit: np.ndarray,
    replay: bool,
    checked: bool,
) -> Union[TraceSummary, List[BroadcastTrace]]:
    """:func:`_reactive_loop` on the compiled tier: one kernel call runs
    the whole wave.

    The kernel's calendar schedules every slot (relays, forced and
    recovery transmissions; the per-trial cut-off, the forced pairs'
    alive filter and the dropped-forced log included), and each slot is
    resolved and committed in C, which also appends the trace-mode event
    logs.  Python only splits those logs by trial at the end.  The call
    is profiled as ``resolve``.  Any backend exception (injected via
    :data:`repro.faults.BACKEND_RESOLVE` or organic) becomes a
    :class:`~repro.sim.backend.BackendFault`, so the demotion wrapper
    reruns the whole batch on the dense tier.
    """
    try:
        backend.schedule(relay, delay, offsets, forced, limit,
                         None if replay else state.sources, checked)
        with profiling.phase("resolve"):
            logs = backend.run()
    except Exception as exc:
        raise BackendFault(backend.name, exc) from exc
    if not replay:
        for t, b, v in backend.dropped_forced():
            state.dropped_forced[b].append((t, v))
    return state.finish(logs)


def _run_reactive_batch_impl(
    topology: Topology,
    source: int,
    relay_mask: np.ndarray,
    *,
    extra_delay: Optional[np.ndarray] = None,
    repeat_offsets: _Repeats = None,
    forced_tx: _Forced = None,
    max_slots: Optional[int] = None,
    dead_masks: Optional[np.ndarray] = None,
    loss: Optional[BatchLoss] = None,
    trials: Optional[int] = None,
    summary: bool = False,
    recovery: Optional[RecoveryPolicy] = None,
    engine: str = "batch",
) -> Union[TraceSummary, List[BroadcastTrace]]:
    """Run B independent reactive relay waves batched slot-by-slot.

    Every trial executes the same relay plan (*relay_mask*,
    *extra_delay*, *repeat_offsets*, *forced_tx*) and recovery policy,
    but its own channel realisation: row *b* of *dead_masks* and trial
    *b* of the :class:`~repro.radio.impairments.BatchLoss`.  Trial *b*'s
    outcome is trace-for-trace identical to::

        run_reactive(topology, source, relay_mask, ...,
                     dead_mask=dead_masks[b], loss=loss.trial_loss(b),
                     recovery=recovery)

    The batch size is inferred from *trials*, *loss* or *dead_masks*
    (which must agree).  With ``summary=False`` the result is a list of B
    :class:`~repro.sim.trace.BroadcastTrace`; with ``summary=True`` a
    :class:`~repro.sim.summary.TraceSummary` holding only the aggregate
    arrays (no per-event rows are logged).

    *engine* selects the slot-resolve tier (see :mod:`repro.sim.
    backend`): ``"batch"`` (dense, default), ``"compiled"``, or
    ``"auto"`` — all bit-identical.
    """
    check_engine(engine)
    n = topology.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range")
    batch, dead_masks = _resolve_trials(trials, dead_masks, loss, n)
    if dead_masks is not None and dead_masks[:, source].any():
        raise ValueError("the source node cannot be dead")
    relay_mask = _shaped(relay_mask, (n,), "relay_mask", bool)
    extra_delay = _delays(extra_delay, (n,), "extra_delay")
    offsets = _offset_masks(n, [repeat_offsets])
    forced, limit = _forced_schedule([forced_tx], batch, n, max_slots)
    state = _BatchState(
        topology, source, batch, summary, dead_masks=dead_masks, loss=loss,
        recovery=recovery, engine=engine, slot_bound=int(limit.max()),
        relay_like=(None if recovery is None
                    else relay_like_mask(n, relay_mask, source)))
    return _reactive_loop(state, relay_mask[None], extra_delay[None],
                          offsets, forced, limit)


def _run_reactive_multi_impl(
    topology: Topology,
    sources: np.ndarray,
    relay_masks: np.ndarray,
    *,
    extra_delays: Optional[np.ndarray] = None,
    repeat_offsets_list: Optional[Sequence[_Repeats]] = None,
    forced_tx_list: Optional[Sequence[_Forced]] = None,
    max_slots: Optional[int] = None,
    summary: bool = False,
    engine: str = "auto",
) -> Union[TraceSummary, List[BroadcastTrace]]:
    """Run B reactive waves with *per-trial* sources and relay plans.

    Where :func:`run_reactive_batch` varies the channel realisation under
    one shared plan, this entry point varies the *broadcast itself*: trial
    *b* originates at ``sources[b]`` and executes relay plan row *b*
    (``relay_masks[b]``, ``extra_delays[b]``, ``repeat_offsets_list[b]``)
    plus its own forced transmissions ``forced_tx_list[b]``.  This is the
    engine under the symmetry-reduced sweep: one equivalence class of
    source positions advances through a single CSR gather + bincount per
    slot instead of B separate python slot loops.  Both entry points
    shape their arguments for the same batched slot loop.

    Trial *b* is trace-for-trace identical to::

        run_reactive(topology, sources[b], relay_masks[b],
                     extra_delay=extra_delays[b],
                     repeat_offsets=repeat_offsets_list[b],
                     forced_tx=forced_tx_list[b])

    including the one-trial ``max_slots`` default (each
    trial is cut off at its own bound, which depends on its forced set),
    dropped-forced bookkeeping, and intra-slot node-sorted event order.
    With ``summary=True`` the result is a
    :class:`~repro.sim.summary.TraceSummary` whose ``source`` attribute
    is the per-trial ``(B,)`` source array.

    *engine* selects the slot-resolve tier as for
    :func:`run_reactive_batch`, but defaults to ``"auto"``: the compiled
    tier (kernel-side scheduling included) wherever it builds, the dense
    tier otherwise — all bit-identical.
    """
    check_engine(engine)
    n = topology.num_nodes
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1 or len(sources) < 1:
        raise ValueError("sources must be a non-empty 1-D index array")
    if ((sources < 0) | (sources >= n)).any():
        raise ValueError("source index out of range")
    batch = len(sources)
    relay_masks = _shaped(relay_masks, (batch, n), "relay_masks", bool)
    extra_delays = _delays(extra_delays, (batch, n), "extra_delays")
    for name, rows in (("repeat_offsets_list", repeat_offsets_list),
                       ("forced_tx_list", forced_tx_list)):
        if rows is not None and len(rows) != batch:
            raise ValueError(f"{name} must have one entry per trial")
    offsets = _offset_masks(n, repeat_offsets_list or [None])
    forced, limit = _forced_schedule(forced_tx_list or [None], batch, n,
                                     max_slots)
    state = _BatchState(topology, sources, batch, summary, engine=engine)
    return _reactive_loop(state, relay_masks, extra_delays, offsets,
                          forced, limit)


def _replay_batch_impl(
    topology: Topology,
    schedule: BroadcastSchedule,
    source: int,
    dead_masks: Optional[np.ndarray] = None,
    loss: Optional[BatchLoss] = None,
    trials: Optional[int] = None,
    summary: bool = False,
    recovery: Optional[RecoveryPolicy] = None,
    max_slots: Optional[int] = None,
    engine: str = "batch",
) -> Union[TraceSummary, List[BroadcastTrace]]:
    """Execute a fixed schedule for B fault realisations batched together.

    Trial *b* is trace-for-trace identical to
    ``replay(topology, schedule, source, dead_mask=dead_masks[b],
    loss=loss.trial_loss(b), recovery=recovery, max_slots=max_slots)``;
    see :func:`run_reactive_batch` for the batch-size, output and
    *engine* conventions and :func:`replay` for the recovery semantics
    and the *max_slots* cut-off.  The schedule runs as
    :func:`_reactive_loop`'s forced pairs under an all-False relay plan.
    """
    check_engine(engine)
    n = topology.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range")
    batch, dead_masks = _resolve_trials(trials, dead_masks, loss, n)
    forced, limit = _forced_schedule([schedule], batch, n, max_slots)
    state = _BatchState(
        topology, source, batch, summary, dead_masks=dead_masks, loss=loss,
        recovery=recovery, engine=engine, slot_bound=int(limit.max()),
        relay_like=(None if recovery is None
                    else relay_like_from_schedule(n, schedule)))
    return _reactive_loop(state, np.zeros((1, n), dtype=bool),
                          np.zeros((1, n), dtype=np.int64), {}, forced,
                          limit, replay=True,
                          checked=dead_masks is not None or loss is not None)


def _with_tier_demotion(impl):
    """Public face of a batched run: retry one tier down on backend fault.

    The engine tiers are bit-identical, so rerunning a faulted batch at
    the demoted tier produces exactly the answer the failed tier would
    have; the caller never sees the fault.  Each demotion feeds the
    circuit breaker (:data:`~repro.sim.backend.BREAKER`), so a tier that
    keeps dying gets skipped up front by :func:`~repro.sim.backend.
    resolve_engine` — with the reason surfaced in the CLI
    engine-decision line.  The ladder is finite (compiled -> batch, and
    the dense tier has no backend to fault), so the loop terminates.
    """
    @functools.wraps(impl)
    def run(*args, **kwargs):
        while True:
            try:
                return impl(*args, **kwargs)
            except BackendFault as fault:
                kwargs["engine"] = demote_tier(
                    fault.tier, f"{type(fault.cause).__name__}: "
                                f"{fault.cause}")
    return run


run_reactive_batch = _with_tier_demotion(_run_reactive_batch_impl)
run_reactive_batch.__name__ = run_reactive_batch.__qualname__ = \
    "run_reactive_batch"
replay_batch = _with_tier_demotion(_replay_batch_impl)
replay_batch.__name__ = replay_batch.__qualname__ = "replay_batch"
run_reactive_multi = _with_tier_demotion(_run_reactive_multi_impl)
run_reactive_multi.__name__ = run_reactive_multi.__qualname__ = \
    "run_reactive_multi"
