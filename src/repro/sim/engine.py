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

Both modes also exist *trial-batched* — :func:`run_reactive_batch` and
:func:`replay_batch` advance B independent Monte-Carlo trials (same plan,
per-trial loss/failure realisations) together, and
:func:`run_reactive_multi` advances B waves with per-trial sources and
plans.  The two reactive entry points only shape their arguments for one
batched slot loop, in which a shared plan is a single broadcast row; the
reactive and replay batches share one resolve/commit/recovery step
(:meth:`_BatchState.step`), whose slot-resolve tiers
(:mod:`repro.sim.backend`) differ only in their kernels.  Every batched
trial is trace-for-trace identical to a serial run with the same
per-trial seed; the differential suite pins that down.  The serial
engine stays as the schedule compiler's wave and as that oracle.
Aggregate consumers pass
``summary=True`` to get a :class:`~repro.sim.summary.TraceSummary`
(first_rx / tx / rx counts / collisions only) and skip per-event tuple
materialisation entirely.

Both produce a full :class:`~repro.sim.trace.BroadcastTrace` under the
collision model of :mod:`repro.radio.channel`.

This is the *vectorised* production path: every slot is resolved by the
batched :class:`~repro.radio.channel.SlotKernel` (one CSR gather + two
bincounts, with sender attribution computed for all receivers in the same
pass), events accumulate into preallocated, geometrically grown numpy
buffers rather than per-event list appends, and the reactive scheduler
tracks the maximum scheduled slot instead of rescanning the pending map
every slot.  The unoptimised oracle lives in :mod:`repro.sim.reference`;
the differential test-suite proves the two produce identical traces.
"""

from __future__ import annotations

import functools

from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

import numpy as np

from .. import profiling
from ..radio.impairments import BatchLoss, LossProcess
from ..topology.base import Topology
from .backend import (BREAKER, BackendFault, check_engine, demote_tier,
                      make_backend)
from .recovery import (BatchRecoveryState, RecoveryPolicy, RecoveryState,
                       relay_like_from_schedule, relay_like_mask)
from .schedule import BroadcastSchedule
from .summary import TraceSummary
from .trace import BroadcastTrace

#: One trial's repeat offsets (``node -> offsets``) and forced
#: transmissions (``slot -> nodes``).
_Repeats = Optional[Mapping[int, Tuple[int, ...]]]
_Forced = Optional[Mapping[int, Iterable[int]]]


def _normalize_forced(forced_tx: _Forced) -> Dict[int, Set[int]]:
    out: Dict[int, Set[int]] = {}
    if forced_tx:
        for slot, nodes in forced_tx.items():
            if slot < 1:
                raise ValueError(f"forced slots are 1-based, got {slot}")
            out[int(slot)] = {int(v) for v in nodes}
    return out


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

    Events land in int64 numpy rows during the simulation; the python
    tuple lists of :class:`BroadcastTrace` are materialised once at the
    end (``tolist`` converts at C speed), so the hot loop never performs
    per-event list appends.
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

    def tuples(self) -> List[tuple]:
        return list(map(tuple, self._buf[:self._len].tolist()))


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
        Safety bound; defaults to ``4 * num_nodes + 16``.
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
    n = topology.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range")
    if dead_mask is not None:
        dead_mask = _shaped(dead_mask, (n,), "dead_mask", bool)
        if dead_mask[source]:
            raise ValueError("the source node cannot be dead")
    relay_mask = _shaped(relay_mask, (n,), "relay_mask", bool)
    extra_delay = _delays(extra_delay, (n,), "extra_delay")
    repeats = dict(repeat_offsets or {})
    for offs in repeats.values():
        for off in offs:
            if off < 1:
                raise ValueError(f"repeat offsets must be >= 1, got {off}")
    forced = _normalize_forced(forced_tx)
    if max_slots is None:
        # cover the natural wave plus any far-future forced transmissions
        max_slots = max(4 * n + 16, max(forced, default=0) + 2)

    kernel = topology.slot_kernel
    first_rx = np.full(n, -1, dtype=np.int64)
    first_rx[source] = 0
    tx_log = _EventLog(2)
    rx_log = _EventLog(3)
    coll_log = _EventLog(2)
    dropped_forced: List[Tuple[int, int]] = []

    alive_mask = None if dead_mask is None else ~dead_mask
    pending: Dict[int, Set[int]] = {}
    # Every scheduled slot is strictly in the future of the slot that
    # created it, so tracking the maximum scheduled slot replaces the
    # O(slots) "any future work?" rescan of the pending/forced maps.
    horizon = max(forced, default=0)

    repeats_get = repeats.get
    pending_setdefault = pending.setdefault

    def schedule_node(v: int, base_slot: int) -> None:
        """Schedule v's transmission(s) starting at *base_slot*."""
        nonlocal horizon
        pending_setdefault(base_slot, set()).add(v)
        last = base_slot
        for off in repeats_get(v, ()):
            s = base_slot + off
            pending_setdefault(s, set()).add(v)
            if s > last:
                last = s
        if last > horizon:
            horizon = last

    schedule_node(source, 1 + int(extra_delay[source]))

    rec = None
    if recovery is not None:
        rec = RecoveryState(topology, recovery,
                            relay_like_mask(n, relay_mask, source))

    t = 0
    while t < max_slots and (t < horizon
                             or (rec is not None and t < rec.horizon)):
        t += 1
        tx_set = pending.pop(t, set())
        for v in sorted(forced.pop(t, ())):
            if 0 <= first_rx[v] < t:
                tx_set.add(v)
            else:
                dropped_forced.append((t, int(v)))
        if dead_mask is not None:
            tx_set = {v for v in tx_set if not dead_mask[v]}
        if rec is not None:
            # Recovery retransmitters are informed (hence alive) by
            # construction, so joining after the dead filter is safe.
            tx_set |= rec.pre_slot(t)
        if not tx_set:
            continue
        _execute_slot(kernel, t, tx_set, first_rx,
                      tx_log, rx_log, coll_log,
                      relay_mask, extra_delay, schedule_node,
                      alive_mask=alive_mask, loss=loss, recovery=rec)
    return BroadcastTrace(
        num_nodes=n, source=source, first_rx=first_rx,
        tx_events=tx_log.tuples(), rx_events=rx_log.tuples(),
        collision_events=coll_log.tuples(), dropped_forced=dropped_forced)


def replay(topology: Topology, schedule: BroadcastSchedule,
           source: int,
           dead_mask: Optional[np.ndarray] = None,
           loss: Optional["LossProcess"] = None,
           *,
           recovery: Optional[RecoveryPolicy] = None,
           max_slots: Optional[int] = None) -> BroadcastTrace:
    """Execute a fixed schedule verbatim and return the trace.

    *dead_mask* / *loss* inject faults into the replay: failed nodes
    neither transmit nor receive, and the loss process erases decodes.
    A fault-injected replay also drops the transmissions of nodes that
    (because of the faults) never obtained the message — a real node
    cannot forward a packet it does not hold.

    With *recovery*, the closed-loop recovery layer runs on top of the
    schedule: scheduled transmitters double as recovery guardians, and
    the replay continues past the schedule horizon while repairs are
    pending (bounded by *max_slots*, default ``4 * n + 16``).
    """
    n = topology.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range")
    if dead_mask is not None:
        dead_mask = _shaped(dead_mask, (n,), "dead_mask", bool)
    kernel = topology.slot_kernel
    first_rx = np.full(n, -1, dtype=np.int64)
    first_rx[source] = 0
    tx_log = _EventLog(2)
    rx_log = _EventLog(3)
    coll_log = _EventLog(2)
    alive_mask = None if dead_mask is None else ~dead_mask
    faulty = dead_mask is not None or loss is not None
    rec = None
    if recovery is not None:
        rec = RecoveryState(topology, recovery,
                            relay_like_from_schedule(n, schedule))
    for t in _replay_slots(schedule, rec, max_slots, n):
        tx_set = schedule.transmitters(t)
        if dead_mask is not None:
            tx_set = {v for v in tx_set if not dead_mask[v]}
        if faulty:
            # a node that never received cannot forward
            tx_set = {v for v in tx_set
                      if v == source or 0 <= first_rx[v] < t}
        if rec is not None:
            tx_set |= rec.pre_slot(t)
        if not tx_set:
            continue
        _execute_slot(kernel, t, tx_set, first_rx,
                      tx_log, rx_log, coll_log,
                      relay_mask=None, extra_delay=None, schedule_node=None,
                      alive_mask=alive_mask, loss=loss, recovery=rec)
    return BroadcastTrace(
        num_nodes=n, source=source, first_rx=first_rx,
        tx_events=tx_log.tuples(), rx_events=rx_log.tuples(),
        collision_events=coll_log.tuples())


def _replay_slots(schedule: BroadcastSchedule, rec,
                  max_slots: Optional[int], num_nodes: int
                  ) -> Iterable[int]:
    """The slots a replay visits: the schedule's active slots, or — with
    a recovery state *rec* — every slot while scheduled *or* recovery
    work remains, since recovery inserts transmissions into arbitrary
    slots and past the schedule horizon.  The recovery horizon grows as
    episodes are scheduled, so it is re-read each slot; *max_slots*
    (default ``4 * n + 16``) bounds the walk."""
    if rec is None:
        yield from schedule.active_slots()
        return
    bound = schedule.max_slot
    if max_slots is None:
        max_slots = max(4 * num_nodes + 16, bound + 2)
    t = 0
    while t < max_slots and (t < bound or t < rec.horizon):
        t += 1
        yield t


_EMPTY = np.empty(0, dtype=np.int64)


def _offset_masks(num_nodes: int, repeats_rows: Sequence[_Repeats]
                  ) -> Dict[int, np.ndarray]:
    """Repeat offsets regrouped by offset: ``off -> (rows, n)`` mask of
    the nodes repeating ``off`` slots after each transmission, so
    scheduling a batch of newly informed relays is one boolean gather per
    distinct offset instead of a per-node python loop."""
    masks: Dict[int, np.ndarray] = {}
    for b, repeats in enumerate(repeats_rows):
        for v, offs in (repeats or {}).items():
            for off in offs:
                if off < 1:
                    raise ValueError(
                        f"repeat offsets must be >= 1, got {off}")
                masks.setdefault(int(off), np.zeros(
                    (len(repeats_rows), num_nodes), dtype=bool))[b, int(v)] \
                    = True
    return masks


def _forced_schedule(forced_rows: Sequence[_Forced], trials: int,
                     num_nodes: int, max_slots: Optional[int]
                     ) -> Tuple[Dict[int, Tuple[np.ndarray, np.ndarray]],
                                np.ndarray]:
    """Forced transmissions as ``slot -> (trials, nodes)`` pair arrays,
    plus each trial's slot cut-off.

    A single row applies to every trial.  Pairs run trial-major with
    nodes ascending, so dropped-forced entries append in the serial
    engine's sorted order.  Each trial's cut-off is the serial engine's
    ``max_slots`` default (which depends on its own forced set) unless
    *max_slots* is given; pairs past a trial's cut-off are removed, since
    the serial engine would neither execute nor record them.
    """
    rows = [_normalize_forced(f) for f in forced_rows]
    if len(rows) == 1:
        rows *= trials
    limit = np.full(trials, 4 * num_nodes + 16, dtype=np.int64)
    pairs: Dict[int, List[Tuple[int, int]]] = {}
    for b, forced in enumerate(rows):
        limit[b] = max(limit[b], max(forced, default=0) + 2)
        for slot, nodes in forced.items():
            pairs.setdefault(slot, []).extend((b, v) for v in sorted(nodes))
    if max_slots is not None:
        limit[:] = max_slots
    forced_at = {}
    for slot, items in pairs.items():
        f_tr, f_nd = np.array(items, dtype=np.int64).T
        keep = limit[f_tr] >= slot
        forced_at[slot] = (f_tr[keep], f_nd[keep])
    return forced_at, limit


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

    Owns the per-trial first-reception matrix, either the per-event logs
    (full trace mode) or the count matrices (summary mode), the
    slot-resolve tier and the recovery state, so the reactive and replay
    loops share one resolve/commit/recovery step (:meth:`step`) and
    differ only in how they choose each slot's transmitters.
    """

    def __init__(self, topology: Topology, source: Union[int, np.ndarray],
                 trials: int, summary: bool, *,
                 dead_masks: Optional[np.ndarray] = None,
                 loss: Optional[BatchLoss] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 relay_like: Optional[np.ndarray] = None,
                 engine: str = "batch",
                 threads: Optional[int] = None) -> None:
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
        else:
            self.tx_log = _EventLog(3)    # slot, trial, node
            self.rx_log = _EventLog(4)    # slot, trial, receiver, sender
            self.coll_log = _EventLog(3)  # slot, trial, node
        self.need_senders = not summary or recovery is not None
        self.backend = make_backend(self.kernel, trials, engine, loss,
                                    self.alive,
                                    need_senders=self.need_senders,
                                    need_coll_pairs=not summary,
                                    threads=threads)
        self.rec = None
        if recovery is not None:
            if self.backend is not None:
                # The compiled backend owns a recovery state matched to
                # its resolve tier (bit-identical to BatchRecoveryState).
                self.rec = self.backend.make_recovery(
                    topology, recovery, relay_like, trials)
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
            # The serial engine's per-slot *set* collapses duplicates;
            # np.unique also yields the (trial, node)-sorted order the
            # event logs rely on.
            key = np.unique(tr * self.n + nd)
            tr, nd = key // self.n, key % self.n
        backend = self.backend
        if backend is not None:
            rt, rn, sv, coll = _backend_resolve(backend, t, tr, nd)
        else:
            _, received, collided, senders = self.kernel.resolve_batch(
                nd, tr, self.trials)
            if self.alive is not None:
                received &= self.alive
                collided &= self.alive
            if self.loss is not None:
                with profiling.phase("loss-rng"):
                    received = self.loss.apply_batch(t, received)
        with profiling.phase("commit"):
            if backend is None:
                rt, rn = received.nonzero()
                sv = senders[rt, rn] if self.need_senders else None
                coll = (collided.sum(axis=1) if self.summary
                        else collided.nonzero())
            nt, nn = self.commit_sparse(t, tr, nd, rt, rn, sv, coll)
        if rec is not None:
            with profiling.phase("recovery-post"):
                if backend is not None:
                    rec.post_slot(t, tr, nd, rt, rn, sv, nt, nn,
                                  epos=backend.last_epos)
                else:
                    rec.post_slot(t, tr, nd, rt, rn, sv, nt, nn)
        return nt, nn

    def commit_sparse(self, t: int, tr: np.ndarray, nd: np.ndarray,
                      rt: np.ndarray, rn: np.ndarray,
                      sv: Optional[np.ndarray],
                      coll: Union[np.ndarray,
                                  Tuple[np.ndarray, np.ndarray]]
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Log one resolved slot from sparse outcomes.

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
            ct, cn = coll
            self.coll_log.extend(t, ct, cn)
            self.rx_log.extend(t, rt, rn, sv)
        new = self.first_rx[rt, rn] < 0
        nt, nn = rt[new], rn[new]
        self.first_rx[nt, nn] = t
        return nt, nn

    def finish(self) -> Union[TraceSummary, List[BroadcastTrace]]:
        if self.backend is not None:
            BREAKER.record_success(self.backend.name)
        if self.summary:
            return TraceSummary(
                num_nodes=self.n, source=self.source, trials=self.trials,
                first_rx=self.first_rx, tx_count=self.tx_count,
                rx_count=self.rx_count, collisions=self.collisions,
                dropped_forced=self.dropped_forced)
        traces = []
        tx_buf = self.tx_log._buf[:self.tx_log._len]
        rx_buf = self.rx_log._buf[:self.rx_log._len]
        coll_buf = self.coll_log._buf[:self.coll_log._len]
        for b in range(self.trials):
            # Rows were appended slot-by-slot with intra-slot (trial,
            # node) ordering, so a per-trial extraction preserves exactly
            # the serial engine's chronological, node-sorted event order.
            tx = tx_buf[tx_buf[:, 1] == b][:, (0, 2)]
            rx = rx_buf[rx_buf[:, 1] == b][:, (0, 2, 3)]
            coll = coll_buf[coll_buf[:, 1] == b][:, (0, 2)]
            traces.append(BroadcastTrace(
                num_nodes=self.n, source=int(self.sources[b]),
                first_rx=self.first_rx[b].copy(),
                tx_events=list(map(tuple, tx.tolist())),
                rx_events=list(map(tuple, rx.tolist())),
                collision_events=list(map(tuple, coll.tolist())),
                dropped_forced=self.dropped_forced[b]))
        return traces


def _backend_resolve(backend, t, tr, nd):
    """One backend slot-resolve, faults tagged with the tier that died.

    Any exception out of the compiled backend mid-run (injected via
    :data:`repro.faults.BACKEND_RESOLVE` or organic — a dlopen gone bad,
    a C kernel segfault surfacing as an ffi error) becomes a
    :class:`~repro.sim.backend.BackendFault` so the demotion wrapper can
    rerun the whole batch on the dense tier.
    """
    try:
        return backend.resolve(t, tr, nd)
    except Exception as exc:
        raise BackendFault(backend.name, exc) from exc


def _reactive_loop(
    state: _BatchState,
    relay: np.ndarray,
    delay: np.ndarray,
    offsets: Dict[int, np.ndarray],
    forced_at: Dict[int, Tuple[np.ndarray, np.ndarray]],
    limit: np.ndarray,
) -> Union[TraceSummary, List[BroadcastTrace]]:
    """The batched reactive slot loop.

    Trial *b* originates at its source in *state* (per-trial, or one
    scalar source) and follows plan row *b* of *relay* / *delay* /
    *offsets* — or row 0 for every trial when the plan is one shared
    row.  *forced_at* and the per-trial cut-off *limit* come from
    :func:`_forced_schedule`.
    """
    batch = state.trials
    shared = relay.shape[0] == 1
    if shared:
        # A shared plan's one row is indexed by node alone: a 1-D gather
        # costs a third of a mixed scalar/array one, every slot.
        relay, delay = relay[0], delay[0]
        offsets = {off: mask[0] for off, mask in offsets.items()}

    def at(rows, tr, nd):
        return rows[nd] if shared else rows[tr, nd]

    pending: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
    horizon = max(forced_at, default=0)

    def schedule_pairs(tr: np.ndarray, nd: np.ndarray,
                       base: np.ndarray) -> None:
        """Schedule (trial, node) pairs firing at per-pair *base* slots,
        plus each node's repeat transmissions."""
        nonlocal horizon
        last = int(base.max())
        for s in np.unique(base):
            sel = base == s
            pending.setdefault(int(s), []).append((tr[sel], nd[sel]))
        for off, mask in offsets.items():
            has = at(mask, tr, nd)
            if has.any():
                rep_base = base[has] + off
                rep_tr, rep_nd = tr[has], nd[has]
                for s in np.unique(rep_base):
                    sel = rep_base == s
                    pending.setdefault(int(s), []).append(
                        (rep_tr[sel], rep_nd[sel]))
                last = max(last, int(rep_base.max()))
        if last > horizon:
            horizon = last

    all_trials = np.arange(batch, dtype=np.int64)
    schedule_pairs(all_trials, state.sources,
                   1 + at(delay, all_trials, state.sources))

    rec = state.rec
    cut, max_limit = int(limit.min()), int(limit.max())
    t = 0
    while t < max_limit and (t < horizon
                             or (rec is not None and t < rec.horizon)):
        t += 1
        entries = pending.pop(t, None)
        if entries:
            tr = np.concatenate([e[0] for e in entries])
            nd = np.concatenate([e[1] for e in entries])
            if t > cut:
                # Per-trial cut-off: the serial engine stops trial b's
                # slot loop at its own bound.
                keep = limit[tr] >= t
                tr, nd = tr[keep], nd[keep]
        else:
            tr, nd = _EMPTY, _EMPTY
        # Each pending entry is a subset of a sorted-unique commit, so
        # a lone entry needs no dedup pass.
        segments = len(entries) if entries else 0
        forced_now = forced_at.pop(t, None)
        if forced_now is not None:
            f_tr, f_nd = forced_now
            frx = state.first_rx[f_tr, f_nd]
            ok = (frx >= 0) & (frx < t)
            tr = np.concatenate([tr, f_tr[ok]])
            nd = np.concatenate([nd, f_nd[ok]])
            segments += 1
            for j in (~ok).nonzero()[0]:
                state.dropped_forced[int(f_tr[j])].append(
                    (t, int(f_nd[j])))
        if state.alive is not None and len(nd):
            keep = state.alive[tr, nd]
            tr, nd = tr[keep], nd[keep]
        new = state.step(t, tr, nd, dedup=segments > 1)
        if new is None:
            continue
        nt, nn = new
        if len(nn):
            rel = at(relay, nt, nn)
            if rel.any():
                rel_t, rel_n = nt[rel], nn[rel]
                schedule_pairs(rel_t, rel_n,
                               t + 1 + at(delay, rel_t, rel_n))
    return state.finish()


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
    threads: Optional[int] = None,
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
    arrays (no per-event tuples are materialised).

    *engine* selects the slot-resolve tier (see :mod:`repro.sim.
    backend`): ``"batch"`` (dense, default), ``"compiled"``, or
    ``"auto"`` — all bit-identical.  *threads* sets the compiled tier's
    in-process kernel pool width (``None`` = all allowed cores; ignored
    by the dense tier); every width is bit-identical too.
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
    forced_at, limit = _forced_schedule([forced_tx], batch, n, max_slots)
    state = _BatchState(
        topology, source, batch, summary, dead_masks=dead_masks, loss=loss,
        recovery=recovery, engine=engine, threads=threads,
        relay_like=(None if recovery is None
                    else relay_like_mask(n, relay_mask, source)))
    return _reactive_loop(state, relay_mask[None], extra_delay[None],
                          offsets, forced_at, limit)


def run_reactive_multi(
    topology: Topology,
    sources: np.ndarray,
    relay_masks: np.ndarray,
    *,
    extra_delays: Optional[np.ndarray] = None,
    repeat_offsets_list: Optional[Sequence[_Repeats]] = None,
    forced_tx_list: Optional[Sequence[_Forced]] = None,
    max_slots: Optional[int] = None,
    summary: bool = False,
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

    including the serial engine's per-trial ``max_slots`` default (each
    trial is cut off at its own bound, which depends on its forced set),
    dropped-forced bookkeeping, and intra-slot node-sorted event order.
    With ``summary=True`` the result is a
    :class:`~repro.sim.summary.TraceSummary` whose ``source`` attribute
    is the per-trial ``(B,)`` source array.
    """
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
    forced_at, limit = _forced_schedule(forced_tx_list or [None], batch, n,
                                        max_slots)
    state = _BatchState(topology, sources, batch, summary)
    return _reactive_loop(state, relay_masks, extra_delays, offsets,
                          forced_at, limit)


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
    threads: Optional[int] = None,
) -> Union[TraceSummary, List[BroadcastTrace]]:
    """Execute a fixed schedule for B fault realisations batched together.

    Trial *b* is trace-for-trace identical to
    ``replay(topology, schedule, source, dead_mask=dead_masks[b],
    loss=loss.trial_loss(b), recovery=recovery)``; see
    :func:`run_reactive_batch` for the batch-size, output, *engine* and
    *threads* conventions and :func:`replay` for the recovery
    semantics.
    """
    check_engine(engine)
    n = topology.num_nodes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range")
    batch, dead_masks = _resolve_trials(trials, dead_masks, loss, n)
    state = _BatchState(
        topology, source, batch, summary, dead_masks=dead_masks, loss=loss,
        recovery=recovery, engine=engine, threads=threads,
        relay_like=(None if recovery is None
                    else relay_like_from_schedule(n, schedule)))
    faulty = dead_masks is not None or loss is not None
    all_trials = np.arange(batch, dtype=np.int64)
    for t in _replay_slots(schedule, state.rec, max_slots, n):
        base = np.fromiter(sorted(schedule.transmitters(t)),
                           dtype=np.int64)
        if len(base) == 0:
            tr, nd = _EMPTY, _EMPTY
        elif faulty:
            frx = state.first_rx[:, base]
            # a node that never received cannot forward
            ok = (base == source)[None, :] | ((frx >= 0) & (frx < t))
            if dead_masks is not None:
                ok &= state.alive[:, base]
            tr, j = ok.nonzero()
            nd = base[j]
        else:
            tr = all_trials.repeat(len(base))
            nd = np.tile(base, batch)
        state.step(t, tr, nd, dedup=False)
    return state.finish()


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


def _execute_slot(kernel, t: int, tx_set: Set[int],
                  first_rx: np.ndarray,
                  tx_log: _EventLog, rx_log: _EventLog, coll_log: _EventLog,
                  relay_mask: Optional[np.ndarray],
                  extra_delay: Optional[np.ndarray],
                  schedule_node,
                  alive_mask: Optional[np.ndarray] = None,
                  loss: Optional["LossProcess"] = None,
                  recovery: Optional[RecoveryState] = None) -> None:
    """Resolve one slot, log its events, and (reactive mode) schedule the
    transmissions of newly informed relays."""
    tx_nodes = np.fromiter(tx_set, count=len(tx_set), dtype=np.int64)
    tx_nodes.sort()
    _, received, collided, senders = kernel.resolve(tx_nodes)
    if alive_mask is not None:
        received &= alive_mask
        collided &= alive_mask
    if loss is not None:
        received = loss.apply(t, received)

    tx_log.extend(t, tx_nodes)
    coll_log.extend(t, collided.nonzero()[0])

    rx_nodes = received.nonzero()[0]
    rx_log.extend(t, rx_nodes, senders[rx_nodes])
    new_nodes = rx_nodes[first_rx[rx_nodes] < 0]
    if len(new_nodes):
        first_rx[new_nodes] = t
        if relay_mask is not None:
            for v in new_nodes[relay_mask[new_nodes]]:
                schedule_node(int(v), t + 1 + int(extra_delay[v]))
    if recovery is not None:
        # senders is the kernel's scratch buffer — consumed immediately.
        recovery.post_slot(t, tx_nodes, received, senders, new_nodes)
