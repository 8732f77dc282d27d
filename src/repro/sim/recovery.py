"""Closed-loop recovery: overhear-ACKs, timeout/backoff retransmission,
Trickle-style suppression, and last-resort repair election.

The paper compiles relay schedules for a perfect channel; the robustness
module originally mitigated loss with *blind* ARQ (``harden_plan``
repeats every relay transmission unconditionally, paying the energy
whether or not a loss occurred).  This module adds the feedback-driven
alternative: relays retransmit *only where evidence says coverage
failed*, following the reliability/energy argument of Trickle-style
broadcast schemes (Meyfroyt et al.) — an extension beyond the paper,
clearly labelled as such in EXPERIMENTS.md.

Feedback model
--------------
Two (standard) feedback channels are assumed, neither of which occupies
a data slot:

* **link-layer ACKs** — a neighbour that cleanly decodes a data
  transmission acknowledges it in the guard interval of the same slot
  (802.15.4-style micro-slot ACK, assumed reliable *given* the data
  decode; a lost data packet produces no ACK).  The transmitter hence
  learns exactly which neighbours decoded *its own* packet.
* **implicit ACKs by overhearing** — a node that overhears a neighbour
  *transmit* the message (a clean decode attributing that sender) knows
  the neighbour holds it, even if its own transmission to that
  neighbour was lost.

Both reduce to one symmetric rule applied per clean decode ``(receiver
r, sender w)``: afterwards *w knows r is covered* (the ACK) and *r knows
w is covered* (the overhear).  Collisions deliver neither — a collided
slot yields no decode, no ACK, and no attribution, so collisions
genuinely blind the recovery layer, as they would a real radio.

Recovery state machine
----------------------
Every node starts a **guardian episode** at its first transmission: a
coverage check is scheduled ``timeout`` slots later.  At a check the
guardian looks at its *uncovered set* — neighbours from which it holds
neither an ACK nor an overhear:

* uncovered set empty → the episode ends;
* otherwise the guardian retransmits in the check slot, unless the
  **suppression counter** cancels it: with ``suppression_k > 0``, a
  check that overheard >= k clean decodes since the previous check
  stays silent (the neighbourhood is already being repaired — Trickle's
  "polite gossip").  Either way the check consumes one unit of the
  ``max_retries`` budget and, if budget remains, the next check is
  scheduled ``timeout * backoff**retries_used`` slots later
  (exponential backoff).

**Repair election** is the last resort for a relay that died: a dead
relay never transmits, so its neighbours never overhear it.  A newly
informed non-relay node ``w`` picks its lowest-indexed still-unheard
relay neighbour ``u*`` and schedules a one-shot substitute transmission
at ``first_rx + timeout * (max_retries + 1) + rank(w, u*)`` — past the
ordinary retry window ("last resort"), staggered by ``w``'s rank in
``u*``'s neighbour list so concurrent candidates do not collide.  At
the elected slot ``w`` fires only if ``u*`` has *still* not been
overheard and the suppression counter permits; its transmission then
starts an ordinary guardian episode covering ``u*``'s neighbourhood.

All decisions are functions of per-slot simulation state.  The
engine's one slot loop runs the machine as :class:`BatchRecoveryState`
(``(B, n)`` / ``(B, nnz)`` arrays over the CSR adjacency) on the dense
tier and as :class:`~repro.sim.backend.NativeRecoveryState` (word
bitsets and a due calendar, inside the kernel) on the compiled tier.
The independent oracle is :class:`~repro.sim.reference.ReferenceRecovery`
(per-node python sets and scalars); the differential suites hold every
tier, trial by trial, to its traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .. import profiling
from ..topology.base import Topology

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Parameters of the closed-loop recovery layer.

    Attributes
    ----------
    timeout:
        Slots between a transmission and its first coverage check.
    max_retries:
        Recovery checks (== retransmission opportunities) per episode;
        0 disables guardian retransmissions entirely.
    backoff:
        Exponential backoff base: check *i* (1-based) is scheduled
        ``timeout * backoff**i`` slots after check *i-1*.
    suppression_k:
        Trickle suppression constant: a check that overheard >= k clean
        decodes since the previous check stays silent; 0 disables
        suppression (always retransmit while uncovered).
    election:
        Enable the last-resort repair election for dead relays.
    """

    timeout: int = 2
    max_retries: int = 3
    backoff: int = 2
    suppression_k: int = 2
    election: bool = True

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise ValueError(f"timeout must be >= 1, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 1:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.suppression_k < 0:
            raise ValueError(
                f"suppression_k must be >= 0, got {self.suppression_k}")

    @property
    def election_delay(self) -> int:
        """Slots after ``first_rx`` before a substitute may fire."""
        return self.timeout * (self.max_retries + 1)

    def label(self) -> str:
        """Compact identifier used by sweeps and benchmark artefacts."""
        tag = (f"recovery-t{self.timeout}r{self.max_retries}"
               f"b{self.backoff}k{self.suppression_k}")
        return tag if self.election else tag + "-noelect"


def relay_like_mask(num_nodes: int, relay_mask: np.ndarray,
                    source: int) -> np.ndarray:
    """Expected-transmitter mask of a reactive run (relays + source).

    The election only monitors nodes *expected* to transmit: overhearing
    nothing from a non-relay neighbour is normal, not evidence of death.
    """
    mask = np.asarray(relay_mask, dtype=bool).copy()
    mask[source] = True
    return mask


def relay_like_from_schedule(num_nodes: int, schedule) -> np.ndarray:
    """Expected-transmitter mask of a replayed schedule."""
    mask = np.zeros(num_nodes, dtype=bool)
    for v in schedule.transmitting_nodes():
        mask[v] = True
    return mask


class BatchRecoveryState:
    """B-trial recovery state machine (the batched engine's hook).

    Per-trial state lives in ``(B, n)`` arrays; the per-edge coverage
    knowledge in a ``(B, nnz)`` boolean over the CSR adjacency, with
    decode pairs mapped to edge positions by a binary search over the
    sorted ``row * n + col`` edge keys.  Row *b* evolves exactly like a
    :class:`~repro.sim.reference.ReferenceRecovery` driven by trial
    *b*'s channel.
    """

    def __init__(self, topology: Topology, policy: RecoveryPolicy,
                 relay_like: np.ndarray, trials: int) -> None:
        kernel = topology.slot_kernel
        n = topology.num_nodes
        self.policy = policy
        self.n = n
        self.trials = trials
        self.relay_like = np.asarray(relay_like, dtype=bool)
        indptr, indices = kernel.indptr, kernel.indices
        degrees = np.diff(indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
        keys = rows * n + indices
        self._key_order = np.argsort(keys, kind="stable")
        self._keys_sorted = keys[self._key_order]
        nnz = len(indices)
        # Padded per-node tables, shared with the slot kernel (read
        # only): edge positions, neighbour ids (pad = n, a sentinel
        # larger than any real node), and a validity mask.
        self._P = kernel.padded_positions()
        self._N = kernel.padded_rows()
        self._V = self._N < n
        self._relay_ext = np.append(self.relay_like, False)
        self.known = np.zeros((trials, nnz), dtype=bool)
        self.heard_total = np.zeros((trials, n), dtype=np.int64)
        self.has_tx = np.zeros((trials, n), dtype=bool)
        self.chk_slot = np.zeros((trials, n), dtype=np.int64)
        self.chk_base = np.zeros((trials, n), dtype=np.int64)
        self.retries_used = np.zeros((trials, n), dtype=np.int64)
        self.elec_slot = np.zeros((trials, n), dtype=np.int64)
        self.elec_base = np.zeros((trials, n), dtype=np.int64)
        self.elec_pos = np.zeros((trials, n), dtype=np.int64)
        self.horizon = 0

    def _edge_pos(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """CSR data positions of the (row -> col) edges (must exist)."""
        return self._key_order[
            np.searchsorted(self._keys_sorted, row * self.n + col)]

    # ------------------------------------------------------------------

    def pre_slot(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Checks/elections due at *t*: returns retransmitting
        ``(trials, nodes)`` pair arrays."""
        pol = self.policy
        out_tr, out_nd = [], []
        bt, vt = (self.chk_slot == t).nonzero()
        if len(vt):
            covered = (self.known[bt[:, None], self._P[vt]]
                       | ~self._V[vt]).all(axis=1)
            self.chk_slot[bt[covered], vt[covered]] = 0
            abt, avt = bt[~covered], vt[~covered]
            if len(avt):
                heard = self.heard_total[abt, avt]
                if pol.suppression_k > 0:
                    fire = (heard - self.chk_base[abt, avt]
                            < pol.suppression_k)
                else:
                    fire = np.ones(len(avt), dtype=bool)
                out_tr.append(abt[fire])
                out_nd.append(avt[fire])
                used = self.retries_used[abt, avt] + 1
                self.retries_used[abt, avt] = used
                more = used < pol.max_retries
                nxt = t + pol.timeout * pol.backoff ** used
                self.chk_slot[abt, avt] = np.where(more, nxt, 0)
                self.chk_base[abt, avt] = heard
                if more.any():
                    self.horizon = max(self.horizon, int(nxt[more].max()))
        bt, wt = (self.elec_slot == t).nonzero()
        if len(wt):
            with profiling.phase("recovery-election"):
                self.elec_slot[bt, wt] = 0        # one-shot
                ok = ~self.known[bt, self.elec_pos[bt, wt]]
                if pol.suppression_k > 0:
                    ok &= (self.heard_total[bt, wt]
                           - self.elec_base[bt, wt] < pol.suppression_k)
                out_tr.append(bt[ok])
                out_nd.append(wt[ok])
        if not out_nd:
            return _EMPTY, _EMPTY
        return np.concatenate(out_tr), np.concatenate(out_nd)

    def post_slot(self, t: int, tr: np.ndarray, nd: np.ndarray,
                  rt: np.ndarray, rn: np.ndarray, sv: np.ndarray,
                  nt: np.ndarray, nn: np.ndarray) -> None:
        """Account one resolved batch slot (mirrors
        :meth:`~repro.sim.reference.ReferenceRecovery.post_slot`
        trial-by-trial).

        The slot outcome arrives sparse — received pairs ``(rt, rn)``
        with their delivering senders *sv* — so the update cost scales
        with the slot's event count, not with ``B * n``.
        """
        pol = self.policy
        if len(rn):
            self.heard_total[rt, rn] += 1
            w = sv
            self.known[rt, self._edge_pos(w, rn)] = True   # ACK
            self.known[rt, self._edge_pos(rn, w)] = True   # overhear
        fresh = ~self.has_tx[tr, nd]
        if fresh.any():
            ft, fn = tr[fresh], nd[fresh]
            self.has_tx[ft, fn] = True
            if pol.max_retries > 0:
                self.chk_slot[ft, fn] = t + pol.timeout
                self.chk_base[ft, fn] = self.heard_total[ft, fn]
                self.retries_used[ft, fn] = 0
                self.horizon = max(self.horizon, t + pol.timeout)
        if pol.election and len(nn):
            with profiling.phase("recovery-election"):
                self._schedule_elections(t, nt, nn)

    def _schedule_elections(self, t: int, nt: np.ndarray,
                            nn: np.ndarray) -> None:
        pol = self.policy
        sel = ~self.relay_like[nn]
        et, en = nt[sel], nn[sel]
        if len(en):
            nb = self._N[en]
            cand = (self._V[en] & self._relay_ext[nb]
                    & ~self.known[et[:, None], self._P[en]])
            tgt = np.where(cand, nb, self.n).min(axis=1)
            has = tgt < self.n
            et, en, tgt = et[has], en[has], tgt[has]
            if len(en):
                rank = ((self._N[tgt] < en[:, None])
                        & self._V[tgt]).sum(axis=1)
                slot = t + pol.election_delay + rank
                self.elec_slot[et, en] = slot
                self.elec_base[et, en] = self.heard_total[et, en]
                self.elec_pos[et, en] = self._edge_pos(en, tgt)
                self.horizon = max(self.horizon, int(slot.max()))
