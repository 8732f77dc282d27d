"""Word-packed recovery state: the ``compiled`` tier of the closed-loop
recovery layer.

:class:`~repro.sim.recovery.BatchRecoveryState` vectorises the recovery
machine over ``(B, nnz)`` boolean known-edge matrices in numpy.
:class:`NativeRecoveryState` computes the *same state machine*
(:mod:`repro.sim.recovery` documents it; the differential suite holds
it to trace equality with the batch state) entirely inside the cffi
kernel (:mod:`repro.sim.native`), inside the compiled tier's one
kernel call per run and with no numpy work per slot:

* **one C struct** — ``recovery_t`` points at the state arrays this
  object carves from one block (so the pointers stay valid for the run;
  only the counters, the known bits and the calendar heads are filled,
  since the kernel writes every other field before reading it) and at
  the topology's shared tables (CSR, reverse edges), and carries the
  policy scalars and the running ``horizon``.  The kernel keeps no
  state of its own;
* **edge-keyed word bitset** — the known-edge state is ``(B,
  ceil(nnz/64))`` uint64 words, bit ``e & 63`` of word ``e >> 6`` for
  CSR data position *e* (:mod:`repro.radio.bitpack` layout over edge
  positions instead of node ids).  The ACK/overhear pair of a decode is
  two bits: the (receiver -> sender) position falls out of the resolve's
  sender attribution, and the (sender -> receiver) position is one
  lookup in the topology's reverse-edge table, built once per topology
  (:meth:`~repro.radio.channel.SlotKernel.rev_edge`).  A node's
  coverage test is an exact mask compare over the words its contiguous
  CSR row spans;
* **post-slot inside the resolve** — the compiled backend hands the
  struct to ``resolve_slot``, which starts guardian checks at first
  transmissions, sets the bit pair and heard counter per clean decode
  and, once a trial's decodes are done, holds the elections of its
  newly informed nodes;
* **a C due calendar** — checks and elections are due in a power-of-two
  ring of slot heads over intrusive per-pair lists (a pair is pending
  at most once per list).  The kernel's scheduler
  (``reactive_next_slot``) walks slot *t*'s lists through
  ``recovery_pre_slot`` and adds the retransmitting pairs to the slot,
  so the per-slot cost scales with the *due* count, not ``B * n``.  The
  ring spans the policy's farthest schedule distance, capped by the
  run's slot bound: work past the bound can never fire, so it only
  raises the horizon.

Instances are built by the compiled backend
(:meth:`~repro.sim.backend.NativeBackend.make_recovery`), which keeps
them alive for the run.
"""

from __future__ import annotations

import numpy as np

from ..topology.base import Topology
from . import native
from .recovery import RecoveryPolicy

__all__ = ["NativeRecoveryState"]


class NativeRecoveryState:
    """B-trial recovery state over a word-packed known-edge bitset, run
    by the cffi kernel *module* through one ``recovery_t`` struct.

    Bit-identical to :class:`~repro.sim.recovery.BatchRecoveryState` by
    construction: same per-(trial, node) scalars, same update order,
    same horizon growth — only the known-edge representation and the
    due-work discovery differ.  *slot_bound* is the last slot the run
    can reach.
    """

    def __init__(self, topology: Topology, policy: RecoveryPolicy,
                 relay_like: np.ndarray, trials: int, module,
                 slot_bound: int) -> None:
        tables = native.topology_tables(topology.slot_kernel)
        n = topology.num_nodes
        self.policy = policy
        self.n = n
        self.trials = trials
        self.relay_like = np.asarray(relay_like, dtype=np.uint8)
        self.rev_edge = tables.rev_edge
        # Calendar ring: one head per slot of the farthest distance any
        # check or election is scheduled ahead, within the slot bound.
        maxdeg = topology.slot_kernel.max_degree
        far = max(policy.timeout * policy.backoff
                  ** min(max(policy.max_retries - 1, 0), 64),
                  policy.election_delay + maxdeg if policy.election else 0)
        ring = 1 << max(min(far, slot_bound), 0).bit_length()
        # Every array carved from one int64 block.  Only the heard
        # counters, the known bits and the ring heads need filling: the
        # kernel writes a check's or an election's scalars when it
        # schedules it, before it reads them, and a link when it pushes
        # it.  has_tx is a flag per pair, the block's last bytes.
        grid = trials * n
        words_e = tables.words_e
        sizes = dict(heard_total=grid, known=trials * words_e,
                     heads=2 * ring, chk_base=grid, retries_used=grid,
                     elec_base=grid, elec_pos=grid, links=2 * grid,
                     has_tx=-(-grid // 8))
        block = np.empty(sum(sizes.values()), dtype=np.int64)
        view, at = {}, 0
        for name, size in sizes.items():
            view[name] = block[at:at + size]
            at += size
        view["heard_total"][:] = 0
        view["known"][:] = 0
        view["heads"][:] = -1
        view["has_tx"][:] = 0
        self._block = block
        self.known = view["known"].view(np.uint64).reshape(trials, words_e)
        self.has_tx = view["has_tx"].view(np.bool_)[:grid].reshape(trials, n)
        for name in ("heard_total", "chk_base", "retries_used", "elec_base",
                     "elec_pos"):
            setattr(self, name, view[name].reshape(trials, n))
        self._heads = view["heads"].reshape(2, ring)
        self._links = view["links"].reshape(2, grid)
        ffi = module.ffi

        def ptr(array, ctype="int64_t *"):
            return native.pointer(ffi, array, ctype)

        self._tables = tables  # the struct points into them
        # Policy scalars capped at one past the bound: exact wherever a
        # slot sum can still fire, and never overflowing int64.
        cap = max(slot_bound, 0) + 1
        c = self.c = ffi.new("recovery_t *")
        c.n, c.words_e = n, words_e
        c.indptr, c.indices = tables.indptr_p, tables.indices_p
        c.rev_edge = tables.rev_edge_p
        c.relay_like = ptr(self.relay_like, "uint8_t *")
        c.known = ptr(self.known, "uint64_t *")
        c.heard_total = ptr(self.heard_total)
        c.has_tx = ptr(self.has_tx, "uint8_t *")
        c.chk_base, c.retries_used = ptr(self.chk_base), ptr(self.retries_used)
        c.elec_base, c.elec_pos = ptr(self.elec_base), ptr(self.elec_pos)
        c.timeout = min(policy.timeout, cap)
        c.max_retries = min(policy.max_retries, cap)
        c.backoff = min(policy.backoff, cap)
        c.suppression_k = min(policy.suppression_k, cap)
        c.election = int(policy.election)
        c.election_delay = min(policy.election_delay, cap)
        c.slot_bound, c.ring_mask = slot_bound, ring - 1
        c.chk_head, c.elec_head = ptr(self._heads[0]), ptr(self._heads[1])
        c.chk_next, c.elec_next = ptr(self._links[0]), ptr(self._links[1])
        c.horizon = 0

    @property
    def horizon(self) -> int:
        """The latest slot any check or election has been scheduled."""
        return self.c.horizon
