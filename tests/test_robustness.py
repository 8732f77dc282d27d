"""Tests for the robustness analysis (loss/failure degradation curves)."""

import numpy as np
import pytest

from repro.analysis import (failure_degradation, harden_plan,
                            loss_degradation, recovery_frontier)
from repro.analysis.robustness import RobustnessPoint, _chunk, _fan_out
from repro.core import protocol_for
from repro.radio import CounterBernoulliLoss, trial_seeds
from repro.sim import RecoveryPolicy
from repro.topology import Mesh2D4


@pytest.fixture
def mesh():
    return Mesh2D4(12, 8)


class TestHardenPlan:
    def test_zero_repeats_is_copy(self, mesh):
        plan = protocol_for("2D-4").relay_plan(mesh, (6, 4))
        hardened = harden_plan(plan, 0)
        assert hardened.repeat_offsets == plan.repeat_offsets
        assert hardened is not plan

    def test_adds_offsets_to_every_relay(self, mesh):
        plan = protocol_for("2D-4").relay_plan(mesh, (6, 4))
        hardened = harden_plan(plan, 2)
        import numpy as np
        for v in np.nonzero(plan.relay_mask)[0]:
            offs = hardened.repeat_offsets[int(v)]
            assert 2 in offs and 4 in offs  # wave-phase-aligned spacing

    def test_merges_existing_offsets(self, mesh):
        plan = protocol_for("2D-4").relay_plan(mesh, (6, 4))
        # designated retransmitters already have offset (1,); hardening
        # merges its own even offsets with it
        some = next(iter(plan.repeat_offsets))
        hardened = harden_plan(plan, 1)
        assert hardened.repeat_offsets[some] == (1, 2)

    def test_negative_rejected(self, mesh):
        plan = protocol_for("2D-4").relay_plan(mesh, (6, 4))
        with pytest.raises(ValueError):
            harden_plan(plan, -1)

    def test_zero_repeats_copy_is_mutation_independent(self, mesh):
        """repeats=0 must hand back an independent copy: mutating it may
        not leak into the original plan."""
        plan = protocol_for("2D-4").relay_plan(mesh, (6, 4))
        before_offsets = dict(plan.repeat_offsets)
        before_mask = plan.relay_mask.copy()
        hardened = harden_plan(plan, 0)
        hardened.repeat_offsets[0] = (2, 4)
        hardened.relay_mask[:] = False
        assert plan.repeat_offsets == before_offsets
        assert (plan.relay_mask == before_mask).all()

    def test_offsets_all_even_and_sorted(self, mesh):
        """Hardening offsets must be even (phase-aligned with the wave)
        and each relay's merged tuple sorted ascending."""
        plan = protocol_for("2D-4").relay_plan(mesh, (6, 4))
        pre_existing = {v: offs for v, offs in plan.repeat_offsets.items()}
        hardened = harden_plan(plan, 3)
        for v in np.nonzero(plan.relay_mask)[0]:
            offs = hardened.repeat_offsets[int(v)]
            assert list(offs) == sorted(offs)
            added = set(offs) - set(pre_existing.get(int(v), ()))
            assert added == {2, 4, 6}
            assert all(o % 2 == 0 for o in added)

    def test_non_relays_untouched(self, mesh):
        """Nodes outside the relay mask keep exactly their pre-existing
        repeats — hardening only amplifies actual relays."""
        plan = protocol_for("2D-4").relay_plan(mesh, (6, 4))
        hardened = harden_plan(plan, 2)
        for v, offs in plan.repeat_offsets.items():
            if not plan.relay_mask[v]:
                assert hardened.repeat_offsets[v] == offs


class TestSeedMixing:
    def test_parameters_draw_distinct_randomness(self, mesh):
        """Regression for the correlated-stream bug: the old seeding
        (``seed * 1000 + trial``) gave every sweep parameter the same
        per-trial channels, so curves were paired sample-for-sample.
        The per-trial losses for two parameters must now differ."""
        rx = np.ones(mesh.num_nodes, dtype=bool)
        for trial in range(4):
            s_a = int(trial_seeds(0, 0.1, 4)[trial])
            s_b = int(trial_seeds(0, 0.2, 4)[trial])
            assert s_a != s_b
            a = CounterBernoulliLoss(0.5, s_a).apply(1, rx)
            b = CounterBernoulliLoss(0.5, s_b).apply(1, rx)
            assert (a != b).any()

    def test_failure_masks_decorrelated_across_counts(self, mesh):
        """Different failure counts must kill different node sets (beyond
        the forced subset relation a shared stream would produce)."""
        from repro.analysis.robustness import _failure_dead_masks
        src = mesh.index((6, 4))
        m4 = _failure_dead_masks(mesh, 4, 6, seed=0, src=src)
        m8 = _failure_dead_masks(mesh, 8, 6, seed=0, src=src)
        subset_rows = sum((m4[b] & ~m8[b]).sum() == 0 for b in range(6))
        assert subset_rows < 6


class TestEngineEquivalence:
    """engine="batch" and engine="compiled" must produce identical curves."""

    def assert_points_equal(self, a, b):
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert pa == pb

    def test_loss_points_identical(self, mesh):
        kw = dict(trials=6, seed=4, harden=1)
        self.assert_points_equal(
            loss_degradation(mesh, (6, 4), [0.0, 0.1, 0.3],
                             engine="batch", **kw),
            loss_degradation(mesh, (6, 4), [0.0, 0.1, 0.3],
                             engine="compiled", **kw))

    def test_failure_points_identical(self, mesh):
        kw = dict(trials=5, seed=2)
        self.assert_points_equal(
            failure_degradation(mesh, (6, 4), [0, 4, 9],
                                engine="batch", **kw),
            failure_degradation(mesh, (6, 4), [0, 4, 9],
                                engine="compiled", **kw))

    def test_workers_do_not_change_points(self, mesh):
        kw = dict(trials=4, seed=7)
        self.assert_points_equal(
            loss_degradation(mesh, (6, 4), [0.05, 0.1, 0.2, 0.3], **kw),
            loss_degradation(mesh, (6, 4), [0.05, 0.1, 0.2, 0.3],
                             workers=2, **kw))
        self.assert_points_equal(
            failure_degradation(mesh, (6, 4), [2, 5, 8], **kw),
            failure_degradation(mesh, (6, 4), [2, 5, 8], workers=2, **kw))

    def test_unknown_engine_rejected(self, mesh):
        with pytest.raises(ValueError, match="unknown engine"):
            loss_degradation(mesh, (6, 4), [0.1], engine="vector")
        with pytest.raises(ValueError, match="unknown engine"):
            failure_degradation(mesh, (6, 4), [1], engine="vector")


class TestLossDegradation:
    def test_zero_loss_full_reach(self, mesh):
        (point,) = loss_degradation(mesh, (6, 4), [0.0], trials=2)
        assert point.mean_reachability == 1.0

    def test_hardened_plan_keeps_clean_channel_perfect(self, mesh):
        (point,) = loss_degradation(mesh, (6, 4), [0.0], trials=2,
                                    harden=2)
        assert point.mean_reachability == 1.0

    def test_monotone_in_loss(self, mesh):
        points = loss_degradation(mesh, (6, 4), [0.0, 0.1, 0.4],
                                  trials=4, seed=5)
        reaches = [p.mean_reachability for p in points]
        assert reaches[0] >= reaches[1] >= reaches[2] - 0.05

    def test_hardening_helps(self, mesh):
        base = loss_degradation(mesh, (6, 4), [0.15], trials=4, seed=2)
        hard = loss_degradation(mesh, (6, 4), [0.15], trials=4, seed=2,
                                harden=2)
        assert hard[0].mean_reachability >= base[0].mean_reachability
        assert hard[0].mean_tx > base[0].mean_tx  # hardening costs energy

    def test_rows(self, mesh):
        (point,) = loss_degradation(mesh, (6, 4), [0.1], trials=2)
        row = point.as_row()
        assert row["parameter"] == 0.1
        assert 0 <= row["min_reach"] <= row["mean_reach"] <= 1

    def test_distribution_fields(self, mesh):
        """std/p5/p50 must describe the per-trial reach distribution."""
        (point,) = loss_degradation(mesh, (6, 4), [0.2], trials=8, seed=1)
        assert point.min_reachability <= point.p5_reach \
            <= point.p50_reach <= 1.0
        assert point.std_reach > 0  # lossy trials genuinely vary
        row = point.as_row()
        assert {"std_reach", "p5_reach", "p50_reach"} <= set(row)

    def test_point_backward_compatible_positional(self):
        """Pre-existing positional constructions (without the new
        distribution fields) must keep working."""
        p = RobustnessPoint(0.1, 4, 0.9, 0.8, 30.0)
        assert p.std_reach == 0.0
        assert p.p5_reach == 0.0
        assert p.p50_reach == 0.0


class TestFailureDegradation:
    def test_zero_failures_full_reach(self, mesh):
        (point,) = failure_degradation(mesh, (6, 4), [0], trials=2)
        assert point.mean_reachability == 1.0

    def test_static_schedule_degrades(self, mesh):
        points = failure_degradation(mesh, (6, 4), [0, 8], trials=4,
                                     recompile=False, seed=1)
        assert points[1].mean_reachability < 1.0

    def test_recompile_beats_static(self, mesh):
        static = failure_degradation(mesh, (6, 4), [8], trials=4,
                                     recompile=False, seed=1)
        adaptive = failure_degradation(mesh, (6, 4), [8], trials=4,
                                       recompile=True, seed=1)
        assert adaptive[0].mean_reachability > \
            static[0].mean_reachability

    def test_recompile_reaches_connected_survivors(self, mesh):
        """With few failures the surviving lattice stays connected and the
        recompiled broadcast must reach every live node."""
        points = failure_degradation(mesh, (6, 4), [3], trials=5,
                                     recompile=True, seed=3)
        assert points[0].min_reachability >= 0.97


class TestFanOut:
    """Process fan-out sizing (regression: idle workers for short sweeps)."""

    def test_chunk_empty_items(self):
        assert _chunk([], 4) == []

    def test_chunk_fewer_items_than_workers(self):
        chunks = _chunk([1, 2], 8)
        assert all(chunks)  # no empty chunks to spawn processes for
        assert sorted(x for c in chunks for x in c) == [1, 2]

    def test_pool_capped_at_chunk_count(self, monkeypatch):
        """Asking for more workers than sweep points must not size the
        pool beyond the actual chunk count."""
        import repro.analysis.robustness as rob
        seen = {}

        class FakePool:
            def __init__(self, max_workers):
                seen["max_workers"] = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(rob, "ProcessPoolExecutor", FakePool)
        out = _fan_out(lambda p: p, [10, 20], workers=8,
                       job_builder=lambda chunk: chunk,
                       worker_fn=lambda chunk: chunk)
        assert sorted(out) == [10, 20]
        assert seen["max_workers"] <= 2


class TestRecoveryThreading:
    """RecoveryPolicy flows through the degradation sweeps and engines."""

    POLICY = RecoveryPolicy(timeout=2, max_retries=2, backoff=1,
                            suppression_k=2, election=False)

    def test_recovery_improves_loss_curve(self, mesh):
        kw = dict(trials=4, seed=6)
        bare = loss_degradation(mesh, (6, 4), [0.25], **kw)
        rec = loss_degradation(mesh, (6, 4), [0.25],
                               recovery=self.POLICY, **kw)
        assert rec[0].mean_reachability > bare[0].mean_reachability

    def test_recovery_engines_agree(self, mesh):
        kw = dict(trials=4, seed=6, recovery=self.POLICY)
        assert loss_degradation(mesh, (6, 4), [0.1, 0.3],
                                engine="batch", **kw) == \
            loss_degradation(mesh, (6, 4), [0.1, 0.3],
                             engine="compiled", **kw)
        assert failure_degradation(mesh, (6, 4), [0, 5],
                                   engine="batch", **kw) == \
            failure_degradation(mesh, (6, 4), [0, 5],
                                engine="compiled", **kw)

    def test_recovery_improves_static_failure_curve(self, mesh):
        kw = dict(trials=4, seed=1, recompile=False)
        bare = failure_degradation(mesh, (6, 4), [8], **kw)
        rec = failure_degradation(mesh, (6, 4), [8],
                                  recovery=self.POLICY, **kw)
        assert rec[0].mean_reachability >= bare[0].mean_reachability


class TestRecoveryFrontier:
    def frontier(self, mesh, **kw):
        defaults = dict(loss_rates=[0.2], failure_counts=[0], trials=6,
                        seed=3)
        defaults.update(kw)
        return recovery_frontier(mesh, (6, 4), **defaults)

    def test_strategy_roster(self, mesh):
        points = self.frontier(mesh, hardening=[0, 2],
                               policies=[self.policy()])
        assert [p.strategy for p in points] == \
            ["blind-r0", "blind-r2", self.policy().label()]

    def policy(self):
        return RecoveryPolicy(timeout=2, max_retries=2, backoff=1,
                              suppression_k=2, election=False)

    def test_engines_agree(self, mesh):
        kw = dict(hardening=[0, 2], policies=[self.policy()], trials=4)
        assert self.frontier(mesh, engine="batch", **kw) == \
            self.frontier(mesh, engine="compiled", **kw)

    def test_workers_do_not_change_points(self, mesh):
        kw = dict(loss_rates=[0.1, 0.2], hardening=[0, 1],
                  policies=[self.policy()], trials=4)
        assert self.frontier(mesh, **kw) == \
            self.frontier(mesh, workers=2, **kw)

    def test_pareto_marks_within_cell(self, mesh):
        points = self.frontier(mesh)
        assert any(p.pareto for p in points)
        # no pareto point may be dominated inside its cell
        for a in points:
            if not a.pareto:
                continue
            for b in points:
                if b is a:
                    continue
                dominates = (
                    b.mean_reachability >= a.mean_reachability
                    and b.mean_energy_j <= a.mean_energy_j
                    and (b.mean_reachability > a.mean_reachability
                         or b.mean_energy_j < a.mean_energy_j))
                assert not dominates

    def test_blind_r0_is_baseline_cost(self, mesh):
        """blind-r0 must be the cheapest strategy of each cell — every
        other strategy adds transmissions."""
        points = self.frontier(mesh)
        base = next(p for p in points if p.strategy == "blind-r0")
        for p in points:
            assert p.mean_energy_j >= base.mean_energy_j

    def test_rows_roundtrip(self, mesh):
        (point,) = self.frontier(mesh, hardening=[1], policies=[],
                                 loss_rates=[0.1])
        row = point.as_row()
        assert row["strategy"] == "blind-r1"
        assert row["loss_rate"] == 0.1
        assert isinstance(row["pareto"], bool)
