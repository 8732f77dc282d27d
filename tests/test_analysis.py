"""Tests for the analysis package: sweeps, table assembly, ranking."""

import pytest

from repro.analysis import (PAPER_TABLE2, SweepCache, power_ranking,
                            strided_sources, sweep_sources, table2_ideal,
                            table3_best, table4_worst, table5_delay)
from repro.core.baselines import FloodingProtocol
from repro.topology import Mesh2D4, make_topology


class TestSweep:
    def test_sweep_small_mesh(self):
        mesh = Mesh2D4(6, 4)
        sweep = sweep_sources(mesh)
        assert len(sweep) == 24
        assert sweep.all_reached()
        best = sweep.best_by_energy()
        worst = sweep.worst_by_energy()
        assert best.energy_j <= worst.energy_j
        assert sweep.min_delay() <= sweep.max_delay()

    def test_center_beats_corner(self):
        """The paper: 'If the source is in the center of the network, it
        performs better.'"""
        mesh = Mesh2D4(9, 9)
        sweep = sweep_sources(mesh, sources=[(5, 5), (1, 1)])
        center, corner = sweep.metrics
        assert center.delay_slots < corner.delay_slots

    def test_explicit_sources(self):
        mesh = Mesh2D4(6, 4)
        sweep = sweep_sources(mesh, sources=[(1, 1), (3, 2)])
        assert len(sweep) == 2
        assert sweep.metrics[0].source == (1, 1)

    def test_custom_protocol(self):
        mesh = Mesh2D4(5, 4)
        sweep = sweep_sources(mesh, protocol=FloodingProtocol(),
                              sources=[(2, 2)])
        assert sweep.metrics[0].tx >= mesh.num_nodes - 2

    def test_mean_aggregates(self):
        mesh = Mesh2D4(5, 4)
        sweep = sweep_sources(mesh, sources=[(1, 1), (3, 2), (5, 4)])
        assert sweep.mean_tx() > 0
        assert sweep.mean_rx() > sweep.mean_tx()
        assert sweep.mean_energy() > 0


class TestStridedSources:
    def test_includes_corners(self):
        mesh = Mesh2D4(8, 8)
        coords = strided_sources(mesh, 7)
        assert (1, 1) in coords
        assert (8, 8) in coords

    def test_stride_one_is_everything(self):
        mesh = Mesh2D4(4, 4)
        assert len(strided_sources(mesh, 1)) == 16

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            strided_sources(Mesh2D4(4, 4), 0)


class TestTables:
    def test_table2_is_exact(self):
        rows = {r["topology"]: r for r in table2_ideal()}
        for label, expected in PAPER_TABLE2.items():
            assert rows[label]["tx"] == expected["tx"]
            assert rows[label]["rx"] == expected["rx"]
            assert rows[label]["energy_J"] == pytest.approx(
                expected["energy_J"], rel=5e-3)

    @pytest.fixture(scope="class")
    def cache(self):
        # heavily strided so the test stays fast; corners included
        return SweepCache.compute(stride=97)

    def test_tables_3_4_5_assemble(self, cache):
        best = {r["topology"]: r for r in table3_best(cache)}
        worst = {r["topology"]: r for r in table4_worst(cache)}
        delays = {r["topology"]: r for r in table5_delay(cache)}
        for label in ("2D-3", "2D-4", "2D-8", "3D-6"):
            assert best[label]["tx"] <= worst[label]["tx"]
            assert best[label]["energy_J"] <= worst[label]["energy_J"]
            assert delays[label]["protocol_max_delay"] >= \
                delays[label]["ideal_max_delay"]

    def test_paper_power_ordering_holds(self, cache):
        """Headline finding: '2D mesh with 4 neighbors possesses the
        minimum power consumption'; on average the full paper ordering
        2D-4 < 3D-6 < 2D-8 < 2D-3 holds (the worst-case 2D-3/2D-8 pair is
        nearly tied in our reproduction — see EXPERIMENTS.md)."""
        assert power_ranking(cache, case="worst")[0] == "2D-4"
        assert power_ranking(cache, case="mean") == \
            ["2D-4", "3D-6", "2D-8", "2D-3"]

    def test_power_ranking_cases(self, cache):
        for case in ("best", "worst", "mean"):
            ranking = power_ranking(cache, case=case)
            assert sorted(ranking) == ["2D-3", "2D-4", "2D-8", "3D-6"]
        with pytest.raises(ValueError):
            power_ranking(cache, case="median")

    def test_3d6_smallest_max_delay(self, cache):
        """Table 5's second finding: 3D-6 has the smallest maximum delay,
        and 2D-8 the smallest among the 2D topologies."""
        delays = {r["topology"]: r["protocol_max_delay"]
                  for r in table5_delay(cache)}
        assert delays["3D-6"] == min(delays.values())
        assert delays["2D-8"] < delays["2D-4"]
        assert delays["2D-8"] < delays["2D-3"]


class TestCornerSources:
    def test_2d_has_four(self):
        from repro.analysis import corner_sources
        assert corner_sources(Mesh2D4(8, 6)) == [
            (1, 1), (1, 6), (8, 1), (8, 6)]

    def test_3d_has_eight(self):
        from repro.analysis import corner_sources
        topo = make_topology("3D-6", (4, 4, 3))
        corners = corner_sources(topo)
        assert len(corners) == 8
        assert (1, 1, 1) in corners and (4, 4, 3) in corners

    def test_strided_includes_all_corners(self):
        from repro.analysis import corner_sources
        mesh = Mesh2D4(8, 6)
        coords = strided_sources(mesh, 7)
        for corner in corner_sources(mesh):
            assert corner in coords
        assert len(coords) == len(set(coords))


class TestParallelSweep:
    def test_workers_bit_identical(self):
        from repro.analysis import sweep_sources
        mesh = Mesh2D4(6, 5)
        serial = sweep_sources(mesh)
        for workers in (2, 3):
            par = sweep_sources(mesh, workers=workers)
            assert par.metrics == serial.metrics

    def test_workers_one_is_serial(self):
        from repro.analysis import sweep_sources
        mesh = Mesh2D4(4, 4)
        assert (sweep_sources(mesh, workers=1).metrics
                == sweep_sources(mesh).metrics)


class TestScheduleCacheSweep:
    def test_cache_reuse_identical_metrics(self, tmp_path):
        from repro.analysis import sweep_sources
        from repro.core import ScheduleCache
        mesh = Mesh2D4(6, 5)
        plain = sweep_sources(mesh)
        cache = ScheduleCache(tmp_path / "sched")
        # symmetry=False pins the direct path, whose cache accounting is
        # exactly one get_or_compile per source (the symmetry path only
        # compiles class representatives); `plain` and `disk_only` keep
        # the default auto mode, so the equality below also cross-checks
        # the two paths against each other.
        cold = sweep_sources(mesh, cache=cache, symmetry=False)
        assert cache.misses == mesh.num_nodes and cache.hits == 0
        warm = sweep_sources(mesh, cache=cache, symmetry=False)
        assert cache.hits == mesh.num_nodes
        disk_only = sweep_sources(mesh, cache=ScheduleCache(tmp_path / "sched"))
        assert plain.metrics == cold.metrics == warm.metrics
        assert plain.metrics == disk_only.metrics

    def test_parallel_with_shared_disk_cache(self, tmp_path):
        from repro.analysis import sweep_sources
        from repro.core import ScheduleCache
        mesh = Mesh2D4(5, 4)
        cache = ScheduleCache(tmp_path / "sched")
        par = sweep_sources(mesh, workers=2, cache=cache)
        assert par.metrics == sweep_sources(mesh).metrics
        # workers persisted their compilations for later runs
        assert len(list((tmp_path / "sched").glob("*.json"))) > 0


class TestLossSensitivity:
    def test_report_shape(self):
        from repro.analysis import loss_sensitivity
        mesh = Mesh2D4(8, 6)
        rep = loss_sensitivity(mesh, loss_rate=0.1, trials=4, stride=4)
        assert rep.metric == "reach@p=0.1"
        assert 0.0 < rep.minimum <= rep.maximum <= 1.0
        assert rep.minimum <= rep.mean <= rep.maximum

    def test_zero_loss_no_spread(self):
        from repro.analysis import loss_sensitivity
        mesh = Mesh2D4(8, 6)
        rep = loss_sensitivity(mesh, loss_rate=0.0, trials=2, stride=4)
        assert rep.minimum == rep.maximum == 1.0
        assert rep.relative_spread == 0.0

    def test_workers_match_serial(self):
        from repro.analysis import loss_sensitivity
        mesh = Mesh2D4(8, 6)
        serial = loss_sensitivity(mesh, loss_rate=0.15, trials=4, stride=4)
        parallel = loss_sensitivity(mesh, loss_rate=0.15, trials=4,
                                    stride=4, workers=2)
        assert parallel == serial

    def test_empty_sources_rejected(self):
        from repro.analysis import loss_sensitivity
        mesh = Mesh2D4(8, 6)
        with pytest.raises(ValueError):
            loss_sensitivity(mesh, sources=[])
