"""Tests for the extension CLI commands (figure --svg, robustness,
scaling)."""

import pytest

from repro.cli import main
from repro.sim import native_available


class TestFigureSvg:
    def test_figure5_svg(self, tmp_path, capsys):
        out = tmp_path / "fig5.svg"
        assert main(["figure", "5", "--svg", str(out)]) == 0
        assert out.exists()
        content = out.read_text()
        assert content.startswith("<svg")
        assert "SVG written" in capsys.readouterr().out

    def test_figure9_svg_renders_source_plane(self, tmp_path):
        out = tmp_path / "fig9.svg"
        assert main(["figure", "9", "--svg", str(out)]) == 0
        assert "plane z=2" in out.read_text()


class TestRobustnessCommand:
    def test_default_run(self, capsys):
        assert main(["robustness", "2D-4", "--shape", "10", "6",
                     "--loss-rates", "0", "0.1",
                     "--failures", "0", "4", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "loss p=0.0" in out
        assert "4 dead (static)" in out

    def test_recompile_mode(self, capsys):
        assert main(["robustness", "2D-4", "--shape", "10", "6",
                     "--loss-rates", "0",
                     "--failures", "4", "--trials", "2",
                     "--recompile"]) == 0
        assert "(recompiled)" in capsys.readouterr().out

    def test_harden_flag(self, capsys):
        assert main(["robustness", "2D-4", "--shape", "10", "6",
                     "--loss-rates", "0.1", "--failures", "0",
                     "--trials", "2", "--harden", "1"]) == 0
        assert "loss p=0.1" in capsys.readouterr().out

    def test_explicit_source(self, capsys):
        assert main(["robustness", "2D-4", "--shape", "8", "6",
                     "--source", "2", "2", "--loss-rates", "0",
                     "--failures", "0", "--trials", "1"]) == 0
        assert "(2, 2)" in capsys.readouterr().out

    def test_3d_default_source(self, capsys):
        assert main(["robustness", "3D-6", "--shape", "4", "4", "3",
                     "--loss-rates", "0", "--failures", "0",
                     "--trials", "1"]) == 0
        assert "3D-6" in capsys.readouterr().out

    def test_engines_print_identical_tables(self, capsys):
        def table(out):
            # drop the per-run "engine: ..." decision line; the tables
            # themselves must be identical across engines
            return [ln for ln in out.splitlines()
                    if not ln.startswith("engine:")]

        args = ["robustness", "2D-4", "--shape", "10", "6",
                "--loss-rates", "0.1", "0.2", "--failures", "3",
                "--trials", "3", "--seed", "5"]
        assert main(args + ["--engine", "batch"]) == 0
        batch_out = capsys.readouterr().out
        assert "engine: batch" in batch_out
        assert main(args + ["--engine", "compiled"]) == 0
        compiled_out = capsys.readouterr().out
        tier = "compiled" if native_available() else "batch"
        assert f"engine: {tier}" in compiled_out
        assert table(compiled_out) == table(batch_out)

    @pytest.mark.parametrize("command", ["robustness", "frontier",
                                         "lifetime"])
    def test_serial_engine_rejected(self, command, capsys):
        # Neither the one-trial serial fork nor the deleted pure-numpy
        # packed tier is an --engine choice.
        for engine in ("serial", "packed"):
            with pytest.raises(SystemExit) as exc:
                main([command, "2D-4", "--shape", "8", "6",
                      "--engine", engine])
            assert exc.value.code == 2
            assert f"invalid choice: '{engine}'" in capsys.readouterr().err

    def test_workers_and_cache_flags(self, tmp_path, capsys):
        assert main(["robustness", "2D-4", "--shape", "10", "6",
                     "--loss-rates", "0", "0.1", "--failures", "0", "3",
                     "--trials", "2", "--workers", "2",
                     "--cache", str(tmp_path / "sched")]) == 0
        assert "loss p=0.1" in capsys.readouterr().out
        assert (tmp_path / "sched").is_dir()


class TestRobustnessRecoveryFlags:
    def test_recovery_flag(self, capsys):
        assert main(["robustness", "2D-4", "--shape", "10", "6",
                     "--loss-rates", "0.25", "--failures", "0",
                     "--trials", "2", "--recovery"]) == 0
        assert "loss p=0.25" in capsys.readouterr().out

    def test_recovery_improves_reported_reach(self, capsys):
        args = ["robustness", "2D-4", "--shape", "10", "6",
                "--loss-rates", "0.25", "--failures", "0",
                "--trials", "3", "--seed", "4"]
        assert main(args) == 0
        bare = capsys.readouterr().out
        assert main(args + ["--recovery", "--recovery-no-election"]) == 0
        rec = capsys.readouterr().out

        def mean_reach(out):
            line = next(l for l in out.splitlines() if "loss p=" in l)
            return float(line.split("|")[1])

        assert mean_reach(rec) > mean_reach(bare)

    def test_recovery_policy_flags_parsed(self, capsys):
        assert main(["robustness", "2D-4", "--shape", "8", "6",
                     "--loss-rates", "0.2", "--failures", "0",
                     "--trials", "2", "--recovery",
                     "--recovery-timeout", "3",
                     "--recovery-max-retries", "1",
                     "--recovery-backoff", "1",
                     "--recovery-suppression-k", "0",
                     "--recovery-no-election"]) == 0
        assert "loss p=0.2" in capsys.readouterr().out


class TestFrontierCommand:
    def test_default_run(self, capsys):
        assert main(["frontier", "2D-4", "--shape", "8", "6",
                     "--loss-rates", "0.2", "--trials", "2",
                     "--hardening", "0", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "blind-r0" in out
        assert "blind-r2" in out
        assert "recovery-" in out
        assert "*" in out  # at least one Pareto point

    def test_seed_changes_channels(self, capsys):
        args = ["frontier", "2D-4", "--shape", "8", "6",
                "--loss-rates", "0.3", "--trials", "2",
                "--hardening", "0"]
        assert main(args + ["--seed", "1"]) == 0
        a = capsys.readouterr().out
        assert main(args + ["--seed", "2"]) == 0
        b = capsys.readouterr().out
        assert a != b

    def test_engines_print_identical_tables(self, capsys):
        def table(out):
            return [ln for ln in out.splitlines()
                    if not ln.startswith("engine:")]

        args = ["frontier", "2D-4", "--shape", "8", "6",
                "--loss-rates", "0.2", "--trials", "2",
                "--hardening", "0", "--seed", "3"]
        assert main(args + ["--engine", "batch"]) == 0
        batch = capsys.readouterr().out
        assert main(args + ["--engine", "compiled"]) == 0
        compiled = capsys.readouterr().out
        assert table(batch) == table(compiled)

    def test_workers_flag(self, capsys):
        assert main(["frontier", "2D-4", "--shape", "8", "6",
                     "--loss-rates", "0.1", "0.2", "--trials", "2",
                     "--hardening", "0", "--workers", "2"]) == 0
        assert "recovery frontier" in capsys.readouterr().out


class TestLifetimeCommand:
    def test_default_run(self, capsys):
        assert main(["lifetime", "2D-4", "--shape", "8", "6",
                     "--battery", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "rounds completed" in out
        assert "energy imbalance" in out

    def test_rotate_and_loss(self, capsys):
        assert main(["lifetime", "2D-4", "--shape", "8", "6", "--rotate",
                     "--loss", "0.1", "--trials", "4",
                     "--battery", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "sources (cycled) : 5" in out
        assert "Bernoulli p=0.1" in out

    def test_explicit_source_with_workers(self, tmp_path, capsys):
        assert main(["lifetime", "2D-4", "--shape", "8", "6",
                     "--source", "2", "2", "--battery", "0.002",
                     "--workers", "2",
                     "--cache", str(tmp_path / "sched")]) == 0
        assert "2D-4" in capsys.readouterr().out


class TestSweepSymmetryFlag:
    def _sweep_output(self, capsys, *flags):
        assert main(["sweep", "2D-4", "--shape", "9", "6", "--stride", "4",
                     *flags]) == 0
        return capsys.readouterr().out

    def test_symmetry_and_direct_print_identical_tables(self, capsys):
        forced = self._sweep_output(capsys, "--symmetry")
        direct = self._sweep_output(capsys, "--no-symmetry")
        default = self._sweep_output(capsys)
        assert forced == direct == default
        assert "source sweep: 2D-4" in forced

    def test_symmetry_composes_with_workers_and_cache(self, tmp_path,
                                                      capsys):
        out = self._sweep_output(
            capsys, "--symmetry", "--workers", "2",
            "--cache", str(tmp_path / "sched"))
        assert "all reached        : True" in out

    def test_table_accepts_symmetry_flag(self, capsys):
        assert main(["table", "3", "--stride", "64", "--symmetry"]) == 0
        assert "Table 3" in capsys.readouterr().out


class TestScalingCommand:
    def test_scaling(self, capsys):
        assert main(["scaling", "2D-4", "--sizes", "128", "288"]) == 0
        out = capsys.readouterr().out
        assert "scaling study: 2D-4" in out
        assert "16x8" in out

    def test_scaling_3d(self, capsys):
        assert main(["scaling", "3D-6", "--sizes", "64"]) == 0
        assert "4x4x4" in capsys.readouterr().out

    def test_scaling_explicit_sizes_override_ladder(self, capsys):
        assert main(["scaling", "2D-4", "--ladder", "large",
                     "--sizes", "128"]) == 0
        out = capsys.readouterr().out
        assert "16x8" in out
        assert "1000x500" not in out

    def test_scaling_rejects_unknown_ladder(self, capsys):
        with pytest.raises(SystemExit):
            main(["scaling", "2D-4", "--ladder", "huge"])
        assert "invalid choice" in capsys.readouterr().err
