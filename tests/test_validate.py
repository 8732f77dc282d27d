"""Unit tests for the schedule auditor."""

import pytest

from repro.core import ScheduleError, protocol_for, validate_broadcast
from repro.sim import BroadcastSchedule
from repro.topology import Mesh2D4


@pytest.fixture
def mesh():
    return Mesh2D4(6, 1)


class TestAudit:
    def test_valid_line_schedule(self, mesh):
        sched = BroadcastSchedule.from_events(
            [(k + 1, k) for k in range(6)])
        report = validate_broadcast(mesh, sched, 0)
        assert report.ok
        assert report.trace.all_reached
        report.raise_if_failed()  # must not raise

    def test_causality_violation_detected(self, mesh):
        # node 3 transmits before anything could have reached it
        sched = BroadcastSchedule.from_events([(1, 0), (1, 3)])
        report = validate_broadcast(mesh, sched, 0,
                                    expect_full_reach=False)
        assert not report.ok
        # A pristine replay transmits node 3 although nothing reached
        # it, so the audit sees exactly that.
        assert any(f"node {mesh.coord(3)} transmits in slot 1 but never "
                   f"receives" in i for i in report.issues)
        with pytest.raises(ScheduleError):
            report.raise_if_failed()

    def test_transmit_without_reception_detected(self, mesh):
        sched = BroadcastSchedule.from_events([(1, 0), (9, 5)])
        report = validate_broadcast(mesh, sched, 0,
                                    expect_full_reach=False)
        assert not report.ok
        assert any("never receives" in i for i in report.issues)

    def test_unreached_nodes_reported(self, mesh):
        sched = BroadcastSchedule.from_events([(1, 0)])
        report = validate_broadcast(mesh, sched, 0)
        assert not report.ok
        assert any("never reached" in i for i in report.issues)

    def test_unreached_ok_when_not_expected(self, mesh):
        sched = BroadcastSchedule.from_events([(1, 0)])
        report = validate_broadcast(mesh, sched, 0,
                                    expect_full_reach=False)
        assert report.ok

    def test_many_missing_elided(self):
        big = Mesh2D4(20, 20)
        sched = BroadcastSchedule.from_events([(1, 0)])
        report = validate_broadcast(big, sched, 0)
        assert any("more)" in i for i in report.issues)


class TestCompiledSchedulesPass:
    @pytest.mark.parametrize("label", ["2D-3", "2D-4", "2D-8", "3D-6"])
    def test_protocol_outputs_audit_clean(self, label, paper_meshes,
                                          compiled_central):
        mesh = paper_meshes[label]
        compiled = compiled_central[label]
        report = validate_broadcast(mesh, compiled.schedule,
                                    compiled.source)
        assert report.ok, report.issues
