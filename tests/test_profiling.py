"""The opt-in phase profiler: free when off, unchanged when on."""

import numpy as np
import pytest

from repro import profiling
from repro.core import protocol_for
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.sim import (RecoveryPolicy, native_available, replay_batch,
                       run_reactive_batch, run_reactive_multi)
from repro.topology import Mesh2D4


@pytest.fixture(autouse=True)
def no_capture():
    profiling.stop()
    yield
    profiling.stop()


def test_phase_off_is_one_shared_noop():
    a = profiling.phase("resolve")
    b = profiling.phase("commit")
    assert a is b
    with a:
        pass
    assert profiling.stop() == {}


def test_phase_on_times_each_block():
    profiling.start()
    with profiling.phase("x"):
        pass
    with profiling.phase("x"):
        pass
    times = profiling.stop()
    assert set(times) == {"x"} and times["x"] > 0.0
    assert profiling.phase("x") is profiling.phase("y")


def test_phase_records_time_when_the_block_raises():
    profiling.start()
    with pytest.raises(KeyError):
        with profiling.phase("boom"):
            raise KeyError("x")
    assert profiling.stop()["boom"] > 0.0


@pytest.mark.skipif(not native_available(),
                    reason="native kernel unavailable")
def test_compiled_summary_run_is_one_resolve():
    """A compiled run is one kernel call, timed as ``resolve``: the
    Bernoulli draws and the commit run inside it."""
    mesh = Mesh2D4(8, 6)
    trials = 4
    loss = BernoulliBatchLoss(0.2, trial_seeds(1, 0.2, trials))
    profiling.start()
    run_reactive_batch(mesh, 0, np.ones(mesh.num_nodes, dtype=bool),
                       loss=loss, summary=True, engine="compiled")
    times = profiling.stop()
    assert set(times) == {"resolve"}
    assert times["resolve"] > 0.0


@pytest.mark.parametrize("engine", ["compiled", "batch"])
def test_recovery_post_slot_phases_run_only_on_the_dense_tier(engine):
    """Structural guard, no timing: the compiled kernel runs the whole
    recovery post-slot update (elections included) inside ``resolve``,
    so neither numpy phase is ever entered there; the dense tier still
    records both."""
    if engine == "compiled" and not native_available():
        pytest.skip("native kernel unavailable")
    mesh = Mesh2D4(8, 6)
    trials = 4
    loss = BernoulliBatchLoss(0.2, trial_seeds(2, 0.2, trials))
    profiling.start()
    run_reactive_batch(mesh, 0, np.ones(mesh.num_nodes, dtype=bool),
                       loss=loss, summary=True, engine=engine,
                       recovery=RecoveryPolicy(),
                       repeat_offsets={3: (1, 3)}, forced_tx={2: [0, 40]})
    times = profiling.stop()
    dense = {"recovery-pre", "recovery-post", "recovery-election"}
    if engine == "compiled":
        # The whole wave -- the C scheduler with its recovery calendar,
        # Bernoulli draws, commit and post-slot recovery -- is one
        # kernel call, timed as resolve.
        assert set(times) == {"resolve"}
        assert times["resolve"] > 0.0
    else:
        assert times["recovery-pre"] > 0.0
        assert dense <= set(times)


@pytest.mark.parametrize("engine", ["compiled", "batch"])
def test_scheduler_time_without_recovery(engine):
    """Structural guard, no timing: the compiled tier's one kernel
    call counts as ``resolve`` and the dense tier logs in ``commit`` —
    a multi-source wave records no recovery phase on either tier."""
    if engine == "compiled" and not native_available():
        pytest.skip("native kernel unavailable")
    mesh = Mesh2D4(8, 6)
    n = mesh.num_nodes
    profiling.start()
    run_reactive_multi(mesh, np.array([0, 20]), np.ones((2, n), dtype=bool),
                       repeat_offsets_list=[{3: (1, 3)}, {}],
                       forced_tx_list=[{2: [0, 40]}, {}], engine=engine)
    times = profiling.stop()
    assert not {"recovery-pre", "recovery-post", "recovery-election",
                "loss-rng"} & set(times)
    if engine == "compiled":
        assert set(times) == {"resolve"}
        assert times["resolve"] > 0.0
    else:
        assert times["commit"] > 0.0


def test_compiled_replay_runs_in_the_kernel_scheduler():
    """Structural guard, no timing: a compiled replay is a forced-only
    wave of the C scheduler, so a recovering, faulty one is one kernel
    call timed as ``resolve``, and its dense twin records the Python
    step's phases."""
    if not native_available():
        pytest.skip("native kernel unavailable")
    mesh = Mesh2D4(8, 6)
    trials = 4
    src = mesh.index((4, 3))
    sched = protocol_for("2D-4").compile(mesh, (4, 3)).schedule
    dead = np.zeros((trials, mesh.num_nodes), dtype=bool)
    dead[2, 20] = True
    kwargs = dict(dead_masks=dead, recovery=RecoveryPolicy(),
                  loss=BernoulliBatchLoss(0.2, trial_seeds(4, 0.2, trials)))
    phases = {}
    for engine in ("compiled", "batch"):
        profiling.start()
        replay_batch(mesh, sched, src, engine=engine, **kwargs)
        phases[engine] = profiling.stop()
    assert set(phases["compiled"]) == {"resolve"}
    assert phases["compiled"]["resolve"] > 0.0
    assert {"loss-rng", "recovery-post"} <= set(phases["batch"])
