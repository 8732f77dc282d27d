"""Argument validation of the trial-sharded entry points.

A sharded call must reject exactly what the unsharded call rejects, and
name the caller's arguments in the error, before any shard is cut: a
16-trial loss with ``trials=8`` must not silently run 8 trials, and a
mismatched ``dead_masks`` must not surface as a shard-sliced shape.
"""

import numpy as np
import pytest

from repro.core import protocol_for
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.sim import (replay_batch, replay_batch_sharded, run_reactive_batch,
                       run_reactive_batch_sharded)
from repro.topology import Mesh2D4

MESH = Mesh2D4(8, 8)
SOURCE = MESH.index((4, 4))


def _reactive(fn, **kw):
    return fn(MESH, SOURCE, np.ones(MESH.num_nodes, dtype=bool),
              summary=True, **kw)


def _replay(fn, **kw):
    schedule = protocol_for("2D-4").compile(MESH, (4, 4)).schedule
    return fn(MESH, schedule, SOURCE, summary=True, **kw)


CALLS = [
    pytest.param(_reactive, run_reactive_batch, run_reactive_batch_sharded,
                 id="reactive"),
    pytest.param(_replay, replay_batch, replay_batch_sharded, id="replay"),
]


@pytest.mark.parametrize("call, plain, sharded", CALLS)
def test_loss_trials_mismatch_rejected(call, plain, sharded):
    loss = BernoulliBatchLoss(0.2, trial_seeds(0, 0.2, 16))
    with pytest.raises(ValueError, match="inconsistent batch sizes"):
        call(plain, loss=loss, trials=8)
    with pytest.raises(ValueError, match="inconsistent batch sizes"):
        call(sharded, loss=loss, trials=8, workers=2)


@pytest.mark.parametrize("call, plain, sharded", CALLS)
def test_dead_masks_mismatch_names_caller_shape(call, plain, sharded):
    dead = np.zeros((5, MESH.num_nodes), dtype=bool)
    for fn, kw in ((plain, {}), (sharded, {"workers": 2})):
        with pytest.raises(ValueError,
                           match=r"inconsistent batch sizes.*\(5, 64\)"):
            call(fn, dead_masks=dead, trials=8, **kw)


@pytest.mark.parametrize("call, plain, sharded", CALLS)
def test_consistent_sizes_still_shard(call, plain, sharded):
    loss = BernoulliBatchLoss(0.2, trial_seeds(0, 0.2, 8))
    base = call(plain, loss=loss, trials=8)
    split = call(sharded, loss=loss, trials=8, workers=2)
    assert np.array_equal(base.first_rx, split.first_rx)
    assert np.array_equal(base.tx_count, split.tx_count)


def test_shard_module_owns_the_only_process_pool():
    """Every parallel path runs through :func:`repro.sim.shard.fan_out`:
    no other module under ``src/`` imports ``concurrent.futures``."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    importers = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "concurrent" or m.startswith("concurrent.")
                   for m in modules):
                importers.append(path.relative_to(root).as_posix())
    assert sorted(set(importers)) == ["sim/shard.py"]
