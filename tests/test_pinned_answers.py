"""Pinned answers: store digests that a compile-path change must keep.

Each test fills a fresh store through one production path and compares
its :func:`~store_digest.store_digest` with a digest recorded before the
slot loops were unified:

* the ``fill`` benchmark fleet through ``ArtifactStore.warm`` (the
  offline path);
* every 37th source of the 2D-4 48×32 grid, queried one at a time
  through a cold :class:`~repro.service.QueryEngine` (the query path:
  ``compile_class`` → ``compile_broadcast`` for each new class
  representative, batched member waves for the rest).  This is the
  ``serve-mixed`` benchmark's miss grid.

A third test hashes every point of the ``montecarlo`` benchmark's two
``recovery_frontier`` cells at seed 1, on the dense and the ``auto``
engine tier, against a hash recorded before the fan-out was unified.
"""

import hashlib
import json

import pytest

from repro.analysis.robustness import recovery_frontier

from repro.core.store import ArtifactStore
from repro.service import Query, QueryEngine
from repro.topology.builder import make_topology

from .store_digest import bench_worker, fill_fleet, store_digest

FILL_DIGEST = ("46e2468591398172416d2eba85e017e5"
               "2c3cc74cf87576ae9b1c646a35b05419")
COLD_DIGEST = ("bfc387f314bf2eb0acbb851a8efb77b1"
               "3acb954d2bbcc2d555261be5fe128606")
MONTECARLO_DIGEST = ("dd893e2fdf00955e3b7b2576b426bebc"
                     "4ec568c5caa42fccd0f13759b39fa763")


def test_fill_fleet_digest(tmp_path):
    ArtifactStore(tmp_path).warm(fill_fleet())
    digest, entries, profiles = store_digest(tmp_path)
    assert (entries, profiles) == (180, 134)
    assert digest == FILL_DIGEST


def test_cold_query_path_digest(tmp_path):
    shape = (48, 32)
    topology = make_topology("2D-4", shape)
    engine = QueryEngine(tmp_path / "store")
    for i in range(0, topology.num_nodes, 37):
        [result] = engine.query_batch([Query(
            topology="2D-4", source=tuple(topology.coord(i)), shape=shape)])
        assert result.metrics is not None
    digest, entries, profiles = store_digest(tmp_path / "store")
    assert (entries, profiles) == (42, 9)
    assert digest == COLD_DIGEST


@pytest.mark.parametrize("engine", ["auto", "batch"])
def test_montecarlo_frontier_digest(engine):
    worker = bench_worker()
    topology = make_topology(*worker.MC_TOPOLOGY)
    rows = [point.as_row()
            for p, k in worker.MC_CELLS
            for point in recovery_frontier(
                topology, worker.MC_SOURCE, loss_rates=(p,),
                failure_counts=(k,), trials=worker.MC_TRIALS,
                engine=engine, seed=1)]
    assert len(rows) == 18
    text = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == MONTECARLO_DIGEST
