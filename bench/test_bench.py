"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import loadgen
import run
import spans
from loadgen import Pending

ROOT = Path(__file__).resolve().parents[1]


def ok(topology, source):
    return {"ok": True, "topology": topology, "source": list(source)}


# -- pairing -----------------------------------------------------------------

def test_responses_pair_fifo_per_key_in_any_order():
    pending = Pending()
    pending.add(0, ("2D-8", (1, 1)))
    pending.add(1, ("3D-6", (1, 1, 1)))
    pending.add(2, ("2D-8", (1, 1)))
    assert pending.pair(ok("3D-6", (1, 1, 1))) == 1
    assert pending.pair(ok("2D-8", (1, 1))) == 0
    assert pending.pair(ok("2D-8", (1, 1))) == 2
    assert len(pending) == 0


def test_keyless_error_fails_the_oldest_pending_request():
    pending = Pending()
    pending.add(5, ("2D-8", (2, 2)))
    pending.add(6, ("2D-8", (3, 3)))
    refusal = {"ok": False, "error": "queue full", "error_type": "overloaded"}
    assert pending.pair(refusal) == 5
    assert pending.pair(None) == 6  # a line that was not JSON
    assert pending.pair(refusal) is None  # nothing left to fail


def test_keyless_failure_leaves_later_same_key_requests_paired():
    pending = Pending()
    pending.add(0, ("2D-8", (1, 1)))
    pending.add(1, ("2D-8", (1, 1)))
    assert pending.pair({"ok": False}) == 0
    assert pending.pair(ok("2D-8", (1, 1))) == 1


def test_unsolicited_keyed_response_pairs_with_nothing():
    pending = Pending()
    pending.add(0, ("2D-8", (1, 1)))
    assert pending.pair(ok("2D-8", (9, 9))) is None
    assert pending.drain() == [0]


# -- schedules ---------------------------------------------------------------

def test_schedule_is_identical_for_a_seed():
    def schedule(seed):
        rng = random.Random(seed)
        offsets = loadgen.poisson_offsets(1000.0, 2.0, rng)
        hits = [(("2D-8", (i, 1)), b"h") for i in range(50)]
        misses = [(("2D-4", (i, 1)), b"m") for i in range(100)]
        requests, kinds = run.mix(rng, hits, misses, len(offsets), 0.04)
        return offsets, requests, kinds

    assert schedule(3) == schedule(3)
    assert schedule(3) != schedule(4)
    offsets, requests, kinds = schedule(3)
    assert all(b > a for a, b in zip(offsets, offsets[1:]))
    assert 1800 < len(offsets) < 2200
    where = [i for i, k in enumerate(kinds) if k == "miss"]
    assert abs(len(where) - 0.04 * len(offsets)) <= 1
    assert {b - a for a, b in zip(where, where[1:])} == {25}
    misses = [requests[i] for i in where]
    assert len(set(misses)) == len(misses)  # each miss is sent once


# -- window percentiles ------------------------------------------------------

def test_percentile_matches_numpy_linear():
    values = [random.Random(1).random() for _ in range(101)]
    for q in (0, 1, 50, 99, 100):
        assert loadgen.percentile(values, q) == pytest.approx(
            np.percentile(values, q))


def test_window_answers_split_at_pauses_and_skip_failures():
    phase = loadgen.Phase(start=0.0, duration_s=1.0, due=[0.0] * 6,
                          sent=[0.0] * 6, recv=[1.0] * 6,
                          ok=[True, True, False, True, True, True],
                          responses=[None] * 6, windows=[0, 3, 3, 6],
                          pauses=[None] * 4)
    assert phase.window_answers() == [[0, 1], [], [3, 4, 5]]


# -- layer and stage arithmetic ----------------------------------------------

def test_stage_budget_adds_up_to_end_to_end():
    snap = {"seconds": {"wire.parse": 0.01, "wire.loads": 0.01,
                        "runtime.queue": 0.5, "runtime.engine": 0.3,
                        "wire.encode": 0.02, "wire.dumps": 0.02},
            "calls": {"wire.parse": 100, "runtime.queue": 100,
                      "runtime.engine": 100, "wire.encode": 100}}
    stages = spans.stage_budget(snap, late_ms=0.1, e2e_ms=10.0)
    assert stages["stage.parse_ms"] == pytest.approx(0.2)
    assert stages["stage.queue_ms"] == pytest.approx(5.0)
    parts = sum(v for k, v in stages.items() if k != "stage.e2e_ms")
    assert parts == pytest.approx(stages["stage.e2e_ms"])


def test_idle_layers_report_zero():
    empty = {"seconds": {}, "calls": {}, "samples": {}, "coalesced": 0}
    values = spans.layer_metrics(empty, wall_s=1.0)
    assert set(values) == set(spans.LAYER_METRICS)
    assert all(v == 0 for v in values.values())


# -- agreement with BENCHMARK.json --------------------------------------------

def test_benchmark_json_lists_exactly_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_computed_layer_metric_is_printed():
    import worker
    computed = (set(spans.LAYER_METRICS) | set(worker.PHASES.values())
                | set(spans.stage_budget(
                    {"seconds": {}, "calls": {}}, 0.0, 0.0)))
    assert computed <= set(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fill", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_refuses_guarded_environment(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert run.main(["--workload", "fill"]) == 2
    assert capsys.readouterr().out == ""


# -- a short run against a live server ---------------------------------------

@pytest.fixture
def server(tmp_path):
    from repro.service import BackgroundServer, QueryEngine
    engine = QueryEngine(tmp_path / "store")
    engine.warm([("2D-8", (6, 6))])
    with BackgroundServer(engine) as srv:
        yield ("127.0.0.1", srv.port)


def test_open_and_closed_loop_against_a_live_server(server):
    requests = run.grid_requests("2D-8", (6, 6))
    rng = random.Random(0)
    offsets = [0.0] + [0.1 + t for t in loadgen.poisson_offsets(300.0, 1.0,
                                                                rng)]
    sent = [rng.choice(requests) for _ in offsets]
    # A malformed first request, alone in flight on its connection: the
    # server's refusal carries no key and fails exactly that request.
    sent[0] = (sent[0][0], b'{"topology": "2D-8"}\n')
    phase = loadgen.open_loop(server, [k for k, _ in sent],
                              [p for _, p in sent], offsets, grace_s=2.0)
    assert phase.attempted == len(offsets)
    assert phase.answered() == list(range(1, len(offsets)))
    assert phase.responses[0]["error_type"] == "bad_request"
    assert phase.unsolicited == 0
    for i in phase.answered():
        response = phase.responses[i]
        assert (response["topology"], tuple(response["source"])) \
            == sent[i][0]
        assert phase.recv[i] > phase.due[i]
    assert max(phase.late_ms()) < 100.0

    many = requests * 200
    loop = loadgen.closed_loop(server, [k for k, _ in many],
                               [p for _, p in many], 0.3, window=8)
    assert loop.attempted > 8
    assert loop.failed == 0
    assert loop.inflight_max <= 8


def paused_at(phase):
    """Every request went out after its window's opening pause and was
    answered before the closing one: nothing was in flight in a pause."""
    for k, idx in enumerate(phase.window_answers()):
        opened, closed = phase.pauses[k], phase.pauses[k + 1]
        assert all(opened <= phase.sent[i] and phase.recv[i] <= closed
                   for i in idx)


def test_pauses_wait_for_requests_in_flight(server):
    requests = run.grid_requests("2D-8", (6, 6))
    rng = random.Random(1)
    offsets = loadgen.poisson_offsets(300.0, 1.0, rng)
    sent = [rng.choice(requests) for _ in offsets]
    phase = loadgen.open_loop(server, [k for k, _ in sent],
                              [p for _, p in sent], offsets,
                              pause_every_s=0.25, pause=time.monotonic)
    assert len(phase.pauses) == 5  # start, 0.25, 0.5, 0.75 and the end
    assert phase.windows[0] == 0 and phase.windows[-1] == len(offsets)
    assert phase.answered() == list(range(len(offsets)))
    assert max(phase.late_ms()) < 100.0  # pauses shift the schedule
    paused_at(phase)

    many = requests * 200
    loop = loadgen.closed_loop(server, [k for k, _ in many],
                               [p for _, p in many], 0.3, window=8,
                               pause_every_s=0.1, pause=time.monotonic)
    assert len(loop.pauses) == 4
    assert all(loop.window_answers())
    paused_at(loop)
