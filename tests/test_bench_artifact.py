"""The committed benchmark artefacts must stay well-formed.

``benchmarks/perf_sweep.py`` / ``perf_robustness.py`` /
``perf_scaling.py`` / ``perf_recovery.py`` / ``perf_symmetry.py`` /
``perf_kernel.py`` / ``perf_service.py`` / ``perf_faults.py``
regenerate the artefacts; these tier-1 checks only
validate their structure (cheap, no timing), so a hand-edited or
truncated file is caught before it misleads anyone reading the
numbers.

Every validator is keyed by the artefact's declared ``schema`` string
in :data:`VALIDATORS`; ``test_every_bench_artifact_has_validator``
globs ``BENCH_*.json`` so a future artefact committed without a
matching validator (or with a typo'd schema) fails tier 1 instead of
silently riding along unchecked.
"""

import json
import math
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
SWEEP_ARTIFACT = _ROOT / "BENCH_sweep.json"
ROBUSTNESS_ARTIFACT = _ROOT / "BENCH_robustness.json"
SCALING_ARTIFACT = _ROOT / "BENCH_scaling.json"
SYMMETRY_ARTIFACT = _ROOT / "BENCH_symmetry.json"
RECOVERY_ARTIFACT = _ROOT / "BENCH_recovery.json"
KERNEL_ARTIFACT = _ROOT / "BENCH_kernel.json"
SERVICE_ARTIFACT = _ROOT / "BENCH_service.json"
FAULTS_ARTIFACT = _ROOT / "BENCH_faults.json"


def _validate_sweep(payload):
    assert payload["parallel_matches_serial"] is True
    assert set(payload["entries"]) == {"serial", "cold", "warm", "parallel"}
    for label, entry in payload["entries"].items():
        assert entry["seconds"] > 0, label
        assert entry["sources_per_second"] > 0, label
    assert payload["sources"] == payload["shape"][0] * payload["shape"][1]
    assert isinstance(payload["workers"], int) and payload["workers"] >= 1
    # v2: warm hits are served from the artifact store's persisted
    # counts (no replay), so a warm sweep must beat even the cache-less
    # serial sweep — the v1 artefacts had warm *slower* than serial
    # (0.87s vs 0.65s) because every disk hit replayed its schedule.
    assert payload["warm_speedup_vs_serial"] > 1.0
    assert payload["warm_speedup_vs_cold"] > 1.0


def _validate_service(payload):
    # fidelity gates: asserted by the benchmark before writing, checked
    # again here so a hand-edited artefact cannot claim them
    assert payload["metrics_equal"] is True
    assert payload["replay_verified"] is True
    assert set(payload["entries"]) == {"cold", "warm"}
    for label, entry in payload["entries"].items():
        assert entry["seconds"] > 0, label
        assert entry["queries_per_second"] > 0, label
        assert entry["queries"] == payload["sources"]
    assert payload["sources"] == payload["shape"][0] * payload["shape"][1]
    # the ISSUE's acceptance floors for the committed artefact: warm
    # store throughput >= 10x cold on the 2D-4 32x16 fleet shape, and
    # >= 64 same-class concurrent queries coalesced into one compile
    assert payload["topology"] == "2D-4"
    assert payload["shape"] == [32, 16]
    assert payload["warm_speedup_vs_cold"] >= 10.0
    co = payload["coalescing"]
    assert co["queries"] >= 64
    assert co["compile_calls"] == 1
    assert co["coalesced"] == co["queries"] - 1
    warm = payload["warm_summary"]
    assert warm["entries"] == payload["sources"]
    assert warm["compiles"] <= warm["classes"]
    # the bulk precompute itself is timed (group-committed store writes)
    assert warm["seconds"] > 0
    assert warm["sources_per_second"] > 0
    # warm hits are answered at arrival: the async runtime adds at most
    # as much again as the bare engine call to a sequential warm query
    aw = payload["async_warm"]
    assert aw["queries"] >= payload["sources"]
    assert aw["us_per_query"] > 0
    assert aw["engine_us_per_query"] > 0
    assert aw["overhead_ratio"] <= 2.0


def _validate_robustness(payload):
    assert payload["batched_matches_serial"] is True
    assert set(payload["entries"]) == {"serial", "batched", "parallel"}
    for label, entry in payload["entries"].items():
        assert entry["seconds"] > 0, label
        assert entry["simulations_per_second"] > 0, label
    assert payload["simulations"] == \
        len(payload["loss_rates"]) * payload["trials"]
    # the ISSUE's acceptance floor for the committed artefact
    assert len(payload["loss_rates"]) >= 8
    assert payload["trials"] >= 32
    assert payload["batched_speedup_vs_serial"] >= 3.0


def _validate_symmetry(payload):
    # the hard equality gate: symmetry sweeps reproduced the direct
    # sweeps' metrics exactly before the artefact was written
    assert payload["metrics_equal"] is True
    assert payload["cpu_count"] is None or payload["cpu_count"] >= 1
    assert payload["cpus_available"] >= 1
    labels = set()
    for entry in payload["entries"]:
        labels.add(entry["topology"])
        assert entry["metrics_equal"] is True
        assert entry["classes"] >= 1
        assert entry["classes"] <= entry["sources"]
        for mode in ("no_symmetry", "symmetry"):
            assert entry[mode]["seconds"] > 0
            assert entry[mode]["compile_calls"] >= 0
        assert entry["no_symmetry"]["compile_calls"] == entry["sources"]
        assert entry["symmetry"]["compile_calls"] <= entry["classes"]
        assert entry["speedup"] > 0
    # the ISSUE's acceptance floors for the committed artefact: a
    # full-grid 2D-4 sweep with >= 5x fewer compile calls and a
    # measured wall-clock speedup over the direct cached-sweep baseline
    assert "2D-4" in labels
    mesh2d4 = next(e for e in payload["entries"]
                   if e["topology"] == "2D-4")
    assert mesh2d4["sources"] == mesh2d4["shape"][0] * mesh2d4["shape"][1]
    assert mesh2d4["compile_call_reduction"] >= 5.0
    assert mesh2d4["speedup"] > 1.0


def _validate_recovery(payload):
    assert payload["batched_matches_serial"] is True
    assert set(payload["entries"]) == {"serial", "batched"}
    for label, entry in payload["entries"].items():
        assert entry["seconds"] > 0, label
        assert entry["simulations_per_second"] > 0, label
    # the frontier rows must cover every strategy of the sweep
    assert len(payload["frontier"]) == len(payload["strategies"])
    for row in payload["frontier"]:
        assert 0.0 <= row["mean_reach"] <= 1.0
        assert row["mean_energy_j"] > 0
    # the ISSUE's acceptance floors for the committed artefact: the
    # 2D-4 16x16 / p=0.2 reference case must contain a recovery policy
    # that meets blind-r2's reachability at >= 25% lower mean energy
    assert payload["topology"] == "2D-4"
    assert payload["shape"] == [16, 16]
    assert payload["loss_rate"] == 0.2
    assert payload["trials"] >= 32
    acc = payload["acceptance"]
    assert acc["meets_bar"] is True
    assert acc["recovery"]["mean_reach"] >= acc["blind_r2"]["mean_reach"]
    assert acc["energy_saving_vs_blind_r2"] >= 0.25


def _validate_scaling(payload):
    assert payload["dense_gate_respected"] is True
    assert payload["adjacency_equal_everywhere"] is True
    assert payload["workers_effective"] >= 1
    assert len(payload["points"]) == len(payload["sizes"])
    for p in payload["points"]:
        assert p["stencil_build_s"] > 0
        assert p["peak_rss_mb"] > 0
        if p["loop_build_s"] is not None:
            assert p["adjacency_equal"] is True
    # the ISSUE's acceptance floors for the committed artefact
    assert payload["topology"] == "2D-4"
    assert payload["largest_common_nodes"] >= 500_000
    assert payload["adjacency_speedup_at_largest_common"] >= 5.0
    big = max(payload["points"], key=lambda p: p["nodes"])
    assert big["nodes"] >= 500_000
    assert big["compile_s"] is not None
    assert big["simulate_s"] is not None
    assert big["reachability"] == 1.0


def _validate_kernel(payload):
    # the hard equality gates: every tier and every shard count
    # reproduced the batch engine's results exactly before the
    # artefact was written
    assert payload["engines_equal"] is True
    assert payload["shard_invariant"] is True
    if not payload["native_available"]:
        assert payload["native_reason"]
    sweep = payload["sweep"]
    assert {"serial", "batch", "sharded"} <= set(sweep["entries"])
    for label, entry in sweep["entries"].items():
        assert entry["seconds"] > 0, label
        assert entry["simulations_per_second"] > 0, label
    assert sweep["simulations"] == \
        len(sweep["loss_rates"]) * sweep["trials"]
    # comparable to BENCH_robustness: same reference workload floors
    assert len(sweep["loss_rates"]) >= 8
    assert sweep["trials"] >= 32
    for section in ("large_grid", "recovery_grid"):
        grid = payload[section]
        assert grid["nodes"] == grid["shape"][0] * grid["shape"][1]
        assert "batch" in grid["entries"]
        for label, entry in grid["entries"].items():
            assert entry["seconds"] > 0, label
            assert entry["simulations_per_second"] > 0, label
    grid = payload["large_grid"]
    assert grid["nodes"] >= 4096
    assert grid["trials"] >= 256
    # the acceptance floor: >= 3x over the dense batch engine on one
    # CPU from the word-space resolve alone (no sharding)
    assert grid["recovery"] is None
    if payload["native_available"]:
        assert grid["compiled_speedup_vs_batch"] >= 3.0
    # v2: the recovery cell carries its own enforced floor now that
    # the recovery update is tiered (packed bitset + C inner loops)
    rec = payload["recovery_grid"]
    assert rec["recovery"] is not None
    floors = rec["speedup_floors"]
    assert floors["compiled"] >= 5.0
    if payload["native_available"]:
        assert rec["compiled_speedup_vs_batch"] >= floors["compiled"]
    # v5: the kernel is single-threaded; no multi-thread entries or
    # floors remain.
    assert payload["cores_available"] >= 1
    for key in ("threads", "mt_speedup_floors", "mt_floors_exercised"):
        assert key not in payload, key
    # v6: the replay cell — faulty summary replays, every tier held to
    # the batch answer before writing; timed, no floor.
    replay = payload["replay_grid"]
    assert replay["nodes"] == replay["shape"][0] * replay["shape"][1]
    assert replay["nodes"] >= 1536 and replay["trials"] >= 32
    assert replay["dead_nodes"] >= 1 and replay["transmissions"] > 0
    assert "batch" in replay["entries"]
    if payload["native_available"]:
        assert "compiled" in replay["entries"]
        assert replay["compiled_speedup_vs_batch"] > 0
    for label, entry in replay["entries"].items():
        assert entry["seconds"] > 0, label
        assert entry["simulations_per_second"] > 0, label
    for section in ("large_grid", "recovery_grid"):
        grid = payload[section]
        assert "compiled-mt" not in grid["entries"]
        assert "mt_speedup_vs_compiled" not in grid
        for label, entry in grid["entries"].items():
            assert "threads" not in entry, label
    # v7: the B=1 trace cell — compiled one-trial trace waves against
    # the serial engine on three shapes, traces asserted equal before
    # writing; the 10% gate is reported, and the report must be true
    # to the ratios.
    b1 = payload["b1_trace"]
    assert b1["gate"] == 1.10 and b1["rounds"] >= 1 and b1["calls"] >= 1
    shapes = {(c["topology"], tuple(c["shape"])) for c in b1["cells"]}
    assert shapes == {("2D-4", (48, 32)), ("2D-8", (12, 12)),
                      ("3D-6", (5, 5, 5))}
    for cell in b1["cells"]:
        assert cell["nodes"] == math.prod(cell["shape"])
        assert cell["serial_ms"] > 0 and cell["compiled_ms"] > 0
        assert abs(cell["ratio"] - cell["compiled_ms"] / cell["serial_ms"]
                   ) < 0.01
        assert cell["tier"] == ("compiled" if payload["native_available"]
                                else "batch")
    assert b1["gate_met"] == all(c["ratio"] <= b1["gate"]
                                 for c in b1["cells"])


def _validate_faults(payload):
    # The resilience floors: asserted by the benchmark before writing,
    # checked again here so a hand-edited artefact cannot claim them.
    assert payload["availability"] >= payload["availability_floor"]
    assert payload["availability_floor"] >= 0.99
    assert payload["answers_equal"] is True
    assert payload["shard_retry"]["identical"] is True
    assert payload["demotion"]["answers_equal"] is True
    # The chaos must actually have happened — an artefact showing 100%
    # availability with zero fired faults measured nothing.
    assert payload["faults_fired_total"] > 0
    # Every seam fired at least once; the two native seams only exist
    # where the native kernel builds.
    fired = {seam: s["fired"] for seam, s in payload["faults"].items()}
    native_seams = {"native.build", "backend.resolve"}
    for seam in ("shard.worker_kill", "store.torn_write", "native.build",
                 "backend.resolve", "compile.slow",
                 "server.drop_connection", "server.garble_response"):
        if payload["native_available"] or seam not in native_seams:
            assert fired[seam] >= 1, seam
    assert set(payload["breaker"]) == {"compiled"}
    assert payload["store_errors"] >= 1
    # Deadline sheds must cost zero compiles.
    assert payload["deadline"]["shed"] >= 1
    assert payload["deadline"]["compiles_burned"] == 0
    for label, entry in payload["entries"].items():
        assert entry["seconds"] > 0, label
        assert entry["queries_per_second"] > 0, label
        assert entry["queries"] == payload["sources"]
    assert payload["sources"] == payload["shape"][0] * payload["shape"][1]
    # The client's retry loop is what bought the availability: under
    # the canonical drop/garble schedule it must have retried.
    assert payload["client"]["retries"] >= 1
    assert payload["client"]["reconnects"] >= 2


#: Declared-schema string -> structural validator.  The glob guard
#: below keeps this registry complete.
VALIDATORS = {
    "repro-wsn/bench-sweep/v2": _validate_sweep,
    "repro-wsn/bench-robustness/v1": _validate_robustness,
    "repro-wsn/bench-symmetry/v1": _validate_symmetry,
    "repro-wsn/bench-recovery/v1": _validate_recovery,
    "repro-wsn/bench-scaling/v1": _validate_scaling,
    "repro-wsn/bench-kernel/v7": _validate_kernel,
    "repro-wsn/bench-service/v1": _validate_service,
    "repro-wsn/bench-faults/v1": _validate_faults,
}

_ARTIFACTS = [
    (SWEEP_ARTIFACT, "repro-wsn/bench-sweep/v2"),
    (ROBUSTNESS_ARTIFACT, "repro-wsn/bench-robustness/v1"),
    (SYMMETRY_ARTIFACT, "repro-wsn/bench-symmetry/v1"),
    (RECOVERY_ARTIFACT, "repro-wsn/bench-recovery/v1"),
    (SCALING_ARTIFACT, "repro-wsn/bench-scaling/v1"),
    (KERNEL_ARTIFACT, "repro-wsn/bench-kernel/v7"),
    (SERVICE_ARTIFACT, "repro-wsn/bench-service/v1"),
    (FAULTS_ARTIFACT, "repro-wsn/bench-faults/v1"),
]


@pytest.mark.parametrize("path,schema", _ARTIFACTS,
                         ids=[p.name for p, _ in _ARTIFACTS])
def test_bench_artifact_well_formed(path, schema):
    if not path.exists():
        pytest.skip(f"{path.name} not generated")
    payload = json.loads(path.read_text())
    assert payload["schema"] == schema
    VALIDATORS[schema](payload)


def test_every_bench_artifact_has_validator():
    """Any committed BENCH_*.json must declare a schema this suite
    knows how to validate — a new artefact cannot ride along
    unchecked, and a schema bump must update the validator."""
    found = sorted(_ROOT.glob("BENCH_*.json"))
    assert found, "no benchmark artefacts committed?"
    known_paths = {p for p, _ in _ARTIFACTS}
    for path in found:
        payload = json.loads(path.read_text())
        schema = payload.get("schema")
        assert schema in VALIDATORS, (
            f"{path.name} declares unknown schema {schema!r}")
        assert path in known_paths, (
            f"{path.name} is not wired into the per-artifact test")
        VALIDATORS[schema](payload)
