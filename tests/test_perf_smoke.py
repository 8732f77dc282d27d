"""Tiny-budget engine-tier benchmark that stays inside tier-1 runs.

The real benchmarks (``benchmarks/perf_*.py``) are ``perf``-marked and
excluded from default pytest runs; this smoke keeps a miniature version
of ``benchmarks/perf_kernel.py`` in every tier-1 run (the ``perf_smoke``
marker is informational, not excluded by the default ``-m "not perf"``
addopts), so an engine tier that silently diverges or collapses in
throughput is caught without waiting for a benchmark pass.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.analysis.robustness import loss_degradation
from repro.radio import bitpack
from repro.sim import RecoveryPolicy, native_available
from repro.topology import Mesh2D4

pytestmark = pytest.mark.perf_smoke


def _tier_list():
    engines = ["batch"]
    if bitpack.packing_supported() and native_available():
        engines.append("compiled")
    return engines


def test_engine_tiers_agree_on_smoke_budget():
    mesh = Mesh2D4(12, 10)
    loss_rates = (0.0, 0.1, 0.2)
    engines = _tier_list()
    curves = {}
    rates = {}
    sims = len(loss_rates) * 8
    for engine in engines:
        t0 = time.perf_counter()
        curves[engine] = loss_degradation(mesh, (6, 5), loss_rates,
                                          trials=8, seed=3, engine=engine)
        rates[engine] = sims / (time.perf_counter() - t0)
    for engine in engines[1:]:
        assert curves[engine] == curves["batch"], engine
    # throughput sanity only — a real floor lives in BENCH_kernel.json
    for engine, rate in rates.items():
        assert rate > 0, engine
    assert all(np.isfinite(r) for r in rates.values())


def test_recovery_tiers_agree_on_smoke_budget():
    """Miniature of BENCH_kernel's recovery cell: the native recovery
    state must match the batch oracle through the analysis entry point,
    every tier-1 run."""
    mesh = Mesh2D4(12, 10)
    policy = RecoveryPolicy(timeout=2, max_retries=2, backoff=1,
                            suppression_k=2, election=True)
    curves = {}
    for engine in _tier_list():
        t0 = time.perf_counter()
        curves[engine] = loss_degradation(mesh, (6, 5), (0.1, 0.25),
                                          trials=6, seed=4, engine=engine,
                                          recovery=policy)
        assert np.isfinite(time.perf_counter() - t0)
    for engine, curve in curves.items():
        assert curve == curves["batch"], engine


def test_threaded_resolve_under_thread_sanitizer():
    """One threaded resolve through the REPRO_NATIVE_DEBUG=1 build
    (-fsanitize=thread): any data race in the kernel's pool,
    span partitioning or compaction aborts the subprocess with a tsan
    report.  Skips where the sanitized build cannot load (no libtsan,
    or dlopen of a tsan DSO into a non-tsan interpreter fails) —
    probed inside the subprocess itself, so the skip reason is the
    build's own."""
    if not native_available():
        pytest.skip("native kernel unavailable")
    code = """
import numpy as np
from repro.sim import native
if not native.native_available():
    print("tsan-unavailable:", native.native_reason())
    raise SystemExit(0)
from repro.radio.impairments import BernoulliBatchLoss, trial_seeds
from repro.sim import RecoveryPolicy, run_reactive_batch
from repro.topology import Mesh2D4

mesh = Mesh2D4(8, 6)
trials = 6
loss = BernoulliBatchLoss(0.2, trial_seeds(1, 0.2, trials))
policy = RecoveryPolicy(timeout=2, max_retries=2, backoff=1,
                        suppression_k=1, election=True)
relay = np.ones(mesh.num_nodes, dtype=bool)
a = run_reactive_batch(mesh, 0, relay, loss=loss, trials=trials,
                       summary=True, recovery=policy,
                       engine="compiled", threads=1)
b = run_reactive_batch(mesh, 0, relay, loss=loss, trials=trials,
                       summary=True, recovery=policy,
                       engine="compiled", threads=4)
assert np.array_equal(a.first_rx, b.first_rx)
assert np.array_equal(a.tx_count, b.tx_count)
print("tsan-ok")
"""
    env = dict(os.environ, REPRO_NATIVE_DEBUG="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=600)
    if "tsan-unavailable" in out.stdout:
        pytest.skip(f"sanitized build unavailable: {out.stdout.strip()}")
    assert out.returncode == 0, out.stderr + out.stdout
    assert "tsan-ok" in out.stdout
    assert "WARNING: ThreadSanitizer" not in out.stderr
