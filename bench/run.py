"""The repository benchmark: one workload per invocation.

    python3 bench/run.py --workload serve-mixed --seed 0 --seconds 30 --trace 0

Workloads (bench/README.md says why each exists):

* ``fill`` -- ``ArtifactStore.warm`` over a four-topology fleet, repeated
  into fresh stores (offline compile + symmetry + store writes);
* ``serve-mixed`` -- a ``repro serve`` child on a warmed fleet under
  seeded Poisson load, 96% store hits and 4% cold misses on a grid
  outside the fleet, then a closed-loop capacity phase;
* ``montecarlo`` -- ``recovery_frontier`` cells, B=32 batches on the
  native kernel.

Every process of a run is pinned to one CPU, the last of the caller's
affinity mask: on a shared 2-vCPU host, hand-offs between CPUs wait on
the hypervisor, and those waits swing with other tenants' load.  Every
time is taken between two host-speed readings on that CPU and reported
at the reference speed (``calibrate.py``); the report keeps the times
as measured.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.  The line before it holds the
full report (environment, per-phase detail).  The exit status is 1 when
an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import loadgen
import spans as spans_mod
from worker import MC_CELLS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("fill", "serve-mixed", "montecarlo")

#: Settings that change which simulator tier runs; a run under any of
#: them would not measure the default build.
GUARDED_ENV = ("REPRO_NO_NATIVE", "REPRO_NATIVE_THREADS",
               "REPRO_NATIVE_DEBUG", "REPRO_PACKED_MAX_NODES")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Serve fleet: one shape per topology, because responses pair with
#: requests by (topology, source).
FLEET = (("2D-8", (12, 12)), ("3D-6", (5, 5, 5)))
#: Cold misses come from a grid outside the fleet.
MISS_SHAPE = ("2D-4", (48, 32))
MISS_SHARE = 0.04
#: Open-loop rate, low enough that the server stays mostly idle even in
#: the host's slow spells: latency then reads service time, not a queue
#: whose length swings with the host's speed.
RATE = 150.0
#: Share of --seconds spent in the open-loop phase; the rest measures
#: capacity in a closed loop.
OPEN_SHARE = 0.6
#: Requests kept in flight by the closed loop (across both connections;
#: the server reads at most 64 per connection).
WINDOW = 64
#: Closed-loop window between two host-speed readings.
SAT_WINDOW_S = 1.0
#: Upper bound on closed-loop q/s, used only to size its request list.
MAX_QPS = 50_000
#: Open-loop window between two host-speed readings: the CPU changes
#: speed within seconds, so readings 2 s apart left a ten-run spread of
#: 0.2 on the latency median, 0.5 s apart 0.06.  A window holds about
#: 75 requests, 3 of them misses.
WINDOW_S = 0.5
SERVE_CHECKS = 64
#: A run whose generator sent its 99th-percentile request later than
#: this is flagged invalid in the report.
MAX_LATE_P99_MS = 2.0

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **spans_mod.LAYER_METRICS,
    "core.store.bytes": "bytes",
    "sim.phase.resolve_s": "s",
    "sim.phase.commit_s": "s",
    "sim.phase.loss_rng_s": "s",
    "sim.phase.recovery_pre_s": "s",
    "sim.phase.recovery_post_s": "s",
    "analysis.robustness.cell_ms": "ms",
    "proc.cpu_user_s": "s",
    "proc.cpu_sys_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.cpu_share": "fraction",
    "loadgen.inflight_max": "count",
    "loadgen.mean_ms": "ms",
    "loadgen.p99_ms": "ms",
    "loadgen.hit_p99_ms": "ms",
    "loadgen.miss_p50_ms": "ms",
    "stage.late_ms": "ms",
    "stage.parse_ms": "ms",
    "stage.queue_ms": "ms",
    "stage.engine_ms": "ms",
    "stage.encode_ms": "ms",
    "stage.unexplained_ms": "ms",
    "stage.e2e_ms": "ms",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_cpu_ms_per_op": "ms",
}


def child_env() -> dict:
    """Children import the checkout's ``src``, keep temporary files (the C
    compiler's included) inside the checkout, and hash strings the same
    way in every run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, then SIGKILL after *timeout*; always reaps."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def median(values):
    return loadgen.percentile(values, 50.0)


def setup_values(setups) -> dict:
    """Set-up times at the reference speed, and as measured, from
    ``(measured seconds, scale)`` pairs."""
    return {"setup_s": [raw * scale for raw, scale in setups],
            "setup_raw_s": [raw for raw, _ in setups]}


# -- environment ------------------------------------------------------------

def native_prestep() -> dict:
    """Build (or load) the native kernel outside any timed region."""
    code = ("import json, time\n"
            "t = time.perf_counter()\n"
            "from repro.sim.native import (default_native_threads,\n"
            "    native_available, native_reason)\n"
            "ok = native_available()\n"
            "print(json.dumps({'native_build_s': time.perf_counter() - t,\n"
            "    'native_available': ok, 'native_reason': native_reason(),\n"
            "    'native_threads': default_native_threads()}))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def fs_type(path: Path) -> str:
    longest, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = (str(path) == mount
                      or str(path).startswith(mount.rstrip("/") + "/"))
            if inside and len(mount) > len(longest):
                longest, kind = mount, fields[2]
    return kind


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def environment(workdir: Path, native: dict, affinity: list) -> dict:
    import numpy
    return {"platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity": affinity, "pinned_cpu": affinity[-1],
            "fs_type": fs_type(workdir),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit(),
            **native}


# -- serve workloads --------------------------------------------------------

def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve --warm`` child; construction is the set-up."""

    def __init__(self, workdir: Path, tag: int, traced: bool) -> None:
        self.store = workdir / f"store-{tag}"
        self.spans_dir = workdir / f"spans-{tag}"
        self.log_path = workdir / f"server-{tag}.stderr"
        self.address = ("127.0.0.1", free_port())
        argv = ["serve", "--store", str(self.store),
                "--port", str(self.address[1])]
        for label, shape in FLEET:
            argv += ["--warm", f"{label}:{'x'.join(map(str, shape))}"]
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_server.py"),
                   "--spans-dir", str(self.spans_dir), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]
        self._dumps = 0
        self._log = open(self.log_path, "wb")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.DEVNULL,
                                     stderr=self._log)
        try:
            self._wait_healthy(timeout=150.0)
            self._first_queries()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - t0

    def _first_queries(self) -> None:
        """One query per fleet topology: the engine builds its topology
        objects lazily, and that first-query cost belongs to set-up."""
        with socket.create_connection(self.address, timeout=30.0) as sock:
            reader = sock.makefile("rb")
            for label, shape in FLEET:
                sock.sendall(request(label, shape, (1,) * len(shape))[1])
                if json.loads(reader.readline()).get("ok") is not True:
                    raise RuntimeError(f"first {label} query failed")

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during set-up; see "
                                   f"{self.log_path}")
            try:
                with socket.create_connection(self.address, timeout=5.0) \
                        as sock:
                    sock.sendall(b'{"type":"health"}\n')
                    line = sock.makefile("rb").readline()
                if json.loads(line).get("ok") is True:
                    return
            except (OSError, ValueError):
                pass
            time.sleep(0.01)
        raise RuntimeError(f"server not healthy after {timeout:.0f} s")

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}", encoding="utf-8") as fh:
            return fh.read()

    def cpu_times(self):
        """(user, system) CPU seconds of the server so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        tick = os.sysconf("SC_CLK_TCK")
        return int(fields[11]) / tick, int(fields[12]) / tick

    def cpu_ns(self) -> int:
        """Nanoseconds on CPU of the server's live threads: unlike
        ``cpu_times`` (1/100 s ticks) it resolves a 2 s window."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (OSError, IndexError, ValueError):
                pass  # the thread exited between listing and reading
        return total

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def dump_spans(self) -> dict:
        """Span totals since the previous dump (traced server only)."""
        path = self.spans_dir / f"spans-{self._dumps}.json"
        self._dumps += 1
        os.kill(self.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError(f"traced server wrote no {path.name}")
            time.sleep(0.005)
        return json.loads(path.read_text())

    def stop(self) -> int:
        stop_process(self.proc)
        self._log.close()
        shutil.rmtree(self.store, ignore_errors=True)
        return self.proc.returncode


def request(label: str, shape, source) -> tuple:
    key = (label, tuple(source))
    payload = json.dumps({"topology": label, "shape": list(shape),
                          "source": list(source)},
                         separators=(",", ":")).encode() + b"\n"
    return key, payload


def grid_requests(label: str, shape) -> list:
    from repro.topology.builder import make_topology
    topology = make_topology(label, tuple(shape))
    return [request(label, shape, topology.coord(i))
            for i in range(topology.num_nodes)]


def mix(rng: random.Random, hits: list, misses: list, n: int,
        share: float) -> tuple:
    """*n* requests, every ``1/share``-th one (from a seeded offset) a
    miss taken in order from *misses*, each sent once; the rest are
    uniform hits.  Evenly spaced misses keep chance clusters of compiles
    from deciding a run's tail.  Returns (requests, kinds)."""
    every = round(1 / share) if share else n + 1
    first = rng.randrange(every) if share else n
    n_miss = len(range(first, n, every))
    if n_miss > len(misses):
        raise ValueError(f"{n_miss} misses wanted, {len(misses)} left")
    feed = iter(misses[:n_miss])
    del misses[:n_miss]
    requests, kinds = [], []
    for i in range(n):
        if i >= first and (i - first) % every == 0:
            requests.append(next(feed))
            kinds.append("miss")
        else:
            requests.append(rng.choice(hits))
            kinds.append("hit")
    return requests, kinds


def check_answers(phase: loadgen.Phase, rng: random.Random):
    """Sampled answers against a fresh memory-only engine."""
    from repro.service import Query, QueryEngine
    from repro.service.wire import result_to_dict

    shapes = dict(FLEET + (MISS_SHAPE,))
    engine = QueryEngine(max_entries=None)
    answered = phase.answered()
    sample = rng.sample(answered, min(SERVE_CHECKS, len(answered)))
    mismatches = []
    for i in sample:
        got = phase.responses[i]
        label, source = got["topology"], tuple(got["source"])
        want = result_to_dict(engine.query(
            Query(topology=label, source=source, shape=shapes[label])))
        if got.get("metrics") != json.loads(json.dumps(want["metrics"])):
            mismatches.append(f"{label} {source}")
    return len(sample), mismatches


def serve_workload(seed: int, seconds: float, workdir: Path, *,
                   traced: bool, setup_reps: int, saturate: bool) -> dict:
    rng = random.Random(seed)
    hits = [r for label, shape in FLEET for r in grid_requests(label, shape)]
    misses = grid_requests(*MISS_SHAPE)
    rng.shuffle(misses)
    open_s = seconds * OPEN_SHARE
    offsets = loadgen.poisson_offsets(RATE, open_s, rng)
    requests, kinds = mix(rng, hits, misses, len(offsets), MISS_SHARE)
    sat_requests = []
    if saturate:
        n_sat = min(int(MAX_QPS * (seconds - open_s)),
                    int(len(misses) / MISS_SHARE))
        sat_requests, _ = mix(rng, hits, misses, n_sat, MISS_SHARE)

    server, setups, snap, sat, returncodes = None, [], None, None, []
    try:
        for tag in range(setup_reps):
            if server is not None:
                returncodes.append(server.stop())
            before = calibrate.reading()
            server = Server(workdir, tag, traced)
            setups.append((server.setup_s,
                           calibrate.scale(before, calibrate.reading())))
        if traced:
            server.dump_spans()  # closes the set-up's accumulation
        cpu0 = server.cpu_times()
        phase = loadgen.open_loop(
            server.address, [r[0] for r in requests],
            [r[1] for r in requests], offsets, pause_every_s=WINDOW_S,
            pause=lambda: (calibrate.reading(), server.cpu_ns()))
        cpu1 = server.cpu_times()
        if traced:
            snap = server.dump_spans()
        if saturate:
            sat = loadgen.closed_loop(
                server.address, [r[0] for r in sat_requests],
                [r[1] for r in sat_requests], seconds - open_s,
                window=WINDOW, pause_every_s=SAT_WINDOW_S,
                pause=calibrate.reading)
        peak_rss = server.peak_rss_mb()
        store_bytes = sum(p.stat().st_size for p in server.store.iterdir())
    finally:
        if server is not None:
            returncodes.append(server.stop())
    tracebacks = sum(p.read_bytes().count(b"Traceback")
                     for p in workdir.glob("server-*.stderr"))

    # Per window between two pauses: latency median and mean, and server
    # CPU per answer, each at the reference speed of the window's two
    # host-speed readings.
    window_p50, window_mean, window_cpu, scales = [], [], [], []
    for k, idx in enumerate(phase.window_answers()):
        (before, cpu_a), (after, cpu_b) = phase.pauses[k:k + 2]
        if not idx:
            continue
        scale = calibrate.scale(before, after)
        lat = [phase.latency_ms(i) for i in idx]
        scales.append(scale)
        window_p50.append(median(lat) * scale)
        window_mean.append(sum(lat) / len(lat) * scale)
        window_cpu.append((cpu_b - cpu_a) * 1e-6 / len(idx) * scale)
    answered = phase.answered()
    lat = [phase.latency_ms(i) for i in answered]
    hit_lat = [phase.latency_ms(i) for i in answered if kinds[i] == "hit"]
    miss_lat = [phase.latency_ms(i) for i in answered if kinds[i] == "miss"]
    late = phase.late_ms()
    (user0, sys0), (user1, sys1) = cpu0, cpu1
    checked, mismatches = check_answers(phase, random.Random(seed))
    phases = [phase] + ([sat] if sat is not None else [])
    out = {
        **setup_values(setups),
        "p50_ms": median(window_p50),
        # The mean carries the tail: a miss's compile and the hits queued
        # behind it add to it in proportion.  It is a per-layer metric,
        # not an end-to-end one: in a host slow spell the queue behind
        # each compile grows faster than the probe's time, and ten runs
        # that met one spread by 0.37.
        "mean_ms": median(window_mean),
        "cpu_ms_per_op": median(window_cpu),
        "peak_rss_mb": peak_rss,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases) + len(mismatches),
        "checked": checked,
        "mismatches": mismatches,
        "scale_p50": median(scales),
        "cpu_user_s": user1 - user0,
        "cpu_sys_s": sys1 - sys0,
        "store_bytes": store_bytes,
        "late_p50_ms": median(late),
        "late_p99_ms": loadgen.percentile(late, 99.0),
        "late_mean_ms": sum(late) / len(late),
        "e2e_p50_ms": median(lat),
        "e2e_mean_ms": sum(lat) / len(lat),
        "p99_ms": loadgen.percentile(lat, 99.0),
        "hit_p99_ms": loadgen.percentile(hit_lat, 99.0),
        "miss_p50_ms": median(miss_lat),
        "misses": len(miss_lat),
        "window_p50_ms": window_p50,
        "window_mean_ms": window_mean,
        "window_cpu_ms_per_op": window_cpu,
        "window_scale": scales,
        "loadgen_cpu_share": phase.cpu_s / phase.duration_s,
        "inflight_max": phase.inflight_max,
        "unsolicited": sum(p.unsolicited for p in phases),
        "server_returncodes": returncodes,
        "server_tracebacks": tracebacks,
        "spans": snap,
        "wall_s": phase.duration_s,
    }
    if sat is not None:
        # Answers per second over the windows, each timed from its first
        # send to its last answer and taken to the reference speed; the
        # pauses between windows are left out.  (Over ten runs the
        # median of per-window rates spread by 0.11, this by 0.04.)
        out["sat_windows"] = []  # (answers, seconds, scale)
        for k, idx in enumerate(sat.window_answers()):
            if idx:
                out["sat_windows"].append((
                    len(idx),
                    max(sat.recv[i] for i in idx)
                    - min(sat.sent[i] for i in idx),
                    calibrate.scale(*sat.pauses[k:k + 2])))
        out["throughput"] = (
            sum(n for n, _, _ in out["sat_windows"])
            / sum(s * scale for _, s, scale in out["sat_windows"]))
        out["saturation_p50_ms"] = median(
            [sat.latency_ms(i) for i in sat.answered()])
    return out


# -- batch workloads (fill, montecarlo) -------------------------------------

def batch_workload(name: str, seed: int, seconds: float, workdir: Path, *,
                   traced: bool, setup_reps: int, ops: int = 0) -> dict:
    """Operations are timed in the pinned worker's CPU time: their wall
    time also holds waits on the shared filesystem's journal, which
    swing by 100 ms per operation from run to run (both are in the
    report)."""
    setups, result = [], None
    for tag in range(setup_reps):
        last = tag == setup_reps - 1
        cmd = [sys.executable, str(BENCH / "worker.py"), name,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--workdir", str(workdir)]
        cmd += ["--trace"] if traced else []
        cmd += ["--ops", str(ops)] if ops else []
        cmd += [] if last else ["--setup-only"]
        with open(workdir / f"worker-{tag}.stderr", "wb") as log:
            before = calibrate.reading()
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                    stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=log)
            try:
                ready = proc.stdout.readline()
                if ready.strip() != b"ready":
                    raise RuntimeError(f"{name} worker failed to set up; "
                                       f"see {log.name}")
                raw = time.monotonic() - t0
                setups.append((raw, calibrate.scale(before,
                                                    calibrate.reading())))
                out, _ = proc.communicate(b"go\n", timeout=170.0)
            finally:
                stop_process(proc, timeout=5.0)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} worker exited {proc.returncode}; "
                               f"see {log.name}")
        if last:
            result = json.loads(out.splitlines()[-1])
    ops = result["ops"]
    op_ms = [op["cpu_s"] * op["scale"] * 1e3 for op in ops]
    result.update({
        **setup_values(setups),
        "scale_p50": median([op["scale"] for op in ops]),
        "throughput": sum(op["units"] for op in ops) / sum(op_ms) * 1e3,
        "p50_ms": median(op_ms),
        "mean_ms": sum(op_ms) / len(op_ms),
        "cpu_ms_per_op": median([op["cpu_s"] * op["scale"] * 1e3
                                 / op["units"] for op in ops]),
        "wall_p50_ms": median([op["seconds"] * 1e3 for op in ops]),
        "wait_p50_ms": median([(op["seconds"] - op["cpu_s"]) * 1e3
                               for op in ops]),
        "attempted": sum(op["units"] for op in ops),
        "failed": len(result["mismatches"]),
    })
    return result


# -- assembling the output --------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, workdir: Path, *,
                 traced: bool, trace_mode: bool) -> dict:
    """One pass.  In trace mode both passes set up once and skip the
    capacity phase; batch workloads run a single operation, so span
    totals read per operation."""
    setup_reps = 1 if trace_mode else SETUP_REPS
    if name == "serve-mixed":
        return serve_workload(seed, seconds, workdir, traced=traced,
                              setup_reps=setup_reps,
                              saturate=not trace_mode)
    return batch_workload(name, seed, seconds, workdir, traced=traced,
                          setup_reps=setup_reps, ops=1 if trace_mode else 0)


def end_to_end(res: dict) -> dict:
    values = dict(res, setup_s=median(res["setup_s"]))
    return {k: values[k] for k in END_TO_END}


def per_layer(name: str, base: dict, traced: dict) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(spans_mod.layer_metrics(traced["spans"], traced["wall_s"]))
    values.update(traced.get("phases") or {})
    values["core.store.bytes"] = traced["store_bytes"]
    values["proc.cpu_user_s"] = base["cpu_user_s"]
    values["proc.cpu_sys_s"] = base["cpu_sys_s"]
    values["trace.overhead_p50_ms"] = traced["p50_ms"] - base["p50_ms"]
    values["trace.overhead_cpu_ms_per_op"] = (traced["cpu_ms_per_op"]
                                              - base["cpu_ms_per_op"])
    if name == "montecarlo":
        values["analysis.robustness.cell_ms"] = (
            traced["wall_s"] * 1e3 / len(traced["ops"]) / len(MC_CELLS))
    if name == "serve-mixed":
        values.update({
            "loadgen.late_p99_ms": base["late_p99_ms"],
            "loadgen.cpu_share": base["loadgen_cpu_share"],
            "loadgen.inflight_max": base["inflight_max"],
            "loadgen.mean_ms": base["mean_ms"],
            "loadgen.p99_ms": base["p99_ms"],
            "loadgen.hit_p99_ms": base["hit_p99_ms"],
            "loadgen.miss_p50_ms": base["miss_p50_ms"],
        })
        values.update(spans_mod.stage_budget(
            traced["spans"], traced["late_mean_ms"], traced["e2e_mean_ms"]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    guarded = [k for k in GUARDED_ENV if os.environ.get(k)]
    if guarded:
        print(f"bench: refusing to run with {', '.join(guarded)} set",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Children inherit the mask, so the native kernel's default width
    # resolves to one thread.
    affinity = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {affinity[-1]})

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = WORK / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{os.getpid()}")
    workdir.mkdir()
    native = native_prestep()

    def one_pass(traced: bool) -> dict:
        pass_dir = workdir / ("traced" if traced else "plain")
        pass_dir.mkdir()
        return run_workload(args.workload, args.seed, args.seconds,
                            pass_dir, traced=traced,
                            trace_mode=bool(args.trace))

    base = one_pass(traced=False)
    if args.trace:
        traced = one_pass(traced=True)
        values, units = per_layer(args.workload, base, traced), PER_LAYER
        passes = (base, traced)
    else:
        values, units = end_to_end(base), END_TO_END
        passes = (base,)
    mismatches = [m for p in passes for m in p["mismatches"]]
    result = {
        "correct": not mismatches,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(workdir, native, affinity),
        "valid": all(p.get("late_p99_ms", 0.0) <= MAX_LATE_P99_MS
                     for p in passes),
        "passes": [{k: v for k, v in p.items() if k != "spans"}
                   for p in passes],
        "result": result,
    }
    if not report["valid"]:
        print(f"bench: generator late p99 above {MAX_LATE_P99_MS} ms; "
              f"this run's latencies are not trustworthy", file=sys.stderr)
    if mismatches:
        print(f"bench: {len(mismatches)} output check(s) failed: "
              f"{mismatches[:5]}", file=sys.stderr)
    (workdir / "report.json").write_text(json.dumps(report))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
