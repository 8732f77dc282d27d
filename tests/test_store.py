"""The sharded artifact store: round-trips, guards, concurrency.

The store's contract is deliberately forgiving on the read side — any
kind of damage (stale format version, torn index, data file shorter
than the index claims) must surface as a cache *miss*, never a
mis-parse or a crash — and strict on the write side: concurrent
writers may interleave freely without producing torn indexes or
unreadable entries.
"""

import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ScheduleCache
from repro.core.compiler import compile_call_count
from repro.core.registry import protocol_for
from repro.core.store import (STORE_FORMAT_VERSION, ArtifactStore, entry_key,
                              shard_id, trace_counts)
from repro.core.symmetry import group_sources
from repro.radio.energy import PAPER_PACKET_BITS, PAPER_RADIO_MODEL
from repro.sim.metrics import compute_metrics
from repro.topology import Mesh2D4
from repro.topology.builder import make_topology

PROTO = "2D-4"


def _mesh(m=8, n=8):
    return Mesh2D4(m, n)


def _compile(topology, source):
    return protocol_for(topology).compile(topology, source)


def _put_compiled(store, topology, compiled, source):
    store.put(topology, PROTO, topology.index(source),
              schedule=compiled.trace.tx,
              counts=trace_counts(compiled.trace),
              completions=compiled.completions,
              repairs=compiled.repairs, rounds=compiled.rounds)


def _shard_paths(store, topology):
    sid = shard_id(topology.fingerprint, PROTO)
    return store.path / f"{sid}.json", store.path / f"{sid}.bin"


def test_entry_round_trip_and_counts_metrics(tmp_path):
    topology = _mesh()
    source = (3, 5)
    compiled = _compile(topology, source)
    store = ArtifactStore(tmp_path)
    _put_compiled(store, topology, compiled, source)

    entry = ArtifactStore(tmp_path).get(topology, PROTO,
                                        topology.index(source))
    assert entry is not None and entry.has_schedule
    want_slots, want_nodes = compiled.schedule.to_arrays()
    got_slots, got_nodes = entry.schedule().to_arrays()
    assert np.array_equal(got_slots, want_slots)
    assert np.array_equal(got_nodes, want_nodes)
    # counts-derived metrics are field-for-field the direct metrics
    direct = compute_metrics(compiled.trace, topology, PAPER_RADIO_MODEL,
                             PAPER_PACKET_BITS)
    assert entry.metrics(topology) == direct


def test_replay_differential_matches_stored_counts(tmp_path):
    """The verification path: replaying the stored schedule rebuilds a
    trace whose metrics equal the counts-derived warm metrics."""
    topology = _mesh()
    source = (7, 2)
    cache = ScheduleCache(tmp_path)
    protocol = protocol_for(topology)
    protocol.compile(topology, source, cache=cache)  # populates the store

    warm = ScheduleCache(tmp_path)
    hit = warm.cached_metrics(protocol, topology, source)
    assert hit is not None and hit.tier == "store"
    counts_metrics = hit.metrics
    replayed = protocol.compile(topology, source,
                                cache=ScheduleCache(tmp_path))
    assert compute_metrics(replayed.trace, topology, PAPER_RADIO_MODEL,
                           PAPER_PACKET_BITS) == counts_metrics


def test_unknown_format_version_reads_as_miss_and_rebuilds(tmp_path):
    topology = _mesh()
    source = (1, 1)
    store = ArtifactStore(tmp_path)
    _put_compiled(store, topology, _compile(topology, source), source)
    index_path, _ = _shard_paths(store, topology)

    index = json.loads(index_path.read_text())
    index["version"] = STORE_FORMAT_VERSION + 1
    index_path.write_text(json.dumps(index))

    fresh = ArtifactStore(tmp_path)
    assert fresh.get(topology, PROTO, topology.index(source)) is None
    # the next publish rebuilds the shard from scratch
    other = (2, 2)
    _put_compiled(fresh, topology, _compile(topology, other), other)
    assert fresh.get(topology, PROTO, topology.index(other)) is not None
    assert json.loads(index_path.read_text())["version"] \
        == STORE_FORMAT_VERSION


def test_torn_index_reads_as_miss_and_recovers(tmp_path):
    topology = _mesh()
    source = (4, 4)
    store = ArtifactStore(tmp_path)
    _put_compiled(store, topology, _compile(topology, source), source)
    index_path, _ = _shard_paths(store, topology)

    blob = index_path.read_bytes()
    index_path.write_bytes(blob[:len(blob) // 2])  # torn mid-write

    fresh = ArtifactStore(tmp_path)
    assert fresh.get(topology, PROTO, topology.index(source)) is None
    _put_compiled(fresh, topology, _compile(topology, source), source)
    assert fresh.get(topology, PROTO, topology.index(source)) is not None


def test_data_file_shorter_than_index_is_a_miss(tmp_path):
    topology = _mesh()
    source = (5, 3)
    store = ArtifactStore(tmp_path)
    _put_compiled(store, topology, _compile(topology, source), source)
    index_path, data_path = _shard_paths(store, topology)

    data_path.write_bytes(data_path.read_bytes()[:8])

    fresh = ArtifactStore(tmp_path)
    entry = fresh.get(topology, PROTO, topology.index(source))
    assert entry is None  # offsets beyond the mapped size are not trusted


def test_foreign_fingerprint_is_a_miss(tmp_path):
    topology = _mesh()
    source = (2, 6)
    store = ArtifactStore(tmp_path)
    _put_compiled(store, topology, _compile(topology, source), source)
    index_path, _ = _shard_paths(store, topology)

    index = json.loads(index_path.read_text())
    index["fingerprint"] = "0" * len(index["fingerprint"])
    index_path.write_text(json.dumps(index))

    fresh = ArtifactStore(tmp_path)
    assert fresh.get(topology, PROTO, topology.index(source)) is None


# -- concurrency ----------------------------------------------------------

def _writer_job(store_dir, sources):
    """Worker: compile and publish a batch of sources (module-level so
    the fork-context pool can resolve it)."""
    topology = _mesh()
    store = ArtifactStore(store_dir)
    for source in sources:
        compiled = _compile(topology, source)
        _put_compiled(store, topology, compiled, source)
    return len(sources)


def _warm_job(store_dir):
    """Worker: group-commit the whole 8x8 fleet through ``warm``."""
    return ArtifactStore(store_dir).warm([(PROTO, (8, 8))])["entries"]


def _assert_consistent_shard(store_dir, topology, protocol=PROTO):
    """The shard index parses, every offset fits the data file, and every
    entry equals a direct compile: counts -> metrics always, the
    ``(slots, nodes)`` arrays too when the entry carries a schedule.
    Returns the parsed index."""
    store = ArtifactStore(store_dir)
    sid = shard_id(topology.fingerprint, protocol)
    index = json.loads((store.path / f"{sid}.json").read_text())
    assert index["version"] == STORE_FORMAT_VERSION
    size = (store.path / f"{sid}.bin").stat().st_size
    for key, meta in index["entries"].items():
        if meta["offset"] is not None:
            assert meta["offset"] + 16 * meta["ntx"] <= size, key
        entry = store.get(topology, protocol, int(key))
        assert entry is not None, key
        compiled = protocol_for(topology).compile(
            topology, topology.coord(int(key)))
        assert entry.metrics(topology) == compute_metrics(
            compiled.trace, topology, PAPER_RADIO_MODEL, PAPER_PACKET_BITS)
        if entry.has_schedule:
            want_slots, want_nodes = compiled.schedule.to_arrays()
            assert np.array_equal(entry.slots, want_slots), key
            assert np.array_equal(entry.nodes, want_nodes), key
    return index


def test_concurrent_writers_produce_a_consistent_shard(tmp_path):
    """Overlapping multi-process writers: no torn index, every entry
    readable, schedules identical to fresh compiles."""
    topology = _mesh()
    all_sources = [(r, c) for r in (1, 3, 5, 7) for c in (2, 4, 6, 8)]
    keys = {entry_key(topology.index(s)) for s in all_sources}
    # overlapping batches: both workers race on the shared middle slice
    batches = [all_sources[:12], all_sources[4:]]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        done = pool.starmap(_writer_job,
                            [(str(tmp_path), b) for b in batches])
    assert done == [len(b) for b in batches]
    entries = _assert_consistent_shard(tmp_path, topology)["entries"]
    assert set(entries) == keys
    assert all(meta["offset"] is not None for meta in entries.values())

    # A group-committing warm racing per-entry puts on the same shard:
    # whichever lands first, every put source ends up with a schedule.
    warm_dir = tmp_path / "warm"
    with ctx.Pool(2) as pool:
        warmed = pool.apply_async(_warm_job, (str(warm_dir),))
        put = pool.apply_async(_writer_job, (str(warm_dir), all_sources))
        assert warmed.get(timeout=120) == topology.num_nodes
        assert put.get(timeout=120) == len(all_sources)
    entries = _assert_consistent_shard(warm_dir, topology)["entries"]
    assert len(entries) == topology.num_nodes
    assert all(entries[key]["offset"] is not None for key in keys)


def test_reader_revalidates_despite_equal_mtime_and_size(tmp_path):
    """Rapid republishes can leave (mtime, size) unchanged on coarse
    filesystems; cached reader snapshots must still refresh (every
    atomic index publish lands on a fresh inode, and st_ino is part of
    the staleness stamp)."""
    topology = _mesh()
    key = "ab" * 32
    writer = ArtifactStore(tmp_path)
    writer.store_class_profile(topology, PROTO, key,
                               {"zero_fix": True, "rounds": 1})
    index_path, _ = _shard_paths(writer, topology)
    st = index_path.stat()

    reader = ArtifactStore(tmp_path)
    assert reader.class_profile(topology, PROTO, key)["rounds"] == 1

    # forge the collision: an equal-length index JSON with a pinned mtime
    writer.store_class_profile(topology, PROTO, key,
                               {"zero_fix": True, "rounds": 2})
    os.utime(index_path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert index_path.stat().st_size == st.st_size
    assert index_path.stat().st_mtime_ns == st.st_mtime_ns
    assert reader.class_profile(topology, PROTO, key)["rounds"] == 2


def test_lru_eviction_counts_and_bounds_memory(tmp_path):
    topology = _mesh()
    cache = ScheduleCache(tmp_path, max_entries=4)
    protocol = protocol_for(topology)
    sources = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)]
    for source in sources:
        protocol.compile(topology, source, cache=cache)
    assert len(cache) == 4
    assert cache.evictions == 2
    assert cache.misses == len(sources)
    # evicted entries are still store hits, not recompiles
    protocol.compile(topology, sources[0], cache=cache)
    assert cache.disk_hits == 1
    assert cache.misses == len(sources)
    stats = cache.stats()
    assert stats["max_entries"] == 4
    assert stats["memory_entries"] == 4
    assert stats["evictions"] >= 2


def test_store_rejects_file_path(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("x")
    with pytest.raises(ValueError):
        ArtifactStore(target)


# -- garbage collection ---------------------------------------------------

def test_gc_round_trip_reclaims_orphans(tmp_path):
    """GC drops bytes no index entry references (crashed-writer orphans)
    and every live entry round-trips identically afterwards."""
    topology = _mesh()
    sources = [(1, 2), (3, 4), (5, 6)]
    store = ArtifactStore(tmp_path)
    compiled = {s: _compile(topology, s) for s in sources}
    for source in sources:
        _put_compiled(store, topology, compiled[source], source)
    _, data_path = _shard_paths(store, topology)
    live_bytes = data_path.stat().st_size

    # simulate a crashed writer: appended record, index never published
    with open(data_path, "ab") as fh:
        fh.write(b"\x00" * 160)
    assert data_path.stat().st_size == live_bytes + 160

    stats = store.gc()
    assert stats["shards"] == 1
    assert stats["entries"] == len(sources)
    assert stats["dropped"] == 0
    assert stats["reclaimed"] == 160
    assert data_path.stat().st_size == live_bytes

    # idempotent: a second pass finds nothing to reclaim
    again = ArtifactStore(tmp_path).gc()
    assert again["reclaimed"] == 0

    fresh = ArtifactStore(tmp_path)
    for source in sources:
        entry = fresh.get(topology, PROTO, topology.index(source))
        assert entry is not None and entry.has_schedule, source
        want_slots, want_nodes = compiled[source].schedule.to_arrays()
        got_slots, got_nodes = entry.schedule().to_arrays()
        assert np.array_equal(got_slots, want_slots), source
        assert np.array_equal(got_nodes, want_nodes), source
        assert entry.metrics(topology) == compute_metrics(
            compiled[source].trace, topology, PAPER_RADIO_MODEL,
            PAPER_PACKET_BITS)


def test_gc_demotes_truncated_entries_and_keeps_counts(tmp_path):
    """An entry whose record was lost to truncation (published index,
    torn data file) keeps its warm counts as a metrics-only entry."""
    topology = _mesh()
    source = (2, 3)
    store = ArtifactStore(tmp_path)
    compiled = _compile(topology, source)
    _put_compiled(store, topology, compiled, source)
    _, data_path = _shard_paths(store, topology)
    data_path.write_bytes(data_path.read_bytes()[:8])

    stats = ArtifactStore(tmp_path).gc()
    assert stats["dropped"] == 1 and stats["entries"] == 0

    entry = ArtifactStore(tmp_path).get(topology, PROTO,
                                        topology.index(source))
    assert entry is not None and not entry.has_schedule
    assert entry.metrics(topology) == compute_metrics(
        compiled.trace, topology, PAPER_RADIO_MODEL, PAPER_PACKET_BITS)


def test_gc_skips_foreign_json_files(tmp_path):
    (tmp_path / "notes.json").write_text('{"hello": 1}')
    store = ArtifactStore(tmp_path)
    stats = store.gc()
    assert stats["shards"] == 0
    assert json.loads((tmp_path / "notes.json").read_text()) == {"hello": 1}


def _gc_reader_job(store_dir, source_indexes, barrier, results):
    """Worker: hammer reads before/during/after a GC in the parent.

    Every read must be either a full hit identical to the pre-GC
    content or a clean miss — never an exception, never torn data."""
    topology = _mesh()
    store = ArtifactStore(store_dir)
    expected = {}
    for idx in source_indexes:
        entry = store.get(topology, PROTO, idx)
        expected[idx] = (entry.slots.copy(), entry.nodes.copy())
    barrier.wait()  # parent starts GC loop now
    ok = True
    hits = 0
    for _ in range(300):
        for idx in source_indexes:
            entry = store.get(topology, PROTO, idx)
            if entry is None or not entry.has_schedule:
                continue  # stale-window miss: allowed
            hits += 1
            want_slots, want_nodes = expected[idx]
            if not (np.array_equal(entry.slots, want_slots)
                    and np.array_equal(entry.nodes, want_nodes)):
                ok = False
    results.put((ok, hits))


def test_concurrent_reader_survives_gc(tmp_path):
    """A reader process mid-flight across repeated GC passes never sees
    torn or foreign bytes — only identical hits or clean misses."""
    topology = _mesh()
    sources = [(1, 1), (3, 5), (6, 2), (7, 7)]
    store = ArtifactStore(tmp_path)
    for source in sources:
        _put_compiled(store, topology, _compile(topology, source), source)
    _, data_path = _shard_paths(store, topology)
    idxs = [topology.index(s) for s in sources]

    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    results = ctx.Queue()
    proc = ctx.Process(target=_gc_reader_job,
                       args=(str(tmp_path), idxs, barrier, results))
    proc.start()
    barrier.wait()
    gc_store = ArtifactStore(tmp_path)
    for _ in range(30):
        # keep re-orphaning bytes so every pass truly rewrites the bin
        with open(data_path, "ab") as fh:
            fh.write(b"\x00" * 64)
        stats = gc_store.gc()
        assert stats["dropped"] == 0
    ok, hits = results.get(timeout=60)
    proc.join(timeout=60)
    assert proc.exitcode == 0
    assert ok, "reader observed torn or foreign schedule bytes"
    assert hits > 0  # the reader did exercise the hit path
    # post-GC store is fully intact
    fresh = ArtifactStore(tmp_path)
    for source in sources:
        entry = fresh.get(topology, PROTO, topology.index(source))
        assert entry is not None and entry.has_schedule


# -- warm group commit ----------------------------------------------------

def test_warm_publishes_each_shard_index_once(tmp_path, monkeypatch):
    """warm group-commits: one index publish per shard per shape, not
    one per entry (2 x classes + sources before)."""
    published = []
    write_index = ArtifactStore._write_index

    def counting(self, sid, index):
        published.append(sid)
        return write_index(self, sid, index)

    monkeypatch.setattr(ArtifactStore, "_write_index", counting)
    stats = ArtifactStore(tmp_path).warm([(PROTO, (8, 8))])
    assert stats["entries"] == 64 and stats["store_errors"] == 0
    assert len(published) == 1


SMALL_FLEET = (("2D-3", (6, 4)), ("2D-4", (6, 6)), ("2D-8", (6, 6)),
               ("3D-6", (3, 3, 3)))


def test_warm_small_fleets_equal_direct_compiles_exhaustively(tmp_path):
    """Every warmed entry of every small fleet, not a sample, equals a
    direct compile."""
    stats = ArtifactStore(tmp_path).warm(SMALL_FLEET)
    assert stats["store_errors"] == 0
    assert stats["entries"] == sum(np.prod(shape) for _, shape in SMALL_FLEET)
    for label, shape in SMALL_FLEET:
        topology = make_topology(label, shape=shape)
        entries = _assert_consistent_shard(
            tmp_path, topology, protocol_for(topology).name)["entries"]
        assert len(entries) == topology.num_nodes, label


def test_warm_keeps_first_writer_and_upgrades_metrics_only(tmp_path):
    """Across commits: an earlier schedule entry keeps its offset and
    bytes and is served from the store, not recompiled; an earlier
    metrics-only entry is upgraded when the warm compiles it as a class
    representative."""
    topology = _mesh()
    protocol = protocol_for(topology)
    sources = [topology.coord(i) for i in range(topology.num_nodes)]
    groups, _ = group_sources(topology, protocol, sources)
    reps = [sources[positions[0]] for positions in groups.values()]
    kept, upgraded = reps[0], reps[1]

    store = ArtifactStore(tmp_path)
    _put_compiled(store, topology, _compile(topology, kept), kept)
    store.put(topology, PROTO, topology.index(upgraded),
              counts=trace_counts(_compile(topology, upgraded).trace))
    index_path, data_path = _shard_paths(store, topology)
    before = json.loads(index_path.read_text())["entries"]
    kept_key = entry_key(topology.index(kept))
    kept_meta = before[kept_key]
    kept_bytes = data_path.read_bytes()[:16 * kept_meta["ntx"]]
    assert before[entry_key(topology.index(upgraded))]["offset"] is None

    calls0 = compile_call_count()
    stats = store.warm([(PROTO, (8, 8))])
    assert stats["classes"] == len(groups)
    assert compile_call_count() - calls0 == len(groups) - 1
    assert stats["compiles"] == len(groups) - 1
    after = _assert_consistent_shard(tmp_path, topology)["entries"]
    assert after[kept_key] == kept_meta
    lo = kept_meta["offset"]
    assert data_path.read_bytes()[lo:lo + len(kept_bytes)] == kept_bytes
    assert after[entry_key(topology.index(upgraded))]["offset"] is not None


def test_warm_puts_each_entry_once(tmp_path, monkeypatch):
    """A representative or fallback compiled through the warm's shard is
    committed once, not again as a class member: one committed entry
    item per entry."""
    items = []
    publish = ArtifactStore._publish

    def counting(self, fingerprint, protocol_name, completion, repair,
                 batch):
        items.extend((fingerprint, key) for section, key, _, _ in batch
                     if section == "entries")
        return publish(self, fingerprint, protocol_name, completion,
                       repair, batch)

    monkeypatch.setattr(ArtifactStore, "_publish", counting)
    stats = ArtifactStore(tmp_path).warm(SMALL_FLEET)
    assert stats["store_errors"] == 0
    assert len(items) == stats["entries"] == len(set(items))


def test_warm_compiles_each_representative_once(tmp_path):
    """A fresh store compiles exactly one fixpoint per class; warming it
    again compiles nothing."""
    calls0 = compile_call_count()
    stats = ArtifactStore(tmp_path).warm(SMALL_FLEET)
    assert compile_call_count() - calls0 == stats["classes"]
    assert stats["compiles"] == stats["classes"]
    calls1 = compile_call_count()
    again = ArtifactStore(tmp_path).warm(SMALL_FLEET)
    assert compile_call_count() == calls1
    assert again["compiles"] == 0 and again["classes"] == stats["classes"]


def test_warm_runs_serial_waves_only_for_fallback_and_direct_members(
        tmp_path, monkeypatch):
    """Structural guard: representatives compile in the batched
    fixpoint, so the serial engine only runs for sources the class
    path hands to a direct compile."""
    import repro.core.compiler as compiler_module
    import repro.sim.engine as engine_module
    from .class_sweep import sweep_compile

    expected = set()
    for label, shape in SMALL_FLEET:
        topology = make_topology(label, shape=shape)
        sources = [topology.coord(i) for i in range(topology.num_nodes)]
        expected |= {
            (topology.fingerprint, res.source_index)
            for res in sweep_compile(topology, protocol_for(topology),
                                     sources)
            if res.via in ("fallback", "direct")}

    serial = []
    run_reactive = engine_module.run_reactive

    def counting(topology, source, *args, **kwargs):
        serial.append((topology.fingerprint, int(source)))
        return run_reactive(topology, source, *args, **kwargs)

    monkeypatch.setattr(engine_module, "run_reactive", counting)
    monkeypatch.setattr(compiler_module, "run_reactive", counting)
    stats = ArtifactStore(tmp_path).warm(SMALL_FLEET)
    assert stats["store_errors"] == 0
    assert set(serial) <= expected


def test_warm_runs_on_columns_without_tuple_views(tmp_path, monkeypatch):
    """Structural guard: from the engines' logs to the store entries,
    a warm reads the traces' int64 columns, so no trace on the path
    builds a tx, rx or collision tuple view."""
    import repro.core.compiler as compiler_module
    from repro.sim.trace import BroadcastTrace

    built = []
    for name in ("tx_events", "rx_events", "collision_events"):
        monkeypatch.setattr(BroadcastTrace, name, property(
            lambda trace, name=name: built.append(name)))
    fixes = []
    plan_fixes = compiler_module._plan_fixes

    def counting(*args, **kwargs):
        fixes.append(1)
        return plan_fixes(*args, **kwargs)

    monkeypatch.setattr(compiler_module, "_plan_fixes", counting)
    stats = ArtifactStore(tmp_path).warm(SMALL_FLEET)
    assert stats["store_errors"] == 0
    assert stats["entries"] == sum(np.prod(shape) for _, shape in SMALL_FLEET)
    assert fixes  # the fix planner's busy map is on the guarded path
    assert built == []


# -- one-pass warm ----------------------------------------------------------

def _digest(root):
    """Digest of every shard under *root*: each entry's metadata
    (offsets dropped: they depend on write order), its schedule bytes
    and the shard's class profiles."""
    import hashlib
    digest = {}
    for index_path in sorted(Path(root).glob("*.json")):
        shard = json.loads(index_path.read_text())
        data = index_path.with_suffix(".bin").read_bytes() \
            if index_path.with_suffix(".bin").exists() else b""
        entries = {}
        for key, meta in shard["entries"].items():
            off = meta["offset"]
            raw = b"" if off is None else data[off:off + 16 * meta["ntx"]]
            entries[key] = [{k: v for k, v in meta.items() if k != "offset"},
                            hashlib.sha256(raw).hexdigest()]
        digest[index_path.stem] = [entries, shard["profiles"]]
    return hashlib.sha256(
        json.dumps(digest, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def fresh_small_fleet(tmp_path_factory):
    """A fresh warm of SMALL_FLEET: its store, stats and digest, plus
    every class as ``(topology, class_key, source indices)``, the
    representative first."""
    root = tmp_path_factory.mktemp("fresh")
    stats = ArtifactStore(root).warm(SMALL_FLEET)
    classes = []
    for label, shape in SMALL_FLEET:
        topology = make_topology(label, shape=shape)
        sources = list(topology.iter_coords())
        groups, direct = group_sources(topology, protocol_for(topology),
                                       sources)
        assert not direct
        classes += [(topology, key, [topology.index(sources[p])
                                     for p in positions])
                    for key, positions in groups.items()]
    return ArtifactStore(root), stats, _digest(root), classes


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_warm_over_a_partly_filled_store_equals_a_fresh_warm(
        fresh_small_fleet, data):
    """A store holding a random subset of the fresh warm's class
    profiles, full representative entries and metrics-only entries
    warms to the fresh warm's exact contents, compiling only the
    classes with neither a stored profile nor a stored representative."""
    import tempfile

    from repro.core.store import class_profile_hash

    fresh, fresh_stats, fresh_digest, classes = fresh_small_fleet
    members = [(c, s) for c, (_, _, sources) in enumerate(classes)
               for s in sources]
    indices = st.integers(0, len(classes) - 1)
    profiled = data.draw(st.sets(indices), label="profiled classes")
    full = data.draw(st.sets(indices), label="stored representatives")
    counted = data.draw(st.sets(st.integers(0, len(members) - 1)),
                        label="metrics-only entries")

    def profile_key(topology, class_key):
        return class_profile_hash(topology.fingerprint,
                                  protocol_for(topology).name, class_key)

    for c in profiled:
        topology, class_key, _ = classes[c]
        # A stored zero-fix profile without its representative's
        # schedule makes the representative a counts-only member, which
        # a fresh warm never writes: store the schedule with it.
        if fresh.class_profile(topology, protocol_for(topology).name,
                               profile_key(topology, class_key))["zero_fix"]:
            full.add(c)
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        for c in sorted(full):
            topology, _, sources = classes[c]
            name = protocol_for(topology).name
            entry = fresh.get(topology, name, sources[0])
            store.put(topology, name, sources[0],
                      schedule=np.column_stack([entry.slots, entry.nodes]),
                      counts=entry.counts, completions=entry.completions,
                      repairs=entry.repairs, rounds=entry.rounds)
        for c in sorted(profiled):
            topology, class_key, _ = classes[c]
            name = protocol_for(topology).name
            key = profile_key(topology, class_key)
            store.store_class_profile(topology, name, key,
                                      fresh.class_profile(topology, name, key))
        for m in sorted(counted):
            c, source = members[m]
            topology = classes[c][0]
            name = protocol_for(topology).name
            store.put(topology, name, source,
                      counts=fresh.get(topology, name, source).counts)

        calls0 = compile_call_count()
        stats = store.warm(SMALL_FLEET)
        compiles = compile_call_count() - calls0
        assert _digest(root) == fresh_digest
    assert stats["store_errors"] == 0
    assert (stats["classes"], stats["entries"]) == (
        fresh_stats["classes"], fresh_stats["entries"])
    expected = sum(1 for c in range(len(classes))
                   if c not in profiled and c not in full)
    assert stats["compiles"] == compiles == expected


def test_warm_holds_one_chunk_of_member_rows_at_a_time(tmp_path,
                                                       monkeypatch):
    """Shapes whose representatives and members span many chunks: at
    every batched wave, the per-node rows still alive from earlier waves
    are at most one chunk's, plus the result being committed."""
    import weakref

    import repro.core.symmetry as symmetry

    alive = []  # (weak reference, rows) of every wave's output
    peaks = []
    summaries = []
    run = symmetry.run_reactive_multi

    def tracking(*args, **kwargs):
        peaks.append(sum(rows for ref, rows in alive if ref() is not None))
        out = run(*args, **kwargs)
        if kwargs.get("summary"):
            summaries.append(out.trials)
            alive.append((weakref.ref(out), out.trials))
        else:
            alive.extend((weakref.ref(trace), 1) for trace in out)
        return out

    monkeypatch.setattr(symmetry, "run_reactive_multi", tracking)
    chunk = 4
    for label, shape in (("2D-4", (12, 12)), ("2D-8", (10, 10))):
        topology = make_topology(label, shape=shape)
        monkeypatch.setattr(symmetry, "MAX_BATCH_CELLS",
                            chunk * topology.num_nodes)
        del alive[:], peaks[:]
        stats = ArtifactStore(tmp_path / label).warm([(label, shape)])
        assert stats["entries"] == topology.num_nodes
        assert len(peaks) > topology.num_nodes // chunk // 2, label
        assert max(peaks) <= chunk + 1, label
    assert len(summaries) > 1 and max(summaries) == chunk
