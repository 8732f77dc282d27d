"""Fingerprint-sharded, memory-mapped artifact store for compiled schedules.

This is the persistent tier behind :class:`repro.core.cache.ScheduleCache`
and the :mod:`repro.service` query engine.  It replaces the original
one-JSON-file-per-entry layout with *shards*: all entries of one
``(topology fingerprint, protocol, compile options)`` triple live in two
files,

* ``<fp16>-<protocol>-<opts>.json`` — the compact **index**: per-entry
  byte offsets into the binary file, compile metadata
  (completions/repairs/rounds) and the precomputed broadcast *counts*
  (tx/rx/duplicates/collisions/delay/reachability/...), plus the shard's
  class-profile table for symmetry-reduced sweeps;
* ``<fp16>-<protocol>-<opts>.bin`` — the **data** file: each entry's
  schedule as two little-endian ``int64`` arrays (slots, then nodes),
  concatenated.  Every record is a multiple of 8 bytes, so the file is
  memory-mapped once per shard and entries are served as zero-copy
  ``np.frombuffer`` views.

Because the counts are persisted with the entry, a warm hit answers a
metrics query **without replaying the schedule** — replay (which
reconstructs the authoritative trace from the stored transmitter sets)
remains available as the verification path and is differentially tested
against the stored counts.  This is what fixes the
warm-slower-than-serial regression of the per-entry JSON tier, where every
disk hit paid a full schedule replay just to rebuild its metrics.

Concurrency model — *atomic single-writer updates, lock-free readers*:

* writers serialise on an ``fcntl`` file lock per shard, append the
  record bytes to the ``.bin`` file, then publish the updated index via
  ``tempfile + os.replace`` (atomic on POSIX).  A writer crashing between
  the append and the publish leaves an orphan record the index never
  references — wasted bytes, never a torn entry;
* commits are grouped: :meth:`ArtifactStore.warm` publishes once per
  shard per warmed shape, :meth:`ArtifactStore.put` a group of one; the
  crash contract and the reader rules below do not change;
* readers take no lock: they snapshot the index (one atomic file read)
  and only trust offsets that fit inside the current data file.  A stale
  snapshot is a cache *miss*, not an error.

Version guard: shards declaring an unknown ``version`` are read as
misses and rewritten from scratch on the next publish — stale formats are
never mis-parsed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import mmap
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..radio.energy import (PAPER_PACKET_BITS, PAPER_RADIO_MODEL,
                            FirstOrderRadioModel)
from ..sim.metrics import BroadcastMetrics
from ..sim.schedule import BroadcastSchedule
from ..topology.base import Topology

try:  # POSIX file locks; the store degrades to lockless appends without.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

#: Bumped whenever the shard layout changes; stale-version shards are
#: ignored (treated as misses) and rebuilt, never mis-parsed.
STORE_FORMAT_VERSION = 2

#: Count fields persisted with every full entry; all model-independent,
#: so any radio model / packet size rebuilds exact metrics from them.
COUNT_FIELDS = ("tx", "rx", "duplicates", "collisions", "delay_slots",
                "reachability", "relays", "retransmitters")

_SAFE = re.compile(r"[^A-Za-z0-9_.-]")


def entry_key(source_index: int) -> str:
    """Index key of one per-source entry inside its shard."""
    return str(int(source_index))


def shard_id(fingerprint: str, protocol_name: str, *,
             completion: bool = True, repair: bool = True) -> str:
    """Filename stem of the shard holding one (topology, protocol,
    options) family of entries."""
    proto = _SAFE.sub("_", protocol_name)
    return f"{fingerprint[:16]}-{proto}-c{int(completion)}r{int(repair)}"


def trace_counts(trace) -> Dict[str, object]:
    """Model-independent broadcast counts of a compiled trace.

    Exactly the reductions :func:`repro.sim.metrics.compute_metrics`
    performs, so metrics rebuilt from these counts are field-for-field
    equal to the direct-compile metrics under any radio model.
    """
    tx_count = trace.tx_count_per_node()
    return {
        "tx": int(trace.num_tx),
        "rx": int(trace.num_rx),
        "duplicates": int(trace.num_duplicate_rx),
        "collisions": int(trace.num_collisions),
        "delay_slots": int(trace.delay_slots),
        "reachability": float(trace.reachability),
        "relays": int((tx_count > 0).sum()),
        "retransmitters": int((tx_count > 1).sum()),
    }


def summary_counts(first_rx, tx_count, rx_count,
                   collisions: int) -> Dict[str, object]:
    """Counts from a batched-summary row (one class member, no trace).

    Mirrors :func:`repro.sim.metrics.compute_metrics_from_counts`.
    """
    tx = int(tx_count.sum())
    rx = int(rx_count.sum())
    all_reached = bool((first_rx >= 0).all())
    return {
        "tx": tx,
        "rx": rx,
        "duplicates": rx - int((first_rx > 0).sum()),
        "collisions": int(collisions),
        "delay_slots": int(first_rx.max()) if all_reached else -1,
        "reachability": float((first_rx >= 0).sum()) / first_rx.shape[0],
        "relays": int((tx_count > 0).sum()),
        "retransmitters": int((tx_count > 1).sum()),
    }


@dataclass
class StoredEntry:
    """One persisted compilation, as served from a shard.

    ``slots``/``nodes`` are the schedule's ``(slot, node)`` pairs in the
    deterministic :meth:`BroadcastSchedule.to_arrays` order — zero-copy
    views into the shard's memory map when the entry carries a schedule,
    ``None`` for metrics-only entries (class members admitted by
    :meth:`ArtifactStore.warm` from batched-summary runs).
    """

    source_index: int
    completion: bool
    repair: bool
    rounds: int
    completions: List[Tuple[int, int]]
    repairs: List[Tuple[int, int]]
    counts: Optional[Dict[str, object]]
    slots: Optional[np.ndarray]
    nodes: Optional[np.ndarray]

    @property
    def has_schedule(self) -> bool:
        return self.slots is not None

    def schedule(self) -> BroadcastSchedule:
        """Materialise the stored schedule (requires ``has_schedule``)."""
        if self.slots is None:
            raise ValueError("metrics-only entry carries no schedule")
        sched = BroadcastSchedule()
        for slot, node in zip(self.slots.tolist(), self.nodes.tolist()):
            sched.add(slot, node)
        return sched

    def metrics(self, topology: Topology,
                model: FirstOrderRadioModel = PAPER_RADIO_MODEL,
                packet_bits: int = PAPER_PACKET_BITS
                ) -> Optional[BroadcastMetrics]:
        """Rebuild the broadcast metrics from the persisted counts.

        Returns ``None`` when the index carries no counts (index files
        are read from disk, so their contents are outside input) — the
        caller falls back to the replay path.
        """
        if self.counts is None:
            return None
        c = self.counts
        energy = model.broadcast_energy(
            num_tx=int(c["tx"]), num_rx=int(c["rx"]), bits=packet_bits,
            distance_m=topology.tx_range())
        return BroadcastMetrics(
            topology=topology.name,
            num_nodes=topology.num_nodes,
            source=tuple(topology.coord(self.source_index)),
            tx=int(c["tx"]),
            rx=int(c["rx"]),
            duplicates=int(c["duplicates"]),
            collisions=int(c["collisions"]),
            energy_j=energy,
            delay_slots=int(c["delay_slots"]),
            reachability=float(c["reachability"]),
            relay_count=int(c["relays"]),
            retransmit_count=int(c["retransmitters"]),
        )


@dataclass
class _ShardReader:
    """Cached snapshot of one shard: parsed index + data memory map."""

    index: dict
    stamp: Tuple[int, int, int]
    mm: Optional[mmap.mmap] = None
    mm_size: int = 0
    buf: Optional[bytes] = None  # non-mmap fallback for odd platforms

    def data(self, offset: int, length: int) -> Optional[np.ndarray]:
        if self.mm is None or offset + length * 8 > self.mm_size:
            return None
        return np.frombuffer(self.mm, dtype="<i8", count=length,
                             offset=offset)


class ArtifactStore:
    """Sharded on-disk repository of compiled broadcast artifacts.

    One store directory is safely shared by any number of concurrent
    reader and writer processes (parallel sweep workers, a long-lived
    ``repro serve`` process, ad-hoc CLI runs).
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        if self.path.exists() and not self.path.is_dir():
            raise ValueError(
                f"artifact store path {self.path} exists and is not a "
                f"directory")
        self._readers: Dict[str, _ShardReader] = {}
        self._pending: Optional[Dict[tuple, list]] = None  # warm staging

    # -- entries ----------------------------------------------------------

    def get(self, topology: Topology, protocol_name: str,
            source_index: int, *, completion: bool = True,
            repair: bool = True) -> Optional[StoredEntry]:
        """Look up one entry; ``None`` on any kind of miss."""
        sid = shard_id(topology.fingerprint, protocol_name,
                       completion=completion, repair=repair)
        reader = self._reader(sid)
        if reader is None:
            return None
        if reader.index.get("fingerprint") != topology.fingerprint:
            return None
        meta = reader.index["entries"].get(entry_key(source_index))
        if meta is None:
            return None
        slots = nodes = None
        ntx = int(meta.get("ntx", 0))
        if meta.get("offset") is not None:
            offset = int(meta["offset"])
            pairs = reader.data(offset, 2 * ntx)
            if pairs is None:  # index ahead of data file: treat as miss
                return None
            slots, nodes = pairs[:ntx], pairs[ntx:]
        return StoredEntry(
            source_index=int(meta["source_index"]),
            completion=completion, repair=repair,
            rounds=int(meta.get("rounds", 0)),
            completions=[_pair(e) for e in meta.get("completions", [])],
            repairs=[_pair(e) for e in meta.get("repairs", [])],
            counts=meta.get("counts"),
            slots=slots, nodes=nodes)

    def put(self, topology: Topology, protocol_name: str,
            source_index: int, *, completion: bool = True,
            repair: bool = True,
            schedule: Optional[np.ndarray] = None,
            counts: Optional[Dict[str, object]] = None,
            completions: Sequence[Tuple[int, int]] = (),
            repairs: Sequence[Tuple[int, int]] = (),
            rounds: int = 0) -> None:
        """Publish one entry (idempotent; first writer wins).

        *schedule* is the ``(k, 2)`` int64 ``(slot, node)`` rows of the
        entry's schedule in :meth:`BroadcastSchedule.to_arrays` order:
        a compiled trace's ``tx`` rows.
        """
        meta = {
            "source_index": int(source_index),
            "rounds": int(rounds),
            "completions": [list(map(int, e)) for e in completions],
            "repairs": [list(map(int, e)) for e in repairs],
            "counts": counts,
            "offset": None,
            "ntx": 0,
        }
        payload = b""
        if schedule is not None:
            meta["ntx"] = len(schedule)
            # The slots, then the nodes.
            payload = schedule.T.astype("<i8").tobytes()
        self._publish(topology.fingerprint, protocol_name, completion,
                      repair, [("entries", entry_key(source_index), meta,
                                payload)])

    # -- class profiles ---------------------------------------------------

    def class_profile(self, topology: Topology, protocol_name: str,
                      profile_key: str, *, completion: bool = True,
                      repair: bool = True) -> Optional[dict]:
        """Stored compile profile of one source class, or ``None``."""
        sid = shard_id(topology.fingerprint, protocol_name,
                       completion=completion, repair=repair)
        reader = self._reader(sid)
        if reader is None:
            return None
        if reader.index.get("fingerprint") != topology.fingerprint:
            return None
        return reader.index.get("profiles", {}).get(profile_key)

    def store_class_profile(self, topology: Topology, protocol_name: str,
                            profile_key: str, profile: dict, *,
                            completion: bool = True,
                            repair: bool = True) -> None:
        self._publish(topology.fingerprint, protocol_name, completion,
                      repair, [("profiles", profile_key, dict(profile), b"")])

    # -- bulk precompute --------------------------------------------------

    def warm(self, shapes: Iterable[Tuple[str, Sequence[int]]],
             protocols: Optional[Sequence[str]] = None) -> Dict[str, int]:
        """Precompute class profiles + per-source entries for a fleet.

        *shapes* is an iterable of ``(topology label, shape)`` pairs —
        the grid fleet a service deployment expects to be queried about.
        For every shape each protocol's sources are grouped into symmetry
        classes (:func:`repro.core.symmetry.group_sources`); the shape's
        class representatives compile together in one batched fixpoint
        (:func:`repro.core.symmetry.compile_classes`), each persisting
        its full schedule + counts + class profile, and every member is
        materialised through the batched class engine, so *all* sources
        of the fleet answer metrics queries warm.  Each entry is put
        once; a representative whose full schedule is already stored is
        served from the store, not recompiled.

        A shape's writes are staged on a private view of the store and
        group-committed once per shard when the shape ends; other
        processes see them from that commit on.

        *protocols* defaults to the paper protocol of each topology.
        Returns counters: shapes / classes / compiles / entries written /
        store_errors (raising store calls and commits, skipped).
        """
        from ..topology.builder import make_topology
        from .cache import ScheduleCache
        from .registry import protocol_for
        from .symmetry import compile_classes, group_sources

        stats = {"shapes": 0, "classes": 0, "compiles": 0, "entries": 0,
                 "store_errors": 0}
        for label, shape in shapes:
            topology = make_topology(label, shape=tuple(shape))
            protos = ([protocol_for(topology)] if protocols is None
                      else [protocol_for(name) for name in protocols])
            for protocol in protos:
                sources = [topology.coord(i)
                           for i in range(topology.num_nodes)]
                groups, direct = group_sources(topology, protocol, sources)
                staging = copy.copy(self)
                staging._pending = {}
                cache = ScheduleCache(store=staging)
                classes = [(class_key, [sources[p] for p in positions])
                           for class_key, positions in groups.items()]
                try:
                    for members in compile_classes(topology, protocol,
                                                   classes, cache=cache):
                        stats["classes"] += 1
                        for member in members:
                            cache.admit_member(protocol, topology, member)
                            stats["entries"] += 1
                    for pos in direct:
                        protocol.compile(topology, sources[pos], cache=cache)
                        stats["entries"] += 1
                finally:
                    # Entries finished before an exception still land.
                    for shard, items in staging._pending.items():
                        cache._store_call(self._publish, *shard, items)
                    stats["store_errors"] += cache.store_errors
                stats["compiles"] += cache.misses
            stats["shapes"] += 1
        return stats

    # -- maintenance ------------------------------------------------------

    def gc(self) -> Dict[str, int]:
        """Compact every shard: rewrite live bin records, drop orphans.

        The data files are append-only — a writer that crashes between
        its ``.bin`` append and its index publish leaves a record no
        index references, and a shard rebuild (fingerprint change)
        rotates the whole file — so dead bytes accumulate across crashes
        and rebuilds.  GC rewrites each shard's data file with exactly
        the live records, in index order, and republishes the index with
        the compacted offsets.

        Concurrent readers survive: a reader snapshot pairs one index
        parse with one data mmap taken at the same moment, and the old
        data inode stays valid under the reader's map after the swap.
        The swap itself is three-phase under the shard writer lock —
        publish the index with every schedule offset *demoted* (a
        schedule lookup in the window is a plain miss, which the store
        contract allows), replace the data file, then publish the index
        with the compacted offsets — so no index generation's offsets
        are ever interpreted against the other generation's bytes.

        Entries whose recorded bytes fall outside the current data file
        (a crashed writer's published-but-truncated record, or a record
        orphaned by an interrupted earlier GC) are demoted to
        metrics-only when they carry counts and dropped otherwise.

        Returns counters: ``shards`` compacted, live ``entries`` kept,
        ``dropped`` unreadable entries, ``bytes_before`` /
        ``bytes_after`` / ``reclaimed`` data-file byte totals.
        """
        stats = {"shards": 0, "entries": 0, "dropped": 0,
                 "bytes_before": 0, "bytes_after": 0, "reclaimed": 0}
        if not self.path.is_dir():
            return stats
        for index_path in sorted(self.path.glob("*.json")):
            if self._load_index(index_path) is None:
                continue  # foreign/stale file: not ours to touch
            sid = index_path.stem
            stats["shards"] += 1
            with self._locked(sid):
                index = self._current_index(sid)
                if index is None:  # vanished or rewritten under us
                    continue
                data_path = self._data_path(sid)
                try:
                    old = data_path.read_bytes()
                except OSError:
                    old = b""
                stats["bytes_before"] += len(old)
                entries = index.get("entries", {})
                chunks: List[bytes] = []
                offset = 0
                for key in sorted(entries):
                    meta = dict(entries[key])
                    ntx = int(meta.get("ntx", 0))
                    if meta.get("offset") is None or ntx <= 0:
                        continue
                    lo = int(meta["offset"])
                    hi = lo + 2 * ntx * 8
                    if hi > len(old):
                        # published index, truncated record: unreadable
                        # now and forever — keep the warm counts if any.
                        if meta.get("counts") is not None:
                            meta["offset"] = None
                            meta["ntx"] = 0
                            entries[key] = meta
                        else:
                            del entries[key]
                        stats["dropped"] += 1
                        continue
                    chunks.append(old[lo:hi])
                    meta["offset"] = offset
                    offset += hi - lo
                    entries[key] = meta
                demoted = {
                    key: ({**meta, "offset": None, "ntx": 0}
                          if meta.get("offset") is not None else meta)
                    for key, meta in entries.items()}
                # Phase 1: no index generation may point into the bin
                # while it is being swapped.
                index["entries"] = demoted
                self._write_index(sid, index)
                # Phase 2: swap in the compacted data file atomically.
                blob = b"".join(chunks)
                fd, tmp = tempfile.mkstemp(dir=str(self.path),
                                           prefix=f".{sid[:16]}-",
                                           suffix=".bin.tmp")
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(blob)
                    os.replace(tmp, data_path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                # Phase 3: publish the compacted offsets and refresh the
                # in-process snapshot (same idiom as _publish).
                index["entries"] = entries
                self._write_index(sid, index)
                stats["entries"] += len(chunks)
                stats["bytes_after"] += len(blob)
                try:
                    st = self._index_path(sid).stat()
                    reader = _ShardReader(
                        index=index,
                        stamp=(st.st_mtime_ns, st.st_size, st.st_ino))
                    self._map_data(sid, reader)
                    self._readers[sid] = reader
                except OSError:  # pragma: no cover - stat raced cleanup
                    self._readers.pop(sid, None)
        stats["reclaimed"] = stats["bytes_before"] - stats["bytes_after"]
        return stats

    # -- internals --------------------------------------------------------

    def _index_path(self, sid: str) -> Path:
        return self.path / f"{sid}.json"

    def _data_path(self, sid: str) -> Path:
        return self.path / f"{sid}.bin"

    def _reader(self, sid: str) -> Optional[_ShardReader]:
        """Load (or revalidate) the cached snapshot of one shard."""
        index_path = self._index_path(sid)
        try:
            st = index_path.stat()
        except OSError:
            self._readers.pop(sid, None)
            return None
        # st_ino is the load-bearing part of the stamp: every index
        # publish goes through tempfile + os.replace, so it lands on a
        # fresh inode even when coarse mtime granularity and an equal
        # byte size make (mtime, size) collide across rapid publishes.
        stamp = (st.st_mtime_ns, st.st_size, st.st_ino)
        reader = self._readers.get(sid)
        if reader is not None and reader.stamp == stamp:
            return reader
        index = self._load_index(index_path)
        if index is None:
            self._readers.pop(sid, None)
            return None
        reader = _ShardReader(index=index, stamp=stamp)
        self._map_data(sid, reader)
        self._readers[sid] = reader
        return reader

    def _map_data(self, sid: str, reader: _ShardReader) -> None:
        data_path = self._data_path(sid)
        try:
            size = data_path.stat().st_size
        except OSError:
            size = 0
        if size <= 0:
            return
        try:
            with open(data_path, "rb") as fh:
                reader.mm = mmap.mmap(fh.fileno(), size,
                                      access=mmap.ACCESS_READ)
                reader.mm_size = size
        except (OSError, ValueError):  # pragma: no cover - mmap refusal
            reader.buf = data_path.read_bytes()
            reader.mm = reader.buf  # frombuffer works on bytes too
            reader.mm_size = len(reader.buf)

    def _load_index(self, index_path: Path) -> Optional[dict]:
        try:
            with open(index_path, "r", encoding="utf-8") as fh:
                index = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(index, dict) \
                or index.get("version") != STORE_FORMAT_VERSION \
                or not isinstance(index.get("entries"), dict):
            return None
        return index

    @contextmanager
    def _locked(self, sid: str):
        """Serialise shard writers (no-op where fcntl is unavailable)."""
        self.path.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        lock_path = self.path / f"{sid}.lock"
        with open(lock_path, "a+b") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def _publish(self, fingerprint: str, protocol_name: str,
                 completion: bool, repair: bool,
                 items: Sequence[Tuple[str, str, dict, bytes]]) -> None:
        """Commit ordered ``(section, key, meta, payload)`` items to one
        shard: one lock, one append, one index publish (a :meth:`warm`
        staging view queues them instead)."""
        if self._pending is not None:
            shard = (fingerprint, protocol_name, completion, repair)
            self._pending.setdefault(shard, []).extend(items)
            return
        sid = shard_id(fingerprint, protocol_name,
                       completion=completion, repair=repair)
        data_path = self._data_path(sid)
        with self._locked(sid):
            index = self._current_index(sid)
            if index is None or index.get("fingerprint") != fingerprint:
                # Fresh/stale/foreign shard: start over (the data file is
                # truncated so orphaned bytes don't accumulate).
                index = {"version": STORE_FORMAT_VERSION,
                         "fingerprint": fingerprint,
                         "protocol": protocol_name,
                         "completion": bool(completion),
                         "repair": bool(repair),
                         "entries": {}, "profiles": {}}
                # Rotate (not truncate) the data file: concurrent readers
                # may hold a mmap of the old inode, which stays valid.
                try:
                    os.unlink(data_path)
                except OSError:
                    pass
            # Copy the sections: the cached snapshot must stay as it is
            # on disk if the append below fails.
            index = {**index, "entries": dict(index["entries"]),
                     "profiles": dict(index.get("profiles", {}))}
            end = data_path.stat().st_size if data_path.exists() else 0
            chunks: List[bytes] = []
            accepted = 0
            for section, key, meta, payload in items:
                bucket = index[section]
                prior = bucket.get(key) if section == "entries" else None
                # First full writer wins (concurrent writers produce
                # identical content); a schedule-carrying entry may
                # upgrade a metrics-only one, never the reverse.
                if prior is not None and (
                        prior.get("offset") is not None or not payload):
                    continue
                if payload:
                    meta = {**meta, "offset": end}
                    end += len(payload)
                    chunks.append(payload)
                bucket[key] = meta
                accepted += 1
            if not accepted:
                return
            if chunks:
                blob = b"".join(chunks)
                with open(data_path, "ab") as fh:
                    if faults.fires(faults.STORE_TORN):
                        # Injected writer crash between the bin append
                        # and the index publish: leave a partial payload
                        # as orphan bytes.  The crash contract covers
                        # this (unindexed bytes are invisible to readers
                        # and reclaimed by gc()); the seam exists to
                        # prove callers survive the raised error.
                        fh.write(blob[:max(8, len(blob) // 2)])
                        fh.flush()
                        raise faults.InjectedFault(faults.STORE_TORN,
                                                   f"torn write to {sid}")
                    fh.write(blob)
            self._write_index(sid, index)
            # Refresh the in-process snapshot in place: re-parsing the
            # index we just wrote would make a cold sweep quadratic.
            try:
                st = self._index_path(sid).stat()
                reader = _ShardReader(
                    index=index,
                    stamp=(st.st_mtime_ns, st.st_size, st.st_ino))
                self._map_data(sid, reader)
                self._readers[sid] = reader
            except OSError:  # pragma: no cover - stat raced a cleanup
                self._readers.pop(sid, None)

    def _current_index(self, sid: str) -> Optional[dict]:
        """Writer-side index load, reusing the cached parse when the
        on-disk stamp hasn't moved (single-writer lock is held)."""
        try:
            st = self._index_path(sid).stat()
        except OSError:
            return None
        reader = self._readers.get(sid)
        if reader is not None and reader.stamp == (
                st.st_mtime_ns, st.st_size, st.st_ino):
            return reader.index
        return self._load_index(self._index_path(sid))

    def _write_index(self, sid: str, index: dict) -> None:
        target = self._index_path(sid)
        fd, tmp = tempfile.mkstemp(dir=str(self.path),
                                   prefix=f".{sid[:16]}-", suffix=".tmp")
        try:
            # One serialize + one write: json.dump's streaming iterencode
            # writes the file in thousands of tiny chunks, which dominates
            # a cold sweep's publish cost.
            blob = json.dumps(index, separators=(",", ":")).encode("utf-8")
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def _pair(entry) -> Tuple[int, int]:
    node, slot = entry
    return (int(node), int(slot))


def class_profile_hash(topology_fingerprint: str, protocol_name: str,
                       class_key: Tuple, *, completion: bool = True,
                       repair: bool = True) -> str:
    """Stable digest naming one class profile inside its shard."""
    h = hashlib.sha256()
    h.update(topology_fingerprint.encode("ascii"))
    h.update(f"|{protocol_name}|class|{class_key!r}"
             f"|c{int(completion)}|r{int(repair)}".encode("ascii"))
    return h.hexdigest()
