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
from ..sim.engine import replay
from ..sim.metrics import BroadcastMetrics, counts_metrics, trace_counts
from ..sim.schedule import BroadcastSchedule
from ..sim.summary import TraceSummary
from ..topology.base import Topology
from .base import BroadcastProtocol, CompiledBroadcast

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

#: Index/bin pairings a reader tries before a moving shard reads as a
#: miss (see :meth:`ArtifactStore._reader`).
_READ_ATTEMPTS = 3

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


def summary_counts(summary: TraceSummary) -> List[Dict[str, object]]:
    """Counts of every row of a batched-summary run (class members, no
    trace), reduced across the whole batch at once.

    The same reductions as :func:`~repro.sim.metrics.trace_counts`, over
    per-node count rows instead of an event trace.
    """
    first_rx, tx_count = summary.first_rx, summary.tx_count
    n, reached = first_rx.shape[1], first_rx >= 0
    rows = zip(*(column.tolist() for column in (
        tx_count.sum(axis=1), summary.rx_count.sum(axis=1),
        (first_rx > 0).sum(axis=1), summary.collisions,
        np.where(reached.all(axis=1), first_rx.max(axis=1), -1),
        reached.sum(axis=1), (tx_count > 0).sum(axis=1),
        (tx_count > 1).sum(axis=1))))
    return [{"tx": tx, "rx": rx, "duplicates": rx - first,
             "collisions": collisions, "delay_slots": delay,
             "reachability": float(informed) / n, "relays": relays,
             "retransmitters": again}
            for tx, rx, first, collisions, delay, informed, relays, again
            in rows]


def entry_item(source_index: int, *,
               schedule: Optional[np.ndarray] = None,
               counts: Optional[Dict[str, object]] = None,
               completions: Sequence[Tuple[int, int]] = (),
               repairs: Sequence[Tuple[int, int]] = (),
               rounds: int = 0) -> Tuple[str, str, dict, bytes]:
    """One entry's ``(section, key, meta, payload)`` commit item.

    *schedule* is the ``(k, 2)`` int64 ``(slot, node)`` rows of the
    entry's schedule in :meth:`BroadcastSchedule.to_arrays` order: a
    compiled trace's ``tx`` rows.  Without it the entry is metrics-only.
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
    return ("entries", entry_key(source_index), meta, payload)


def compiled_fields(compiled: CompiledBroadcast) -> Dict[str, object]:
    """:func:`entry_item`'s fields of one compilation's full entry."""
    return {"schedule": compiled.trace.tx,
            "counts": trace_counts(compiled.trace),
            "completions": compiled.completions,
            "repairs": compiled.repairs, "rounds": compiled.rounds}


def member_fields(member) -> Dict[str, object]:
    """:func:`entry_item`'s fields of one symmetry-class member: the full
    entry of a compiled member, the counts of a summary-mode one."""
    return ({"counts": member.counts} if member.compiled is None
            else compiled_fields(member.compiled))


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
        return counts_metrics(topology, self.source_index, self.counts,
                              model, packet_bits)

    def compiled(self, topology: Topology,
                 protocol: BroadcastProtocol) -> CompiledBroadcast:
        """The full compilation, its trace replayed from the stored
        schedule (requires ``has_schedule``).

        Identical transmitter sets per slot under the deterministic
        collision model yield identical events and first receptions, so
        the replay is the authoritative trace; it is also the
        verification path for the stored counts (differentially tested
        in tests/test_store.py).
        """
        schedule = self.schedule()
        return CompiledBroadcast(
            topology_name=topology.name,
            source=self.source_index,
            schedule=schedule,
            trace=replay(topology, schedule, self.source_index),
            plan=protocol.relay_plan(topology,
                                     topology.coord(self.source_index)),
            completions=list(self.completions),
            repairs=list(self.repairs),
            rounds=self.rounds,
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

    # -- entries ----------------------------------------------------------

    def get(self, topology: Topology, protocol_name: str,
            source_index: int, *, completion: bool = True,
            repair: bool = True) -> Optional[StoredEntry]:
        """Look up one entry; ``None`` on any kind of miss."""
        reader = self._snapshot(topology, protocol_name, completion, repair)
        if reader is None:
            return None
        meta = reader.index["entries"].get(entry_key(source_index))
        if meta is None:
            return None
        return _stored(reader, meta, completion, repair)

    def put(self, topology: Topology, protocol_name: str,
            source_index: int, *, completion: bool = True,
            repair: bool = True, **fields) -> None:
        """Publish one entry (idempotent; first writer wins).

        *fields* are :func:`entry_item`'s: ``schedule``, ``counts``,
        ``completions``, ``repairs``, ``rounds``.
        """
        self._publish(topology.fingerprint, protocol_name, completion,
                      repair, [entry_item(source_index, **fields)])

    # -- class profiles ---------------------------------------------------

    def class_profile(self, topology: Topology, protocol_name: str,
                      profile_key: str, *, completion: bool = True,
                      repair: bool = True) -> Optional[dict]:
        """Stored compile profile of one source class, or ``None``."""
        reader = self._snapshot(topology, protocol_name, completion, repair)
        if reader is None:
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
        classes (:func:`repro.core.symmetry.group_sources`) and the shape
        runs through :func:`repro.core.symmetry.compile_classes` in one
        pass: the class representatives compile together in one batched
        fixpoint, and the members of all classes share one batched wave
        per chunk, so *all* sources of the fleet answer metrics queries
        warm.

        The shape's shard is read once, up front: a class whose profile
        is stored needs no representative, and a representative whose
        full schedule is stored is served from it (replayed), not
        recompiled.  Every other result becomes one index item as it
        arrives, and the shape's items commit in one group publish per
        shard when the shape ends, also when it ends by an exception;
        other processes see them from that commit on.

        *protocols* defaults to the paper protocol of each topology.
        Returns counters: shapes / classes / compiles / entries written /
        store_errors (raising store reads and commits, skipped).
        """
        from ..topology.builder import make_topology
        from .registry import protocol_for
        from .symmetry import compile_classes, group_sources, profile_of

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
                classes = [(class_key, [sources[p] for p in positions])
                           for class_key, positions in groups.items()]
                keys = [class_profile_hash(topology.fingerprint,
                                           protocol.name, class_key)
                        for class_key, _ in classes]
                items: List[Tuple[str, str, dict, bytes]] = []
                try:
                    stored = self._stored_classes(topology, protocol,
                                                  classes, keys, stats)
                    for c, _, member in compile_classes(
                            topology, protocol, classes, stored=stored):
                        stats["entries"] += 1
                        if member.via == "representative":
                            items.append(("profiles", keys[c],
                                          profile_of(member.compiled), b""))
                        if member.admitted:  # a stored representative
                            continue
                        if member.via in ("representative", "fallback"):
                            stats["compiles"] += 1
                        items.append(entry_item(member.source_index,
                                                **member_fields(member)))
                    for pos in direct:
                        compiled = protocol.compile(topology, sources[pos])
                        items.append(entry_item(compiled.source,
                                                **compiled_fields(compiled)))
                        stats["compiles"] += 1
                        stats["entries"] += 1
                finally:
                    if items:
                        try:
                            self._publish(topology.fingerprint,
                                          protocol.name, True, True, items)
                        except Exception:
                            stats["store_errors"] += 1
                stats["classes"] += len(classes)
            stats["shapes"] += 1
        return stats

    def _stored_classes(self, topology: Topology,
                        protocol: BroadcastProtocol, classes: Sequence,
                        keys: Sequence[str], stats: Dict[str, int]):
        """Per class, its stored profile and its representative's stored
        compilation (replayed), read from one snapshot of the shard;
        ``None`` without a readable shard.  A raising read counts one
        ``store_errors`` and reads as an empty shard."""
        try:
            reader = self._snapshot(topology, protocol.name, True, True)
            if reader is None:
                return None
            entries = reader.index["entries"]
            profiles = reader.index.get("profiles", {})
            stored = []
            for key, (_, coords) in zip(keys, classes):
                profile, rep = profiles.get(key), None
                meta = entries.get(entry_key(topology.index(coords[0])))
                entry = (None if profile is not None or meta is None
                         else _stored(reader, meta, True, True))
                if entry is not None and entry.has_schedule:
                    rep = entry.compiled(topology, protocol)
                stored.append((profile, rep))
            return stored
        except Exception:
            stats["store_errors"] += 1
            return None

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
                self._replace(sid, data_path, blob, ".bin.tmp")
                # Phase 3: publish the compacted offsets (a new dict: the
                # phase-1 snapshot must keep its demoted entries).
                self._write_index(sid, {**index, "entries": entries})
                stats["entries"] += len(chunks)
                stats["bytes_after"] += len(blob)
        stats["reclaimed"] = stats["bytes_before"] - stats["bytes_after"]
        return stats

    # -- internals --------------------------------------------------------

    def _index_path(self, sid: str) -> Path:
        return self.path / f"{sid}.json"

    def _data_path(self, sid: str) -> Path:
        return self.path / f"{sid}.bin"

    def _snapshot(self, topology: Topology, protocol_name: str,
                  completion: bool, repair: bool) -> Optional[_ShardReader]:
        """The current snapshot of one topology's shard, ``None`` when
        the shard is missing, unreadable or another topology's."""
        reader = self._reader(shard_id(topology.fingerprint, protocol_name,
                                       completion=completion, repair=repair))
        if reader is None \
                or reader.index.get("fingerprint") != topology.fingerprint:
            return None
        return reader

    def _reader(self, sid: str) -> Optional[_ShardReader]:
        """Load (or revalidate) the cached snapshot of one shard.

        The index is parsed before the bin is mapped, so a ``gc`` landing
        in between would pair pre-gc offsets with compacted bytes.  Every
        ``gc`` publishes the index before it swaps the bin, so the
        index's stamp is re-read after the map: a moved stamp re-reads
        the pair, and a shard that keeps moving reads as a miss.
        """
        index_path = self._index_path(sid)
        for _ in range(_READ_ATTEMPTS):
            try:
                st = index_path.stat()
            except OSError:
                break
            # st_ino is the load-bearing part of the stamp: every index
            # publish goes through tempfile + os.replace, so it lands on
            # a fresh inode even when coarse mtime granularity and an
            # equal byte size make (mtime, size) collide across rapid
            # publishes.
            stamp = _stamp(st)
            reader = self._readers.get(sid)
            if reader is not None and reader.stamp == stamp:
                return reader
            index = self._load_index(index_path)
            if index is None:
                break
            reader = _ShardReader(index=index, stamp=stamp)
            self._map_data(sid, reader)
            try:
                if _stamp(index_path.stat()) != stamp:
                    continue
            except OSError:
                break
            self._readers[sid] = reader
            return reader
        self._readers.pop(sid, None)
        return None

    def _adopt(self, sid: str, index: dict,
               st: os.stat_result) -> _ShardReader:
        """Cache *index* as the snapshot of the index file stat'ed *st*."""
        reader = _ShardReader(index=index, stamp=_stamp(st))
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
        shard: one lock, one append, one index publish."""
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

    def _current_index(self, sid: str) -> Optional[dict]:
        """Writer-side index load, reusing the cached parse when the
        on-disk stamp hasn't moved (single-writer lock is held)."""
        try:
            st = self._index_path(sid).stat()
        except OSError:
            return None
        reader = self._readers.get(sid)
        if reader is not None and reader.stamp == _stamp(st):
            return reader.index
        return self._load_index(self._index_path(sid))

    def _replace(self, sid: str, target: Path, blob: bytes,
                 suffix: str) -> None:
        """Write *blob* to *target* atomically: tempfile + os.replace."""
        fd, tmp = tempfile.mkstemp(dir=str(self.path),
                                   prefix=f".{sid[:16]}-", suffix=suffix)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _write_index(self, sid: str, index: dict) -> None:
        """Publish *index* atomically and refresh the in-process snapshot
        in place: re-parsing the index just written would make a cold
        sweep quadratic."""
        target = self._index_path(sid)
        # One serialize + one write: json.dump's streaming iterencode
        # writes the file in thousands of tiny chunks, which dominates a
        # cold sweep's publish cost.
        self._replace(sid, target, json.dumps(
            index, separators=(",", ":")).encode("utf-8"), ".tmp")
        try:
            self._adopt(sid, index, target.stat())
        except OSError:  # pragma: no cover - stat raced a cleanup
            self._readers.pop(sid, None)


def _stamp(st: os.stat_result) -> Tuple[int, int, int]:
    """An index file's identity: a publish always moves it."""
    return (st.st_mtime_ns, st.st_size, st.st_ino)


def _stored(reader: _ShardReader, meta: dict, completion: bool,
            repair: bool) -> Optional[StoredEntry]:
    """One index entry of a shard snapshot, its schedule a view into the
    snapshot's data map; ``None`` when the bytes are not there."""
    slots = nodes = None
    ntx = int(meta.get("ntx", 0))
    if meta.get("offset") is not None:
        pairs = reader.data(int(meta["offset"]), 2 * ntx)
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
