"""Store digests: one hash over every entry an :class:`ArtifactStore`
holds, for "answers unchanged" checks across compile-path changes.

The digest covers each entry's metadata (rounds, completions, repairs,
counts; offsets dropped, since they depend on write order), its schedule
bytes (two int64 arrays of ``ntx`` each) and each shard's class
profiles.  Two stores digest equal exactly when they would serve the
same answers.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent


def store_digest(root: Path) -> Tuple[str, int, int]:
    """``(sha256 hex, entries, profiles)`` of the store under *root*."""
    digest = {}
    entries_total = profiles_total = 0
    for index in sorted(Path(root).glob("*.json")):
        shard = json.loads(index.read_text())
        data = index.with_suffix(".bin").read_bytes()
        entries = {}
        for key, e in shard["entries"].items():
            off = e.get("offset")
            raw = b"" if off is None else data[off:off + 16 * e["ntx"]]
            meta = {k: v for k, v in e.items() if k != "offset"}
            entries[key] = [meta, hashlib.sha256(raw).hexdigest()]
        digest[index.stem] = [entries, shard["profiles"]]
        entries_total += len(entries)
        profiles_total += len(shard["profiles"])
    text = json.dumps(digest, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest(), entries_total, profiles_total


def bench_worker():
    """``bench/worker.py``, the benchmark workloads' own definitions,
    loaded without putting ``bench/`` on the import path for good."""
    bench = ROOT / "bench"
    spec = importlib.util.spec_from_file_location(
        "_bench_worker", bench / "worker.py")
    module = importlib.util.module_from_spec(spec)
    # worker.py imports its sibling calibrate.py by bare name.
    sys.path.insert(0, str(bench))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def fill_fleet():
    """The ``fill`` benchmark workload's fleet."""
    return bench_worker().FILL_FLEET
