"""``repro serve`` with the benchmark's timing wrappers installed.

    python bench/traced_server.py --spans-dir DIR -- serve [serve options]

Each SIGUSR1 writes everything accumulated since the previous one to
``DIR/spans-<n>.json`` (n = 0, 1, ...) and starts a fresh accumulation,
so the load generator brackets a phase with two signals: the first dump
holds the set-up (``--warm``), the second the phase itself.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
from pathlib import Path

from spans import Spans, install


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        raise SystemExit("usage: traced_server.py --spans-dir DIR -- serve ...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-dir", type=Path, required=True)
    args = parser.parse_args(argv[:split])
    args.spans_dir.mkdir(parents=True, exist_ok=True)

    import repro.cli

    spans = Spans()
    install(spans)
    counter = itertools.count()

    def dump(signum, frame):
        path = args.spans_dir / f"spans-{next(counter)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(spans.dump()))
        os.replace(tmp, path)

    signal.signal(signal.SIGUSR1, dump)
    return repro.cli.main(argv[split + 1:])


if __name__ == "__main__":
    raise SystemExit(main())
