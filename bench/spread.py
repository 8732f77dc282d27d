"""Run sets of benchmark runs and summarise their spread.

    python3 bench/spread.py run --out set1.jsonl --seeds 1-10 \
        [--workloads fill ...] [--seconds 20]
    python3 bench/spread.py summary set1.jsonl [set2.jsonl]

``run`` makes one untraced run per (seed, workload), workloads
round-robin within each seed, and appends one JSON line per run.
``summary`` prints, per workload and end-to-end metric, each set's
median and its spread -- the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) over the median --
and, given two sets, how much worse the second median is than the
first, next to the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_sets(out: Path, seeds, workloads, seconds: int) -> int:
    for seed in seeds:
        for workload in workloads:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - t0
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            row = {"workload": workload, "seed": seed,
                   "wall_s": round(wall, 2), "valid": report["valid"],
                   "scale_p50": report["passes"][0]["scale_p50"],
                   **{k: result[k] for k in ("correct", "attempted",
                                             "failed")},
                   "metrics": {k: v["value"]
                               for k, v in result["metrics"].items()}}
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
    return 0


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(paths) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets = [[json.loads(line) for line in Path(p).read_text().splitlines()]
            for p in paths]
    head = "| workload | metric |"
    rule = "|---|---|"
    for k in range(1, len(sets) + 1):
        head += f" median {k} | spread {k} |"
        rule += "---|---|"
    if len(sets) == 2:
        head += " 2 worse by |"
        rule += "---|"
    print(head + " bound |\n" + rule + "---|")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in metrics:
            name = metric["name"]
            row = f"| {workload} | `{name}` |"
            medians = []
            for rows in sets:
                values = [r["metrics"][name] for r in rows
                          if r["workload"] == workload]
                if len(values) < 2:
                    row += " – | – |"
                    continue
                medians.append(statistics.median(values))
                row += f" {medians[-1]:.4g} | {spread(values):.3f} |"
            if len(sets) == 2 and len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if metric["better"] == "higher":
                    worse = -worse
                row += f" {worse:+.3f} |"
            print(row + f" {metric['bound']} |")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    run.add_argument("--workloads", nargs="+")
    run.add_argument("--seconds", type=int)
    summ = sub.add_parser("summary")
    summ.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "summary":
        return summary(args.paths)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    return run_sets(args.out, args.seeds, workloads,
                    args.seconds or spec["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
