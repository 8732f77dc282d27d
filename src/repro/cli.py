"""Command-line interface.

Examples::

    repro-wsn table 2                 # ideal case (paper Table 2)
    repro-wsn table 3 --stride 8      # best case, subsampled sources
    repro-wsn figure 5                # the Fig. 5 worked example
    repro-wsn broadcast 2D-4 --source 16 8
    repro-wsn sweep 3D-6 --stride 16
    repro-wsn topology 2D-3
    repro-wsn selfcheck
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import analysis, viz
from .core import (diagonal_vs_axis_etr, protocol_for,
                   validate_broadcast)
from .core.etr import OPTIMAL_ETR
from .sim.backend import ENGINES
from .topology import analyze, make_topology, paper_topologies
from .topology.builder import TOPOLOGY_CLASSES


def _topology_from_args(args) -> object:
    shape = tuple(args.shape) if getattr(args, "shape", None) else None
    return make_topology(args.label, shape=shape)


def _schedule_cache_from_args(args):
    path = getattr(args, "cache", None)
    cap = getattr(args, "cache_max_entries", None)
    if (path is None and cap is None
            and not getattr(args, "cache_stats", False)):
        return None
    from .core import ScheduleCache
    return ScheduleCache(path, max_entries=cap)


def _print_cache_stats(stats: dict) -> None:
    """The ``--cache-stats`` line: one parseable counters row."""
    cap = stats.get("max_entries")
    parts = [f"hits={stats['hits']}", f"misses={stats['misses']}",
             f"disk_hits={stats['disk_hits']}",
             f"evictions={stats['evictions']}",
             f"memory={stats['memory_entries']}"
             + (f"/{cap}" if cap is not None else "")]
    for key in ("queries", "batches", "coalesced", "compile_calls"):
        if key in stats:
            parts.append(f"{key}={stats[key]}")
    print("cache-stats: " + " ".join(parts))


def _warm_fleet(specs):
    """Parse ``--warm LABEL:MxN`` specs into (label, shape) pairs."""
    fleet = []
    for spec in specs or []:
        label, _, dims = spec.partition(":")
        if not dims:
            raise SystemExit(
                f"--warm expects LABEL:MxN[xL], got {spec!r}")
        fleet.append((label, tuple(int(d) for d in dims.split("x"))))
    return fleet


def _print_engine_decision(engine: str, topo, threads=None) -> None:
    """One line naming the tier that will actually run and why — the
    fallback rules are silent by design, so surface the decision."""
    from .sim import resolve_engine
    tier, reason = resolve_engine(engine, topo.num_nodes, explain=True,
                                  threads=threads)
    note = "" if tier == engine else f" (requested {engine})"
    print(f"engine: {tier}{note} — {reason}")


def cmd_topology(args) -> int:
    topo = _topology_from_args(args)
    report = analyze(topo)
    print(analysis.render_kv(report.as_rows(), title=f"topology {topo.name}"))
    return 0


def cmd_table(args) -> int:
    n = args.number
    if n == 1:
        rows = [{"topology": lab, "optimal_ETR": str(f)}
                for lab, f in OPTIMAL_ETR.items()]
        print(analysis.render_table(
            rows, ["topology", "optimal_ETR"],
            title="Table 1: optimal ETRs of the four topologies"))
        return 0
    if n == 2:
        rows = analysis.table2_ideal()
        print(analysis.render_paper_comparison(
            rows, ["tx", "rx", "energy_J"],
            title="Table 2: ideal case (512 nodes)"))
        return 0
    if n in (3, 4, 5):
        schedule_cache = _schedule_cache_from_args(args)
        cache = analysis.SweepCache.compute(
            stride=args.stride, workers=args.workers,
            cache=schedule_cache,
            symmetry=args.symmetry)
        if n == 3:
            rows = analysis.table3_best(cache)
            title = "Table 3: our protocols, best case"
            metrics = ["tx", "rx", "energy_J"]
        elif n == 4:
            rows = analysis.table4_worst(cache)
            title = "Table 4: our protocols, worst case"
            metrics = ["tx", "rx", "energy_J"]
        else:
            rows = analysis.table5_delay(cache)
            title = "Table 5: maximum delay (slots)"
            metrics = ["ideal", "protocol"]
            flat = []
            for row in rows:
                flat.append({
                    "topology": row["topology"],
                    "ideal": row["ideal_max_delay"],
                    "protocol": row["protocol_max_delay"],
                    "paper": row["paper"],
                })
            rows = flat
        print(analysis.render_paper_comparison(rows, metrics, title=title))
        if args.cache_stats and schedule_cache is not None:
            _print_cache_stats(schedule_cache.stats())
        return 0
    print(f"unknown table {n}; the paper has tables 1-5", file=sys.stderr)
    return 2


#: The worked examples of the protocol figures: (topology label, shape,
#: source) as in the paper.
FIGURE_SETUPS = {
    5: ("2D-4", (16, 16), (6, 8)),
    7: ("2D-8", (14, 14), (5, 9)),
    8: ("2D-3", (20, 14), (10, 7)),
    9: ("3D-6", (16, 16, 4), (6, 8, 2)),
}


def cmd_figure(args) -> int:
    n = args.number
    if n == 6:
        diag, axis = diagonal_vs_axis_etr()
        print("Figure 6: ETR of a relay hop in the 2D-8 mesh")
        print(f"  along the diagonal : {diag} (paper: 5/8)")
        print(f"  along the X axis   : {axis} (paper: 3/8)")
        return 0
    if n not in FIGURE_SETUPS:
        print(f"unknown figure {n}; reproducible figures: 5, 6, 7, 8, 9",
              file=sys.stderr)
        return 2
    label, shape, source = FIGURE_SETUPS[n]
    topo = make_topology(label, shape=shape)
    compiled = protocol_for(topo).compile(topo, source)
    print(viz.summary_block(topo, compiled))
    print()
    print(viz.relay_map(topo, compiled))
    if args.svg:
        kwargs = {"label_first_rx": True}
        if label == "3D-6":
            kwargs = {"plane_z": source[2]}
        viz.save_broadcast_svg(args.svg, topo, compiled, **kwargs)
        print(f"\nSVG written to {args.svg}")
    return 0


def _default_center_source(topo):
    return tuple(
        max(1, s // 2) for s in (
            (topo.m, topo.n, topo.l) if topo.dims == 3
            else (topo.m, topo.n)))


def _recovery_from_args(args):
    """Build a RecoveryPolicy from ``--recovery*`` flags (None if off)."""
    if not getattr(args, "recovery", False):
        return None
    from .sim import RecoveryPolicy
    return RecoveryPolicy(
        timeout=args.recovery_timeout,
        max_retries=args.recovery_max_retries,
        backoff=args.recovery_backoff,
        suppression_k=args.recovery_suppression_k,
        election=not args.recovery_no_election)


def _add_recovery_flags(p) -> None:
    p.add_argument("--recovery", action="store_true",
                   help="enable the closed-loop recovery layer "
                        "(overhear-ACKs + timeout/backoff retransmission)")
    p.add_argument("--recovery-timeout", type=int, default=2,
                   help="slots a relay waits before checking coverage")
    p.add_argument("--recovery-max-retries", type=int, default=3,
                   help="retransmission budget per relay")
    p.add_argument("--recovery-backoff", type=int, default=2,
                   help="multiplicative timeout backoff between retries")
    p.add_argument("--recovery-suppression-k", type=int, default=2,
                   help="Trickle counter: cancel a pending retry after "
                        "overhearing k overlapping repairs (0 disables)")
    p.add_argument("--recovery-no-election", action="store_true",
                   help="disable the last-resort repair election")


def cmd_robustness(args) -> int:
    topo = _topology_from_args(args)
    source = (tuple(args.source) if args.source
              else _default_center_source(topo))
    recovery = _recovery_from_args(args)
    _print_engine_decision(args.engine, topo, args.threads)
    rows = []
    for p in analysis.loss_degradation(
            topo, source, args.loss_rates, trials=args.trials,
            harden=args.harden, seed=args.seed, workers=args.workers,
            engine=args.engine, recovery=recovery,
            threads=args.threads):
        rows.append({"impairment": f"loss p={p.parameter}",
                     "mean reach": round(p.mean_reachability, 3),
                     "min reach": round(p.min_reachability, 3),
                     "mean tx": round(p.mean_tx, 1)})
    for p in analysis.failure_degradation(
            topo, source, args.failures, trials=args.trials,
            recompile=args.recompile, seed=args.seed, workers=args.workers,
            cache=_schedule_cache_from_args(args), engine=args.engine,
            recovery=recovery, threads=args.threads):
        mode = "recompiled" if args.recompile else "static"
        rows.append({"impairment": f"{int(p.parameter)} dead ({mode})",
                     "mean reach": round(p.mean_reachability, 3),
                     "min reach": round(p.min_reachability, 3),
                     "mean tx": round(p.mean_tx, 1)})
    print(analysis.render_table(
        rows, ["impairment", "mean reach", "min reach", "mean tx"],
        title=f"robustness of {topo.name} broadcast from {source}"))
    return 0


def cmd_frontier(args) -> int:
    topo = _topology_from_args(args)
    source = (tuple(args.source) if args.source
              else _default_center_source(topo))
    _print_engine_decision(args.engine, topo, args.threads)
    points = analysis.recovery_frontier(
        topo, source, loss_rates=args.loss_rates,
        failure_counts=args.failures, trials=args.trials,
        hardening=args.hardening, seed=args.seed,
        workers=args.workers, engine=args.engine,
        threads=args.threads)
    rows = []
    for p in points:
        rows.append({"strategy": p.strategy,
                     "p": p.loss_rate,
                     "dead": p.failures,
                     "mean reach": round(p.mean_reachability, 3),
                     "p5 reach": round(p.p5_reach, 3),
                     "mean tx": round(p.mean_tx, 1),
                     "energy mJ": round(p.mean_energy_j * 1e3, 3),
                     "pareto": "*" if p.pareto else ""})
    print(analysis.render_table(
        rows, ["strategy", "p", "dead", "mean reach", "p5 reach",
               "mean tx", "energy mJ", "pareto"],
        title=(f"recovery frontier: {topo.name} from {source} "
               f"({args.trials} trials)")))
    return 0


def cmd_lifetime(args) -> int:
    topo = _topology_from_args(args)
    sources = ([tuple(args.source)] if args.source
               else [_default_center_source(topo)])
    if args.rotate:
        sources = sources + [tuple(c)
                             for c in analysis.corner_sources(topo)]
    _print_engine_decision(args.engine, topo, args.threads)
    res = analysis.simulate_lifetime(
        topo, sources, battery_j=args.battery,
        max_rounds=args.max_rounds, workers=args.workers,
        cache=_schedule_cache_from_args(args),
        loss_rate=args.loss, loss_trials=args.trials, seed=args.seed,
        engine=args.engine, threads=args.threads)
    channel = ("perfect" if args.loss is None
               else f"Bernoulli p={args.loss} ({args.trials} trials)")
    print(analysis.render_kv([
        ("topology", topo.name),
        ("sources (cycled)", len(sources)),
        ("channel", channel),
        ("rounds completed", res.rounds_completed),
        ("survived budget", res.survived_all_rounds),
        ("first death", res.first_death_node or "-"),
        ("energy imbalance", round(res.energy_imbalance(), 2)),
        ("mean residual J", f"{float(res.residual_energy_j.mean()):.3e}"),
    ], title=f"lifetime: {topo.name} battery={args.battery} J"))
    return 0


def cmd_scaling(args) -> int:
    from .analysis.scaling import scaling_curve, sizes_for
    sizes = args.sizes or sizes_for(args.label, args.ladder)
    points = scaling_curve(args.label, sizes=sizes,
                           workers=args.workers)
    print(analysis.render_table(
        [p.as_row() for p in points],
        ["topology", "nodes", "shape", "tx", "ideal_tx", "tx/ideal",
         "delay", "ideal_delay", "energy_J", "reach"],
        title=f"scaling study: {args.label}"))
    return 0


def cmd_broadcast(args) -> int:
    topo = _topology_from_args(args)
    source = tuple(args.source)
    compiled = protocol_for(topo).compile(topo, source)
    report = validate_broadcast(topo, compiled.schedule, topo.index(source))
    print(viz.summary_block(topo, compiled))
    print(f"schedule audit: {'OK' if report.ok else report.issues}")
    print()
    print(viz.relay_map(topo, compiled))
    if args.timeline:
        print()
        print(viz.slot_timeline(topo, compiled))
    return 0


def cmd_sweep(args) -> int:
    topo = _topology_from_args(args)
    sources = (None if args.stride == 1
               else analysis.strided_sources(topo, args.stride))
    schedule_cache = _schedule_cache_from_args(args)
    sweep = analysis.sweep_sources(
        topo, sources=sources, workers=args.workers,
        cache=schedule_cache, symmetry=args.symmetry)
    best = sweep.best_by_energy()
    worst = sweep.worst_by_energy()
    print(analysis.render_kv([
        ("topology", topo.name),
        ("sources swept", len(sweep)),
        ("all reached", sweep.all_reached()),
        ("best source", best.source),
        ("best tx/rx/energy",
         f"{best.tx}/{best.rx}/{best.energy_j:.3e}"),
        ("worst source", worst.source),
        ("worst tx/rx/energy",
         f"{worst.tx}/{worst.rx}/{worst.energy_j:.3e}"),
        ("max delay (slots)", sweep.max_delay()),
        ("mean tx", sweep.mean_tx()),
    ], title=f"source sweep: {topo.name}"))
    if args.cache_stats and schedule_cache is not None:
        _print_cache_stats(schedule_cache.stats())
    return 0


def _parse_hostport(value: str):
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _remote_query(args, query) -> int:
    from .service import RetryPolicy, ServiceClient
    host, port = _parse_hostport(args.connect)
    policy = RetryPolicy(attempts=max(1, args.retries))
    with ServiceClient(host, port, retry=policy) as client:
        response = client.query(query)
        if not response.get("ok"):
            print(f"error ({response.get('error_type', 'error')}): "
                  f"{response.get('error')}")
            return 1
        pairs = [("via", response.get("via"))]
        pairs += list(response.get("metrics", {}).items())
        pairs += [("retries", client.retries),
                  ("reconnects", client.reconnects)]
    print(analysis.render_kv(
        pairs, title=f"query: {query.topology} source {query.source} "
                     f"@ {host}:{port}"))
    schedule = response.get("schedule")
    if schedule is not None:
        print(f"schedule ({len(schedule)} transmissions):")
        for slot, node in schedule:
            print(f"  slot {slot:4d}  node {node}")
    return 0


def cmd_query(args) -> int:
    from .service import Query, QueryEngine, SyncRuntime
    query = Query(
        topology=args.label,
        source=tuple(args.source),
        shape=tuple(args.shape) if args.shape else None,
        protocol=args.protocol,
        include_schedule=args.schedule,
        timeout_ms=args.timeout_ms)
    if args.connect:
        return _remote_query(args, query)
    kwargs = {}
    if args.max_entries is not None:
        kwargs["max_entries"] = args.max_entries or None
    engine = QueryEngine(args.store, **kwargs)
    runtime = SyncRuntime(engine)
    result = runtime.query(query)
    row = result.metrics.as_row()
    pairs = [("via", result.via)]
    pairs += [(key, value) for key, value in row.items()]
    print(analysis.render_kv(
        pairs, title=f"query: {query.topology} source {query.source}"))
    if result.schedule is not None:
        print(f"schedule ({len(result.schedule)} transmissions):")
        for slot, node in result.schedule:
            print(f"  slot {slot:4d}  node {node}")
    if args.cache_stats:
        _print_cache_stats(engine.stats())
    return 0


def cmd_serve(args) -> int:
    from .service import QueryEngine
    from .service.server import run_server
    kwargs = {}
    if args.max_entries is not None:
        kwargs["max_entries"] = args.max_entries or None
    engine = QueryEngine(args.store, **kwargs)
    fleet = _warm_fleet(args.warm)
    if fleet:
        if args.store is None:
            raise SystemExit("--warm needs a persistent store (--store DIR)")
        summary = engine.warm(fleet)
        print(f"warmed {summary['entries']} entries across "
              f"{summary['shapes']} shape(s): {summary['classes']} classes, "
              f"{summary['compiles']} compiles")
    print(f"serving NDJSON queries on {args.host}:{args.port} "
          "(SIGTERM/Ctrl-C drains in-flight queries, "
          f"{args.drain_timeout:g} s budget)")
    run_server(engine, args.host, args.port,
               drain_timeout=args.drain_timeout)
    return 0


def cmd_health(args) -> int:
    from .service import ServiceClient
    host, port = _parse_hostport(args.connect)
    with ServiceClient(host, port, timeout=args.timeout) as client:
        health = client.health()
    if not health.get("ok"):
        print(f"error ({health.get('error_type', 'error')}): "
              f"{health.get('error')}")
        return 1
    engine = health.get("engine", {})
    native = health.get("native", {})
    store = health.get("store", {})
    breaker = health.get("breaker", {})
    pairs = [
        ("status", health.get("status")),
        ("queries", engine.get("queries")),
        ("shed", engine.get("shed")),
        ("rejected", engine.get("rejected")),
        ("queued", engine.get("queued")),
        ("compile calls", engine.get("compile_calls")),
        ("store shards", store.get("shards")),
        ("store path", store.get("path") or "(memory only)"),
        ("native available", native.get("available")),
        ("native reason", native.get("reason") or "-"),
    ]
    for tier in sorted(breaker):
        state = breaker[tier]
        label = "open" if state.get("open") else "closed"
        if state.get("open") and state.get("reason"):
            label += f" ({state['reason']})"
        pairs.append((f"breaker[{tier}]", label))
    print(analysis.render_kv(pairs, title=f"health @ {host}:{port}"))
    return 0


def cmd_store(args) -> int:
    from .core.store import ArtifactStore
    if args.action == "gc":
        store = ArtifactStore(args.store)
        stats = store.gc()
        print(analysis.render_kv([
            ("store", str(store.path)),
            ("shards compacted", stats["shards"]),
            ("live entries kept", stats["entries"]),
            ("unreadable entries dropped", stats["dropped"]),
            ("bytes before", stats["bytes_before"]),
            ("bytes after", stats["bytes_after"]),
            ("bytes reclaimed", stats["reclaimed"]),
        ], title="store gc"))
    return 0


def cmd_selfcheck(args) -> int:
    failures = 0
    for label, topo in paper_topologies().items():
        topo.validate()
        src = topo.coord(topo.num_nodes // 2 + 3)
        compiled = protocol_for(topo).compile(topo, src)
        report = validate_broadcast(
            topo, compiled.schedule, topo.index(src))
        status = "OK" if (report.ok and compiled.reached_all) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{label}: topology valid, broadcast from {src}: {status} "
              f"(tx={compiled.trace.num_tx}, "
              f"delay={compiled.trace.delay_slots})")
    print("selfcheck:", "PASS" if failures == 0 else f"{failures} failures")
    return 1 if failures else 0


def _add_cache_stat_flags(p) -> None:
    p.add_argument("--cache-max-entries", type=int, default=None,
                   metavar="N",
                   help="LRU bound on in-memory cached schedules "
                        "(oldest entries evicted beyond it)")
    p.add_argument("--cache-stats", action="store_true",
                   help="print a hit/miss/eviction counters line at the "
                        "end of the run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wsn",
        description=("Broadcast protocols for regular WSNs "
                     "(ICPP 2003 reproduction)"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="structural census of a topology")
    p.add_argument("label", choices=sorted(TOPOLOGY_CLASSES))
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("table", help="reproduce a paper table (1-5)")
    p.add_argument("number", type=int)
    p.add_argument("--stride", type=int, default=8,
                   help="source subsampling for tables 3-5 (1 = exhaustive)")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel sweep processes (results identical to "
                        "serial)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="schedule-cache directory shared across runs")
    p.add_argument("--symmetry", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force (--symmetry) or disable (--no-symmetry) "
                        "the symmetry-reduced sweep; default auto-enables "
                        "it whenever the protocol can group sources into "
                        "translation classes (identical results either "
                        "way)")
    _add_cache_stat_flags(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure", help="reproduce a paper figure (5-9)")
    p.add_argument("number", type=int)
    p.add_argument("--svg", metavar="PATH", default=None,
                   help="also render the figure as an SVG file")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("robustness",
                       help="loss/failure degradation (extension)")
    p.add_argument("label", choices=sorted(TOPOLOGY_CLASSES))
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.add_argument("--source", type=int, nargs="+", default=None)
    p.add_argument("--loss-rates", type=float, nargs="+",
                   default=[0.0, 0.05, 0.1])
    p.add_argument("--failures", type=int, nargs="+", default=[0, 10])
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--harden", type=int, default=0)
    p.add_argument("--recompile", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=ENGINES, default="batch",
                   help="slot-resolve tier of the batched Monte-Carlo: "
                        "dense (default) or compiled (auto = compiled "
                        "if it builds) — all produce identical curves")
    p.add_argument("--workers", type=int, default=None,
                   help="processes sharding the trial dimension of each "
                        "point (--recompile: fanning failure counts "
                        "out); results identical either way")
    p.add_argument("--threads", type=int, default=None,
                   help="compiled-tier kernel threads per process "
                        "(default: all cores standalone, 1 inside "
                        "--workers shards; results identical at any "
                        "width)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="schedule-cache directory shared across runs")
    _add_recovery_flags(p)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("frontier",
                       help="blind hardening vs closed-loop recovery "
                            "Pareto sweep (extension)")
    p.add_argument("label", choices=sorted(TOPOLOGY_CLASSES))
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.add_argument("--source", type=int, nargs="+", default=None)
    p.add_argument("--loss-rates", type=float, nargs="+",
                   default=[0.0, 0.1, 0.2])
    p.add_argument("--failures", type=int, nargs="+", default=[0])
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--hardening", type=int, nargs="+", default=[0, 1, 2, 3],
                   help="blind repetition budgets r to compare against")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=ENGINES, default="batch",
                   help="slot-resolve tier of the batched Monte-Carlo: "
                        "dense (default) or compiled (auto = compiled "
                        "if it builds) — all produce identical points")
    p.add_argument("--workers", type=int, default=None,
                   help="processes sharding the trial dimension of each "
                        "cell (results identical either way)")
    p.add_argument("--threads", type=int, default=None,
                   help="compiled-tier kernel threads per process "
                        "(default: all cores standalone, 1 inside "
                        "--workers shards; results identical at any "
                        "width)")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("lifetime",
                       help="repeated-broadcast lifetime (extension)")
    p.add_argument("label", choices=sorted(TOPOLOGY_CLASSES))
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.add_argument("--source", type=int, nargs="+", default=None)
    p.add_argument("--rotate", action="store_true",
                   help="also cycle broadcasts through the corner sources "
                        "(LEACH-style load spreading)")
    p.add_argument("--battery", type=float, default=2e-3,
                   help="per-node energy budget in joules")
    p.add_argument("--max-rounds", type=int, default=100_000)
    p.add_argument("--loss", type=float, default=None,
                   help="Bernoulli loss rate: per-round cost becomes the "
                        "batched Monte-Carlo expectation")
    p.add_argument("--trials", type=int, default=16,
                   help="Monte-Carlo trials per source when --loss is set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=ENGINES, default="batch",
                   help="slot-resolve tier of the lossy replay (all "
                        "tiers produce identical expectations)")
    p.add_argument("--workers", type=int, default=None,
                   help="compile distinct sources in parallel processes")
    p.add_argument("--threads", type=int, default=None,
                   help="compiled-tier kernel threads per process "
                        "(default: all cores standalone, 1 inside "
                        "--workers shards; results identical at any "
                        "width)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="schedule-cache directory shared across runs")
    p.set_defaults(func=cmd_lifetime)

    p = sub.add_parser("scaling",
                       help="broadcast cost vs network size (extension)")
    p.add_argument("label", choices=sorted(TOPOLOGY_CLASSES))
    p.add_argument("--sizes", type=int, nargs="+", default=None)
    p.add_argument("--ladder", choices=["paper", "large"], default="paper",
                   help="named size ladder: the paper-scale defaults or "
                        "the 10^4..10^6 large-grid ladder "
                        "(--sizes overrides)")
    p.add_argument("--workers", type=int, default=None,
                   help="compile the sizes in parallel processes")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("broadcast", help="compile and show one broadcast")
    p.add_argument("label", choices=sorted(TOPOLOGY_CLASSES))
    p.add_argument("--source", type=int, nargs="+", required=True)
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.add_argument("--timeline", action="store_true")
    p.set_defaults(func=cmd_broadcast)

    p = sub.add_parser("sweep", help="sweep source positions")
    p.add_argument("label", choices=sorted(TOPOLOGY_CLASSES))
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.add_argument("--stride", type=int, default=8)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel sweep processes (results identical to "
                        "serial)")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="schedule-cache directory shared across runs")
    p.add_argument("--symmetry", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="force (--symmetry) or disable (--no-symmetry) "
                        "the symmetry-reduced sweep; default auto-enables "
                        "it whenever the protocol can group sources into "
                        "translation classes (identical results either "
                        "way)")
    _add_cache_stat_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("query",
                       help="answer one broadcast query through the "
                            "service engine (store-warm hits skip "
                            "compilation)")
    p.add_argument("label", choices=sorted(TOPOLOGY_CLASSES))
    p.add_argument("--source", type=int, nargs="+", required=True)
    p.add_argument("--shape", type=int, nargs="+", default=None)
    p.add_argument("--protocol", default=None,
                   help="protocol name (default: the topology's paper "
                        "protocol)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="artifact-store directory shared with sweeps and "
                        "the server")
    p.add_argument("--max-entries", type=int, default=None,
                   help="memory-tier LRU bound (0 = unbounded; default: "
                        "engine default)")
    p.add_argument("--schedule", action="store_true",
                   help="also print the compiled transmission schedule")
    p.add_argument("--cache-stats", action="store_true",
                   help="print the engine counters line")
    p.add_argument("--connect", metavar="HOST:PORT", default=None,
                   help="send the query to a running server instead of "
                        "answering locally (retrying NDJSON client)")
    p.add_argument("--timeout-ms", type=float, default=None,
                   help="query deadline in milliseconds; expired queries "
                        "are shed server-side before compiling")
    p.add_argument("--retries", type=int, default=4,
                   help="total --connect attempts incl. the first "
                        "(exponential backoff between them; default 4)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("serve",
                       help="serve broadcast queries over NDJSON/TCP "
                            "(asyncio, symmetry-coalescing)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--store", metavar="DIR", default=None,
                   help="artifact-store directory (enables warm restarts "
                        "and --warm)")
    p.add_argument("--max-entries", type=int, default=None,
                   help="memory-tier LRU bound (0 = unbounded; default: "
                        "engine default)")
    p.add_argument("--warm", metavar="LABEL:MxN", action="append",
                   default=None,
                   help="precompute a fleet shape into the store before "
                        "serving, e.g. --warm 2D-4:32x16 (repeatable)")
    p.add_argument("--drain-timeout", type=float, default=5.0,
                   help="seconds granted to in-flight queries on "
                        "SIGTERM/SIGINT before connections drop "
                        "(default 5)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("health",
                       help="probe a running server's health/stats "
                            "endpoint (never triggers a compile)")
    p.add_argument("--connect", metavar="HOST:PORT", required=True,
                   help="server address, e.g. 127.0.0.1:8765")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="socket timeout in seconds (default 10)")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser("store",
                       help="artifact-store maintenance")
    p.add_argument("action", choices=["gc"],
                   help="gc: compact shards — rewrite live bin records, "
                        "reclaim bytes orphaned by crashed writers and "
                        "shard rebuilds (safe under concurrent readers)")
    p.add_argument("store", metavar="DIR",
                   help="artifact-store directory to compact")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("selfcheck", help="validate topologies and protocols")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
