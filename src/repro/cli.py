"""Command-line interface: ``python -m repro <command>``.

Six commands cover the common workflows:

* ``simulate`` — run one pub/sub simulation (a strategy, a workload, a
  movement model) and print the per-subscriber communication figures;
* ``compare``  — run the same world against VM, GM, iGM and idGM and
  print the comparison table (the Figure 7 experiment at one point);
* ``match``    — load a corpus into the four event indexes and time a
  batch of subscription matches (the Figure 8 experiment at one point);
* ``record``   — run a simulation while journaling every operation to a
  trace directory (DESIGN.md §13);
* ``replay``   — re-run a recorded trace through a fresh server (any
  configuration: repair on/off, shards, batch size) and print/diff the
  delivered-notification log;
* ``serve``    — serve an Elaps core on a real TCP port behind the
  backpressure-aware front-end, every
  :class:`~repro.system.config.NetworkConfig` knob exposed.

Every run is deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import List, Optional, Sequence

from .datasets import TwitterLikeGenerator
from .geometry import Rect
from .index import BEQTree, KIndex, OpIndex, QuadTree
from .system import ExperimentConfig, run_experiment
from .system.config import MATCHING_MODES
from .system.experiment import STRATEGIES

_STRATEGY_CHOICES = tuple(STRATEGIES)


def _add_simulation_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("twitter", "foursquare"), default="twitter")
    parser.add_argument("--movement", choices=("synthetic", "taxi"), default="synthetic")
    parser.add_argument("--event-rate", type=float, default=20.0,
                        help="f: events per timestamp (default 20)")
    parser.add_argument("--speed", type=float, default=60.0,
                        help="vs: metres per timestamp (default 60)")
    parser.add_argument("--radius", type=float, default=3000.0,
                        help="r: notification radius in metres (default 3000)")
    parser.add_argument("--events", type=int, default=6000,
                        help="E: initial event corpus size (default 6000)")
    parser.add_argument("--subscribers", type=int, default=10)
    parser.add_argument("--timestamps", type=int, default=120,
                        help="simulation length; one timestamp = 5 s")
    parser.add_argument("--sub-size", type=int, default=3,
                        help="delta: predicates per subscription (default 3)")
    parser.add_argument("--grid", type=int, default=120, help="N: grid resolution")
    parser.add_argument("--ttl", type=int, default=50,
                        help="event validity in timestamps (default 50)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shards", type=int, default=1,
                        help="spatial shards; > 1 runs a ShardedElapsServer "
                             "fleet (column-band grid partitioning)")
    parser.add_argument("--shard-executor",
                        choices=("serial", "process"),
                        default="serial",
                        help="how shard work runs: 'serial' is deterministic "
                             "and in-process, 'process' gives every shard its "
                             "own worker process (true parallel matching)")
    parser.add_argument("--rebalance", action="store_true",
                        help="load-adaptive repartitioning: move the column "
                             "boundaries when one band draws a dominant "
                             "share of the event stream")
    parser.add_argument("--stats", action="store_true",
                        help="print the per-stage latency summary (span "
                             "histograms: count, p50/p95/p99, total) after "
                             "the run")
    parser.add_argument("--slow-span-ms", type=float, default=None,
                        help="report any pipeline span that takes at least "
                             "this many milliseconds as it happens")


def _config_from(args: argparse.Namespace, strategy: str) -> ExperimentConfig:
    return ExperimentConfig(
        strategy=strategy,
        dataset=args.dataset,
        movement=args.movement,
        event_rate=args.event_rate,
        speed=args.speed,
        radius=args.radius,
        initial_events=args.events,
        subscription_size=args.sub_size,
        subscribers=args.subscribers,
        timestamps=args.timestamps,
        grid_n=args.grid,
        event_ttl=args.ttl,
        seed=args.seed,
        shards=args.shards,
        shard_executor=args.shard_executor,
        rebalance=getattr(args, "rebalance", False),
        slow_span_seconds=(
            None if args.slow_span_ms is None else args.slow_span_ms / 1000.0
        ),
    )


def _print_header(args: argparse.Namespace) -> None:
    print(
        f"{args.subscribers} subscribers x {args.timestamps} timestamps on "
        f"{args.dataset}/{args.movement}; f={args.event_rate:g}/tm, "
        f"vs={args.speed:g} m/tm, r={args.radius / 1000:g} km, "
        f"E={args.events}, seed={args.seed}"
        + (
            f"; {args.shards} shards ({args.shard_executor})"
            if getattr(args, "shards", 1) > 1
            else ""
        )
    )


def _print_row(label: str, per: dict, seconds: float) -> None:
    print(
        f"{label:<6} {per['location_update']:>14.2f} {per['event_arrival']:>14.2f} "
        f"{per['total']:>10.2f} {per['notifications']:>14.2f} {seconds:>9.1f}s"
    )


_TABLE_HEADER = (
    f"{'method':<6} {'location upd.':>14} {'event arrival':>14} "
    f"{'total I/O':>10} {'notifications':>14} {'wall':>10}"
)


def _print_span_table(registry, label: str = "") -> None:
    """The per-stage latency summary behind ``--stats``."""
    summaries = registry.tracer.summaries() if registry is not None else {}
    title = f"per-stage latency{f' ({label})' if label else ''}"
    if not summaries:
        print(f"\n{title}: no spans recorded")
        return
    print(f"\n{title}")
    print(f"{'stage':<16} {'count':>9} {'p50 ms':>10} {'p95 ms':>10} "
          f"{'p99 ms':>10} {'total s':>10}")
    for stage, digest in summaries.items():
        print(
            f"{stage:<16} {digest['count']:>9} {digest['p50'] * 1e3:>10.3f} "
            f"{digest['p95'] * 1e3:>10.3f} {digest['p99'] * 1e3:>10.3f} "
            f"{digest['total_seconds']:>10.3f}"
        )


def _command_simulate(args: argparse.Namespace) -> int:
    _print_header(args)
    started = time.perf_counter()
    result = run_experiment(_config_from(args, args.strategy))
    print()
    print(_TABLE_HEADER)
    _print_row(args.strategy, result.per_subscriber(), time.perf_counter() - started)
    if args.stats:
        _print_span_table(result.registry)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    _print_header(args)
    print()
    print(_TABLE_HEADER)
    totals = {}
    span_tables = []
    for strategy in ("VM", "GM", "iGM", "idGM"):
        started = time.perf_counter()
        result = run_experiment(_config_from(args, strategy))
        per = result.per_subscriber()
        totals[strategy] = per["total"]
        span_tables.append((strategy, result.registry))
        _print_row(strategy, per, time.perf_counter() - started)
    if args.stats:
        for strategy, registry in span_tables:
            _print_span_table(registry, strategy)
    best = min(totals, key=totals.get)
    worst = max(totals, key=totals.get)
    if totals[best] > 0:
        print(
            f"\n{best} uses {totals[worst] / totals[best]:.1f}x less "
            f"communication than {worst}"
        )
    return 0


def _command_match(args: argparse.Namespace) -> int:
    space = Rect(0, 0, 50_000, 50_000)
    generator = TwitterLikeGenerator(space, seed=args.seed)
    print(f"loading {args.events} events, matching {args.queries} subscriptions "
          f"(delta={args.sub_size}, r={args.radius / 1000:g} km)")
    events = generator.events(args.events)
    subscriptions = generator.subscriptions(
        args.queries, size=args.sub_size, radius=args.radius
    )
    locations = [event.location for event in events[: args.queries]]
    indexes = {
        "Quadtree": QuadTree(space, max_per_leaf=256),
        "k-index": KIndex(),
        "OpIndex": OpIndex(frequency_hint=generator.frequency_hint()),
        "BEQ-Tree": BEQTree(space, emax=512),
    }
    print(f"\n{'index':<10} {'build (s)':>10} {'per query (ms)':>16} {'matches':>8}")
    reference: Optional[List] = None
    for name, index in indexes.items():
        started = time.perf_counter()
        index.insert_all(events)
        build_seconds = time.perf_counter() - started
        started = time.perf_counter()
        results = [
            sorted(e.event_id for e in index.match(subscription, at))
            for subscription, at in zip(subscriptions, locations)
        ]
        elapsed_ms = (time.perf_counter() - started) * 1000 / args.queries
        if reference is None:
            reference = results
        elif results != reference:
            print(f"ERROR: {name} diverged from the reference results",
                  file=sys.stderr)
            return 1
        print(f"{name:<10} {build_seconds:>10.2f} {elapsed_ms:>16.2f} "
              f"{sum(len(r) for r in results):>8}")
    return 0


#: ExperimentConfig fields persisted to the trace's meta.json so replay
#: can rebuild an equivalent server without re-specifying the world.
_TRACE_META_FIELDS = (
    "strategy", "dataset", "movement", "event_rate", "speed", "radius",
    "initial_events", "subscription_size", "subscribers", "timestamps",
    "grid_n", "emax", "event_ttl", "matching_mode", "seed",
    "shards", "shard_executor", "rebalance", "repair",
)


def _command_record(args: argparse.Namespace) -> int:
    from .system import build_simulation
    from .system.journal import Journal
    from .testing import TraceRecorder

    config = _config_from(args, args.strategy)
    _print_header(args)
    journal = Journal(args.trace)
    recorder = None

    def wrap(server):
        """Interpose the recorder between the simulation and the server."""
        nonlocal recorder
        recorder = TraceRecorder(server, journal)
        return recorder

    started = time.perf_counter()
    simulation = build_simulation(config, wrap_server=wrap)
    result = simulation.run(config.timestamps)
    meta = {name: getattr(config, name) for name in _TRACE_META_FIELDS}
    meta["matching_mode"] = config.resolved_matching_mode
    journal.write_meta(meta)
    record_count = journal.record_count
    recorder.close()
    print(
        f"\nrecorded {record_count} operations "
        f"({result.notification_count} notifications) to {args.trace} "
        f"in {time.perf_counter() - started:.1f}s"
    )
    return 0


def _command_replay(args: argparse.Namespace) -> int:
    from .system import ExperimentConfig, build_server
    from .system.journal import Journal
    from .testing import diff_logs, replay_trace

    meta = Journal(args.trace).read_meta()
    overrides = {
        name: value
        for name, value in (
            ("strategy", args.strategy),
            ("grid_n", args.grid),
            ("matching_mode", args.matching_mode),
            ("shards", args.shards),
            ("shard_executor", args.shard_executor),
            ("rebalance", args.rebalance),
            ("repair", args.repair),
        )
        if value is not None
    }
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    config = ExperimentConfig(
        **{k: v for k, v in meta.items() if k in known}
    ).with_(**overrides)
    server = build_server(config)
    started = time.perf_counter()
    result = replay_trace(args.trace, server, batch_size=args.batch_size)
    elapsed = time.perf_counter() - started
    log = result.log()
    print(
        f"replayed {result.records_applied} records -> "
        f"{len(result.notifications)} notifications in {elapsed:.1f}s "
        f"(sha256 {result.digest()[:16]})"
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(log)
        print(f"log written to {args.out}")
    if args.expect:
        with open(args.expect) as handle:
            expected = handle.read()
        divergence = diff_logs(expected, log)
        if divergence:
            print(f"DIVERGED from {args.expect}: {divergence}", file=sys.stderr)
            return 1
        print(f"byte-identical to {args.expect}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .system import ElapsTCPServer, ExperimentConfig, NetworkConfig
    from .system.experiment import build_server

    world = ExperimentConfig(
        strategy=args.strategy,
        grid_n=args.grid,
        initial_events=args.events,
        event_ttl=args.ttl,
        seed=args.seed,
        repair=args.repair,
    )
    network = NetworkConfig(
        read_timeout=args.read_timeout,
        write_timeout=args.write_timeout,
        retain_subscribers=args.retain_subscribers,
        ingress_queue=args.ingress_queue,
        send_queue=args.send_queue,
        send_queue_hard=args.send_queue_hard,
        slow_consumer_grace=args.slow_consumer_grace,
        max_connections=args.max_connections,
        write_buffer_limit=args.write_buffer_limit,
    )

    async def run() -> None:
        core = build_server(world)
        tcp = ElapsTCPServer(
            core,
            host=args.host,
            port=args.port,
            timestamp_seconds=args.timestamp_seconds,
            config=network,
        )
        await tcp.start()
        print(
            f"serving {world.strategy} core on {tcp.host}:{tcp.port} "
            f"(E={world.initial_events}, send_queue={network.send_queue}/"
            f"{network.hard_cap})",
            flush=True,
        )
        try:
            if args.runtime is not None:
                await asyncio.sleep(args.runtime)
            else:
                await asyncio.Event().wait()  # serve until interrupted
        finally:
            await tcp.stop()
            stats = core.merged_registry().stats
            print(
                f"served: {stats.notifications} notifications, "
                f"{stats.heartbeats} heartbeats, {stats.frames_shed} frames "
                f"shed, {stats.slow_consumer_disconnects} slow-consumer "
                f"disconnects",
                flush=True,
            )

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for `python -m repro`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Elaps: location-aware pub/sub for moving queries over "
                    "dynamic event streams (SIGMOD 2015 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run one strategy and print its communication figures"
    )
    simulate.add_argument("--strategy", choices=_STRATEGY_CHOICES,
                          default="iGM")
    _add_simulation_arguments(simulate)
    simulate.set_defaults(handler=_command_simulate)

    compare = commands.add_parser(
        "compare", help="run all four strategies on the same world"
    )
    _add_simulation_arguments(compare)
    compare.set_defaults(handler=_command_compare)

    match = commands.add_parser(
        "match", help="time subscription matching on the four event indexes"
    )
    match.add_argument("--events", type=int, default=20_000)
    match.add_argument("--queries", type=int, default=40)
    match.add_argument("--sub-size", type=int, default=3)
    match.add_argument("--radius", type=float, default=3_000.0)
    match.add_argument("--seed", type=int, default=7)
    match.set_defaults(handler=_command_match)

    record = commands.add_parser(
        "record", help="run a simulation while journaling every operation "
                       "to a replayable trace directory"
    )
    record.add_argument("--strategy", choices=_STRATEGY_CHOICES,
                        default="iGM")
    record.add_argument("--trace", required=True,
                        help="directory to write the trace journal into")
    _add_simulation_arguments(record)
    record.set_defaults(handler=_command_record)

    replay = commands.add_parser(
        "replay", help="re-run a recorded trace through a fresh server and "
                       "print (or diff) the delivered-notification log"
    )
    replay.add_argument("--trace", required=True,
                        help="trace directory written by `repro record`")
    replay.add_argument("--strategy", choices=_STRATEGY_CHOICES,
                        default=None, help="override the recorded strategy")
    replay.add_argument("--grid", type=int, default=None,
                        help="override the recorded grid resolution")
    replay.add_argument("--matching-mode", choices=MATCHING_MODES,
                        default=None, help="override the matching mode")
    replay.add_argument("--shards", type=int, default=None,
                        help="replay through a sharded fleet of this size")
    replay.add_argument("--shard-executor",
                        choices=("serial", "process"),
                        default=None)
    replay.add_argument("--rebalance", dest="rebalance", action="store_true",
                        default=None,
                        help="replay with load-adaptive repartitioning on")
    replay.add_argument("--repair", dest="repair", action="store_true",
                        default=None, help="replay with incremental repair on")
    replay.add_argument("--no-repair", dest="repair", action="store_false",
                        help="replay with incremental repair off")
    replay.add_argument("--batch-size", type=int, default=None,
                        help="regroup the publish stream: 1 forces single "
                             "publishes, N coalesces same-timestamp arrivals "
                             "into batches of at most N (default: as recorded)")
    replay.add_argument("--out", default=None,
                        help="write the notification log to this file")
    replay.add_argument("--expect", default=None,
                        help="diff the log against this file; non-zero exit "
                             "on any byte difference")
    replay.set_defaults(handler=_command_replay)

    serve = commands.add_parser(
        "serve", help="serve an Elaps core on a TCP port behind the "
                      "backpressure-aware front-end"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0: pick a free one)")
    serve.add_argument("--strategy", choices=_STRATEGY_CHOICES, default="iGM")
    serve.add_argument("--grid", type=int, default=120, help="N: grid resolution")
    serve.add_argument("--events", type=int, default=0,
                       help="E: initial event corpus size (default 0: empty)")
    serve.add_argument("--ttl", type=int, default=None,
                       help="event validity in timestamps (default: no expiry)")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--repair", action="store_true",
                       help="incremental safe-region repair (ships deltas)")
    serve.add_argument("--timestamp-seconds", type=float, default=5.0,
                       help="wall seconds per server timestamp (default 5)")
    serve.add_argument("--runtime", type=float, default=None,
                       help="serve for this many seconds then exit "
                            "(default: until interrupted)")
    # NetworkConfig knobs (defaults match NetworkConfig's)
    serve.add_argument("--read-timeout", type=float, default=30.0)
    serve.add_argument("--write-timeout", type=float, default=10.0)
    serve.add_argument("--retain-subscribers", action="store_true",
                       help="keep subscriber state across disconnects")
    serve.add_argument("--ingress-queue", type=int, default=1024,
                       help="bounded ingress depth; full = stop reading "
                            "(TCP backpressure)")
    serve.add_argument("--send-queue", type=int, default=256,
                       help="per-connection egress soft cap (frames)")
    serve.add_argument("--send-queue-hard", type=int, default=None,
                       help="egress hard cap (default: 2x the soft cap)")
    serve.add_argument("--slow-consumer-grace", type=float, default=2.0,
                       help="seconds a queue may stay over cap before the "
                            "consumer is disconnected")
    serve.add_argument("--max-connections", type=int, default=None,
                       help="admission control: refuse accepts beyond this")
    serve.add_argument("--write-buffer-limit", type=int, default=None,
                       help="cap kernel+transport write buffering (bytes) so "
                            "slow consumers surface in the send queue")
    serve.set_defaults(handler=_command_serve)

    figure = commands.add_parser(
        "figure", help="print a regenerated figure table (run the benchmarks first)"
    )
    figure.add_argument("name", nargs="?", default=None,
                        help="figure id, e.g. fig7a; omit to list available tables")
    figure.set_defaults(handler=_command_figure)

    return parser


def _command_figure(args: argparse.Namespace) -> int:
    import pathlib

    results = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    if not results.is_dir():
        print("no benchmark results yet; run: pytest benchmarks/ --benchmark-only",
              file=sys.stderr)
        return 1
    if args.name is None:
        for path in sorted(results.glob("*.txt")):
            print(path.stem)
        return 0
    path = results / f"{args.name}.txt"
    if not path.is_file():
        print(f"unknown figure {args.name!r}; available: "
              + ", ".join(sorted(p.stem for p in results.glob('*.txt'))),
              file=sys.stderr)
        return 1
    print(path.read_text())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
