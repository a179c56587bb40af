"""End-to-end publish throughput (system claim, not a paper figure).

The paper's bottom line is that Elaps "disseminates events to users in
real-time": the publish path — subscription-index match, impact-index
lookup, the occasional ping/rebuild — must keep up with the stream.
This bench pushes a burst of events through a fully loaded server and
reports events/second, two ways:

* a population sweep on the single-event path (separating index cost
  from subscriber-handling cost),
* the **batched fast path**: the same burst through ``publish_batch``
  at increasing batch sizes, against the one-at-a-time baseline,
* the **repair sweep**: the same burst against an always-rebuild server
  and a repair-enabled one (both measuring bytes), comparing publish
  throughput and downstream wire bytes, and
* the **tracing overhead** check: the batch-64 series with the span
  tracer enabled vs disabled (best-of-N each), plus the per-stage
  latency histogram summaries of the traced run, and
* the **shard scaling** series: the identical batch-64 burst against a
  :class:`ShardedElapsServer` fleet (``SerialExecutor``) at 1 and 4
  shards.  One process buys no CPU parallelism, so the speedup gate
  measures the *algorithmic* win of spatial partitioning: each shard
  constructs safe regions against its own (4x smaller) slice of the
  event corpus and matches arrivals against its own slice of the
  subscriber population, and
* the **process scaling** series: a Zipf-centered *skewed* burst —
  four Gaussian city cores planted inside one static band — through
  process fleets (``ProcessExecutor``) at 1 and 4 shards plus a static
  ``SerialExecutor`` 4-shard fleet.  The static partition stalls
  (nearly every event lands on one band); the load-adaptive fleet
  re-cuts its boundaries into the valleys between the cores during
  warm-up and recovers the per-shard slicing win, and
* the **rebalance** series: the same skewed stream through static vs
  adaptive serial fleets, reporting boundary moves and the max/mean
  band-load imbalance each ends with, and
* the **recovery sweep**: the batch-64 series with the durable journal
  off vs on (best-of-N each — write-ahead logging must be near-free on
  the publish path), plus a **recovery curve** timing ``recover()``
  replay cost at growing journal lengths, and
* the **construct sweep**: a repair-off population sweep on a
  construction-dominated workload (broad single-predicate
  subscriptions over a dense corpus, radius 3 km, bounded region
  budget) run once with the scalar iGM and once with its vectorized
  twin (DESIGN.md §14).  Delivered pairs and construction counts must
  agree exactly — byte-identical cores time the *same* work — and the
  vectorized rows report their speedup over scalar, and
* the **match residual** series (DESIGN.md §16): pure boolean matching
  — ``SubscriptionIndex.match_event`` vs ``match_batch`` at batch 64
  against a head-heavy keyword pool, no server, no geometry — so the
  gate isolates the OpIndex probe amortisation that raises the
  non-parallelisable residual's ceiling in the sharded fleets, and
* the **connection scaling** series (DESIGN.md §17): a paced broadcast
  burst over real TCP to a large subscriber fleet, once with every
  reader prompt and once with a quarter throttled behind a chaos
  proxy.  Bounded per-connection send queues must isolate the fast
  readers (p99 receipt latency at most doubles), hold queue memory at
  the configured hard cap, and every disconnected slow consumer must
  heal to exactly the published set through reconnect + resync once
  the throttle lifts.

Besides the human-readable table, the run emits the machine-readable
``BENCH_throughput.json`` at the repo root (schema v9, documented in
EXPERIMENTS.md).  Nine regression gates are enforced here and
re-checked by the CI bench-smoke job from the JSON: batched throughput
at batch size 64 must stay at least 1.5x the single-event baseline,
repair mode must process at least 2x the always-rebuild events/sec
while shipping strictly fewer bytes down, enabled span tracing must
cost at most 5% of batch-64 throughput, the 4-shard fleet must reach
at least 1.5x the 1-shard batch-64 events/sec, the load-adaptive
4-shard process fleet must reach at least 1.8x the 1-shard events/sec
on the skewed burst when the host has a core per shard (on smaller
hosts, where the parallel axis physically cannot contribute, the gate
falls back to the 1.2x algorithmic floor that load balance alone must
deliver against the batch-matching 1-shard baseline — see the
constant docs for the §16 recalibration), write-ahead journaling must
cost at most 10% of
batch-64 throughput, the vectorized construction core must reach
at least 3x the scalar events/sec at the construct sweep's largest
population, batched OpIndex matching must reach at least 1.5x the
per-event boolean-matching events/sec at batch 64 (with delivered
(sub, event) pairs asserted identical before any timing), and with a
quarter of the fleet reading slowly the fast readers' p99 notification
latency must stay within 2x the all-fast baseline while the send-queue
high-water mark stays at or under the configured hard cap and every
slow consumer heals to delivered-set equality, exactly once.

Run with ``--profile`` to additionally dump a cProfile top-20 of the
benchmark body to ``benchmarks/results/profile_throughput.txt``; run
with ``--stats`` (optionally ``--slow-span-ms N``) to print the traced
run's per-stage latency table.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import pathlib
import random
import tempfile
import time
from typing import Dict, List, Optional

from repro.core import IGM, VectorizedIGM
from repro.datasets import SkewedLocationSampler, TwitterLikeGenerator
from repro.expressions import BooleanExpression, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree, SubscriptionIndex
from repro.system import (
    CallbackTransport,
    ClientConfig,
    ElapsNetworkClient,
    ElapsServer,
    ElapsTCPServer,
    JournalSpec,
    NetworkConfig,
    ProcessExecutor,
    RebalancePolicy,
    ReconnectPolicy,
    ResilientElapsClient,
    SerialExecutor,
    ServerConfig,
    ShardedElapsServer,
)
from repro.system.protocol import NotificationMessage
from repro.testing import FaultConfig, chaos_proxy

from config import FAST, format_table

SPACE = Rect(0, 0, 50_000, 50_000)
BURST = 512 if FAST else 2_048
CORPUS = 2_000 if FAST else 6_000
POPULATIONS = (0, 10, 50) if FAST else (0, 25, 100)
BATCH_SIZES = (16, 64)
BATCH_SUBSCRIBERS = POPULATIONS[-1]
REQUIRED_SPEEDUP_AT_64 = 1.5
REQUIRED_REPAIR_SPEEDUP = 2.0
#: enabled-tracing overhead ceiling on batch-64 throughput (fraction)
MAX_TRACING_OVERHEAD = 0.05
#: best-of rounds per tracing mode; the max filters scheduler noise
OVERHEAD_ROUNDS = 3
#: the shard-scaling series: batch-64 through a sharded fleet.  The
#: workload is tuned so spatial partitioning actually pays: a corpus
#: large enough that per-shard construction cost dominates, a small
#: radius and a bounded region budget so most subscribers stay
#: single-homed (multi-homing erodes the per-shard index advantage).
SHARD_COUNTS = (1, 4)
SHARD_SUBSCRIBERS = 300
SHARD_RADIUS = 600.0
SHARD_MAX_CELLS = 200
SHARD_CORPUS = 8_000
#: fixed, dedicated burst for the scaling series: homes are sticky, so a
#: longer stream steadily multi-homes more subscribers and measures
#: erosion, not scaling.  The series draws its own events (rather than
#: slicing the main burst) so FAST and full mode measure identical work.
SHARD_BURST = 512
SHARD_ROUNDS = 5
REQUIRED_SHARD_SPEEDUP = 1.5
#: the process-fleet scaling series (DESIGN.md §15): a Zipf-centered
#: skewed burst — four Gaussian city cores inside one static band — where
#: a *static* column partition stalls (nearly every event lands on one
#: shard, so the serial 4-shard fleet degenerates to the 1-shard
#: cost), while the load-adaptive process fleet re-cuts the boundaries
#: into the inter-core valleys and recovers the per-shard corpus/population
#: slicing win.  The gate compares process fleets at 4 vs 1 shard, so it
#: measures partitioning, not pipe overhead.
PROC_SHARDS = 4
PROC_GRID_N = 600
PROC_CORPUS = 600
PROC_SUBSCRIBERS = 3_000
PROC_RADIUS = 80.0
PROC_MAX_CELLS = 9
PROC_WARM = 384
PROC_BURST = 1_024 if FAST else 1_536
#: fan-out batch for the fleet series.  Large on purpose: every batch
#: costs one pipe round-trip per participating worker, and on a busy
#: single-core host a pipe write can stall for a scheduler quantum —
#: small batches measure the kernel's wake-up latency, not the fleet.
PROC_BATCH = 256
PROC_ROUNDS = 3 if FAST else 4
#: the multicore contract: with one core per shard, the balanced fleet
#: must beat the 1-shard process baseline by winning on *both* axes —
#: real CPU parallelism times the per-shard corpus/population slicing.
#: Recalibrated for the batched OpIndex matcher (DESIGN.md §16): the
#: 1-shard baseline now amortises matching inside its own 256-event
#: batches (this matching-heavy skewed series measured the baseline
#: +128% events/sec), so the same fleet throughput reads as a smaller
#: *ratio* — absolute fleet events/sec went up, the denominator went
#: up more.  Per-shard sub-batches (~64 events) amortise less and the
#: fleet's matching work was already population-sliced 4 ways.
REQUIRED_PROCESS_SPEEDUP = 1.8
#: on hosts with fewer cores than shards the parallel axis physically
#: cannot contribute (K workers time-share one CPU), so the gate falls
#: back to the algorithmic floor: what load balance alone must deliver
#: while the static partition sits at ~1x (measured ~1.4x against the
#: batch-matching 1-shard baseline, ~2.2x before it).
REQUIRED_PROCESS_SPEEDUP_UNICORE = 1.2
#: the connection-scaling series (DESIGN.md §17): the same broadcast
#: burst against a mixed TCP fleet, once with every reader prompt and
#: once with a quarter of them throttled behind a chaos proxy.  The
#: bounded per-connection send queues must isolate the fast readers
#: from the slow ones (their p99 notification latency may at most
#: double), keep queue memory at the hard cap, and the disconnected
#: slow consumers must heal to exactly the published set once the
#: throttle lifts (PR 1 resync).
CONN_CLIENTS = 64 if FAST else 256
CONN_SLOW_SHARE = 0.25
CONN_EVENTS = 80 if FAST else 150
#: publish pacing: one event every 4 ms keeps the stream inside the
#: paper's real-time regime so receipt latency measures queueing, not a
#: saturated publisher
CONN_PACE = 0.004
#: queue caps sized against the burst: the kernel buffers ~30 padded
#: frames between server and stalled proxy, so the remaining backlog
#: must clear the hard cap with margin for the disconnect to fire
#: while the burst is still being offered
CONN_SEND_QUEUE = 16
CONN_SEND_QUEUE_HARD = 32
CONN_GRACE = 0.3
CONN_WRITE_BUFFER = 4096
#: proxy delay per server->client frame for the throttled quarter
CONN_THROTTLE = 0.05
#: SO_RCVBUF clamp on the proxy's server-facing sockets: without it
#: the kernel auto-tunes megabytes of buffer for the stalled reader
#: and the send queues never see the backlog
CONN_PROXY_RCVBUF = 8_192
#: padded payload: the burst must decisively exceed the ~128 KiB the
#: kernel buffers between the server (SO_SNDBUF clamped to
#: CONN_WRITE_BUFFER) and the stalled proxy reader, or the slow
#: consumers never back up into their send queues
CONN_PAD = "x" * 4096
REQUIRED_CONN_P99_RATIO = 2.0
#: best-of rounds per mode: a shared host can stall the loop for tens
#: of milliseconds, which taints the p99 of a sub-second burst in
#: either mode — the min-p99 round reflects the queueing behaviour,
#: while the correctness fields (healed, exactly-once, high-water) are
#: aggregated conservatively across every round
CONN_ROUNDS = 2
#: ratio floor: on an idle host the all-fast p99 can land in the tens
#: of microseconds, where doubling it measures scheduler jitter rather
#: than backpressure isolation — the baseline is clamped up to this
#: many seconds before the ratio gate is applied
CONN_P99_FLOOR = 0.005


def _process_required_speedup() -> float:
    cores = os.cpu_count() or 1
    if cores >= PROC_SHARDS:
        return REQUIRED_PROCESS_SPEEDUP
    return REQUIRED_PROCESS_SPEEDUP_UNICORE
#: four Zipf-weighted urban cores, all inside static band 1 of 4
#: (12.5–25 km on the 50 km space): the static partition funnels ~96%
#: of the stream into one shard, while the load-balanced cut lands in
#: the *valleys* between the cores, so re-cut bands carry one core each
#: and almost no subscriber sits close enough to a boundary to
#: multi-home.  Centers are listed in Zipf *rank* order (heaviest
#: first), interleaved in space so the extra mass of the inner cores
#: walks each load quarter-mark onto a core's right edge — with equal
#: weights the 50% and 75% marks would land structurally inside the
#: next core's left tail (the uniform background accrues too slowly
#: over the left half of the space to make up the difference).
PROC_HOT_CENTERS = (
    Point(17_000.0, 25_000.0),
    Point(20_000.0, 25_000.0),
    Point(14_000.0, 25_000.0),
    Point(23_000.0, 25_000.0),
)
PROC_HOT_STD_FRACTION = 0.016  # sigma = 800 m of the 50 km space
PROC_UNIFORM_FRACTION = 0.04
PROC_ZIPF_S = 0.12
#: subscriber cores sit this far off the event cores in y (same columns)
PROC_ANCHOR_Y_OFFSET = 2_500.0
PROC_POLICY = RebalancePolicy(check_every=64, min_events=384, max_imbalance=1.5)
#: write-ahead journaling overhead ceiling on batch-64 throughput
MAX_JOURNAL_OVERHEAD = 0.10
#: journal-length fractions of the burst timed by the recovery curve
RECOVERY_FRACTIONS = (0.25, 0.5, 1.0)
#: the construct sweep: a repair-off population sweep tuned so safe-region
#: construction dominates the publish path — broad single-predicate
#: subscriptions make most of the corpus be-matching (thousands of events
#: dilated per rebuild), the 3 km radius grows the dilation disk, and the
#: bounded region budget keeps frontiers small relative to field work.
CONSTRUCT_SUBSCRIBERS = (25, 50) if FAST else (25, 100)
CONSTRUCT_CORPUS = 2_000 if FAST else 6_000
CONSTRUCT_BURST = 192 if FAST else 512
CONSTRUCT_RADIUS = 3_000.0
CONSTRUCT_MAX_CELLS = 300
CONSTRUCT_SUBSCRIPTION_SIZE = 1
CONSTRUCT_ROUNDS = 2
REQUIRED_CONSTRUCT_SPEEDUP = 3.0
#: the match-residual series (DESIGN.md §16): pure boolean-matching
#: throughput of the bare SubscriptionIndex, with no server, no spatial
#: work, and no construction — the residual bill that survives once
#: batching and sharding have amortized everything else.  The batched
#: matcher groups each 64-event chunk by attribute signature and probes
#: every operator group once per *distinct* value, so the Zipf-skewed
#: vocabulary (many repeated values per batch) is exactly the workload
#: where amortization pays.
MATCH_SUBSCRIBERS = 3_000
MATCH_BURST = 1_024 if FAST else 4_096
MATCH_BATCH = BATCH_SIZES[-1]
MATCH_ROUNDS = 4
#: predicate mix of the residual pool — the interval-converted end of
#: the AOL mix: presence probes, *selective* two-wide intervals, and
#: exact frequencies.  Narrow windows keep the hit volume (whose
#: per-hit counting cost neither path can amortise) low relative to
#: probe work, which is exactly the share batching amortises.
MATCH_PRESENCE_SHARE = 0.30
MATCH_INTERVAL_SHARE = 0.50
MATCH_SUBSCRIPTION_SIZE = 3
#: subscriptions concentrate on the head of the vocabulary (AOL head
#: terms): with a small pivot pool a 64-event batch re-encounters the
#: same (attribute, value) probes — the regime batched matching exists
#: for.  The event stream still draws from the full 400-word Zipf
#: vocabulary.
MATCH_POOL_WORDS = 20
REQUIRED_MATCH_SPEEDUP = 1.5
#: matching's assumed share of the sharded batch-64 publish bill — the
#: serial residual the shard axis cannot split (every shard matches its
#: own arrivals in full).  Used to project the raised 4-shard
#: algorithmic ceiling in ``match_gate``: Amdahl with the non-matching
#: share split 4 ways and the matching share sped up by the measured
#: batch-matching factor.
MATCH_RESIDUAL_SHARE = 0.21
JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def _loaded_server(
    generator,
    subscriber_count: int,
    *,
    repair: bool = False,
    measure_bytes: bool = False,
    journal: Optional[JournalSpec] = None,
) -> ElapsServer:
    server = ElapsServer(
        Grid(120, SPACE),
        IGM(max_cells=2_500),
        ServerConfig(initial_rate=20.0, repair=repair,
                     measure_bytes=measure_bytes, journal=journal),
        event_index=BEQTree(SPACE, emax=512),
        subscription_index=SubscriptionIndex(generator.frequency_hint()))
    server.bootstrap(generator.events(CORPUS))
    subscriptions = generator.subscriptions(subscriber_count, size=3)
    anchors = generator.events(subscriber_count, seed_offset=3)
    for subscription, anchor in zip(subscriptions, anchors):
        server.subscribe(subscription, anchor.location, Point(60, 10), now=0)
    # stationary clients: the locator answers with the subscribe position
    positions = {s.sub_id: a.location for s, a in zip(subscriptions, anchors)}
    server.transport = CallbackTransport(
        locate=lambda sub_id: (positions[sub_id], Point(60, 10)))
    return server


def _population_sweep(generator, burst) -> List[Dict]:
    rows: List[Dict] = []
    for population in POPULATIONS:
        server = _loaded_server(generator, population)
        started = time.perf_counter()
        notifications = 0
        for t, event in enumerate(burst, start=1):
            notifications += len(server.publish(event, now=t))
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "subscribers": population,
                "events": len(burst),
                "notifications": notifications,
                "events_per_second": len(burst) / elapsed,
            }
        )
    return rows


def _batch_comparison(generator, burst) -> List[Dict]:
    """Single baseline vs ``publish_batch`` at each batch size.

    Every mode processes the identical burst against an identically
    loaded server; delivered (sub, event) pairs must agree, so the rows
    are comparable work, not different work.
    """
    rows: List[Dict] = []
    delivered_baseline = None
    for batch_size in (1, *BATCH_SIZES):
        server = _loaded_server(generator, BATCH_SUBSCRIBERS)
        started = time.perf_counter()
        delivered = set()
        if batch_size == 1:
            for t, event in enumerate(burst, start=1):
                for n in server.publish(event, now=t):
                    delivered.add((n.sub_id, n.event.event_id))
        else:
            for i in range(0, len(burst), batch_size):
                now = i // batch_size + 1
                for n in server.publish_batch(burst[i : i + batch_size], now):
                    delivered.add((n.sub_id, n.event.event_id))
        elapsed = time.perf_counter() - started
        if delivered_baseline is None:
            delivered_baseline = delivered
        assert delivered == delivered_baseline, "batched path changed deliveries"
        stats = server.metrics.as_dict()
        rows.append(
            {
                "mode": "single" if batch_size == 1 else "batched",
                "batch_size": batch_size,
                "events": len(burst),
                "seconds": elapsed,
                "events_per_second": len(burst) / elapsed,
                "notifications": len(delivered),
                "constructions": stats["constructions"],
                "event_arrival_rounds": stats["event_arrival_rounds"],
                "leaf_probes_saved": stats["leaf_probes_saved"],
                "cache_hits": stats["cache_hits"],
            }
        )
    baseline = rows[0]["events_per_second"]
    for row in rows:
        row["speedup_vs_single"] = row["events_per_second"] / baseline
    return rows


def _repair_comparison(generator, burst) -> List[Dict]:
    """Always-rebuild vs incremental repair on the identical stream.

    Both servers measure bytes (the wire saving is the point); the
    delivered (sub, event) pairs must agree — notification streams are
    pinned by geometry, not region policy — so the rows time the same
    observable work.
    """
    rows: List[Dict] = []
    delivered_baseline = None
    for repair in (False, True):
        server = _loaded_server(
            generator, BATCH_SUBSCRIBERS, repair=repair, measure_bytes=True
        )
        started = time.perf_counter()
        delivered = set()
        for t, event in enumerate(burst, start=1):
            for n in server.publish(event, now=t):
                delivered.add((n.sub_id, n.event.event_id))
        elapsed = time.perf_counter() - started
        if delivered_baseline is None:
            delivered_baseline = delivered
        assert delivered == delivered_baseline, "repair changed deliveries"
        stats = server.metrics.as_dict()
        rows.append(
            {
                "mode": "repair" if repair else "rebuild",
                "events": len(burst),
                "seconds": elapsed,
                "events_per_second": len(burst) / elapsed,
                "notifications": len(delivered),
                "constructions": stats["constructions"],
                "repairs": stats["repairs"],
                "repair_fallbacks": stats["repair_fallbacks"],
                "wire_bytes_down": stats["wire_bytes_down"],
                "delta_region_bytes": stats["delta_region_bytes"],
            }
        )
    baseline = rows[0]["events_per_second"]
    for row in rows:
        row["speedup_vs_rebuild"] = row["events_per_second"] / baseline
    return rows


def _tracing_overhead(generator, burst, slow_threshold=None):
    """Batch-64 throughput with the span tracer off vs on.

    Each mode runs ``OVERHEAD_ROUNDS`` times on a freshly loaded server
    and keeps its best events/sec — the max is the least noisy estimator
    of attainable throughput, which is what an overhead ratio should
    compare.  Returns the two rows, the measured overhead fraction, and
    the traced run's per-stage histogram summaries.
    """
    rows: List[Dict] = []
    summaries: Dict[str, Dict[str, float]] = {}
    batch_size = BATCH_SIZES[-1]
    for enabled in (False, True):
        best = 0.0
        for _ in range(OVERHEAD_ROUNDS):
            server = _loaded_server(generator, BATCH_SUBSCRIBERS)
            server.tracer.enabled = enabled
            server.tracer.slow_threshold = slow_threshold if enabled else None
            started = time.perf_counter()
            for i in range(0, len(burst), batch_size):
                server.publish_batch(burst[i : i + batch_size], i // batch_size + 1)
            elapsed = time.perf_counter() - started
            best = max(best, len(burst) / elapsed)
            if enabled:
                summaries = server.registry.tracer.summaries()
        rows.append(
            {
                "mode": "traced" if enabled else "untraced",
                "batch_size": batch_size,
                "events": len(burst),
                "rounds": OVERHEAD_ROUNDS,
                "events_per_second": best,
            }
        )
    untraced = rows[0]["events_per_second"]
    traced = rows[1]["events_per_second"]
    # signed: a negative overhead means the instrumented run measured
    # *faster*, i.e. the difference is inside the noise — report that
    overhead = 1.0 - traced / untraced
    for row in rows:
        row["overhead_vs_untraced"] = 1.0 - row["events_per_second"] / untraced
    return rows, overhead, summaries


def _loaded_sharded_server(generator, shards: int) -> ShardedElapsServer:
    """A sharded fleet loaded with the shard-scaling workload.

    The global region budget is split across the bands: the client-held
    region is the K-way intersection of per-shard regions, so each shard
    gets ``SHARD_MAX_CELLS / K`` — deliveries are identical, but a shard
    never burns budget expanding over columns it does not own.
    """
    per_shard_cells = max(1, SHARD_MAX_CELLS // shards)
    server = ShardedElapsServer(
        Grid(120, SPACE),
        lambda spec: IGM(max_cells=per_shard_cells),
        ServerConfig(initial_rate=20.0),
        shards=shards,
        executor=SerialExecutor(),
        event_index_factory=lambda: BEQTree(SPACE, emax=512),
        subscription_index_factory=lambda: SubscriptionIndex(
            generator.frequency_hint()
        ),
    )
    server.bootstrap(generator.events(SHARD_CORPUS))
    subscriptions = generator.subscriptions(
        SHARD_SUBSCRIBERS, size=3, radius=SHARD_RADIUS
    )
    anchors = generator.events(SHARD_SUBSCRIBERS, seed_offset=3)
    for subscription, anchor in zip(subscriptions, anchors):
        server.subscribe(subscription, anchor.location, Point(60, 10), now=0)
    positions = {s.sub_id: a.location for s, a in zip(subscriptions, anchors)}
    server.transport = CallbackTransport(
        locate=lambda sub_id: (positions[sub_id], Point(60, 10)))
    return server


def _shard_scaling(generator) -> List[Dict]:
    """Batch-64 through the sharded fleet at each shard count.

    Each shard count runs ``SHARD_ROUNDS`` times on a freshly loaded
    fleet and keeps its best events/sec (the same best-of estimator the
    tracing series uses).  Delivered (sub, event) pairs must agree
    across shard counts — sharding must never change a delivery.
    """
    batch_size = BATCH_SIZES[-1]
    burst = generator.events(SHARD_BURST, start_id=20_000_000, seed_offset=11)
    best = {shards: 0.0 for shards in SHARD_COUNTS}
    multi_homed = {shards: 0 for shards in SHARD_COUNTS}
    delivered: Dict[int, set] = {}
    # rounds are interleaved across shard counts so slow temporal drift
    # (thermal, allocator state after the earlier series) hits every
    # count equally instead of biasing whichever ran last
    for _ in range(SHARD_ROUNDS):
        for shards in SHARD_COUNTS:
            server = _loaded_sharded_server(generator, shards)
            multi_homed[shards] = sum(
                1 for record in server.subscribers.values()
                if len(record.homes) > 1
            )
            gc.collect()
            started = time.perf_counter()
            round_delivered = set()
            for i in range(0, len(burst), batch_size):
                now = i // batch_size + 1
                for n in server.publish_batch(burst[i : i + batch_size], now):
                    round_delivered.add((n.sub_id, n.event.event_id))
            elapsed = time.perf_counter() - started
            server.close()
            best[shards] = max(best[shards], len(burst) / elapsed)
            previous = delivered.setdefault(shards, round_delivered)
            assert previous == round_delivered, "sharded delivery is unstable"
    baseline_delivered = delivered[SHARD_COUNTS[0]]
    rows: List[Dict] = []
    for shards in SHARD_COUNTS:
        assert delivered[shards] == baseline_delivered, (
            "sharding changed deliveries"
        )
        rows.append(
            {
                "shards": shards,
                "executor": "serial",
                "batch_size": batch_size,
                "events": len(burst),
                "rounds": SHARD_ROUNDS,
                "subscribers": SHARD_SUBSCRIBERS,
                "multi_homed": multi_homed[shards],
                "notifications": len(delivered[shards]),
                "events_per_second": best[shards],
            }
        )
    baseline = rows[0]["events_per_second"]
    for row in rows:
        row["speedup_vs_one_shard"] = row["events_per_second"] / baseline
    return rows


def _skewed_generator(y_offset: float = 0.0) -> TwitterLikeGenerator:
    """The spatially skewed workload: ~96% of locations from four tight
    Gaussian cores pinned inside one static band, plus a thin uniform
    background.  ``y_offset`` shifts the cores off the column axis —
    columns (and so shard routing) are unchanged, but the shifted
    population no longer sits inside the unshifted one's radii."""
    return TwitterLikeGenerator(
        SPACE,
        seed=53,
        locations=SkewedLocationSampler(
            SPACE,
            hotspots=len(PROC_HOT_CENTERS),
            centers=[
                Point(center.x, center.y + y_offset)
                for center in PROC_HOT_CENTERS
            ],
            hotspot_std_fraction=PROC_HOT_STD_FRACTION,
            uniform_fraction=PROC_UNIFORM_FRACTION,
            zipf_s=PROC_ZIPF_S,
            seed=53,
        ),
    )


def _loaded_skewed_fleet(generator, shards, executor, policy=None):
    """A fleet loaded with the skewed workload: corpus and subscribers
    both drawn from the hotspot mixture.

    Unlike the shard-scaling series, every shard keeps the same (small)
    region budget the single server gets: splitting a large budget would
    hand *any* 4-shard fleet cheaper constructions, balanced or not, and
    this series isolates the one effect budget can't buy — balance.
    What partitioning splits is the per-arrival matching bill: each
    event is matched against its owner shard's registered population.
    The static fleet funnels nearly every event into the one band owning
    nearly every subscriber and so repeats the single-server bill; the
    adaptive cut, landing in the valleys between the hot cores, splits
    it four ways."""
    server = ShardedElapsServer(
        Grid(PROC_GRID_N, SPACE),
        lambda spec: IGM(max_cells=PROC_MAX_CELLS),
        ServerConfig(initial_rate=20.0),
        shards=shards,
        executor=executor,
        event_index_factory=lambda: BEQTree(SPACE, emax=512),
        subscription_index_factory=lambda: SubscriptionIndex(
            generator.frequency_hint()
        ),
        rebalance=policy,
    )
    server.bootstrap(generator.events(PROC_CORPUS))
    subscriptions = generator.subscriptions(
        PROC_SUBSCRIBERS, size=3, radius=PROC_RADIUS
    )
    # Subscribers live in the same four hot *columns* as the stream (so
    # the static partition funnels them onto one shard) but sit a couple
    # of kilometres off the event cores in y: arrivals pay the full
    # content-matching bill against the owner shard's population without
    # constantly invalidating the nearby safe regions — which would add
    # reconstruction work that no partition, balanced or not, can split.
    anchors = _skewed_generator(y_offset=PROC_ANCHOR_Y_OFFSET).events(
        PROC_SUBSCRIBERS, seed_offset=3
    )
    for subscription, anchor in zip(subscriptions, anchors):
        server.subscribe(subscription, anchor.location, Point(60, 10), now=0)
    positions = {s.sub_id: a.location for s, a in zip(subscriptions, anchors)}
    server.transport = CallbackTransport(
        locate=lambda sub_id: (positions[sub_id], Point(60, 10)))
    return server


#: the three process-scaling configurations: (executor kind, K, adaptive)
PROC_CONFIGS = (
    ("process", 1, False),
    ("process", PROC_SHARDS, True),
    ("serial", PROC_SHARDS, False),
)


def _process_scaling(generator) -> List[Dict]:
    """The skewed burst through each process-scaling configuration.

    Every configuration processes the identical warm-up (during which
    the adaptive fleet's policy fires) and the identical timed burst
    from an identically loaded state; the delivered (sub, event) pair
    sets must agree across configurations and rounds before the timing
    numbers mean anything — partitioning must never change a delivery.
    Best-of-``PROC_ROUNDS``, rounds interleaved across configurations.
    """
    warm = generator.events(PROC_WARM, start_id=30_000_000, seed_offset=13)
    burst = generator.events(PROC_BURST, start_id=31_000_000, seed_offset=17)
    best: Dict[tuple, float] = {}
    rebalances: Dict[tuple, int] = {}
    multi_homed: Dict[tuple, int] = {}
    delivered: Dict[tuple, set] = {}
    for _ in range(PROC_ROUNDS):
        for key in PROC_CONFIGS:
            kind, shards, adaptive = key
            server = _loaded_skewed_fleet(
                generator,
                shards,
                ProcessExecutor() if kind == "process" else SerialExecutor(),
                policy=PROC_POLICY if adaptive else None,
            )
            pairs = set()
            for i in range(0, len(warm), PROC_BATCH):
                now = i // PROC_BATCH + 1
                for n in server.publish_batch(warm[i : i + PROC_BATCH], now):
                    pairs.add((n.sub_id, n.event.event_id))
            if adaptive:
                assert server.rebalances >= 1, (
                    "the rebalance policy never fired on the skewed stream"
                )
            rebalances[key] = server.rebalances
            multi_homed[key] = sum(
                1 for record in server.subscribers.values()
                if len(record.homes) > 1
            )
            gc.collect()
            started = time.perf_counter()
            for i in range(0, len(burst), PROC_BATCH):
                now = 100 + i // PROC_BATCH
                for n in server.publish_batch(burst[i : i + PROC_BATCH], now):
                    pairs.add((n.sub_id, n.event.event_id))
            elapsed = time.perf_counter() - started
            server.close()
            best[key] = max(best.get(key, 0.0), len(burst) / elapsed)
            previous = delivered.setdefault(key, pairs)
            assert previous == pairs, "process-fleet delivery is unstable"
    baseline_pairs = delivered[PROC_CONFIGS[0]]
    rows: List[Dict] = []
    for key in PROC_CONFIGS:
        assert delivered[key] == baseline_pairs, (
            "partitioning changed deliveries"
        )
        kind, shards, adaptive = key
        rows.append(
            {
                "executor": kind,
                "shards": shards,
                "rebalance": adaptive,
                "rebalances": rebalances[key],
                "batch_size": PROC_BATCH,
                "events": len(burst),
                "rounds": PROC_ROUNDS,
                "subscribers": PROC_SUBSCRIBERS,
                "multi_homed": multi_homed[key],
                "notifications": len(delivered[key]),
                "events_per_second": best[key],
            }
        )
    baseline = rows[0]["events_per_second"]
    for row in rows:
        row["speedup_vs_one_shard"] = row["events_per_second"] / baseline
    return rows


def _rebalance_series(generator) -> List[Dict]:
    """Policy behaviour on the skewed stream: a static fleet ends with
    one band owning most of the load; the adaptive fleet must have moved
    its boundaries and ended measurably flatter."""
    stream = generator.events(
        PROC_WARM + PROC_BURST, start_id=32_000_000, seed_offset=19
    )
    rows: List[Dict] = []
    for mode, policy in (("static", None), ("adaptive", PROC_POLICY)):
        server = _loaded_skewed_fleet(
            generator, PROC_SHARDS, SerialExecutor(), policy=policy
        )
        for i in range(0, len(stream), PROC_BATCH):
            server.publish_batch(stream[i : i + PROC_BATCH], i // PROC_BATCH + 1)
        loads = server.shard_loads()
        mean = sum(loads) / len(loads)
        rows.append(
            {
                "mode": mode,
                "shards": PROC_SHARDS,
                "events": len(stream),
                "rebalances": server.rebalances,
                "bounds": [spec.col_lo for spec in server.specs]
                + [server.grid.n],
                "imbalance": (max(loads) / mean) if mean else 0.0,
            }
        )
        server.close()
    return rows


def _run_journaled_burst(generator, burst, batch_size, journal):
    """One batch-``batch_size`` pass of ``burst``; returns events/sec."""
    server = _loaded_server(generator, BATCH_SUBSCRIBERS, journal=journal)
    gc.collect()
    started = time.perf_counter()
    for i in range(0, len(burst), batch_size):
        server.publish_batch(burst[i : i + batch_size], i // batch_size + 1)
    elapsed = time.perf_counter() - started
    server.close()
    return len(burst) / elapsed


def _journal_overhead(generator, burst, workdir):
    """Batch-64 throughput with the durable journal off vs on.

    Same estimator as the tracing series: each mode runs
    ``OVERHEAD_ROUNDS`` times against a freshly loaded server (and, for
    the journaled mode, a fresh journal directory) and keeps its best
    events/sec.  The write-ahead append sits on the publish hot path, so
    this ratio *is* the durability tax.
    """
    rows: List[Dict] = []
    batch_size = BATCH_SIZES[-1]
    for journaled in (False, True):
        best = 0.0
        for round_index in range(OVERHEAD_ROUNDS):
            spec = None
            if journaled:
                spec = JournalSpec(str(workdir / f"overhead-{round_index}"))
            best = max(
                best, _run_journaled_burst(generator, burst, batch_size, spec)
            )
        rows.append(
            {
                "mode": "journaled" if journaled else "plain",
                "batch_size": batch_size,
                "events": len(burst),
                "rounds": OVERHEAD_ROUNDS,
                "events_per_second": best,
            }
        )
    plain = rows[0]["events_per_second"]
    overhead = 1.0 - rows[1]["events_per_second"] / plain  # signed, as above
    for row in rows:
        row["overhead_vs_plain"] = 1.0 - row["events_per_second"] / plain
    return rows, overhead


def _recovery_curve(generator, burst, workdir) -> List[Dict]:
    """Cold-restart ``recover()`` cost at growing journal lengths.

    Each fraction journals that prefix of the burst (plus the bootstrap
    and subscribe preamble) and then times a fresh server replaying the
    log.  Recovery is a pure replay, so the curve should grow linearly
    in the record count — a super-linear bend means the restore path
    regressed.
    """
    batch_size = BATCH_SIZES[-1]
    rows: List[Dict] = []
    for fraction in RECOVERY_FRACTIONS:
        spec = JournalSpec(str(workdir / f"curve-{fraction}"))
        prefix = burst[: max(batch_size, int(len(burst) * fraction))]
        server = _loaded_server(generator, BATCH_SUBSCRIBERS, journal=spec)
        for i in range(0, len(prefix), batch_size):
            server.publish_batch(prefix[i : i + batch_size], i // batch_size + 1)
        server.close()

        cold = ElapsServer(
            Grid(120, SPACE),
            IGM(max_cells=2_500),
            ServerConfig(initial_rate=20.0, journal=spec),
            event_index=BEQTree(SPACE, emax=512),
            subscription_index=SubscriptionIndex(generator.frequency_hint()))
        gc.collect()
        started = time.perf_counter()
        records = cold.recover()
        elapsed = time.perf_counter() - started
        cold.close()
        rows.append(
            {
                "fraction": fraction,
                "records": records,
                "recover_seconds": elapsed,
                "records_per_second": records / elapsed if elapsed else 0.0,
            }
        )
    return rows


def _construct_loaded_server(generator, strategy_cls, population) -> ElapsServer:
    """A server loaded with the construct-sweep workload."""
    server = ElapsServer(
        Grid(120, SPACE),
        strategy_cls(max_cells=CONSTRUCT_MAX_CELLS),
        ServerConfig(initial_rate=20.0),
        event_index=BEQTree(SPACE, emax=512),
        subscription_index=SubscriptionIndex(generator.frequency_hint()))
    server.bootstrap(generator.events(CONSTRUCT_CORPUS))
    subscriptions = generator.subscriptions(
        population, size=CONSTRUCT_SUBSCRIPTION_SIZE, radius=CONSTRUCT_RADIUS
    )
    anchors = generator.events(population, seed_offset=3)
    for subscription, anchor in zip(subscriptions, anchors):
        server.subscribe(subscription, anchor.location, Point(60, 10), now=0)
    positions = {s.sub_id: a.location for s, a in zip(subscriptions, anchors)}
    server.transport = CallbackTransport(
        locate=lambda sub_id: (positions[sub_id], Point(60, 10)))
    return server


def _construct_sweep(generator) -> List[Dict]:
    """Scalar vs vectorized iGM on the construction-dominated sweep.

    Every (population, strategy) cell runs ``CONSTRUCT_ROUNDS`` times on a
    freshly loaded server and keeps its best events/sec; rounds are
    interleaved across cells so temporal drift hits both strategies
    equally.  Within a population the two strategies must deliver the
    identical (sub, event) pairs and perform the identical number of
    constructions — the cores are byte-identical, so any divergence here
    is a correctness bug, not noise.
    """
    strategies = (("iGM", IGM), ("iGM-vec", VectorizedIGM))
    burst = generator.events(CONSTRUCT_BURST, start_id=30_000_000, seed_offset=13)
    best: Dict[tuple, float] = {}
    observed: Dict[tuple, tuple] = {}
    for _ in range(CONSTRUCT_ROUNDS):
        for population in CONSTRUCT_SUBSCRIBERS:
            for name, strategy_cls in strategies:
                server = _construct_loaded_server(generator, strategy_cls, population)
                gc.collect()
                started = time.perf_counter()
                delivered = set()
                for t, event in enumerate(burst, start=1):
                    for n in server.publish(event, now=t):
                        delivered.add((n.sub_id, n.event.event_id))
                elapsed = time.perf_counter() - started
                stats = server.metrics.as_dict()
                key = (population, name)
                best[key] = max(best.get(key, 0.0), len(burst) / elapsed)
                observed[key] = (delivered, stats["constructions"])
    rows: List[Dict] = []
    for population in CONSTRUCT_SUBSCRIBERS:
        scalar_delivered, scalar_constructions = observed[(population, "iGM")]
        vec_delivered, vec_constructions = observed[(population, "iGM-vec")]
        assert vec_delivered == scalar_delivered, (
            "vectorized construction changed deliveries"
        )
        assert vec_constructions == scalar_constructions, (
            "vectorized construction changed rebuild decisions"
        )
        for name, _ in strategies:
            delivered, constructions = observed[(population, name)]
            rows.append(
                {
                    "strategy": name,
                    "subscribers": population,
                    "events": len(burst),
                    "rounds": CONSTRUCT_ROUNDS,
                    "constructions": constructions,
                    "notifications": len(delivered),
                    "events_per_second": best[(population, name)],
                    "speedup_vs_scalar": (
                        best[(population, name)] / best[(population, "iGM")]
                    ),
                }
            )
    return rows


def _match_residual(generator) -> List[Dict]:
    """Per-event vs batched boolean matching on the bare index.

    Both modes run against the *same* loaded index, so the comparison
    isolates the matcher: ``match_event`` probes every partition layer
    per event, ``match_batch`` probes once per distinct value per chunk
    behind the attribute-bitmap prefilter.  Delivered (sub, event) pairs
    are asserted identical before any timing is read — the batched
    matcher's contract is byte-identity, and a divergence here is a
    correctness bug, not noise.  Rounds are interleaved across modes so
    temporal drift hits both equally; each mode keeps its best.
    """
    hint = generator.frequency_hint()
    words = sorted(hint, key=hint.get, reverse=True)[:MATCH_POOL_WORDS]
    weights = [hint[word] for word in words]
    rng = random.Random(59)

    def sample_keywords():
        # Zipf-weighted like the generator's own subscription pool —
        # head-heavy conjunctions keep boolean selectivity realistic
        # (uniform 3-of-100 conjunctions would almost never match).
        chosen: List[str] = []
        seen = set()
        while len(chosen) < MATCH_SUBSCRIPTION_SIZE:
            word = rng.choices(words, weights)[0]
            if word not in seen:
                seen.add(word)
                chosen.append(word)
        return chosen

    index = SubscriptionIndex(hint)
    for sub_id in range(MATCH_SUBSCRIBERS):
        predicates = []
        for keyword in sample_keywords():
            roll = rng.random()
            if roll < MATCH_PRESENCE_SHARE:
                predicates.append(Predicate(keyword, Operator.GE, 1))
            elif roll < MATCH_PRESENCE_SHARE + MATCH_INTERVAL_SHARE:
                low = rng.randint(2, 5)
                predicates.append(
                    Predicate(keyword, Operator.BETWEEN, (low, low + 1))
                )
            else:
                predicates.append(
                    Predicate(keyword, Operator.EQ, rng.choice((1, 1, 1, 2)))
                )
        index.insert(
            Subscription(sub_id, BooleanExpression(predicates), radius=1_000.0)
        )
    burst = generator.events(MATCH_BURST, start_id=40_000_000, seed_offset=17)
    scalar_pairs = {
        (s.sub_id, event.event_id)
        for event in burst
        for s in index.match_event(event)
    }
    batched_pairs = set()
    for i in range(0, len(burst), MATCH_BATCH):
        chunk = burst[i : i + MATCH_BATCH]
        for event, row in zip(chunk, index.match_batch(chunk)):
            batched_pairs.update((s.sub_id, event.event_id) for s in row)
    assert batched_pairs == scalar_pairs, "batched matching changed deliveries"

    best = {"per_event": 0.0, "batch": 0.0}
    for _ in range(MATCH_ROUNDS):
        gc.collect()
        started = time.perf_counter()
        for event in burst:
            index.match_event(event)
        elapsed = time.perf_counter() - started
        best["per_event"] = max(best["per_event"], len(burst) / elapsed)
        gc.collect()
        started = time.perf_counter()
        for i in range(0, len(burst), MATCH_BATCH):
            index.match_batch(burst[i : i + MATCH_BATCH])
        elapsed = time.perf_counter() - started
        best["batch"] = max(best["batch"], len(burst) / elapsed)

    rows: List[Dict] = []
    for mode, key, batch_size in (
        ("per_event", "per_event", 1),
        (f"batch_{MATCH_BATCH}", "batch", MATCH_BATCH),
    ):
        rows.append(
            {
                "mode": mode,
                "batch_size": batch_size,
                "subscribers": MATCH_SUBSCRIBERS,
                "events": len(burst),
                "rounds": MATCH_ROUNDS,
                "matched_pairs": len(scalar_pairs),
                "events_per_second": best[key],
                "speedup_vs_per_event": best[key] / best["per_event"],
            }
        )
    return rows


def _conn_subscription(sub_id: int) -> Subscription:
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=1_500.0,
    )


def _connection_round(mode: str, slow: int) -> Dict:
    """One connection-scaling run: ``slow`` of :data:`CONN_CLIENTS`
    readers are throttled behind a chaos proxy, the rest read directly.

    Every subscriber shares one location and a subscription the whole
    burst matches, so the unthrottled oracle is simply the published id
    set.  Fast-reader receipt latency is measured against the publish
    instant; after the burst the proxy throttle lifts and every slow
    consumer must heal to exactly the oracle set through the
    disconnect -> reconnect -> resync path.
    """

    async def scenario() -> Dict:
        loop = asyncio.get_running_loop()
        server = ElapsServer(Grid(40, SPACE), IGM(max_cells=400), ServerConfig())
        config = NetworkConfig(
            send_queue=CONN_SEND_QUEUE,
            send_queue_hard=CONN_SEND_QUEUE_HARD,
            slow_consumer_grace=CONN_GRACE,
            write_buffer_limit=CONN_WRITE_BUFFER,
            retain_subscribers=True,
        )
        tcp = ElapsTCPServer(server, port=0, config=config)
        await tcp.start()
        fast_n = CONN_CLIENTS - slow
        expected = set(range(1_000, 1_000 + CONN_EVENTS))
        publish_times: Dict[int, float] = {}
        latencies: List[float] = []
        healed = 0
        exactly_once = True
        async with contextlib.AsyncExitStack() as stack:
            async def connect_fast(idx: int) -> ElapsNetworkClient:
                client = ElapsNetworkClient("127.0.0.1", tcp.port)
                await client.connect()
                await client.subscribe(
                    _conn_subscription(idx + 1), Point(5_000, 5_000), Point(0, 0)
                )
                return client

            fast_clients = await asyncio.gather(
                *(connect_fast(i) for i in range(fast_n))
            )

            slow_clients: List[ResilientElapsClient] = []
            proxy = None
            if slow:
                proxy = await stack.enter_async_context(
                    chaos_proxy("127.0.0.1", tcp.port, FaultConfig())
                )
                proxy.upstream_rcvbuf = CONN_PROXY_RCVBUF
                grid = Grid(40, SPACE)

                async def connect_slow(idx: int) -> ResilientElapsClient:
                    client = ResilientElapsClient(
                        "127.0.0.1",
                        proxy.port,
                        _conn_subscription(fast_n + idx + 1),
                        Point(5_000, 5_000),
                        grid=grid,
                        config=ClientConfig(
                            heartbeat_interval=0.2,
                            read_timeout=1.0,
                            reconnect=ReconnectPolicy(
                                base_delay=0.05, max_delay=0.3
                            ),
                        ),
                    )
                    await client.start()
                    await client.subscribe(timeout=15.0)
                    return client

                slow_clients = list(
                    await asyncio.gather(*(connect_slow(i) for i in range(slow)))
                )
                proxy.throttle_downstream = CONN_THROTTLE

            async def read_all(client: ElapsNetworkClient) -> set:
                got: set = set()
                while got != expected:
                    try:
                        message = await client.receive(timeout=30.0)
                    except (asyncio.TimeoutError, OSError):
                        break
                    if message is None:
                        break
                    if isinstance(message, NotificationMessage):
                        event_id = message.event_id & 0xFFFFFFFF
                        if event_id not in got and event_id in publish_times:
                            latencies.append(loop.time() - publish_times[event_id])
                        got.add(event_id)
                return got

            readers = [asyncio.create_task(read_all(c)) for c in fast_clients]
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await publisher.connect()
            for event_id in sorted(expected):
                publish_times[event_id] = loop.time()
                await publisher.publish(
                    event_id,
                    {"topic": "sale", "pad": CONN_PAD},
                    Point(5_100, 5_000),
                    ttl=100_000,
                )
                await asyncio.sleep(CONN_PACE)
            fast_results = await asyncio.wait_for(
                asyncio.gather(*readers), timeout=120.0
            )
            assert all(got == expected for got in fast_results), (
                "a fast reader missed part of the burst"
            )

            metrics = tcp.server.metrics
            if slow:
                # at least one throttled reader must have been cut loose
                deadline = loop.time() + 30.0
                while metrics.slow_consumer_disconnects == 0:
                    assert loop.time() < deadline, "no slow consumer was disconnected"
                    await asyncio.sleep(0.05)
                proxy.throttle_downstream = 0.0  # the network heals
                deadline = loop.time() + 120.0
                for client in slow_clients:
                    while {
                        e.event_id & 0xFFFFFFFF for e in client.events
                    } != expected:
                        assert loop.time() < deadline, "slow consumer failed to heal"
                        await asyncio.sleep(0.05)
                    ids = [e.event_id for e in client.events]
                    exactly_once &= len(ids) == len(set(ids)) == len(expected)
                    healed += 1

            await asyncio.gather(*(c.close() for c in fast_clients))
            await publisher.close()
            for client in slow_clients:
                await client.stop()
        row = {
            "mode": mode,
            "clients": CONN_CLIENTS,
            "slow_clients": slow,
            "events": CONN_EVENTS,
            "fast_deliveries": len(latencies),
            "fast_p50_ms": _percentile(latencies, 0.50) * 1e3,
            "fast_p99_ms": _percentile(latencies, 0.99) * 1e3,
            "fast_p99_seconds": _percentile(latencies, 0.99),
            "slow_consumer_disconnects": metrics.slow_consumer_disconnects,
            "resyncs": metrics.resyncs,
            "frames_shed": metrics.frames_shed,
            "superseded_region_ships": metrics.superseded_region_ships,
            "send_queue_high_water": metrics.send_queue_high_water,
            "healed_clients": healed,
            "exactly_once": exactly_once,
        }
        await tcp.stop()
        return row

    return asyncio.run(scenario())


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[int(q * (len(ordered) - 1))]


def _connection_scaling() -> List[Dict]:
    rows = []
    for mode, slow in (
        ("all_fast", 0),
        ("slow_25", int(CONN_CLIENTS * CONN_SLOW_SHARE)),
    ):
        rounds = [_connection_round(mode, slow) for _ in range(CONN_ROUNDS)]
        best = min(rounds, key=lambda r: r["fast_p99_seconds"])
        # latency takes the quietest round; correctness must hold in all
        best["exactly_once"] = all(r["exactly_once"] for r in rounds)
        best["healed_clients"] = min(r["healed_clients"] for r in rounds)
        best["send_queue_high_water"] = max(
            r["send_queue_high_water"] for r in rounds
        )
        best["rounds"] = CONN_ROUNDS
        rows.append(best)
    baseline = max(rows[0]["fast_p99_seconds"], CONN_P99_FLOOR)
    for row in rows:
        row["p99_ratio_vs_all_fast"] = row["fast_p99_seconds"] / baseline
    return rows


def _emit_json(
    population_rows: List[Dict],
    batch_rows: List[Dict],
    repair_rows: List[Dict],
    tracing_rows: List[Dict],
    tracing_overhead: float,
    span_summaries: Dict[str, Dict[str, float]],
    shard_rows: List[Dict],
    process_rows: List[Dict],
    rebalance_rows: List[Dict],
    recovery_rows: List[Dict],
    journal_overhead: float,
    recovery_curve_rows: List[Dict],
    construct_rows: List[Dict],
    match_rows: List[Dict],
    conn_rows: List[Dict],
) -> Dict:
    at_64 = next(r for r in batch_rows if r["batch_size"] == 64)
    rebuild = next(r for r in repair_rows if r["mode"] == "rebuild")
    repair = next(r for r in repair_rows if r["mode"] == "repair")
    sharded = next(r for r in shard_rows if r["shards"] == max(SHARD_COUNTS))
    adaptive = next(
        r for r in process_rows
        if r["executor"] == "process" and r["shards"] == PROC_SHARDS
    )
    static_serial = next(
        r for r in process_rows
        if r["executor"] == "serial" and r["shards"] == PROC_SHARDS
    )
    vec_at_top = next(
        r
        for r in construct_rows
        if r["strategy"] == "iGM-vec"
        and r["subscribers"] == max(CONSTRUCT_SUBSCRIBERS)
    )
    batched_match = next(
        r for r in match_rows if r["batch_size"] == MATCH_BATCH
    )
    match_speedup = batched_match["speedup_vs_per_event"]
    conn_fast = next(r for r in conn_rows if r["mode"] == "all_fast")
    conn_slow = next(r for r in conn_rows if r["mode"] == "slow_25")
    conn_baseline = max(conn_fast["fast_p99_seconds"], CONN_P99_FLOOR)
    # Amdahl over the sharded batch-64 bill: the non-matching share
    # splits across 4 shards, the matching residual is sped up by the
    # batched matcher — the raised algorithmic ceiling the residual
    # series buys the fleet.
    projected_ceiling = 1.0 / (
        MATCH_RESIDUAL_SHARE / match_speedup
        + (1.0 - MATCH_RESIDUAL_SHARE) / PROC_SHARDS
    )
    baseline_ceiling = 1.0 / (
        MATCH_RESIDUAL_SHARE + (1.0 - MATCH_RESIDUAL_SHARE) / PROC_SHARDS
    )
    payload = {
        "benchmark": "throughput",
        "schema_version": 10,
        "fast_mode": FAST,
        "config": {
            "space": [SPACE.x_min, SPACE.y_min, SPACE.x_max, SPACE.y_max],
            "corpus": CORPUS,
            "burst": BURST,
            "batch_subscribers": BATCH_SUBSCRIBERS,
            "populations": list(POPULATIONS),
            "batch_sizes": [1, *BATCH_SIZES],
            "shard_counts": list(SHARD_COUNTS),
            "shard_subscribers": SHARD_SUBSCRIBERS,
            "shard_radius": SHARD_RADIUS,
            "shard_corpus": SHARD_CORPUS,
            "process_shards": PROC_SHARDS,
            "process_grid": PROC_GRID_N,
            "process_corpus": PROC_CORPUS,
            "process_subscribers": PROC_SUBSCRIBERS,
            "process_radius": PROC_RADIUS,
            "process_warm": PROC_WARM,
            "process_burst": PROC_BURST,
            "process_hot_centers": [
                [center.x, center.y] for center in PROC_HOT_CENTERS
            ],
            "construct_subscribers": list(CONSTRUCT_SUBSCRIBERS),
            "construct_corpus": CONSTRUCT_CORPUS,
            "construct_burst": CONSTRUCT_BURST,
            "construct_radius": CONSTRUCT_RADIUS,
            "construct_max_cells": CONSTRUCT_MAX_CELLS,
            "match_subscribers": MATCH_SUBSCRIBERS,
            "match_burst": MATCH_BURST,
            "match_batch": MATCH_BATCH,
            "match_pool_words": MATCH_POOL_WORDS,
            "match_subscription_size": MATCH_SUBSCRIPTION_SIZE,
            "conn_clients": CONN_CLIENTS,
            "conn_slow_share": CONN_SLOW_SHARE,
            "conn_events": CONN_EVENTS,
            "conn_pace": CONN_PACE,
            "conn_send_queue": CONN_SEND_QUEUE,
            "conn_send_queue_hard": CONN_SEND_QUEUE_HARD,
            "conn_slow_consumer_grace": CONN_GRACE,
            "conn_write_buffer_limit": CONN_WRITE_BUFFER,
            "conn_throttle": CONN_THROTTLE,
        },
        "series": {
            "population_sweep": population_rows,
            "batch_comparison": batch_rows,
            "repair_sweep": repair_rows,
            "tracing_overhead": tracing_rows,
            "shard_scaling": shard_rows,
            "process_scaling": process_rows,
            "rebalance": rebalance_rows,
            "recovery_sweep": recovery_rows,
            "recovery_curve": recovery_curve_rows,
            "construct_sweep": construct_rows,
            "match_residual": match_rows,
            "connection_scaling": conn_rows,
        },
        #: per-stage latency digests of the traced batch-64 run; the
        #: full bucket vectors stay server-side (frame type 13)
        "span_histograms": span_summaries,
        "gate": {
            "required_speedup_at_batch_64": REQUIRED_SPEEDUP_AT_64,
            "measured_speedup_at_batch_64": at_64["speedup_vs_single"],
            "passed": at_64["speedup_vs_single"] >= REQUIRED_SPEEDUP_AT_64,
        },
        "repair_gate": {
            "required_speedup_vs_rebuild": REQUIRED_REPAIR_SPEEDUP,
            "measured_speedup_vs_rebuild": repair["speedup_vs_rebuild"],
            "wire_bytes_down_rebuild": rebuild["wire_bytes_down"],
            "wire_bytes_down_repair": repair["wire_bytes_down"],
            "passed": (
                repair["speedup_vs_rebuild"] >= REQUIRED_REPAIR_SPEEDUP
                and repair["wire_bytes_down"] < rebuild["wire_bytes_down"]
            ),
        },
        "tracing_gate": {
            "max_overhead": MAX_TRACING_OVERHEAD,
            "measured_overhead": tracing_overhead,
            "passed": tracing_overhead <= MAX_TRACING_OVERHEAD,
        },
        "shard_gate": {
            "shards": sharded["shards"],
            "required_speedup_vs_one_shard": REQUIRED_SHARD_SPEEDUP,
            "measured_speedup_vs_one_shard": sharded["speedup_vs_one_shard"],
            "passed": (
                sharded["speedup_vs_one_shard"] >= REQUIRED_SHARD_SPEEDUP
            ),
        },
        "process_gate": {
            "shards": PROC_SHARDS,
            "cores": os.cpu_count() or 1,
            "required_speedup_multicore": REQUIRED_PROCESS_SPEEDUP,
            "required_speedup_vs_one_shard": _process_required_speedup(),
            "measured_speedup_vs_one_shard": adaptive["speedup_vs_one_shard"],
            "rebalances": adaptive["rebalances"],
            "static_serial_speedup": static_serial["speedup_vs_one_shard"],
            "passed": (
                adaptive["speedup_vs_one_shard"]
                >= _process_required_speedup()
            ),
        },
        "recovery_gate": {
            "max_overhead": MAX_JOURNAL_OVERHEAD,
            "measured_overhead": journal_overhead,
            "passed": journal_overhead <= MAX_JOURNAL_OVERHEAD,
        },
        "construct_gate": {
            "subscribers": vec_at_top["subscribers"],
            "required_speedup_vs_scalar": REQUIRED_CONSTRUCT_SPEEDUP,
            "measured_speedup_vs_scalar": vec_at_top["speedup_vs_scalar"],
            "passed": (
                vec_at_top["speedup_vs_scalar"] >= REQUIRED_CONSTRUCT_SPEEDUP
            ),
        },
        "match_gate": {
            "batch_size": MATCH_BATCH,
            "required_speedup_vs_per_event": REQUIRED_MATCH_SPEEDUP,
            "measured_speedup_vs_per_event": match_speedup,
            "matching_share": MATCH_RESIDUAL_SHARE,
            "projected_shard_ceiling": projected_ceiling,
            "baseline_shard_ceiling": baseline_ceiling,
            "passed": match_speedup >= REQUIRED_MATCH_SPEEDUP,
        },
        "connection_gate": {
            "clients": CONN_CLIENTS,
            "slow_clients": conn_slow["slow_clients"],
            "required_p99_ratio": REQUIRED_CONN_P99_RATIO,
            "baseline_p99_floor_seconds": CONN_P99_FLOOR,
            "all_fast_p99_seconds": conn_fast["fast_p99_seconds"],
            "slow_25_fast_p99_seconds": conn_slow["fast_p99_seconds"],
            "measured_p99_ratio": conn_slow["fast_p99_seconds"] / conn_baseline,
            "send_queue_hard_cap": CONN_SEND_QUEUE_HARD,
            "send_queue_high_water": conn_slow["send_queue_high_water"],
            "slow_consumer_disconnects": conn_slow["slow_consumer_disconnects"],
            "resyncs": conn_slow["resyncs"],
            "healed_clients": conn_slow["healed_clients"],
            "exactly_once_after_resync": conn_slow["exactly_once"],
            "passed": (
                conn_slow["fast_p99_seconds"]
                <= REQUIRED_CONN_P99_RATIO * conn_baseline
                and conn_slow["send_queue_high_water"] <= CONN_SEND_QUEUE_HARD
                and conn_slow["slow_consumer_disconnects"] >= 1
                and conn_slow["healed_clients"] == conn_slow["slow_clients"]
                and conn_slow["exactly_once"]
            ),
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _run(slow_threshold=None):
    generator = TwitterLikeGenerator(SPACE, seed=37)
    burst = generator.events(BURST, start_id=10_000_000, seed_offset=7)
    population_rows = _population_sweep(generator, burst)
    batch_rows = _batch_comparison(generator, burst)
    repair_rows = _repair_comparison(generator, burst)
    tracing_rows, tracing_overhead, span_summaries = _tracing_overhead(
        generator, burst, slow_threshold
    )
    shard_rows = _shard_scaling(generator)
    skewed = _skewed_generator()
    process_rows = _process_scaling(skewed)
    rebalance_rows = _rebalance_series(skewed)
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        workdir = pathlib.Path(tmp)
        recovery_rows, journal_overhead = _journal_overhead(
            generator, burst, workdir
        )
        recovery_curve_rows = _recovery_curve(generator, burst, workdir)
    construct_rows = _construct_sweep(generator)
    match_rows = _match_residual(generator)
    conn_rows = _connection_scaling()
    return (
        population_rows,
        batch_rows,
        repair_rows,
        tracing_rows,
        tracing_overhead,
        span_summaries,
        shard_rows,
        process_rows,
        rebalance_rows,
        recovery_rows,
        journal_overhead,
        recovery_curve_rows,
        construct_rows,
        match_rows,
        conn_rows,
    )


def test_publish_throughput(benchmark, report, profiled, stats_options):
    print_stats, slow_threshold = stats_options
    (
        population_rows,
        batch_rows,
        repair_rows,
        tracing_rows,
        tracing_overhead,
        span_summaries,
        shard_rows,
        process_rows,
        rebalance_rows,
        recovery_rows,
        journal_overhead,
        recovery_curve_rows,
        construct_rows,
        match_rows,
        conn_rows,
    ) = benchmark.pedantic(
        profiled("throughput", _run),
        args=(slow_threshold,),
        rounds=1,
        iterations=1,
    )
    payload = _emit_json(
        population_rows,
        batch_rows,
        repair_rows,
        tracing_rows,
        tracing_overhead,
        span_summaries,
        shard_rows,
        process_rows,
        rebalance_rows,
        recovery_rows,
        journal_overhead,
        recovery_curve_rows,
        construct_rows,
        match_rows,
        conn_rows,
    )
    report(
        "throughput",
        format_table(
            population_rows,
            ("subscribers", "events", "notifications", "events_per_second"),
            "Publish throughput (events/s through the full server)",
        )
        + "\n"
        + format_table(
            batch_rows,
            (
                "mode",
                "batch_size",
                "events_per_second",
                "speedup_vs_single",
                "constructions",
                "event_arrival_rounds",
            ),
            f"Batched vs single publish ({BATCH_SUBSCRIBERS} subscribers)",
        )
        + "\n"
        + format_table(
            repair_rows,
            (
                "mode",
                "events_per_second",
                "speedup_vs_rebuild",
                "constructions",
                "repairs",
                "repair_fallbacks",
                "wire_bytes_down",
            ),
            f"Repair vs always-rebuild ({BATCH_SUBSCRIBERS} subscribers, bytes measured)",
        )
        + "\n"
        + format_table(
            tracing_rows,
            (
                "mode",
                "batch_size",
                "events_per_second",
                "overhead_vs_untraced",
            ),
            f"Span tracing overhead (best of {OVERHEAD_ROUNDS} rounds per mode)",
        )
        + "\n"
        + format_table(
            shard_rows,
            (
                "shards",
                "executor",
                "events_per_second",
                "speedup_vs_one_shard",
                "multi_homed",
                "notifications",
            ),
            f"Shard scaling, batch-{BATCH_SIZES[-1]} "
            f"({SHARD_SUBSCRIBERS} subscribers, radius {SHARD_RADIUS:.0f}, "
            f"best of {SHARD_ROUNDS} rounds)",
        )
        + "\n"
        + format_table(
            process_rows,
            (
                "executor",
                "shards",
                "rebalance",
                "rebalances",
                "events_per_second",
                "speedup_vs_one_shard",
                "multi_homed",
            ),
            f"Process-fleet scaling on the skewed burst "
            f"({PROC_SUBSCRIBERS} subscribers, radius {PROC_RADIUS:.0f}, "
            f"best of {PROC_ROUNDS} rounds)",
        )
        + "\n"
        + format_table(
            rebalance_rows,
            ("mode", "rebalances", "imbalance", "bounds"),
            "Load-adaptive repartitioning on the skewed stream",
        )
        + "\n"
        + format_table(
            recovery_rows,
            (
                "mode",
                "batch_size",
                "events_per_second",
                "overhead_vs_plain",
            ),
            f"Journaling overhead (best of {OVERHEAD_ROUNDS} rounds per mode)",
        )
        + "\n"
        + format_table(
            recovery_curve_rows,
            ("fraction", "records", "recover_seconds", "records_per_second"),
            "Cold-restart recovery (journal replay)",
        )
        + "\n"
        + format_table(
            construct_rows,
            (
                "strategy",
                "subscribers",
                "events_per_second",
                "speedup_vs_scalar",
                "constructions",
                "notifications",
            ),
            f"Construct sweep, scalar vs vectorized iGM (repair off, "
            f"radius {CONSTRUCT_RADIUS:.0f}, best of {CONSTRUCT_ROUNDS} rounds)",
        )
        + "\n"
        + format_table(
            match_rows,
            (
                "mode",
                "batch_size",
                "events_per_second",
                "speedup_vs_per_event",
                "matched_pairs",
            ),
            f"Match residual, per-event vs batch-{MATCH_BATCH} OpIndex "
            f"({MATCH_SUBSCRIBERS} subscribers, best of {MATCH_ROUNDS} rounds)",
        )
        + "\n"
        + format_table(
            conn_rows,
            (
                "mode",
                "clients",
                "slow_clients",
                "fast_p99_ms",
                "p99_ratio_vs_all_fast",
                "send_queue_high_water",
                "slow_consumer_disconnects",
                "resyncs",
                "healed_clients",
            ),
            f"Connection scaling, {CONN_CLIENTS} subscribers "
            f"({CONN_EVENTS} events, paced {CONN_PACE * 1e3:.0f} ms, "
            f"slow quarter throttled to {1 / CONN_THROTTLE:.0f} frames/s, "
            f"best of {CONN_ROUNDS} rounds)",
        ),
    )
    if print_stats and span_summaries:
        print("\nper-stage latency (traced batch-64 run)")
        print(f"{'stage':<16} {'count':>9} {'p50 ms':>10} {'p95 ms':>10} "
              f"{'p99 ms':>10} {'total s':>10}")
        for stage, digest in span_summaries.items():
            print(
                f"{stage:<16} {digest['count']:>9} {digest['p50'] * 1e3:>10.3f} "
                f"{digest['p95'] * 1e3:>10.3f} {digest['p99'] * 1e3:>10.3f} "
                f"{digest['total_seconds']:>10.3f}"
            )
    by = {r["subscribers"]: r for r in population_rows}
    # the empty server bounds the pure index cost; it must be brisk even
    # in pure Python
    assert by[0]["events_per_second"] > 500
    # with a full subscriber population the server must still outrun the
    # paper's heaviest stream (500 events per 5 s timestamp = 100 ev/s)
    assert by[POPULATIONS[-1]]["events_per_second"] > 100
    # the regression gate the ISSUE added: batching must actually pay
    assert payload["gate"]["passed"], payload["gate"]
    # and repair must beat always-rebuild on both time and wire bytes
    assert payload["repair_gate"]["passed"], payload["repair_gate"]
    # the traced batch path must record real spans, near-free
    assert span_summaries, "traced run recorded no spans"
    assert payload["tracing_gate"]["passed"], payload["tracing_gate"]
    # spatial partitioning must pay for itself even without real threads
    assert payload["shard_gate"]["passed"], payload["shard_gate"]
    # the load-adaptive process fleet must recover the slicing win on the
    # skewed burst that stalls the static partition
    assert payload["process_gate"]["passed"], payload["process_gate"]
    # the policy must have actually fired and flattened the band loads
    adaptive_row = next(r for r in rebalance_rows if r["mode"] == "adaptive")
    static_row = next(r for r in rebalance_rows if r["mode"] == "static")
    assert adaptive_row["rebalances"] >= 1, adaptive_row
    assert adaptive_row["imbalance"] < static_row["imbalance"], rebalance_rows
    # durability must be near-free on the publish hot path, and the
    # recovery curve must have actually replayed real records
    assert payload["recovery_gate"]["passed"], payload["recovery_gate"]
    assert all(r["records"] > 0 for r in recovery_curve_rows)
    # the vectorized construction core must actually pay where it claims
    # to: at least 3x scalar events/sec on the construction-bound sweep
    assert payload["construct_gate"]["passed"], payload["construct_gate"]
    # and the sweep must have exercised real construction work
    assert all(r["constructions"] > 0 for r in construct_rows)
    # batched OpIndex matching must beat the per-event path on pure
    # boolean matching (deliveries already asserted identical in-series)
    assert payload["match_gate"]["passed"], payload["match_gate"]
    assert all(r["matched_pairs"] > 0 for r in match_rows)
    # bounded send queues must isolate fast readers from slow consumers,
    # cap queue memory, and heal every disconnected reader exactly-once
    assert payload["connection_gate"]["passed"], payload["connection_gate"]
    assert all(r["fast_deliveries"] > 0 for r in conn_rows)
