"""Golden end-to-end trace: the batched path reproduces the single path
byte-for-byte.

A seeded 20-subscriber / 200-event simulation is run twice against fresh
servers — once publishing events one at a time, once through
``publish_batch`` in 20 bursts of 10 — and the resulting notification
logs must be *identical bytes*, equal to the log frozen under
``tests/golden/``.  This pins three things at once:

* the batched pipeline's delivery semantics (same events, same
  subscribers, same order — deferred safe-region construction may only
  suppress pings for events that Definition 2 guarantees are out of
  radius, never change a delivery);
* the determinism of the whole server stack under a fixed seed;
* accidental format/ordering drift in future refactors (the file is
  committed; any diff shows up in review).

Subscribers are stationary (the server has no locator): with movement,
mid-burst constructions would legitimately shift report timings, and the
two paths are only required to agree on *notifications*, which for
stationary subscribers is exact.

Regenerate after an intended behaviour change with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_trace.py
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import List

from repro.core import IGM
from repro.datasets import TwitterLikeGenerator
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import ServerConfig, ElapsServer
from repro.testing import ScalarIGM

SPACE = Rect(0, 0, 10_000, 10_000)
SEED = 7
GROUPS = 20
GROUP_SIZE = 10
GOLDEN = Path(__file__).parent / "golden" / "trace_20sub_200ev_seed7.log"


def strategy(scalar: bool = False):
    return (ScalarIGM if scalar else IGM)(max_cells=400)


def fresh_server(repair: bool = False, scalar: bool = False) -> ElapsServer:
    return ElapsServer(
        Grid(40, SPACE),
        strategy(scalar),
        ServerConfig(initial_rate=2.0, repair=repair),
        event_index=BEQTree(SPACE, emax=32))


def run_simulation(batched: bool, repair: bool = False, scalar: bool = False) -> str:
    """The canonical notification log of the seeded simulation."""
    generator = TwitterLikeGenerator(SPACE, seed=SEED)
    subscriptions = generator.subscriptions(20, size=2, radius=3_000)
    rng = random.Random(SEED * 101)
    server = fresh_server(repair, scalar)
    lines: List[str] = []

    def record(notifications) -> None:
        for n in notifications:
            lines.append(f"t={n.timestamp} sub={n.sub_id} event={n.event.event_id}")

    for subscription in subscriptions:
        location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        notifications, _ = server.subscribe(
            subscription, location, Point(0.0, 0.0), now=0
        )
        record(notifications)

    for group in range(GROUPS):
        now = group + 1
        events = generator.events(
            GROUP_SIZE, start_id=group * GROUP_SIZE, arrived_at=now, seed_offset=group
        )
        if batched:
            record(server.publish_batch(events, now))
        else:
            for event in events:
                record(server.publish(event, now))
    return "\n".join(lines) + "\n"


def test_single_and_batched_paths_reproduce_the_golden_trace():
    single = run_simulation(batched=False)
    batch = run_simulation(batched=True)
    assert batch == single  # byte-for-byte, before even touching the file

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_bytes(single.encode())
    frozen = GOLDEN.read_bytes()
    assert single.encode() == frozen
    assert batch.encode() == frozen


def test_repair_mode_reproduces_the_golden_trace():
    """Repair carves regions instead of rebuilding, but notifications are
    pinned by geometry (an event is delivered iff within the radius), so
    the frozen trace must stay byte-identical with repair enabled — for
    both the single-event and the batched publish paths."""
    frozen = GOLDEN.read_bytes()
    assert run_simulation(batched=False, repair=True).encode() == frozen
    assert run_simulation(batched=True, repair=True).encode() == frozen


def test_vectorized_igm_reproduces_the_golden_trace():
    """``IGM`` is the array-backed construction core (DESIGN.md §14),
    byte-identical to the scalar loop of ``repro.testing``, so both must
    reproduce the frozen trace — single, batched, and repair paths."""
    frozen = GOLDEN.read_bytes()
    for scalar in (False, True):
        assert run_simulation(batched=False, scalar=scalar).encode() == frozen
        assert run_simulation(batched=True, scalar=scalar).encode() == frozen
        assert run_simulation(batched=True, repair=True, scalar=scalar).encode() == frozen


def test_trace_is_non_trivial():
    """The frozen log must actually exercise delivery, not be empty."""
    content = GOLDEN.read_text().splitlines()
    assert len(content) >= 30
    subs = {line.split(" sub=")[1].split(" ")[0] for line in content}
    timestamps = {line.split("t=")[1].split(" ")[0] for line in content}
    assert len(subs) >= 5       # multiple subscribers notified
    assert len(timestamps) >= 5  # spread across the burst timeline


def record_golden_trace(path) -> None:
    """Run the golden workload once through a TraceRecorder at ``path``."""
    from repro.testing import TraceRecorder

    generator = TwitterLikeGenerator(SPACE, seed=SEED)
    subscriptions = generator.subscriptions(20, size=2, radius=3_000)
    rng = random.Random(SEED * 101)
    with TraceRecorder(fresh_server(), str(path)) as server:
        for subscription in subscriptions:
            location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            server.subscribe(subscription, location, Point(0.0, 0.0), now=0)
        for group in range(GROUPS):
            now = group + 1
            events = generator.events(
                GROUP_SIZE, start_id=group * GROUP_SIZE, arrived_at=now,
                seed_offset=group,
            )
            server.publish_batch(events, now)


def fresh_fleet(shards: int = 2, repair: bool = False, scalar: bool = False):
    from repro.index import SubscriptionIndex  # noqa: F401  (parity import)
    from repro.system import SerialExecutor, ShardedElapsServer

    return ShardedElapsServer(
        Grid(40, SPACE),
        lambda: strategy(scalar),
        ServerConfig(initial_rate=2.0, repair=repair),
        shards=shards,
        executor=SerialExecutor(),
        event_index_factory=lambda: BEQTree(SPACE, emax=32),
    )


def test_recorded_trace_replays_byte_identically_across_configs(tmp_path):
    """The trace-based regression core: one recorded run of the golden
    workload, replayed through materially different server configurations,
    must reproduce the frozen log byte-for-byte every time."""
    from repro.testing import replay_trace

    record_golden_trace(tmp_path)
    frozen = GOLDEN.read_bytes()
    targets = [
        ("plain", lambda: fresh_server(), None),
        ("repair", lambda: fresh_server(repair=True), None),
        ("singles", lambda: fresh_server(), 1),          # batches -> one-by-one
        ("rebatched", lambda: fresh_server(), 64),       # coalesced bursts
        ("sharded", lambda: fresh_fleet(shards=2), None),
        ("sharded-repair", lambda: fresh_fleet(shards=2, repair=True), 1),
        # The scalar oracle, across every server shape:
        ("scalar", lambda: fresh_server(scalar=True), None),
        ("scalar-repair", lambda: fresh_server(repair=True, scalar=True), None),
        ("scalar-rebatched", lambda: fresh_server(scalar=True), 64),
        ("scalar-sharded-1", lambda: fresh_fleet(shards=1, scalar=True), None),
        ("scalar-sharded-2", lambda: fresh_fleet(shards=2, scalar=True), None),
        ("scalar-sharded-4", lambda: fresh_fleet(shards=4, scalar=True), None),
    ]
    for label, build, batch_size in targets:
        result = replay_trace(str(tmp_path), build(), batch_size=batch_size)
        assert result.log().encode() == frozen, f"{label} replay diverged"


def test_recovered_server_continues_the_golden_trace(tmp_path):
    """Crash a journaled server halfway through the golden workload and
    recover: finishing the workload yields the frozen log's delivery set."""
    from repro.system.journal import JournalSpec

    def journaled_server():
        return ElapsServer(
            Grid(40, SPACE),
            IGM(max_cells=400),
            ServerConfig(initial_rate=2.0, journal=JournalSpec(str(tmp_path))),
            event_index=BEQTree(SPACE, emax=32),
        )

    generator = TwitterLikeGenerator(SPACE, seed=SEED)
    subscriptions = generator.subscriptions(20, size=2, radius=3_000)
    rng = random.Random(SEED * 101)
    pairs = set()

    def record(notifications):
        pairs.update((n.sub_id, n.event.event_id) for n in notifications)

    server = journaled_server()
    for subscription in subscriptions:
        location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        notifications, _ = server.subscribe(
            subscription, location, Point(0.0, 0.0), now=0
        )
        record(notifications)
    half = GROUPS // 2
    for group in range(half):
        events = generator.events(
            GROUP_SIZE, start_id=group * GROUP_SIZE, arrived_at=group + 1,
            seed_offset=group,
        )
        record(server.publish_batch(events, group + 1))
    server.close()  # clean kill between operations

    revived = journaled_server()
    revived.recover()
    for group in range(half, GROUPS):
        events = generator.events(
            GROUP_SIZE, start_id=group * GROUP_SIZE, arrived_at=group + 1,
            seed_offset=group,
        )
        record(revived.publish_batch(events, group + 1))
    revived.close()

    golden_pairs = set()
    for line in GOLDEN.read_text().splitlines():
        sub_id = int(line.split(" sub=")[1].split(" ")[0])
        event_id = int(line.split(" event=")[1])
        golden_pairs.add((sub_id, event_id))
    assert pairs == golden_pairs


def test_batched_path_populates_batch_counters():
    """The golden run drives the counters the benchmark report reads."""
    generator = TwitterLikeGenerator(SPACE, seed=SEED)
    subscriptions = generator.subscriptions(20, size=2, radius=3_000)
    rng = random.Random(SEED * 101)
    server = fresh_server()
    for subscription in subscriptions:
        location = Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        server.subscribe(subscription, location, Point(0.0, 0.0), now=0)
    for group in range(GROUPS):
        events = generator.events(
            GROUP_SIZE, start_id=group * GROUP_SIZE, arrived_at=group + 1,
            seed_offset=group,
        )
        server.publish_batch(events, group + 1)
    stats = server.metrics.as_dict()
    assert stats["batches"] == GROUPS
    assert stats["batch_events"] == GROUPS * GROUP_SIZE
    assert stats["match_batch_probes"] > 0
    assert "partitions_pruned" in stats
