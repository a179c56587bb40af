"""Sharded Elaps: partitioning, routing, multi-homing, and the golden
sharded-vs-single differential.

The load-bearing test is the differential: the 20-subscriber/200-event
golden workload (tests/test_golden_trace.py) must produce a notification
log **byte-identical** to the frozen single-server trace for K in
{1, 2, 4} shards under the deterministic :class:`SerialExecutor`, on
both the one-at-a-time and the batched publish path.  That holds because
delivery is purely geometric (an event is delivered iff it be-matches
and is within the radius), events route to exactly one shard, and the
coordinator's homing invariant guarantees the owning shard knows every
subscriber whose circle its band can touch.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core import IGM
from repro.datasets import TwitterLikeGenerator
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree, SubscriptionIndex
from repro.system import (
    CallbackTransport,
    ElapsServer,
    JournalSpec,
    RebalancePolicy,
    SerialExecutor,
    ServerConfig,
    ShardedElapsServer,
    partition_columns,
)
from repro.testing import definition1_violations, impact_coverage_violations

from test_golden_trace import GOLDEN, GROUP_SIZE, GROUPS, SEED, SPACE


def make_sharded(shards, executor=None, config=None, grid=None, max_cells=400, **kwargs):
    return ShardedElapsServer(
        grid or Grid(40, SPACE),
        IGM(max_cells=max_cells),
        config or ServerConfig(initial_rate=2.0),
        shards=shards,
        executor=executor or SerialExecutor(),
        event_index_factory=lambda: BEQTree(SPACE, emax=32),
        **kwargs,
    )


def make_sub(sub_id=1, radius=1_500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def sale(event_id, x, y, arrived_at=1):
    return Event(event_id, {"topic": "sale"}, Point(x, y), arrived_at=arrived_at)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartitionColumns:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 7, 40])
    def test_bands_cover_every_column_exactly_once(self, shards):
        grid = Grid(40, SPACE)
        specs = partition_columns(grid, shards)
        assert [s.shard_id for s in specs] == list(range(shards))
        assert specs[0].col_lo == 0
        assert specs[-1].col_hi == grid.n
        for left, right in zip(specs, specs[1:]):
            assert left.col_hi == right.col_lo  # contiguous, no gaps
        widths = [s.col_hi - s.col_lo for s in specs]
        assert all(w >= 1 for w in widths)
        assert max(widths) - min(widths) <= 1  # near-equal

    def test_rects_tile_the_space(self):
        grid = Grid(40, SPACE)
        specs = partition_columns(grid, 4)
        assert specs[0].rect.x_min == SPACE.x_min
        assert specs[-1].rect.x_max == pytest.approx(SPACE.x_max)
        for left, right in zip(specs, specs[1:]):
            assert left.rect.x_max == pytest.approx(right.rect.x_min)

    def test_invalid_counts_rejected(self):
        grid = Grid(40, SPACE)
        with pytest.raises(ValueError):
            partition_columns(grid, 0)
        with pytest.raises(ValueError):
            partition_columns(grid, grid.n + 1)

    def test_explicit_uneven_boundaries(self):
        grid = Grid(40, SPACE)
        specs = partition_columns(grid, [0, 3, 5, 30, 40])
        assert [(s.col_lo, s.col_hi) for s in specs] == [
            (0, 3), (3, 5), (5, 30), (30, 40),
        ]
        assert specs[0].rect.x_min == SPACE.x_min
        assert specs[-1].rect.x_max == pytest.approx(SPACE.x_max)
        for left, right in zip(specs, specs[1:]):
            assert left.rect.x_max == pytest.approx(right.rect.x_min)

    def test_explicit_boundaries_validated(self):
        grid = Grid(40, SPACE)
        with pytest.raises(ValueError):
            partition_columns(grid, [0])  # too short
        with pytest.raises(ValueError):
            partition_columns(grid, [1, 40])  # must start at 0
        with pytest.raises(ValueError):
            partition_columns(grid, [0, 39])  # must end at grid.n
        with pytest.raises(ValueError):
            partition_columns(grid, [0, 10, 10, 40])  # empty band
        with pytest.raises(ValueError):
            partition_columns(grid, [0, 20, 10, 40])  # decreasing

    def test_single_band_boundaries_allowed(self):
        grid = Grid(40, SPACE)
        specs = partition_columns(grid, [0, 40])
        assert [(s.col_lo, s.col_hi) for s in specs] == [(0, 40)]


# ----------------------------------------------------------------------
# Event routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_events_land_on_exactly_one_shard(self):
        server = make_sharded(4)
        rng = random.Random(3)
        events = [
            sale(i, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            for i in range(80)
        ]
        for event in events:
            server.publish(event, now=1)
        per_shard = [
            len(list(worker.corpus_matches(make_sub().expression)))
            for worker in server.shard_servers
        ]
        assert sum(per_shard) == len(events)  # disjoint corpus slices
        assert all(count > 0 for count in per_shard)  # spread across bands

    def test_shard_of_point_respects_band_edges(self):
        server = make_sharded(4)
        for spec in server.specs:
            inside = Point(
                (spec.rect.x_min + spec.rect.x_max) / 2, 5_000
            )
            assert server.shard_of_point(inside) == spec.shard_id

    def test_bootstrap_routes_like_publish(self):
        routed = make_sharded(4)
        rng = random.Random(9)
        events = [
            sale(i, rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            for i in range(40)
        ]
        routed.bootstrap(events)
        for worker, spec in zip(routed.shard_servers, routed.specs):
            for event in worker.corpus_matches(make_sub().expression):
                assert routed.shard_of_point(event.location) == spec.shard_id


# ----------------------------------------------------------------------
# Multi-homing and re-homing
# ----------------------------------------------------------------------
class TestHoming:
    def test_boundary_subscriber_is_multi_homed(self):
        server = make_sharded(4)
        # band edge for 4 shards on a 40-column grid: x = 2_500
        server.subscribe(make_sub(radius=1_500.0), Point(2_500, 5_000), Point(0, 0), 0)
        record = server.subscribers[1]
        assert len(record.homes) >= 2
        for shard_id in record.homes:
            assert 1 in server.shard_servers[shard_id].subscribers

    def test_interior_subscriber_stays_single_homed(self):
        server = make_sharded(2)
        # deep inside shard 0 (bands split at x = 5_000), tiny radius
        server.subscribe(make_sub(radius=200.0), Point(1_000, 5_000), Point(0, 0), 0)
        assert server.subscribers[1].homes == {0}

    def test_moving_across_a_boundary_rehomes(self):
        server = make_sharded(2)
        server.subscribe(make_sub(radius=200.0), Point(1_000, 5_000), Point(50, 0), 0)
        assert server.subscribers[1].homes == {0}
        server.report_location(1, Point(4_950, 5_000), Point(50, 0), now=1)
        assert server.subscribers[1].homes == {0, 1}  # sticky: 0 stays

    def test_cross_boundary_delivery_without_any_event_on_home_shard(self):
        """An event just across the band edge still notifies."""
        server = make_sharded(2)
        server.subscribe(make_sub(radius=1_500.0), Point(4_800, 5_000), Point(0, 0), 0)
        notifications = server.publish(sale(10, 5_200, 5_000), now=1)
        assert [(n.sub_id, n.event.event_id) for n in notifications] == [(1, 10)]

    def test_held_region_is_the_intersection_of_homes(self):
        server = make_sharded(4)
        server.subscribe(make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0)
        record = server.subscribers[1]
        assert len(record.homes) >= 2
        held = record.safe
        assert held is not None
        for shard_id in sorted(record.homes):
            shard_region = record.shard_regions[shard_id]
            merged = held.intersected_with(shard_region)
            # intersecting the held region with any contributor is a no-op
            assert merged.codes.tolist() == held.codes.tolist()
            assert merged.complement == held.complement

    def test_unsubscribe_clears_every_home(self):
        server = make_sharded(4)
        server.subscribe(make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0)
        homes = set(server.subscribers[1].homes)
        assert len(homes) >= 2
        server.unsubscribe(1)
        assert 1 not in server.subscribers
        for shard_id in homes:
            assert 1 not in server.shard_servers[shard_id].subscribers
        with pytest.raises(KeyError):
            server.unsubscribe(1)

    def test_duplicate_suppression_across_homes(self):
        """A multi-homed subscriber gets each event exactly once."""
        server = make_sharded(4)
        server.subscribe(make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0)
        notifications = server.publish(sale(10, 5_100, 5_000), now=1)
        assert len(notifications) == 1
        again = server.publish_batch([sale(11, 4_900, 5_000)], now=2)
        assert len(again) == 1
        assert server.delivered_ids(1) == frozenset({10, 11})


# ----------------------------------------------------------------------
# Client-facing transport
# ----------------------------------------------------------------------
class TestCoordinatorTransport:
    def test_held_region_ships_through_the_transport(self):
        shipped = {}
        server = make_sharded(
            4,
            transport=CallbackTransport(
                ship_region=lambda sub_id, region: shipped.update({sub_id: region})
            ),
        )
        _, safe = server.subscribe(
            make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0
        )
        assert shipped[1] is safe  # one ship, of the held intersection

    def test_location_pings_route_through_the_coordinator(self):
        pings = []

        def locate(sub_id):
            pings.append(sub_id)
            return Point(5_000, 5_000), Point(0, 0)

        server = make_sharded(4, transport=CallbackTransport(locate=locate))
        server.subscribe(make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0)
        server.publish(sale(10, 5_100, 5_000), now=1)
        assert pings  # the owning shard's arrival ping reached the client


# ----------------------------------------------------------------------
# The golden sharded-vs-single differential
# ----------------------------------------------------------------------
def run_sharded_simulation(
    shards: int, batched: bool, executor=None, rebalance_at=None, bounds=None
) -> str:
    """The golden-trace workload against a sharded fleet.

    ``rebalance_at`` forces one boundary move (to ``bounds``, or to the
    load-balanced cut) after that publish group — the frozen trace must
    survive it byte-for-byte.
    """
    generator = TwitterLikeGenerator(SPACE, seed=SEED)
    subscriptions = generator.subscriptions(20, size=2, radius=3_000)
    rng = random.Random(SEED * 101)
    server = make_sharded(shards, executor=executor)
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

    multi_homed = sum(
        1 for record_ in server.subscribers.values() if len(record_.homes) > 1
    )
    if shards > 1:
        # the differential must actually exercise boundary crossings
        assert multi_homed > 0

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
        if rebalance_at == group:
            assert server.rebalance_now(now=now, bounds=bounds)
            assert server.rebalances == 1
    server.close()
    return "\n".join(lines) + "\n"


class TestGoldenDifferential:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("batched", [False, True])
    def test_sharded_trace_is_byte_identical_to_the_frozen_single_trace(
        self, shards, batched
    ):
        frozen = GOLDEN.read_bytes()
        trace = run_sharded_simulation(shards, batched)
        assert trace.encode() == frozen

    @pytest.mark.parametrize("batched", [False, True])
    def test_forced_rebalance_keeps_the_trace_byte_identical(self, batched):
        """A mid-run boundary move (events migrated, subscribers
        re-homed, indexes re-sequenced) must not change a single byte of
        the delivered trace — the safety contract of DESIGN.md §15."""
        frozen = GOLDEN.read_bytes()
        trace = run_sharded_simulation(
            4, batched=batched, rebalance_at=GROUPS // 2,
            bounds=[0, 5, 12, 30, 40],
        )
        assert trace.encode() == frozen

    def test_load_balanced_cut_keeps_the_trace_byte_identical(self):
        """Same differential, but the new boundaries come from the
        observed load histogram instead of being pinned by the test."""
        frozen = GOLDEN.read_bytes()
        trace = run_sharded_simulation(4, batched=False, rebalance_at=GROUPS // 2)
        assert trace.encode() == frozen


# ----------------------------------------------------------------------
# Aggregate views
# ----------------------------------------------------------------------
class TestAggregates:
    def test_merged_metrics_fold_worker_counters(self):
        server = make_sharded(4)
        server.subscribe(make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0)
        server.publish(sale(10, 5_100, 5_000), now=1)
        merged = server.merged_metrics()
        worker_notifications = sum(
            worker.metrics.notifications for worker in server.shard_servers
        )
        assert merged.notifications == worker_notifications
        assert merged.constructions >= len(server.subscribers[1].homes)

    def test_merged_metrics_carry_batch_matching_counters(self):
        # Every worker's _publish_batch runs SubscriptionIndex.match_batch;
        # the probe counter must survive the cross-process metrics merge.
        server = make_sharded(2)
        server.subscribe(make_sub(radius=3_000.0), Point(5_000, 5_000), Point(0, 0), 0)
        server.publish_batch([sale(10, 5_100, 5_000), sale(11, 4_900, 5_000)], now=1)
        server.publish_batch([sale(12, 5_100, 5_000), sale(13, 4_900, 5_000)], now=2)
        merged = server.merged_metrics()
        assert merged.match_batch_probes > 0
        assert merged.match_probe_memo_hits > 0  # the second batch re-probes nothing
        for counter in ("match_batch_probes", "match_probe_memo_hits"):
            assert getattr(merged, counter) == sum(
                getattr(worker.metrics, counter) for worker in server.shard_servers
            )

    def test_merged_registry_histograms(self):
        server = make_sharded(2)
        server.subscribe(make_sub(radius=1_000.0), Point(5_000, 5_000), Point(0, 0), 0)
        server.publish(sale(10, 5_100, 5_000), now=1)
        merged = server.merged_registry()
        total = sum(
            worker.registry.tracer.histogram("publish").count
            for worker in server.shard_servers
        )
        assert merged.tracer.histogram("publish").count == total
        assert total >= 1

    def test_system_stats_sum_over_shards(self):
        server = make_sharded(4)
        for event_id in range(8):
            server.publish(sale(event_id, 1_250 * event_id + 600, 5_000), now=1)
        stats = server.system_stats(now=2)
        assert stats.total_events == 8

    def test_expire_due_events_sums_over_shards(self):
        server = make_sharded(2)
        server.publish(
            Event(1, {"topic": "sale"}, Point(2_000, 5_000), arrived_at=1,
                  expires_at=3),
            now=1,
        )
        server.publish(
            Event(2, {"topic": "sale"}, Point(8_000, 5_000), arrived_at=1,
                  expires_at=3),
            now=1,
        )
        assert server.expire_due_events(now=10) == 2

    def test_subscription_index_factory_is_used(self):
        built = []

        def factory():
            index = SubscriptionIndex()
            built.append(index)
            return index

        server = make_sharded(4, subscription_index_factory=factory)
        assert len(built) == 4
        assert {id(worker.subscription_index) for worker in server.shard_servers} == {
            id(index) for index in built
        }

    def test_zero_arg_strategy_factory_builds_one_strategy_per_shard(self):
        built = []

        def factory():
            strategy = IGM(max_cells=400)
            built.append(strategy)
            return strategy

        server = ShardedElapsServer(
            Grid(40, SPACE),
            factory,
            ServerConfig(initial_rate=2.0),
            shards=3,
            executor=SerialExecutor(),
            event_index_factory=lambda: BEQTree(SPACE, emax=32),
        )
        assert len(built) == 3
        assert [id(w.strategy) for w in server.shard_servers] == [
            id(s) for s in built
        ]


# ----------------------------------------------------------------------
# Executor lifecycle
# ----------------------------------------------------------------------
def launch_bare(executor, shards=2):
    """Launch ``shards`` bare band servers on ``executor`` with a null
    ``locate`` — what a fleet constructor does, minus the coordinator."""
    executor.launch(
        [
            lambda transport: ElapsServer(
                Grid(40, SPACE), IGM(max_cells=400), transport=transport
            )
        ]
        * shards,
        grid=Grid(40, SPACE),
        locate=lambda sub_id: None,
    )
    return executor


class TestExecutorLifecycle:
    @pytest.mark.parametrize("make", [SerialExecutor], ids=["serial"])
    def test_close_is_idempotent(self, make):
        executor = launch_bare(make())
        assert executor.run({0: ("expire_due_events", (1,))}) == {0: ("done", 0, [])}
        executor.close()
        executor.close()  # a second close must be a no-op

    def test_context_manager_closes_on_exit(self):
        with launch_bare(SerialExecutor()) as executor:
            command = ("bootstrap", ([sale(1, 5_000, 5_000)],))
            executor.run({1: command})
            stats = executor.run(
                {0: ("system_stats", (1,)), 1: ("system_stats", (1,))}
            )
            assert [stats[k][1].total_events for k in (0, 1)] == [0, 1]
        executor.close()  # already closed; still a no-op

    def test_launch_twice_rejected(self):
        executor = launch_bare(SerialExecutor())
        with pytest.raises(RuntimeError):
            launch_bare(executor)
        executor.close()

    def test_a_falsy_executor_is_still_the_executor(self):
        """A tracing proxy around an executor may define ``__len__``;
        the fleet must not swap it for the default."""

        class Sized(SerialExecutor):
            def __len__(self):
                return 0

        executor = Sized()
        server = ShardedElapsServer(
            Grid(40, SPACE), IGM(max_cells=400), shards=2, executor=executor
        )
        assert server.executor is executor
        server.close()

    def test_fleet_close_then_second_close_is_safe(self):
        server = make_sharded(2)
        server.publish(sale(1, 5_000, 5_000), now=1)
        server.close()
        server.close()


class RecordingExecutor(SerialExecutor):
    """A serial executor that adds every method name it is sent to
    ``sent`` (shared, so one set can span several fleets)."""

    def __init__(self, sent):
        super().__init__()
        self.sent = sent

    def run(self, commands):
        self.sent.update(method for method, _ in commands.values())
        return super().run(commands)


class TestCommandNamespace:
    def test_every_command_is_a_public_server_method(self, tmp_path):
        """A shard command lives in one namespace — the public methods
        of :class:`ElapsServer`: whatever the coordinator sends, over
        the golden workload, a forced rebalance and every fleet-wide
        pull, resolves there and nowhere else."""
        sent = set()
        trace = run_sharded_simulation(
            4, batched=True, executor=RecordingExecutor(sent),
            rebalance_at=GROUPS // 2, bounds=[0, 5, 12, 30, 40],
        )
        assert trace.encode() == GOLDEN.read_bytes()
        config = ServerConfig(initial_rate=2.0, journal=JournalSpec(str(tmp_path)))
        with make_sharded(2, RecordingExecutor(sent), config) as server:
            server.bootstrap([sale(1, 2_000, 5_000, arrived_at=0)])
            server.subscribe(make_sub(radius=3_000.0), Point(4_000, 5_000), Point(0, 0), 0)
            server.publish(sale(2, 4_500, 5_000), now=1)
            server.report_location(1, Point(6_000, 5_000), Point(0, 0), 2)
            server.resync(1, Point(6_000, 5_000), Point(0, 0), (1,), 3)
            server.expire_due_events(4)
            server.rebuild_all(4)
            server.system_stats(now=4)
            server.snapshot()
            server.configure_tracing(None)
            assert server.merged_metrics().notifications >= 2
            assert server.merged_registry().tracer.histogram("publish").count == 1
            assert len(list(server.corpus_matches(make_sub().expression))) == 2
            assert server.rebalance_now(now=5, bounds=[0, 30, 40])
            server.unsubscribe(1)
        with make_sharded(2, RecordingExecutor(sent), config) as server:
            assert server.recover() > 0
        assert {
            "snapshot", "recover", "subscriber_snapshots", "merged_metrics",
            "merged_registry", "corpus_matches", "configure_tracing",
            "extract_events_in_columns",
        } <= sent
        for method in sorted(sent):
            assert not method.startswith("_"), method
            assert callable(getattr(ElapsServer, method, None)), method


# ----------------------------------------------------------------------
# Load-adaptive repartitioning (serial executor; process fleet coverage
# lives in test_process_fleet.py)
# ----------------------------------------------------------------------
SKEW_POLICY = RebalancePolicy(check_every=16, min_events=64, max_imbalance=1.5)


def drive_skewed_stream(server):
    """A row of subscribers under a stream concentrated on columns
    12..17 of the 40-column grid, in batches of 16; returns the sorted
    ``(sub_id, event_id)`` pairs, the boundary moves and the max/mean
    band load the fleet ends with, and closes it."""
    rng = random.Random(17)
    for sub_id in range(1, 13):
        server.subscribe(
            make_sub(sub_id=sub_id, radius=1_200.0),
            Point(rng.uniform(500, 9_500), rng.uniform(0, 10_000)),
            Point(0, 0),
            0,
        )
    pairs = []
    for tick in range(1, 13):
        batch = [
            sale(tick * 100 + k, rng.uniform(3_100, 4_400), rng.uniform(0, 10_000), tick)
            for k in range(16)
        ]
        pairs += [(n.sub_id, n.event.event_id) for n in server.publish_batch(batch, tick)]
    loads = server.shard_loads()
    imbalance = max(loads) * len(loads) / sum(loads)
    rebalances = server.rebalances
    server.close()
    return sorted(pairs), rebalances, imbalance


class TestRebalance:
    def hot_event(self, event_id, rng):
        # concentrate the stream on columns 12..17 of the 40-column grid
        return sale(event_id, rng.uniform(3_100, 4_400), rng.uniform(0, 10_000))

    def test_adaptive_fleet_delivers_the_static_pairs_and_ends_flatter(self):
        static_pairs, moves, static_imbalance = drive_skewed_stream(make_sharded(4))
        assert moves == 0 and static_pairs
        pairs, moves, imbalance = drive_skewed_stream(
            make_sharded(4, rebalance=SKEW_POLICY)
        )
        assert moves >= 1
        assert pairs == static_pairs
        assert imbalance < static_imbalance

    def test_policy_fires_and_recuts_around_the_hotspot(self):
        server = make_sharded(4, rebalance=SKEW_POLICY)
        rng = random.Random(11)
        for event_id in range(160):
            server.publish(self.hot_event(event_id, rng), now=1 + event_id)
        assert server.rebalances >= 1
        bounds = [spec.col_lo for spec in server.specs] + [server.grid.n]
        assert bounds != [0, 10, 20, 30, 40]
        # the hot column range is now split across several bands
        hot_shards = {server._shard_by_column[c] for c in range(12, 18)}
        assert len(hot_shards) >= 2
        # load accounting observes every publish
        assert sum(server.shard_loads()) > 0
        server.close()

    def test_policy_quiet_below_min_events(self):
        policy = RebalancePolicy(check_every=8, min_events=10_000)
        server = make_sharded(4, rebalance=policy)
        rng = random.Random(11)
        for event_id in range(64):
            server.publish(self.hot_event(event_id, rng), now=1)
        assert server.rebalances == 0
        server.close()

    def test_balanced_stream_never_triggers(self):
        policy = RebalancePolicy(check_every=16, min_events=32, max_imbalance=2.0)
        server = make_sharded(4, rebalance=policy)
        rng = random.Random(11)
        for event_id in range(128):
            server.publish(
                sale(event_id, rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
                now=1,
            )
        assert server.rebalances == 0
        server.close()

    def test_rebalance_now_is_a_noop_without_load_or_change(self):
        server = make_sharded(4)
        assert not server.rebalance_now()  # nothing observed yet
        assert not server.rebalance_now(bounds=[0, 10, 20, 30, 40])  # same cut
        assert server.rebalances == 0
        server.close()

    def test_deliveries_survive_a_forced_move_with_live_subscribers(self):
        server = make_sharded(4)
        sub = make_sub(radius=3_000.0)
        server.bootstrap([sale(1, 3_300, 5_000, arrived_at=0)])
        notes, _ = server.subscribe(sub, Point(3_500, 5_000), Point(0, 0), now=0)
        assert [n.event.event_id for n in notes] == [1]
        assert server.rebalance_now(now=1, bounds=[0, 5, 13, 30, 40])
        # the corpus slice moved with the boundary: no duplicate, no loss
        notes = server.publish(sale(2, 3_400, 5_000, arrived_at=2), now=2)
        assert [n.event.event_id for n in notes] == [2]
        assert server.delivered_ids(sub.sub_id) == frozenset({1, 2})
        # the migrated event lives on exactly one shard
        total = sum(
            len(list(w.corpus_matches(sub.expression)))
            for w in server.shard_servers
        )
        assert total == 2
        server.close()

    def test_recovery_restores_moved_boundaries(self, tmp_path):
        """fleet.json closes the routing gap: a fleet recovered from its
        band journals must route by the *rebalanced* boundaries, or the
        homing invariant breaks for every post-recovery event."""
        from repro.system import JournalSpec

        config = ServerConfig(
            initial_rate=2.0, journal=JournalSpec(str(tmp_path))
        )
        server = make_sharded(4, config=config)
        sub = make_sub(radius=3_000.0)
        server.subscribe(sub, Point(3_500, 5_000), Point(0, 0), now=0)
        server.publish(sale(1, 3_300, 5_000), now=1)
        assert server.rebalance_now(now=2, bounds=[0, 5, 13, 30, 40])
        server.publish(sale(2, 3_400, 5_000), now=3)
        expected = server.delivered_ids(sub.sub_id)
        server.close()

        revived = make_sharded(4, config=config)
        revived.recover()
        assert [s.col_lo for s in revived.specs] == [0, 5, 13, 30]
        assert revived.rebalances == 1
        assert revived.delivered_ids(sub.sub_id) == expected
        # routing agrees with the recovered map: a fresh hot-band event
        # lands on the shard that owns column 13 now, and is delivered
        notes = revived.publish(sale(3, 3_400, 5_000, arrived_at=4), now=4)
        assert [n.event.event_id for n in notes] == [3]
        revived.close()


    def test_a_band_refusing_a_hand_over_bootstrap_still_recovers(self, tmp_path):
        """A rebalance hands a band its new events as one ``bootstrap``
        command; a band that refuses the batch journals nothing, so the
        fleet recovers and replays what came after."""
        config = ServerConfig(initial_rate=2.0, journal=JournalSpec(str(tmp_path)))
        server = make_sharded(2, config=config)
        sub = make_sub(radius=3_000.0)
        server.subscribe(sub, Point(3_500, 5_000), Point(0, 0), now=0)
        with pytest.raises(ValueError):
            server._run({0: ("bootstrap", ([sale(1, 3_300, 5_000), sale(2, -5, 10)],))})
        server.publish(sale(3, 3_400, 5_000), now=1)
        expected = server.delivered_ids(sub.sub_id)
        assert expected == frozenset({3})
        server.close()

        revived = make_sharded(2, config=config)
        revived.recover()
        assert revived.delivered_ids(sub.sub_id) == expected
        assert sum(len(band._events_by_id) for band in revived.shard_servers) == 1
        revived.close()


# ----------------------------------------------------------------------
# A coordinator crash after every executor run of a rebalance
# ----------------------------------------------------------------------
class CoordinatorCrash(Exception):
    """The coordinator dying between two executor runs."""


class CrashingExecutor(SerialExecutor):
    """A serial executor that raises :class:`CoordinatorCrash` right after
    run number ``crash_at``: the shards applied that run's commands, the
    coordinator never reads the replies.  ``None`` never crashes."""

    def __init__(self):
        super().__init__()
        self.runs = 0
        self.crash_at = None

    def run(self, commands):
        replies = super().run(commands)
        self.runs += 1
        if self.runs == self.crash_at:
            raise CoordinatorCrash(f"after run {self.runs}")
        return replies


#: the forced move the crash loop interrupts, and the executor runs it takes
CRASH_BOUNDS = [0, 5, 13, 30, 40]
REBALANCE_RUNS = 13
LOST_ON_EXTRACT = (
    "a crash right after the donors' extract loses the moved events: "
    "no receiver journaled them yet (ROADMAP item 3(c))"
)
OLD_BOUNDS_RECOVERED = (
    "fleet.json is written after a rebalance's last executor run: a crash "
    "before it recovers the old bounds while the moved events sit on "
    "their new owners (ROADMAP item 3(c))"
)


def drive_before_the_move(fleet):
    """A corpus across every band and a row of subscribers, some homed
    where the move hands columns over."""
    rng = random.Random(23)
    fleet.bootstrap(
        [sale(k, rng.uniform(0, 10_000), rng.uniform(0, 10_000), arrived_at=0)
         for k in range(1, 41)]
    )
    for sub_id in range(1, 7):
        fleet.subscribe(
            make_sub(sub_id=sub_id, radius=1_200.0),
            Point(rng.uniform(500, 9_500), rng.uniform(0, 10_000)),
            Point(0, 0),
            0,
        )
    fleet.publish_batch(
        [sale(100 + k, rng.uniform(1_000, 4_000), rng.uniform(0, 10_000), arrived_at=1)
         for k in range(16)],
        now=1,
    )


def placed_events(fleet):
    """Every live event of an in-process fleet, by id, with its shard."""
    return {
        event_id: (shard_id, event)
        for shard_id, server in enumerate(fleet.shard_servers)
        for event_id, event in server._events_by_id.items()
    }


class TestCrashDuringARebalance:
    """Crash the coordinator after each executor run of a journaled
    rebalance, recover a fresh fleet from the band journals and
    ``fleet.json``, and hold it to the oracle: the pre-move corpus, each
    event on the shard its column routes to, and after a resync of every
    subscriber no Definition 1 or 2 violation and no delivered set
    changed.  ``None`` is the uninterrupted move."""

    @pytest.mark.parametrize(
        "crash_after",
        [
            pytest.param(
                k,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason=LOST_ON_EXTRACT if k == 1 else OLD_BOUNDS_RECOVERED,
                ),
            )
            for k in range(1, REBALANCE_RUNS + 1)
        ]
        + [None],
    )
    def test_a_recovered_fleet_matches_the_oracle(self, tmp_path, crash_after):
        config = ServerConfig(initial_rate=2.0, journal=JournalSpec(str(tmp_path)))
        executor = CrashingExecutor()
        fleet = make_sharded(4, executor, config, max_cells=100)
        drive_before_the_move(fleet)
        corpus = set(placed_events(fleet))
        delivered = {sub_id: fleet.delivered_ids(sub_id) for sub_id in fleet.subscribers}
        reports = {
            sub_id: (record.location, record.velocity)
            for sub_id, record in fleet.subscribers.items()
        }
        before = executor.runs
        if crash_after is not None:
            executor.crash_at = before + crash_after
        try:
            assert fleet.rebalance_now(now=2, bounds=CRASH_BOUNDS)
        except CoordinatorCrash:
            pass
        else:
            assert executor.runs - before == REBALANCE_RUNS
        fleet.close()

        with make_sharded(4, config=config, max_cells=100) as revived:
            revived.recover()
            placed = placed_events(revived)
            assert set(placed) == corpus
            for event_id, (shard_id, event) in placed.items():
                assert revived.shard_of_point(event.location) == shard_id, event_id
            for sub_id, (location, velocity) in reports.items():
                revived.resync(sub_id, location, velocity, delivered[sub_id], now=3)
            assert not definition1_violations(revived)
            assert not impact_coverage_violations(revived)
            assert {
                sub_id: revived.delivered_ids(sub_id) for sub_id in delivered
            } == delivered
