"""CommunicationStats byte accounting and report completeness.

Every server counts the bytes of every frame it builds, in both
directions; there is no switch.  The accounting is exercised against a
real workload, and the dataclass-driven ``as_dict``/``merged_with`` are
held to covering every counter, so a newly added field (like the batch
counters) can never be silently dropped from reports or merges again.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import IGM
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import (
    CommunicationStats,
    ElapsServer,
    ServerConfig,
    ShardedElapsServer,
    Transport,
)
from repro.system.experiment import ExperimentConfig, build_simulation
from repro.system.protocol import (
    LocationPing,
    LocationReport,
    ResyncMessage,
    encode_message,
    message_bytes,
    notification_for,
    region_delta_for,
    region_push_for,
    subscribe_message_for,
)

SPACE = Rect(0, 0, 10_000, 10_000)


def run_workload(config: ServerConfig = ServerConfig(initial_rate=1.0)) -> ElapsServer:
    server = ElapsServer(
        Grid(40, SPACE), IGM(max_cells=400), config, event_index=BEQTree(SPACE, emax=32)
    )
    sub = Subscription(
        1,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=1_500.0,
    )
    server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
    server.publish(Event(1, {"topic": "sale"}, Point(5_100, 5_000), arrived_at=1), now=1)
    server.publish_batch(
        [
            Event(2, {"topic": "sale"}, Point(5_200, 5_000), arrived_at=2),
            Event(3, {"topic": "rain"}, Point(5_300, 5_000), arrived_at=2),
        ],
        now=2,
    )
    server.report_location(1, Point(5_400, 5_000), Point(20, 0), now=3)
    # a matching event inside the impact region but outside the radius:
    # the out-of-radius type-II hit (rebuild, or repair when enabled)
    server.publish(Event(4, {"topic": "sale"}, Point(7_600, 5_000), arrived_at=4), now=4)
    return server


REPAIRING = ServerConfig(initial_rate=1.0, repair=True)


class TestModes:
    def test_measured_mode_accounts_every_direction(self):
        """Measured is the only mode: a default-config server counts
        every direction."""
        metrics = run_workload(ServerConfig()).metrics
        assert metrics.wire_bytes_up > 0      # subscribe + reports
        assert metrics.wire_bytes_down > 0    # pushes + notifications
        assert metrics.safe_region_bytes > 0  # compressed region payloads
        assert metrics.raw_region_bytes >= metrics.safe_region_bytes
        assert metrics.notifications > 0
        assert metrics.batches == 3  # two single publishes + one burst

    def test_a_resync_counts_the_frame_the_client_sent(self):
        server = run_workload()
        up, down = server.metrics.wire_bytes_up, server.metrics.wire_bytes_down
        location, velocity = Point(5_400, 5_000), Point(20, 0)
        received = tuple(range(1_000, 2_000))
        notifications, region = server.resync(1, location, velocity, received, now=5)
        frame = message_bytes(ResyncMessage(1, location, velocity, received))
        assert frame > 8 * len(received)
        assert server.metrics.wire_bytes_up - up == frame
        # down: the redelivered notifications and the fresh region, as before
        assert server.metrics.wire_bytes_down - down == sum(
            len(encode_message(notification_for(n.sub_id, n.event, n.seq)))
            for n in notifications
        ) + message_bytes(region_push_for(1, region))

    def test_a_notification_counts_as_the_frame_that_carries_it(self):
        """One encode per event, not one per recipient — and still the
        length of each recipient's own frame."""
        server = ElapsServer(
            Grid(40, SPACE),
            IGM(max_cells=400),
            ServerConfig(initial_rate=1.0),
            event_index=BEQTree(SPACE, emax=32))
        for sub_id in (1, 2, 3):
            sub = Subscription(
                sub_id,
                BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
                radius=1_500.0,
            )
            server.subscribe(sub, Point(5_000, 5_000), Point(20, 0), now=0)
        before = server.metrics.wire_bytes_down
        notifications = server.publish_batch(
            [
                Event(1, {"topic": "sale", "flag": True, "café": 1.5},
                      Point(5_100, 5_000), arrived_at=1),
                Event(2, {"zone": "x" * 40, "topic": "sale"},
                      Point(5_200, 5_000), arrived_at=1),
            ],
            now=1,
        )
        assert len(notifications) == 6
        frames = sum(
            len(encode_message(notification_for(n.sub_id, n.event, n.seq)))
            for n in notifications
        )
        pings = sum(message_bytes(LocationPing(sub_id)) for sub_id in (1, 2, 3))
        assert server.metrics.wire_bytes_down - before == frames + pings
        # the corpus-scan path (one subscriber, many events) counts the same
        before = server.metrics.wire_bytes_down
        latecomer = Subscription(
            4, BooleanExpression([Predicate("topic", Operator.EQ, "sale")]), 1_500.0
        )
        notifications, region = server.subscribe(
            latecomer, Point(5_000, 5_000), Point(20, 0), now=2
        )
        assert len(notifications) == 2
        frames = sum(
            len(encode_message(notification_for(n.sub_id, n.event, n.seq)))
            for n in notifications
        )
        assert server.metrics.wire_bytes_down - before == frames + message_bytes(
            region_push_for(4, region)
        )


class ClientWire:
    """A server wrapper that sizes every frame a client sends or receives:
    the operations the simulation calls, the notifications they return,
    and the pushes and pings that come back through the transport the
    simulation installs."""

    def __init__(self, server) -> None:
        self.server = server
        self.up = self.down = self.region = self.delta = self.reports = 0

    def __getattr__(self, name):
        return getattr(self.server, name)

    @property
    def transport(self):
        return self.server.transport

    @transport.setter
    def transport(self, inner) -> None:
        self.server.transport = RecordingTransport(self, inner)

    def _received(self, notifications):
        self.down += sum(
            len(encode_message(notification_for(n.sub_id, n.event, n.seq)))
            for n in notifications
        )
        return notifications

    def subscribe(self, subscription, location, velocity, now=0):
        self.up += message_bytes(subscribe_message_for(subscription, location, velocity))
        notifications, region = self.server.subscribe(subscription, location, velocity, now)
        return self._received(notifications), region

    def report_location(self, sub_id, location, velocity, now):
        self.reports += 1
        self.up += message_bytes(LocationReport(sub_id, location, velocity))
        notifications, region = self.server.report_location(sub_id, location, velocity, now)
        return self._received(notifications), region

    def publish(self, event, now):
        return self._received(self.server.publish(event, now))


class RecordingTransport(Transport):
    """The simulation's transport, sizing each frame it carries."""

    def __init__(self, wire: ClientWire, inner: Transport) -> None:
        self.wire = wire
        self.inner = inner

    def locate(self, sub_id):
        answer = self.inner.locate(sub_id)
        self.wire.down += message_bytes(LocationPing(sub_id))
        self.wire.up += message_bytes(LocationReport(sub_id, *answer))
        return answer

    def ship_region(self, sub_id, region):
        push = region_push_for(sub_id, region)
        self.wire.down += message_bytes(push)
        self.wire.region += push.bitmap.compressed_bytes()
        self.inner.ship_region(sub_id, region)

    def ship_delta(self, sub_id, removed, region):
        delta = region_delta_for(sub_id, region.grid, removed)
        self.wire.down += message_bytes(delta)
        self.wire.delta += delta.bitmap.compressed_bytes()
        self.inner.ship_delta(sub_id, removed, region)


class TestFleetWire:
    @pytest.mark.parametrize("repair", [False, True], ids=["rebuild", "repair"])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_byte_counts_are_the_frames_the_clients_saw(self, shards, repair):
        """A fleet counts its clients' wire once, at the coordinator: the
        one subscribe / report frame up (not one per home shard), the
        deduplicated notifications and the intersected region down (not
        each shard's own band region)."""
        config = ExperimentConfig(
            initial_events=2500, subscribers=6, timestamps=50, event_rate=4.0,
            grid_n=80, max_cells=1200, shards=shards, repair=repair,
        )
        simulation = build_simulation(config, wrap_server=ClientWire)
        stats = simulation.run(config.timestamps).stats
        wire = simulation.server
        assert stats.total_rounds > 0 and wire.region > 0
        assert stats.wire_bytes_up == wire.up
        assert stats.wire_bytes_down == wire.down
        assert stats.safe_region_bytes == wire.region
        assert stats.delta_region_bytes == wire.delta


class TestFleetRounds:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_a_report_is_one_location_update_round(self, shards):
        """A report to a subscriber homed on several shards is still one
        round: the coordinator counts it, not each home."""
        config = ExperimentConfig(
            initial_events=2500, subscribers=10, timestamps=50, grid_n=80,
            max_cells=1200, shards=shards, repair=True,
        )
        simulation = build_simulation(config, wrap_server=ClientWire)
        stats = simulation.run(config.timestamps).stats
        assert simulation.server.reports > 0
        assert stats.location_update_rounds == simulation.server.reports


class TestFleetClientOperations:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_resync_and_a_resubscribe_count_once(self, shards):
        """A subscriber homed on both bands reads one resync and one
        resubscribe, and the redeliveries its client received, as a
        single server counts them: the coordinator owns the counters."""
        fleet = ShardedElapsServer(
            Grid(40, SPACE), IGM(max_cells=400), ServerConfig(initial_rate=1.0),
            shards=shards, event_index_factory=lambda: BEQTree(SPACE, emax=32),
        )
        sub = Subscription(
            1, BooleanExpression([Predicate("topic", Operator.EQ, "sale")]), radius=1_500.0
        )
        edge, still = Point(5_000, 5_000), Point(0, 0)  # the bands meet at x = 5,000
        fleet.bootstrap([
            Event(1, {"topic": "sale"}, Point(4_900, 5_000)),
            Event(2, {"topic": "sale"}, Point(5_100, 5_000)),
        ])
        fleet.subscribe(sub, edge, still, now=0)
        assert len(fleet.subscribers[1].homes) == shards
        fleet.resync(1, edge, still, [], now=1)
        fleet.subscribe(sub, edge, still, now=2)
        stats = fleet.merged_metrics()
        assert (stats.resyncs, stats.resubscribes, stats.redeliveries) == (1, 1, 2)
        fleet.close()


class TestReportCompleteness:
    def test_as_dict_covers_every_field(self):
        stats = CommunicationStats()
        assert set(stats.as_dict()) == {f.name for f in fields(CommunicationStats)}

    def test_as_dict_includes_batch_counters(self):
        report = run_workload().metrics.as_dict()
        for key in ("batches", "batch_events", "cache_hits"):
            assert key in report
        # every pass through the pipeline counts, single publishes included
        assert report["batches"] == 3
        assert report["batch_events"] == 4

    def test_as_dict_includes_repair_counters(self):
        """A repair workload's counters survive into the report.

        The dataclass-driven as_dict picks new fields up automatically;
        this pins the three repair counters by name so a rename or an
        accidental property-isation (properties are not fields) shows up.
        """
        report = run_workload(REPAIRING).metrics.as_dict()
        for key in ("repairs", "repair_fallbacks", "delta_region_bytes"):
            assert key in report
        # the workload's out-of-radius type-II hit was repaired, not rebuilt
        assert report["repairs"] >= 1
        assert report["delta_region_bytes"] > 0

    def test_per_subscriber_includes_repairs_and_batches(self):
        """A repair-mode run must be distinguishable from rebuild-mode
        when only the per-subscriber view is reported."""
        metrics = run_workload(REPAIRING).metrics
        per = metrics.per_subscriber(1)
        assert per["repairs"] == metrics.repairs >= 1
        assert per["batches"] == metrics.batches == 3

    def test_per_subscriber_divides_by_population(self):
        metrics = run_workload().metrics
        per = metrics.per_subscriber(4)
        assert per["notifications"] == metrics.notifications / 4
        assert per["batches"] == metrics.batches / 4

    def test_reports_jointly_cover_every_counter(self):
        """Every field surfaces in at least one reporting view.

        ``as_dict`` covers all of them by construction; this pins the
        *union* so the guarantee survives even if as_dict ever becomes
        selective, and documents which fields the per-subscriber view is
        expected to carry.
        """
        stats = CommunicationStats()
        exposed = set(stats.as_dict()) | set(stats.per_subscriber(1))
        assert {f.name for f in fields(CommunicationStats)} <= exposed
        # the per-subscriber view itself carries the paper's headline
        # series plus the repair/batch counters the figures comment on
        assert {"location_update", "event_arrival", "total", "notifications",
                "repairs", "batches"} <= set(stats.per_subscriber(1))

    def test_write_timeouts_field_merges_and_reports(self):
        a = CommunicationStats(write_timeouts=2)
        b = CommunicationStats(write_timeouts=3)
        assert a.merged_with(b).write_timeouts == 5
        assert a.as_dict()["write_timeouts"] == 2

    def test_merge_sums_every_counter(self):
        a = run_workload().metrics
        b = run_workload(REPAIRING).metrics
        merged = a.merged_with(b)
        for f in fields(CommunicationStats):
            assert getattr(merged, f.name) == getattr(a, f.name) + getattr(b, f.name), f.name
        # inputs untouched
        assert a.batches == 3
        assert a.repairs == 0
