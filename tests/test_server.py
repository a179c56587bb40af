"""The Elaps server: the four message flows of Section 5."""

from __future__ import annotations

import pytest

from repro.core import IGM, GridMethod
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect, interleave
from repro.index import BEQTree
from repro.system import ServerConfig, ElapsServer

SPACE = Rect(0, 0, 10_000, 10_000)


def make_server(strategy=None, **config_fields):
    grid = Grid(40, SPACE)
    config_fields.setdefault("initial_rate", 1.0)
    return ElapsServer(
        grid,
        strategy or IGM(max_cells=600),
        ServerConfig(**config_fields),
        event_index=BEQTree(SPACE, emax=32))


def make_sub(sub_id=1, radius=1500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def sale_event(event_id, x, y, **extra):
    return Event(event_id, {"topic": "sale", **extra}, Point(x, y))


class TestSubscriptionFlow:
    def test_subscribe_delivers_existing_matches_in_circle(self):
        server = make_server()
        server.bootstrap([sale_event(1, 5400, 5000), sale_event(2, 9000, 9000)])
        notifications, region = server.subscribe(make_sub(), Point(5000, 5000), Point(50, 0))
        assert [n.event.event_id for n in notifications] == [1]
        assert region is not None

    def test_subscribe_ignores_non_matching_events(self):
        server = make_server()
        server.bootstrap([Event(1, {"topic": "weather"}, Point(5100, 5000))])
        notifications, _ = server.subscribe(make_sub(), Point(5000, 5000), Point(50, 0))
        assert notifications == []

    def test_unsubscribe_cleans_up(self):
        server = make_server()
        sub = make_sub()
        server.subscribe(sub, Point(5000, 5000), Point(50, 0))
        server.unsubscribe(sub.sub_id)
        assert sub.sub_id not in server.subscribers
        assert sub.sub_id not in server.impact_index
        # a matching publish no longer reaches anyone
        assert server.publish(sale_event(10, 5100, 5000), now=1) == []

    def test_unsubscribe_unknown_raises(self):
        with pytest.raises(KeyError):
            make_server().unsubscribe(42)


class TestEventArrivalFlow:
    def test_event_inside_circle_notifies(self):
        server = make_server()
        sub = make_sub()
        server.subscribe(sub, Point(5000, 5000), Point(50, 0))
        notifications = server.publish(sale_event(10, 5200, 5000), now=1)
        assert [n.sub_id for n in notifications] == [1]
        assert server.metrics.event_arrival_rounds == 1
        assert server.metrics.notifications == 1

    def test_event_in_impact_but_outside_circle_rebuilds_region(self):
        server = make_server()
        sub = make_sub(radius=1000.0)
        _, old_region = server.subscribe(sub, Point(5000, 5000), Point(50, 0))
        # inside the impact region (old region is large) but > r away
        notifications = server.publish(sale_event(10, 7000, 5000), now=1)
        assert notifications == []
        assert server.metrics.event_arrival_rounds == 1
        new_region = server.subscribers[sub.sub_id].safe
        # the new region must respect the new matching event
        for cell in new_region.iter_cells():
            assert server.grid.cell_rect(cell).min_distance_to_point(Point(7000, 5000)) > 1000.0

    def test_event_outside_impact_is_silent(self):
        server = make_server(strategy=IGM(max_cells=4))
        sub = make_sub(radius=500.0)
        server.subscribe(sub, Point(1000, 1000), Point(10, 0))
        notifications = server.publish(sale_event(10, 9500, 9500), now=1)
        assert notifications == []
        assert server.metrics.event_arrival_rounds == 0

    def test_non_matching_event_is_silent(self):
        server = make_server(strategy=GridMethod(), matching_mode="full")
        sub = make_sub()
        server.subscribe(sub, Point(5000, 5000), Point(50, 0))
        server.publish(Event(10, {"topic": "weather"}, Point(5050, 5000)), now=1)
        assert server.metrics.event_arrival_rounds == 0
        assert server.metrics.notifications == 0

    def test_delivered_event_never_reconsidered(self):
        server = make_server()
        sub = make_sub()
        server.subscribe(sub, Point(5000, 5000), Point(50, 0))
        event = sale_event(10, 5200, 5000)
        server.publish(event, now=1)
        before = server.metrics.notifications
        # the same subscriber reports; the delivered event must not repeat
        notifications, _ = server.report_location(sub.sub_id, Point(5210, 5000), Point(50, 0), now=2)
        assert notifications == []
        assert server.metrics.notifications == before


class TestEventExpiryFlow:
    def test_expiry_removes_event_silently(self):
        server = make_server()
        sub = make_sub()
        server.subscribe(sub, Point(5000, 5000), Point(50, 0))
        event = Event(10, {"topic": "sale"}, Point(8000, 8000), arrived_at=1, expires_at=5)
        server.publish(event, now=1)
        rounds_before = server.metrics.total_rounds
        assert server.expire_due_events(5) == 1
        assert server.metrics.total_rounds == rounds_before
        assert len(server.event_index) == 0

    def test_expiry_not_due_keeps_event(self):
        server = make_server()
        event = Event(10, {"topic": "sale"}, Point(8000, 8000), arrived_at=1, expires_at=5)
        server.publish(event, now=1)
        assert server.expire_due_events(4) == 0
        assert len(server.event_index) == 1


class TestLocationUpdateFlow:
    def test_report_delivers_newly_reachable_events(self):
        server = make_server()
        sub = make_sub(radius=1000.0)
        server.bootstrap([sale_event(1, 8000, 5000)])
        server.subscribe(sub, Point(1000, 5000), Point(100, 0))
        notifications, region = server.report_location(
            sub.sub_id, Point(7500, 5000), Point(100, 0), now=10
        )
        assert [n.event.event_id for n in notifications] == [1]
        assert server.metrics.location_update_rounds == 1

    def test_report_updates_server_side_location(self):
        server = make_server()
        sub = make_sub()
        server.subscribe(sub, Point(1000, 1000), Point(10, 0))
        server.report_location(sub.sub_id, Point(2000, 2000), Point(20, 0), now=3)
        record = server.subscribers[sub.sub_id]
        assert record.location == Point(2000, 2000)
        assert record.velocity == Point(20, 0)


class TestStatsEstimation:
    def test_initial_rate_used_during_warmup(self):
        server = make_server()
        server.subscribe(make_sub(), Point(5000, 5000), Point(50, 0), now=0)
        assert server.system_stats(10).event_rate == 1.0

    def test_rate_window_estimation(self):
        server = make_server()
        server._started_at = 0
        for t in range(100, 150):
            server._arrival_times.extend([t, t])  # 2 events per tick
        estimated = server._estimated_rate(150)
        assert estimated == pytest.approx(2.0, rel=0.1)

    def test_arrival_window_stays_bounded_without_constructions(self):
        """The rate window is pruned as arrivals are appended, not only
        when a construction reads the rate: a fleet that never
        reconstructs must not grow it without bound."""
        server = make_server()
        assert server.rate_window == 50
        server._started_at = 0  # past warm-up: the rate is the windowed count
        built = server.metrics.constructions
        per_tick, event_id = 10, 0
        for t in range(1_000):
            batch = [
                sale_event(event_id + k, 100.0 + k, 100.0) for k in range(per_tick // 2)
            ]
            server.publish_batch(batch, now=t)
            event_id += len(batch)
            for _ in range(per_tick - len(batch)):
                server.publish(sale_event(event_id, 200.0, 200.0), now=t)
                event_id += 1
            assert len(server._arrival_times) <= 50 * per_tick
        assert event_id == 10_000
        assert server.metrics.constructions == built
        assert len(server._arrival_times) == 50 * per_tick
        assert server._estimated_rate(999) == per_tick

    def test_rate_equals_the_windowed_count_on_a_monotone_clock(self):
        import random

        rng = random.Random(11)
        server = make_server()
        server.rate_window = 20
        server._started_at = -1_000
        arrivals, now, event_id = [], 0, 0
        for _ in range(300):
            now += rng.choice([0, 0, 1, 3, 25])
            if rng.random() < 0.7:
                server.publish(sale_event(event_id, 100.0, 100.0), now=now)
                arrivals.append(now)
                event_id += 1
            else:
                expected = sum(1 for t in arrivals if t > now - 20) / 20
                assert server._estimated_rate(now) == expected

    def test_stats_override_wins(self):
        from repro.core import SystemStats

        server = make_server(stats_override=lambda now: SystemStats(9.0, 777))
        stats = server.system_stats(5)
        assert stats.event_rate == 9.0 and stats.total_events == 777

    def test_unknown_matching_mode_rejected(self):
        with pytest.raises(ValueError):
            make_server(matching_mode="psychic")


class TestDegenerateRegion:
    def test_empty_safe_region_still_covers_circle(self):
        """When the subscriber's own cell is unsafe the safe region is
        empty, but the impact region must still cover the notification
        circle so nothing is missed (Lemma 1 fallback)."""
        server = make_server()
        sub = make_sub(radius=1000.0)
        at = Point(5000, 5000)
        server.bootstrap([sale_event(1, 5000 + 1100, 5000)])  # just outside r
        # the start cell is within r of the event -> unsafe -> empty region
        _, region = server.subscribe(sub, at, Point(50, 0))
        if not region.is_empty():
            pytest.skip("grid resolution kept the cell safe")
        for cell in server.grid.cells_intersecting_circle(sub.notification_region(at)):
            assert server.impact_index.covers(sub.sub_id, interleave(*cell))


class TestBytesAccounting:
    def test_measure_bytes_accumulates(self):
        server = make_server()
        server.subscribe(make_sub(), Point(5000, 5000), Point(50, 0))
        assert server.metrics.safe_region_bytes > 0
        assert server.metrics.raw_region_bytes > 0
