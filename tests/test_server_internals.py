"""Server internals: the protocol helper constructors, the min-speed
floor and the ablation switch."""

from __future__ import annotations

import pytest

from repro.core import GridMethod, IGM
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import CallbackTransport, ServerConfig, ElapsServer
from repro.system.protocol import (
    NotificationMessage,
    SafeRegionPush,
    decode_message,
    encode_message,
    notification_for,
    region_push_for,
)

SPACE = Rect(0, 0, 10_000, 10_000)


def make_server(strategy=None, **config_fields):
    return ElapsServer(
        Grid(40, SPACE),
        strategy or IGM(max_cells=400),
        ServerConfig(initial_rate=1.0, **config_fields),
        event_index=BEQTree(SPACE, emax=32))


def make_sub(sub_id=1, radius=1500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def sale(event_id, x, y):
    return Event(event_id, {"topic": "sale"}, Point(x, y))


class TestProtocolHelpers:
    def test_notification_for_roundtrip(self):
        event = Event(9, {"b": 2, "a": 1}, Point(3.0, 4.0))
        message = notification_for(7, event)
        assert isinstance(message, NotificationMessage)
        assert message.attributes == (("a", 1), ("b", 2))  # sorted, stable
        assert decode_message(encode_message(message)) == message

    def test_region_push_for_complement_region(self):
        server = make_server(strategy=GridMethod(), matching_mode="full")
        server.bootstrap([sale(1, 5_000, 5_000)])
        sub = make_sub()
        _, region = server.subscribe(sub, Point(1_000, 1_000), Point(40, 0))
        push = region_push_for(sub.sub_id, region)
        assert isinstance(push, SafeRegionPush)
        assert push.complement is True
        # the complement encoding ships only the excluded cells
        assert push.bitmap.compressed_bytes() < 4_000
        assert decode_message(encode_message(push)) == push


class TestMinSpeedFloor:
    def test_parked_subscriber_still_gets_a_region(self):
        server = make_server()
        sub = make_sub()
        _, region = server.subscribe(sub, Point(5_000, 5_000), Point(0, 0))
        # without the floor, ts would be infinite and the region empty
        assert not region.is_empty()


class TestImpactAblationSwitch:
    def test_disabling_impact_pings_on_every_match(self):
        results = {}
        for flag in (True, False):
            server = make_server(use_impact_region=flag, strategy=IGM(max_cells=4))
            sub = make_sub(radius=500.0)
            server.subscribe(sub, Point(1_000, 1_000), Point(10, 0))
            server.transport = CallbackTransport(
                locate=lambda sub_id: (Point(1_000, 1_000), Point(10, 0)))
            # a far matching event: outside any reasonable impact region
            server.publish(sale(10, 9_500, 9_500), now=1)
            results[flag] = server.metrics.event_arrival_rounds
        assert results[True] == 0
        assert results[False] == 1


class TestRecordBookkeeping:
    def test_refresh_location_via_locator(self):
        server = make_server()
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(40, 0))
        server.transport = CallbackTransport(
            locate=lambda sub_id: (Point(5_100, 5_000), Point(45, 5)))
        record = server.subscribers[sub.sub_id]
        server._refresh_location(record)
        assert record.location == Point(5_100, 5_000)
        assert record.velocity == Point(45, 5)

    def test_delivered_excluded_from_matching_field(self):
        server = make_server(matching_mode="full")
        server.bootstrap([sale(1, 5_000, 6_800)])  # outside r, matching
        sub = make_sub()
        server.subscribe(sub, Point(5_000, 5_000), Point(40, 0))
        record = server.subscribers[sub.sub_id]
        assert server._matching_field(record).all_points() == [Point(5_000, 6_800)]
        # once delivered, the event stops constraining the safe region
        record.delivered.add(1)
        assert server._matching_field(record).all_points() == []


class TestResequenceSubscriptions:
    def notified_order(self, server, event_id):
        notes = server.publish(sale(event_id, 5_050, 5_000), now=event_id)
        return [n.sub_id for n in notes]

    def test_given_order_first_then_the_tail_in_its_old_order(self):
        server = make_server()
        for sub_id in range(1, 7):
            server.subscribe(make_sub(sub_id), Point(5_000, 5_000), Point(0, 0))
        assert self.notified_order(server, 100) == [1, 2, 3, 4, 5, 6]
        # 99 is unknown here (another shard's subscriber): ignored
        server.resequence_subscriptions([5, 99, 2])
        assert self.notified_order(server, 101) == [5, 2, 1, 3, 4, 6]
        assert len(server.subscription_index) == 6
