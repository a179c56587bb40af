"""The batched event pipeline: ``publish_batch`` end to end.

Semantics: a batch must deliver exactly what the same events published
one at a time would deliver (the golden-trace suite pins a full
simulation; here the property is checked per-scenario with fresh
servers), while doing strictly less work: one ping and at most one
safe-region construction per subscriber per burst, bulk z-ordered
insertion, and cache-amortised matching — all visible through the new
``CommunicationStats`` counters.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core import IGM
from repro.datasets import TwitterLikeGenerator
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import ElapsServer, ServerConfig
from repro.system.network import ElapsNetworkClient, ElapsTCPServer
from repro.system.protocol import EventPublishBatchMessage, NotificationMessage

SPACE = Rect(0, 0, 10_000, 10_000)


def fresh_server(**config_fields) -> ElapsServer:
    config = ServerConfig(initial_rate=1.0, **config_fields)
    return ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=400),
        config,
        event_index=BEQTree(SPACE, emax=32),
    )


def make_sub(sub_id=1, radius=1_500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def matching_event(event_id, location, arrived_at=1):
    return Event(event_id, {"topic": "sale"}, location, arrived_at=arrived_at)


def note_tuples(notifications):
    return [(n.sub_id, n.event.event_id, n.timestamp) for n in notifications]


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_equals_event_at_a_time(self, seed):
        """Same subscribers, same events, same notifications, same order —
        however the arrivals are chunked (1 = ``publish`` per event, 5
        leaves a ragged tail, 16 = one batch per timestamp)."""
        generator = TwitterLikeGenerator(SPACE, seed=seed)
        subscriptions = generator.subscriptions(12, size=2, radius=3_000)
        rng = random.Random(seed)
        placements = [
            Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
            for _ in subscriptions
        ]
        logs = {}
        for chunk in (1, 5, 16):
            log = logs[chunk] = []
            server = fresh_server()
            for subscription, location in zip(subscriptions, placements):
                notes, _ = server.subscribe(
                    subscription, location, Point(0.0, 0.0), now=0
                )
                log.extend(note_tuples(notes))
            for group in range(5):
                events = generator.events(
                    16, start_id=group * 16, arrived_at=group + 1, seed_offset=group
                )
                for i in range(0, len(events), chunk):
                    burst = events[i : i + chunk]
                    notes = (
                        server.publish(burst[0], group + 1) if chunk == 1
                        else server.publish_batch(burst, group + 1)
                    )
                    log.extend(note_tuples(notes))
        assert logs[1]  # the workload delivers something
        assert logs[5] == logs[1]
        assert logs[16] == logs[1]

    def test_empty_batch_is_a_noop(self):
        server = fresh_server()
        before = server.metrics.as_dict()
        assert server.publish_batch([], now=1) == []
        assert server.metrics.as_dict() == before

    def test_duplicate_ids_within_batch_rejected_atomically(self):
        duplicate_id = [
            matching_event(1, Point(5_000, 5_000)),
            matching_event(1, Point(6_000, 6_000)),
        ]
        out_of_bounds_mid_batch = [
            matching_event(1, Point(5_000, 5_000)),
            matching_event(2, Point(-1, 5_000)),
            matching_event(3, Point(6_000, 6_000)),
        ]
        for events in (duplicate_id, out_of_bounds_mid_batch):
            server = fresh_server()
            with pytest.raises(ValueError):
                server.publish_batch(events, now=1)
            # upfront validation: nothing was inserted
            assert len(server.event_index) == 0
            assert [len(leaf) for leaf in server.event_index.leaves()] == [0]
            # ... and no id was claimed
            server.publish_batch(events[:1], now=1)
            assert len(server.event_index) == 1


class TestAmortisation:
    def test_one_construction_per_subscriber_per_burst(self):
        """A burst of out-of-radius matching events: N constructions on
        the single path, exactly 1 on the batched path."""
        burst = [
            matching_event(100 + k, Point(8_000.0 + 10 * k, 8_000.0))
            for k in range(8)
        ]
        # use_impact_region=False makes every be-matching arrival ping,
        # so every out-of-radius event forces a reconstruction.
        single = fresh_server(use_impact_region=False)
        single.subscribe(make_sub(), Point(2_000, 2_000), Point(10, 0), now=0)
        base = single.metrics.constructions
        for event in burst:
            single.publish(event, now=1)
        assert single.metrics.constructions - base == len(burst)
        assert single.metrics.event_arrival_rounds == len(burst)

        batched = fresh_server(use_impact_region=False)
        batched.subscribe(make_sub(), Point(2_000, 2_000), Point(10, 0), now=0)
        base = batched.metrics.constructions
        notes = batched.publish_batch(burst, now=1)
        assert notes == []
        assert batched.metrics.constructions - base == 1
        assert batched.metrics.event_arrival_rounds == 1

    def test_batch_counters_populated(self):
        generator = TwitterLikeGenerator(SPACE, seed=3)
        server = fresh_server()
        for subscription in generator.subscriptions(10, size=2, radius=3_000):
            server.subscribe(subscription, Point(5_000, 5_000), Point(0, 0), now=0)
        for group in range(4):
            events = generator.events(
                32, start_id=group * 32, arrived_at=group + 1, seed_offset=group
            )
            server.publish_batch(events, group + 1)
        stats = server.metrics.as_dict()
        assert stats["batches"] == 4
        assert stats["batch_events"] == 4 * 32
        assert stats["cache_hits"] >= 0
        # A single publish is a pass through the same pipeline.
        single = fresh_server()
        single.subscribe(make_sub(), Point(5_000, 5_000), Point(0, 0), now=0)
        single.publish(matching_event(1, Point(5_100, 5_000)), now=1)
        assert single.metrics.batches == 1
        assert single.metrics.batch_events == 1

    def test_delivery_within_radius_still_immediate(self):
        server = fresh_server()
        server.subscribe(make_sub(radius=2_000), Point(5_000, 5_000), Point(0, 0), now=0)
        burst = [matching_event(k, Point(5_000.0 + 50 * k, 5_000.0)) for k in range(5)]
        notes = server.publish_batch(burst, now=1)
        assert sorted(n.event.event_id for n in notes) == [0, 1, 2, 3, 4]
        # In-radius bursts deliver without any reconstruction.
        assert server.metrics.constructions == 1  # the subscribe-time one

    def test_batch_respects_event_expiry(self):
        server = fresh_server()
        server.subscribe(make_sub(radius=2_000), Point(5_000, 5_000), Point(0, 0), now=0)
        doomed = Event(
            1, {"topic": "sale"}, Point(5_100, 5_000), arrived_at=1, expires_at=3
        )
        server.publish_batch([doomed], now=1)
        assert len(server.event_index) == 1
        assert server.expire_due_events(now=5) == 1
        assert len(server.event_index) == 0


class TestWireProtocol:
    def test_batch_message_over_tcp_delivers_notifications(self):
        async def scenario():
            tcp = ElapsTCPServer(fresh_server(), port=0, timestamp_seconds=0.05)
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await publisher.publish_batch(
                [
                    (1, {"topic": "sale", "price": 9}, Point(5_100, 5_000)),
                    (2, {"topic": "weather"}, Point(5_100, 5_000)),
                    (3, {"topic": "sale"}, Point(5_200, 5_000), 100),
                ]
            )
            got = set()
            for _ in range(2):
                message = await subscriber.receive()
                assert isinstance(message, NotificationMessage)
                # the server composes unique internal ids; the low 32
                # bits carry the publisher's event id
                got.add(message.event_id & 0xFFFFFFFF)
            assert got == {1, 3}
            assert tcp.server.metrics.batches == 1
            assert tcp.server.metrics.batch_events == 3
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        asyncio.run(scenario())

    def test_empty_batch_message_rejected_at_construction(self):
        with pytest.raises(ValueError):
            EventPublishBatchMessage(events=())
