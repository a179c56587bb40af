"""The backpressure-aware connection front-end (DESIGN.md §17).

Four layers of coverage:

* :class:`SendQueue` semantics — supersede, stale-shed, the dirty-delta
  guard, grace-window and hard-cap verdicts — driven directly;
* hypothesis properties over random offer/pop interleavings: depth never
  exceeds the hard cap, notifications are never dropped and keep their
  order, and no delta survives a shed of its base region until a full
  push re-syncs the chain;
* end-to-end behaviours over real sockets: golden-trace byte-identity on
  the no-shed path, slow-consumer disconnects, supersede under a stalled
  reader, admission control, the ``stop()`` leak fix and
  ``push_errors``;
* chaos runs (``-m chaos``): a throttled reader behind the fault proxy
  is shed and disconnected, then heals through reconnect + resync into
  an exactly-once delivered set — and the same path seeded on a virtual
  clock, with :class:`~repro.system.network.Connection` objects and no
  socket.
"""

from __future__ import annotations

import asyncio
import os
import random
import socket

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import IGM
from repro.expressions import (
    BooleanExpression,
    Event,
    Operator,
    Predicate,
    Subscription,
)
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import (
    ClientConfig,
    CommunicationStats,
    ElapsNetworkClient,
    ElapsServer,
    ElapsTCPServer,
    FrameKind,
    NetworkConfig,
    ReconnectPolicy,
    ResilientElapsClient,
    SendQueue,
    SendVerdict,
    ServerConfig,
)
from repro.system import MobileClient, network
from repro.system.network import Connection, FrameParser, FrameReader
from repro.system.protocol import (
    LocationReport,
    NotificationMessage,
    ResyncMessage,
    decode_message,
    encode_message,
    publish_batch_message_for,
    subscribe_message_for,
)
from repro.testing import FaultConfig, chaos_proxy

SPACE = Rect(0, 0, 10_000, 10_000)


def make_tcp_server(config: NetworkConfig = None, **core_kwargs) -> ElapsTCPServer:
    server = ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=400),
        ServerConfig(initial_rate=1.0),
        event_index=BEQTree(SPACE, emax=32),
        **core_kwargs,
    )
    return ElapsTCPServer(
        server, port=0, timestamp_seconds=0.05, config=config or NetworkConfig()
    )


def make_sub(sub_id=1, radius=1_500.0):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=radius,
    )


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# SendQueue semantics
# ----------------------------------------------------------------------
class TestSendQueue:
    def test_fifo_below_cap(self):
        q = SendQueue(8)
        for i in range(3):
            assert q.offer(FrameKind.NOTIFICATION, 1, bytes([i]), 0.0) is SendVerdict.OK
        assert [q.pop().frame for _ in range(3)] == [b"\x00", b"\x01", b"\x02"]
        assert q.pop() is None

    def test_new_region_supersedes_queued_region_state(self):
        q = SendQueue(8)
        q.offer(FrameKind.REGION, 1, b"r1", 0.0)
        q.offer(FrameKind.DELTA, 1, b"d1", 0.0)
        q.offer(FrameKind.NOTIFICATION, 1, b"n1", 0.0)
        q.offer(FrameKind.REGION, 2, b"other", 0.0)
        q.offer(FrameKind.REGION, 1, b"r2", 0.0)
        frames = []
        while (entry := q.pop()) is not None:
            frames.append(entry.frame)
        # sub 1's stale region state is gone; everything else held order
        assert frames == [b"n1", b"other", b"r2"]
        assert q.stats.superseded_region_ships == 2
        assert q.stats.frames_shed == 0

    def test_shed_drops_stale_frames_oldest_first(self):
        q = SendQueue(3)
        q.offer(FrameKind.EPHEMERAL, None, b"e1", 0.0)
        q.offer(FrameKind.NOTIFICATION, 1, b"n1", 0.0)
        q.offer(FrameKind.EPHEMERAL, None, b"e2", 0.0)
        verdict = q.offer(FrameKind.NOTIFICATION, 1, b"n2", 0.0)
        # over the cap: the oldest ephemeral goes; back at cap, verdict OK
        assert verdict is SendVerdict.OK
        assert q.stats.frames_shed == 1
        frames = []
        while (entry := q.pop()) is not None:
            frames.append(entry.frame)
        assert frames == [b"n1", b"e2", b"n2"]

    def test_shedding_a_region_breaks_the_delta_chain(self):
        q = SendQueue(2)
        q.offer(FrameKind.REGION, 1, b"r1", 0.0)
        q.offer(FrameKind.NOTIFICATION, 1, b"n1", 0.0)
        q.offer(FrameKind.NOTIFICATION, 1, b"n2", 0.0)  # sheds r1
        assert q.stats.frames_shed == 1
        assert q.region_state_dirty(1)
        # a delta offered now would poison the client: dropped, still dirty
        verdict = q.offer(FrameKind.DELTA, 1, b"d1", 0.0)
        assert verdict in (SendVerdict.OK, SendVerdict.OVER)
        assert q.stats.frames_shed == 2
        assert q.region_state_dirty(1)
        assert all(e.kind is not FrameKind.DELTA for e in list(q._entries))
        # while still over cap, even a fresh push is immediately shed
        # (region state is what overload sacrifices) and the chain stays
        # broken; once the consumer drains, a full push re-syncs it
        q.pop()
        q.pop()
        q.offer(FrameKind.REGION, 1, b"r2", 0.0)
        assert not q.region_state_dirty(1)

    def test_notifications_are_never_shed(self):
        q = SendQueue(2, 100)
        for i in range(10):
            q.offer(FrameKind.NOTIFICATION, 1, bytes([i]), 0.0)
        assert q.stats.frames_shed == 0
        assert len(q) == 10

    def test_hard_cap_is_an_immediate_disconnect(self):
        q = SendQueue(2, 4, grace=60.0)
        verdicts = [
            q.offer(FrameKind.NOTIFICATION, 1, bytes([i]), 0.0) for i in range(4)
        ]
        assert verdicts[-1] is SendVerdict.DISCONNECT
        assert SendVerdict.DISCONNECT not in verdicts[:-1]

    def test_grace_window_escalates_over_to_disconnect(self):
        q = SendQueue(1, 100, grace=1.0)
        assert q.offer(FrameKind.NOTIFICATION, 1, b"a", 10.0) is SendVerdict.OK
        assert q.offer(FrameKind.NOTIFICATION, 1, b"b", 10.0) is SendVerdict.OVER
        assert q.offer(FrameKind.NOTIFICATION, 1, b"c", 10.5) is SendVerdict.OVER
        assert q.offer(FrameKind.NOTIFICATION, 1, b"d", 11.1) is SendVerdict.DISCONNECT

    def test_draining_below_cap_resets_the_grace_clock(self):
        q = SendQueue(2, 100, grace=1.0)
        for i in range(3):
            q.offer(FrameKind.NOTIFICATION, 1, bytes([i]), 10.0)
        q.pop()  # back at the cap: consumer recovered
        assert q.offer(FrameKind.NOTIFICATION, 1, b"x", 20.0) is SendVerdict.OVER
        assert q.offer(FrameKind.NOTIFICATION, 1, b"y", 20.5) is SendVerdict.OVER

    def test_high_water_reaches_stats(self):
        stats = CommunicationStats()
        q = SendQueue(100, stats=stats)
        for i in range(7):
            q.offer(FrameKind.NOTIFICATION, 1, bytes([i]), 0.0)
        q.pop()
        assert q.high_water == 7
        assert stats.send_queue_high_water == 7


# ----------------------------------------------------------------------
# SendQueue properties
# ----------------------------------------------------------------------
_OP = st.one_of(
    st.tuples(
        st.sampled_from(
            [
                FrameKind.NOTIFICATION,
                FrameKind.REGION,
                FrameKind.DELTA,
                FrameKind.EPHEMERAL,
                FrameKind.CONTROL,
            ]
        ),
        st.integers(min_value=0, max_value=3),
    ),
    st.just("pop"),
)


class TestSendQueueProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(_OP, max_size=120),
        soft=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=8),
    )
    def test_invariants_over_random_interleavings(self, ops, soft, extra):
        hard = soft + extra if extra else None
        q = SendQueue(soft, hard, grace=1e9)
        offered = 0
        popped = []
        draining = False
        shed_base = set()  # subs whose region frame was shed, not yet re-synced
        notifications_in = []
        for op in ops:
            if op == "pop":
                entry = q.pop()
                if entry is not None:
                    popped.append(entry)
                continue
            if draining:
                # the server stops offering after the first DISCONNECT
                # verdict (the connection is marked draining), so the
                # depth bound below only holds under that contract
                continue
            kind, sub = op
            frame = bytes([offered % 251])
            before_shed = q.stats.frames_shed
            verdict = q.offer(kind, sub, frame, 0.0)
            offered += 1
            if verdict is SendVerdict.DISCONNECT:
                draining = True
            if kind is FrameKind.NOTIFICATION:
                notifications_in.append((sub, frame))
            # mirror the dirty-set contract from the outside
            if kind is FrameKind.REGION:
                shed_base.discard(sub)
            if q.stats.frames_shed > before_shed or q.region_state_dirty(sub):
                shed_base |= {
                    s for s in range(4) if q.region_state_dirty(s)
                }
            shed_base = {s for s in shed_base if q.region_state_dirty(s)}

            # depth never exceeds the hard cap
            assert len(q) <= q.hard_cap
            # no queued delta for a sub with a broken chain
            for entry in list(q._entries):
                if entry.kind is FrameKind.DELTA:
                    assert entry.sub_id not in shed_base

        while (entry := q.pop()) is not None:
            popped.append(entry)
        # notifications are never dropped, and keep their relative order
        notifications_out = [
            (e.sub_id, e.frame)
            for e in popped
            if e.kind is FrameKind.NOTIFICATION
        ]
        assert notifications_out == notifications_in
        # conservation: every accepted frame was popped, shed or superseded
        accepted = len(popped) + q.stats.frames_shed + q.stats.superseded_region_ships
        assert accepted == offered

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(_OP, max_size=80))
    def test_uncapped_queue_matches_the_supersede_model(self, ops):
        """With a cap nothing ever reaches, the queue behaves exactly
        like the reference model: plain FIFO, except that a new full
        push removes queued region state for its subscriber."""
        q = SendQueue(10_000)
        model = []  # list of (kind, sub, frame) still pending
        for i, op in enumerate(ops):
            if op == "pop":
                entry = q.pop()
                if model:
                    assert entry is not None
                    assert entry.frame == model.pop(0)[2]
                else:
                    assert entry is None
                continue
            kind, sub = op
            frame = bytes([i % 251, sub])
            q.offer(kind, sub, frame, 0.0)
            if kind is FrameKind.REGION:
                model = [
                    e for e in model
                    if not (e[1] == sub and e[0] in (FrameKind.REGION,
                                                     FrameKind.DELTA))
                ]
            model.append((kind, sub, frame))
        while (entry := q.pop()) is not None:
            assert model, "queue held more frames than the model"
            assert entry.frame == model.pop(0)[2]
        assert model == []
        assert q.stats.frames_shed == 0

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(_OP, max_size=80))
    def test_no_shed_no_region_path_preserves_every_frame_in_order(self, ops):
        """Without region frames (nothing to supersede) and with a cap
        nothing reaches, the queue is a plain FIFO."""
        q = SendQueue(10_000)
        sent = []
        popped = []
        for i, op in enumerate(ops):
            if op == "pop":
                entry = q.pop()
                if entry is not None:
                    popped.append(entry.frame)
                continue
            kind, sub = op
            if kind is FrameKind.REGION:
                kind = FrameKind.CONTROL
            frame = bytes([i % 251, sub])
            q.offer(kind, sub, frame, 0.0)
            sent.append(frame)
        while (entry := q.pop()) is not None:
            popped.append(entry.frame)
        assert popped == sent
        assert q.stats.frames_shed == 0
        assert q.stats.superseded_region_ships == 0


# ----------------------------------------------------------------------
# End-to-end over real sockets
# ----------------------------------------------------------------------
class TestGoldenTrace:
    def test_no_shed_path_is_byte_identical(self):
        """With queues that never overflow, the bytes a subscriber reads
        are exactly the frames the server offered, in offer order."""

        async def scenario():
            tcp = make_tcp_server(NetworkConfig(send_queue=10_000))
            recorded = []
            original = tcp._offer

            def tap(conn, kind, sub_id, frame, now):
                recorded.append((conn, bytes(frame)))
                original(conn, kind, sub_id, frame, now)

            tcp._offer = tap
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            # subscribe without consuming any frames: the byte-identity
            # check reads the raw stream from its very first frame
            await subscriber.send(
                subscribe_message_for(make_sub(), Point(5_000, 5_000), Point(40, 0))
            )
            deadline = asyncio.get_running_loop().time() + 5.0
            while 1 not in tcp._subscriber_conns:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            for i in range(5):
                await publisher.publish(
                    100 + i, {"topic": "sale"}, Point(5_100 + i, 5_000), ttl=100
                )
            await subscriber.send(LocationReport(1, Point(8_000, 8_000), Point(40, 0)))
            await asyncio.sleep(0.3)  # let dispatch and the writers settle

            sub_conn = tcp._subscriber_conns[1]
            offered = b"".join(f for c, f in recorded if c is sub_conn)
            received = b""
            frames = FrameReader(subscriber.reader)
            # drain everything already flushed to the socket
            while True:
                try:
                    frame = await frames.read(0.3)
                except asyncio.TimeoutError:
                    break
                assert frame is not None
                received += frame
            assert received == offered
            assert tcp.server.metrics.frames_shed == 0
            assert tcp.server.metrics.superseded_region_ships == 0
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())


def _pad(n: int = 2_000) -> str:
    return "x" * n


def resilient_client(port: int, sub_id: int = 1) -> ResilientElapsClient:
    """A reconnecting subscriber at the centre, quick to notice silence."""
    return ResilientElapsClient(
        "127.0.0.1",
        port,
        make_sub(sub_id),
        Point(5_000, 5_000),
        grid=Grid(40, SPACE),
        config=ClientConfig(
            heartbeat_interval=0.2,
            read_timeout=1.0,
            reconnect=ReconnectPolicy(base_delay=0.05, max_delay=0.3),
        ),
    )


class TestSlowConsumers:
    def test_stalled_reader_hits_hard_cap_and_is_disconnected(self):
        async def scenario():
            config = NetworkConfig(
                send_queue=16,
                send_queue_hard=32,
                slow_consumer_grace=0.2,
                write_buffer_limit=4096,
            )
            tcp = make_tcp_server(config)
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            sock = subscriber.writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            # the subscriber now reads nothing; flood it with padded
            # notifications (never sheddable) until the hard cap trips
            await publisher.publish_batch(
                [
                    (200 + i, {"topic": "sale", "pad": _pad()}, Point(5_100, 5_000))
                    for i in range(300)
                ]
            )
            metrics = tcp.server.metrics
            deadline = asyncio.get_running_loop().time() + 5.0
            while metrics.slow_consumer_disconnects == 0:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert metrics.send_queue_high_water <= config.hard_cap
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())

    def test_stalled_reader_region_churn_is_superseded_not_grown(self):
        async def scenario():
            config = NetworkConfig(
                send_queue=64,
                send_queue_hard=256,
                slow_consumer_grace=60.0,
                write_buffer_limit=4096,
            )
            tcp = make_tcp_server(config)
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            control = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await control.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            sock = subscriber.writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            # plug the pipe: padded notifications the stalled reader never
            # drains wedge the writer task mid-queue...
            await control.publish_batch(
                [
                    (600 + i, {"topic": "sale", "pad": _pad()}, Point(5_100, 5_000))
                    for i in range(40)
                ]
            )
            # ...then march the subscriber across the space from a second
            # connection: every report constructs and ships a region that
            # queues behind the wedge and supersedes the previous one
            for i in range(10):
                x = 1_000 + (i % 8) * 1_000
                await control.send(
                    LocationReport(1, Point(x, 5_000), Point(40, 0))
                )
            deadline = asyncio.get_running_loop().time() + 5.0
            metrics = tcp.server.metrics
            while metrics.superseded_region_ships == 0:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            # superseding kept the queue shallow: no disconnect needed
            assert metrics.slow_consumer_disconnects == 0
            await subscriber.close()
            await control.close()
            await tcp.stop()

        run(scenario())


class TestAdmissionControl:
    def test_max_connections_refuses_the_surplus(self):
        async def scenario():
            tcp = make_tcp_server(NetworkConfig(max_connections=1))
            await tcp.start()
            first = ElapsNetworkClient("127.0.0.1", tcp.port)
            await first.connect()
            await first.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            second = ElapsNetworkClient("127.0.0.1", tcp.port)
            await second.connect()
            # the refused connection is closed without a frame
            assert await second.receive(2.0) is None
            assert tcp.server.metrics.connections_refused == 1
            # the admitted connection still works
            await first.send(LocationReport(1, Point(8_000, 8_000), Point(40, 0)))
            assert await first.receive() is not None
            await first.close()
            await second.close()
            await tcp.stop()

        run(scenario())

    def test_slot_freed_by_disconnect_is_reusable(self):
        async def scenario():
            tcp = make_tcp_server(NetworkConfig(max_connections=1))
            await tcp.start()
            first = ElapsNetworkClient("127.0.0.1", tcp.port)
            await first.connect()
            await first.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await first.close()
            await asyncio.sleep(0.1)
            second = ElapsNetworkClient("127.0.0.1", tcp.port)
            await second.connect()
            received = await second.subscribe(
                make_sub(2), Point(5_000, 5_000), Point(40, 0)
            )
            assert received  # ends with a region push: admitted and served
            await second.close()
            await tcp.stop()

        run(scenario())


class TestStopDoesNotLeak:
    def test_stuck_handler_is_cancelled_and_logged(self, caplog, monkeypatch):
        monkeypatch.setattr(network, "STOP_TIMEOUT", 0.2)

        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()

            stuck = asyncio.ensure_future(asyncio.Event().wait())
            tcp._connection_tasks.add(stuck)
            started = asyncio.get_running_loop().time()
            with caplog.at_level("WARNING", logger="repro.system.network"):
                await tcp.stop()
            elapsed = asyncio.get_running_loop().time() - started
            assert stuck.cancelled()
            assert elapsed < 2.0  # bounded by STOP_TIMEOUT, not leaked
            assert any("cancelling" in r.message for r in caplog.records)

        run(scenario())

    def test_clean_stop_leaves_no_pending_tasks(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await tcp.stop()
            await client.close()
            await asyncio.sleep(0)
            leftovers = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and not t.done()
            ]
            assert leftovers == []

        run(scenario())


class TestPushErrors:
    def test_write_failure_is_counted_not_swallowed(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            conn = tcp._subscriber_conns[1]

            def broken_write(data):
                raise OSError("wire cut")

            tcp._connections[conn].write = broken_write
            await publisher.publish(
                300, {"topic": "sale"}, Point(5_100, 5_000), ttl=100
            )
            metrics = tcp.server.metrics
            deadline = asyncio.get_running_loop().time() + 5.0
            while metrics.push_errors == 0:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert metrics.push_errors == 1
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())


class TestIngressBackpressure:
    def test_tiny_ingress_queue_preserves_order_and_delivery(self):
        async def scenario():
            tcp = make_tcp_server(NetworkConfig(ingress_queue=1))
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            for i in range(20):
                await publisher.publish(
                    500 + i, {"topic": "sale"}, Point(5_100, 5_000), ttl=100
                )
            seen = []
            for _ in range(20):
                message = await subscriber.receive()
                assert isinstance(message, NotificationMessage)
                seen.append(message.event_id & 0xFFFFFFFF)
            assert seen == [500 + i for i in range(20)]
            assert tcp.server.metrics.ingress_queue_high_water >= 1
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())


# ----------------------------------------------------------------------
# Chaos: shed -> disconnect -> resync, exactly once
# ----------------------------------------------------------------------
#: CI's chaos lane raises the budget, as the differential suites' lane does
VIRTUAL_CLOCK_EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "10"))


@pytest.mark.chaos
class TestSlowConsumerOnAVirtualClock:
    """The slow-consumer path with no socket, no ``SO_RCVBUF`` clamp and
    no sleep: :class:`Connection` objects of a server that was never
    started, the dispatcher called directly, and a fake clock."""

    @settings(max_examples=VIRTUAL_CLOCK_EXAMPLES, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(0)
    def test_a_seeded_slow_consumer_heals_into_exactly_once_delivery(self, seed):
        rng = random.Random(seed)
        config = NetworkConfig(
            send_queue=8,
            send_queue_hard=1_000,
            slow_consumer_grace=1.0,
            retain_subscribers=True,
        )
        tcp = make_tcp_server(config)
        metrics = tcp.server.metrics
        now = tcp._started_at  # the fake clock starts at the server's epoch
        client = MobileClient(make_sub(), Point(5_000, 5_000))
        parser = FrameParser()
        published = []

        def deliver(conn, message):
            # the adapter's ingress, minus the socket and the queue
            for decoded in conn.receive(encode_message(message), now):
                tcp._dispatch(conn, decoded, now)

        def read(conn, writes):
            # the client reads ``writes`` writes off the connection
            for _ in range(writes):
                data = conn.outgoing()
                if not data:
                    return
                parser.feed(data)
                while (frame := parser.pop()) is not None:
                    message = decode_message(frame)
                    if isinstance(message, NotificationMessage):
                        client.receive_notification(
                            Event(message.event_id, dict(message.attributes),
                                  message.location),
                            message.seq,
                        )

        def publish(count):
            ids = range(len(published), len(published) + count)
            published.extend(ids)
            deliver(publisher, publish_batch_message_for(
                [(i, {"topic": "sale"}, Point(5_100, 5_000)) for i in ids]
            ))

        def resubscribe(conn):
            deliver(conn, subscribe_message_for(
                client.subscription, client.location, client.velocity
            ))

        publisher = Connection(config, tcp.server)
        link = Connection(config, tcp.server)
        resubscribe(link)
        read(link, 1)
        # the consumer falls behind: bursts land faster than it reads
        over_since = None
        while not link.draining:
            now += rng.uniform(0.1, 0.6)
            publish(rng.randint(1, 6))
            if link.draining:
                break
            if len(link.queue) > config.send_queue and over_since is None:
                over_since = now  # soft cap crossed: OVER, grace running
            if rng.random() < 0.2:
                read(link, 1)
                if len(link.queue) <= config.send_queue:
                    over_since = None
        # DISCONNECT came from the grace window, not the hard cap
        assert over_since is not None and now - over_since > config.slow_consumer_grace
        assert len(link.queue) < config.hard_cap
        assert metrics.slow_consumer_disconnects == 1
        # a draining connection accepts nothing more: these are lost on it
        publish(rng.randint(1, 6))
        # the backlog is flushed, then the connection closes
        read(link, 1_000)
        assert link.closed
        assert {e.event_id & 0xFFFFFFFF for e in client.received_events} < set(published)
        tcp._cleanup_connection(link)  # the adapter's close marker

        # reconnect: resubscribe and resync on a fresh connection
        client.reset_connection()
        relink = Connection(config, tcp.server)
        resubscribe(relink)
        deliver(relink, ResyncMessage(
            client.subscription.sub_id, client.location, client.velocity,
            client.received_ids(),
        ))
        read(relink, 1_000)
        ids = [e.event_id & 0xFFFFFFFF for e in client.received_events]
        assert sorted(ids) == published  # every event, exactly once
        assert client.duplicates_suppressed == 0
        assert metrics.resyncs == 1
        assert metrics.send_queue_high_water < config.hard_cap
        assert not relink.closed and not relink.draining


@pytest.mark.chaos
class TestSlowConsumerChaos:
    def test_throttled_reader_heals_into_exactly_once_delivery(self):
        """A subscriber behind a throttled proxy is disconnected as a
        slow consumer, reconnects once the throttle lifts, and ends with
        exactly the published set — nothing lost, nothing doubled."""

        async def scenario():
            config = NetworkConfig(
                send_queue=8,
                send_queue_hard=16,
                slow_consumer_grace=0.2,
                write_buffer_limit=4096,
                retain_subscribers=True,
            )
            tcp = make_tcp_server(config)
            await tcp.start()
            async with chaos_proxy("127.0.0.1", tcp.port, FaultConfig()) as proxy:
                client = resilient_client(proxy.port)
                await client.start()
                await client.subscribe(timeout=5.0)

                publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
                await publisher.connect()
                proxy.throttle_downstream = 0.5  # ~2 frames/s reach the client
                published = list(range(1_000, 1_120))
                await publisher.publish_batch(
                    [
                        (eid, {"topic": "sale", "pad": _pad()}, Point(5_100, 5_000))
                        for eid in published
                    ]
                )
                metrics = tcp.server.metrics
                deadline = asyncio.get_running_loop().time() + 15.0
                while metrics.slow_consumer_disconnects == 0:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.05)
                assert metrics.send_queue_high_water <= config.hard_cap

                proxy.throttle_downstream = 0.0  # the network heals
                expected = set(published)
                deadline = asyncio.get_running_loop().time() + 30.0
                while {e.event_id & 0xFFFFFFFF for e in client.events} != expected:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.1)
                # exactly once: every id delivered, no id delivered twice
                ids = [e.event_id for e in client.events]
                assert len(ids) == len(set(ids)) == len(expected)
                assert metrics.resyncs >= 1
                await client.stop()
                await publisher.close()
            await tcp.stop()

        run(scenario())

    def test_a_mixed_fleet_isolates_prompt_readers_and_heals_every_slow_one(self):
        """What the connection-scaling series asserted beside its timing,
        at a tenth of its fleet: under a paced burst the prompt readers
        receive everything while a throttled quarter is cut loose, queue
        memory stays at the hard cap, and every slow consumer heals to
        exactly the published set."""
        fast_n, slow_n = 6, 2
        expected = set(range(1_000, 1_080))

        async def scenario():
            config = NetworkConfig(
                send_queue=16,
                send_queue_hard=32,
                slow_consumer_grace=0.3,
                write_buffer_limit=4096,
                retain_subscribers=True,
            )
            tcp = make_tcp_server(config)
            await tcp.start()
            loop = asyncio.get_running_loop()
            async with chaos_proxy("127.0.0.1", tcp.port, FaultConfig()) as proxy:
                # without the clamp the kernel absorbs the whole burst
                proxy.upstream_rcvbuf = 8_192
                fast = [ElapsNetworkClient("127.0.0.1", tcp.port) for _ in range(fast_n)]
                for sub_id, reader in enumerate(fast, start=1):
                    await reader.connect()
                    await reader.subscribe(make_sub(sub_id), Point(5_000, 5_000), Point(0, 0))
                slow = [
                    resilient_client(proxy.port, fast_n + k + 1) for k in range(slow_n)
                ]
                for client in slow:
                    await client.start()
                    await client.subscribe(timeout=5.0)
                proxy.throttle_downstream = 0.05

                async def read_burst(reader):
                    received = set()
                    while received != expected:
                        message = await reader.receive(timeout=15.0)
                        if message is None:  # cut loose: fails the assert below
                            break
                        if isinstance(message, NotificationMessage):
                            received.add(message.event_id & 0xFFFFFFFF)
                    return received

                readers = [asyncio.create_task(read_burst(reader)) for reader in fast]
                publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
                await publisher.connect()
                for event_id in sorted(expected):
                    await publisher.publish(
                        event_id, {"topic": "sale", "pad": _pad(4_096)}, Point(5_100, 5_000)
                    )
                    await asyncio.sleep(0.004)
                assert await asyncio.gather(*readers) == [expected] * fast_n

                metrics = tcp.server.metrics
                deadline = loop.time() + 15.0
                while metrics.slow_consumer_disconnects == 0:
                    assert loop.time() < deadline
                    await asyncio.sleep(0.05)
                assert metrics.send_queue_high_water <= config.hard_cap

                proxy.throttle_downstream = 0.0  # the network heals
                deadline = loop.time() + 30.0
                for client in slow:
                    while {e.event_id & 0xFFFFFFFF for e in client.events} != expected:
                        assert loop.time() < deadline
                        await asyncio.sleep(0.1)
                    ids = [e.event_id for e in client.events]
                    assert len(ids) == len(set(ids)) == len(expected)
                    await client.stop()
                for reader in (*fast, publisher):
                    await reader.close()
            await tcp.stop()

        run(scenario())
