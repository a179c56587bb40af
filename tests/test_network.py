"""The TCP layer: subscribe, publish and report over a real socket."""

from __future__ import annotations

import asyncio
import os
import socket
import struct
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bitmap import WAHBitmap
from repro.core import IGM
from repro.expressions import BooleanExpression, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import NetworkConfig, ServerConfig, ElapsServer
from repro.system.config import MAX_FRAME_LENGTH
from repro.system.network import (
    Connection,
    ElapsNetworkClient,
    ElapsTCPServer,
    FrameError,
    FrameKind,
    FrameParser,
    FrameReader,
    TruncatedFrameError,
)
from repro.system.observability import render_prometheus
from repro.system.protocol import (
    EventPublishMessage,
    HeartbeatMessage,
    LocationReport,
    NotificationMessage,
    SafeRegionDelta,
    SafeRegionPush,
    StatsSnapshot,
    SubscribeMessage,
    UnsubscribeMessage,
    cells_from_delta,
    decode_message,
    encode_message,
    publish_message_for,
)

SPACE = Rect(0, 0, 10_000, 10_000)


def make_tcp_server(repair: bool = False, **kwargs) -> ElapsTCPServer:
    server = ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=400),
        ServerConfig(initial_rate=1.0, repair=repair),
        event_index=BEQTree(SPACE, emax=32))
    config = NetworkConfig().with_(**kwargs)
    return ElapsTCPServer(server, port=0, timestamp_seconds=0.05, config=config)


def make_sub(sub_id=1):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=1_500.0,
    )


def run(coro):
    return asyncio.run(coro)


class TestLifecycle:
    def test_start_assigns_port(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            assert tcp.port > 0
            await tcp.stop()

        run(scenario())

    def test_invalid_timestamp_rejected(self):
        server = ElapsServer(Grid(40, SPACE), IGM(max_cells=10))
        with pytest.raises(ValueError):
            ElapsTCPServer(server, timestamp_seconds=0)


class TestSubscribeFlow:
    def test_subscribe_receives_region_push(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            received = await client.subscribe(
                make_sub(), Point(5_000, 5_000), Point(40, 0)
            )
            assert isinstance(received[-1], SafeRegionPush)
            await client.close()
            await tcp.stop()

        run(scenario())

    def test_publish_reaches_subscriber(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await publisher.publish(
                1, {"topic": "sale", "price": 99}, Point(5_200, 5_000), ttl=100
            )
            message = await subscriber.receive()
            assert isinstance(message, NotificationMessage)
            assert dict(message.attributes)["topic"] == "sale"
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())

    def test_non_matching_publish_is_silent(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await publisher.publish(2, {"topic": "weather"}, Point(5_100, 5_000))
            with pytest.raises(asyncio.TimeoutError):
                await subscriber.receive(timeout=0.3)
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())

    def test_location_report_returns_fresh_region(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.subscribe(make_sub(), Point(2_000, 2_000), Point(40, 0))
            await client.send(
                LocationReport(1, Point(8_000, 8_000), Point(40, 0))
            )
            message = await client.receive()
            assert isinstance(message, SafeRegionPush)
            await client.close()
            await tcp.stop()

        run(scenario())

    def test_unsubscribe_cleans_up(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await client.send(UnsubscribeMessage(1))
            await asyncio.sleep(0.1)
            assert 1 not in tcp.server.subscribers
            await client.close()
            await tcp.stop()

        run(scenario())

    def test_disconnect_unsubscribes(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            assert 1 in tcp.server.subscribers
            await client.close()
            await asyncio.sleep(0.1)
            assert 1 not in tcp.server.subscribers
            await tcp.stop()

        run(scenario())

    def test_retained_subscribers_survive_disconnect(self):
        async def scenario():
            tcp = make_tcp_server(retain_subscribers=True)
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await client.close()
            await asyncio.sleep(0.1)
            assert 1 in tcp.server.subscribers
            await tcp.stop()

        run(scenario())

    def test_resubscribe_does_not_redeliver(self):
        """A reconnect's resubscribe keeps the delivered set intact."""

        async def scenario():
            tcp = make_tcp_server(retain_subscribers=True)
            await tcp.start()
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await publisher.connect()

            first = ElapsNetworkClient("127.0.0.1", tcp.port)
            await first.connect()
            await first.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await publisher.publish(10, {"topic": "sale"}, Point(5_100, 5_000))
            message = await first.receive()
            assert isinstance(message, NotificationMessage)
            await first.close()
            await asyncio.sleep(0.05)

            second = ElapsNetworkClient("127.0.0.1", tcp.port)
            await second.connect()
            received = await second.subscribe(
                make_sub(), Point(5_000, 5_000), Point(40, 0)
            )
            # only the region push: the held event is not shipped again
            assert [type(m) for m in received] == [SafeRegionPush]
            assert tcp.server.metrics.resubscribes == 1
            await second.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())

    def test_expiring_events_leave_the_corpus(self):
        async def scenario():
            tcp = make_tcp_server()  # 0.05 s timestamps
            await tcp.start()
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await publisher.connect()
            await publisher.publish(3, {"topic": "sale"}, Point(9_000, 9_000), ttl=1)
            await asyncio.sleep(0.01)
            assert len(tcp.server.event_index) == 1
            await asyncio.sleep(0.15)  # > 1 timestamp
            # the next publish sweeps expired events first
            await publisher.publish(4, {"topic": "sale"}, Point(9_000, 9_000), ttl=100)
            await asyncio.sleep(0.05)
            assert len(tcp.server.event_index) == 1
            await publisher.close()
            await tcp.stop()

        run(scenario())


class TestRegionDeltaWire:
    """Repair mode ships SafeRegionDelta frames instead of full pushes."""

    def test_repair_ships_delta_frame_to_subscriber(self):
        async def scenario():
            tcp = make_tcp_server(repair=True)
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            received = await subscriber.subscribe(
                make_sub(), Point(5_000, 5_000), Point(0, 0)
            )
            assert isinstance(received[-1], SafeRegionPush)
            # matching, inside the impact region, outside the 1500 m
            # radius: the out-of-radius type-II hit that repair carves
            await publisher.publish(1, {"topic": "sale"}, Point(7_600, 5_000))
            message = await subscriber.receive()
            assert isinstance(message, SafeRegionDelta)
            assert message.sub_id == 1
            removed = cells_from_delta(message, tcp.server.grid)
            record = tcp.server.subscribers[1]
            assert removed.size
            # the wire delta is exactly the set the server carved out
            assert set(removed.tolist()).isdisjoint(record.safe.codes.tolist())
            assert tcp.server.metrics.repairs == 1
            assert tcp.server.metrics.constructions == 1  # subscribe only
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())

    def test_in_radius_publish_still_notifies_under_repair(self):
        async def scenario():
            tcp = make_tcp_server(repair=True)
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(0, 0))
            await publisher.publish(2, {"topic": "sale"}, Point(5_100, 5_000))
            message = await subscriber.receive()
            assert isinstance(message, NotificationMessage)
            assert tcp.server.metrics.repairs == 0
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())


def parse(chunks, max_length: int = MAX_FRAME_LENGTH):
    """Feed ``chunks`` and then the end of the stream to one
    :class:`FrameParser`: every frame it yields, and how the stream
    ended — ``None`` for a clean end, else the exception type."""
    parser = FrameParser(max_length)
    frames = []
    try:
        for chunk in (*chunks, b""):
            parser.feed(chunk)
            while (frame := parser.pop()) is not None:
                frames.append(frame)
    except FrameError as exc:
        return frames, type(exc)
    return frames, None


class TestReadFrame:
    """The hardened framing: a clean end, truncation and an oversize
    frame are distinct (the one parser, fed a whole stream)."""

    def test_clean_eof_returns_none(self):
        parser = FrameParser()
        parser.feed(b"")
        assert parser.pop() is None
        assert parse([b""]) == ([], None)

    def test_whole_frame_roundtrips(self):
        frame = encode_message(HeartbeatMessage(3, 7))
        assert parse([frame]) == ([frame], None)
        assert decode_message(frame) == HeartbeatMessage(3, 7)

    def test_partial_header_is_truncation(self):
        parser = FrameParser()
        parser.feed(b"\x08\x00")
        assert parser.pop() is None
        with pytest.raises(TruncatedFrameError):
            parser.feed(b"")

    def test_partial_payload_is_truncation(self):
        frame = encode_message(HeartbeatMessage(3, 7))
        assert parse([frame[:-4]]) == ([], TruncatedFrameError)

    def test_oversized_length_is_frame_error(self):
        parser = FrameParser(max_length=1024)
        parser.feed(struct.pack(">BI", 1, 1 << 20))
        with pytest.raises(FrameError):
            parser.pop()

    def test_truncation_is_a_frame_error(self):
        assert issubclass(TruncatedFrameError, FrameError)


class ScriptedReader:
    """The one method :class:`FrameReader` asks of a stream: ``read``
    hands out the scripted chunks in order, then EOF."""

    def __init__(self, chunks, delay: float = 0.0) -> None:
        self._chunks = deque(chunk for chunk in chunks if chunk)
        self._delay = delay

    async def read(self, n: int) -> bytes:
        if self._delay:
            await asyncio.sleep(self._delay)
        if not self._chunks:
            return b""
        chunk = self._chunks.popleft()
        if len(chunk) > n:
            self._chunks.appendleft(chunk[n:])
            chunk = chunk[:n]
        return chunk


async def drain(next_frame):
    """Every frame ``next_frame()`` yields, then how the stream ended:
    ``None`` for a clean EOF, else the exception type."""
    frames = []
    while True:
        try:
            frame = await next_frame()
        except FrameError as exc:
            return frames, type(exc)
        if frame is None:
            return frames, None
        frames.append(frame)


#: CI's chaos lane raises the budget, as the differential suites' lane does
FRAGMENTATION_EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "60"))
MAX_LENGTH = 300

raw_frames = st.builds(
    lambda kind, payload: struct.pack(">BI", kind, len(payload)) + payload,
    st.integers(0, 255),
    st.binary(max_size=MAX_LENGTH),
)


class TestFrameReader:
    """The parser, and the async reader over it, yield what one parser
    fed the whole stream yields, however the bytes are cut into socket
    chunks."""

    @settings(max_examples=FRAGMENTATION_EXAMPLES, deadline=None)
    @given(
        st.lists(raw_frames, max_size=12),
        st.lists(st.integers(1, 700), min_size=1, max_size=40),
        st.sampled_from(["whole", "truncated", "oversize"]),
        st.integers(0, 10_000),
    )
    @example([b"\x08\x00\x00\x00\x03abc"] * 5, [1], "whole", 0)
    @example([b"\x08\x00\x00\x00\x03abc"] * 5, [10_000], "truncated", 17)
    @example([b"\x08\x00\x00\x00\x03abc"] * 5, [4], "oversize", 2)
    def test_any_fragmentation_yields_what_one_whole_feed_yields(
        self, frames, sizes, ending, where
    ):
        stream = b"".join(frames)
        if ending == "truncated" and stream:
            stream = stream[: where % len(stream)]
        elif ending == "oversize":
            at = where % (len(frames) + 1)
            stream = (
                b"".join(frames[:at])
                + struct.pack(">BI", 1, MAX_LENGTH + 1 + where)
                + b"x" * (where % 50)
                + b"".join(frames[at:])
            )
        chunks, offset, turn = [], 0, 0
        while offset < len(stream):
            size = sizes[turn % len(sizes)]
            chunks.append(stream[offset : offset + size])
            offset, turn = offset + size, turn + 1

        expected = parse([stream], MAX_LENGTH)
        assert parse(chunks, MAX_LENGTH) == expected

        async def scenario():
            reader = FrameReader(ScriptedReader(chunks), MAX_LENGTH)
            assert await drain(lambda: reader.read(None)) == expected

        run(scenario())

    def test_oversize_header_is_rejected_before_its_payload_arrives(self):
        async def scenario():
            reader = FrameReader(
                ScriptedReader([struct.pack(">BI", 1, 1 << 30), b"x" * 10]), 1024
            )
            with pytest.raises(FrameError):
                await reader.read(None)

        run(scenario())

    def test_deadline_is_per_frame_and_a_timeout_keeps_the_bytes(self):
        first = encode_message(HeartbeatMessage(3, 7))
        second = encode_message(HeartbeatMessage(4, 8))
        trickle = [bytes([byte]) for byte in first + second]

        async def scenario():
            # a byte every 20 ms: each single read beats the timeout, the
            # 21-byte frame does not
            reader = FrameReader(ScriptedReader(trickle, delay=0.02))
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(asyncio.TimeoutError):
                await reader.read(0.1)
            assert loop.time() - started < 0.3
            # the bytes that did arrive were kept: the stream resumes
            # mid-frame instead of parsing a payload as a header
            assert await reader.read(5.0) == first
            assert await reader.read_message(5.0) == HeartbeatMessage(4, 8)
            assert await reader.read(5.0) is None

        run(scenario())

    def test_receive_timeout_between_header_and_payload_loses_nothing(self):
        """At the parent commit the timed-out ``receive`` had consumed the
        header, and the next one raised ``unknown message type 0``."""
        frames = encode_message(HeartbeatMessage(1, 2)) + encode_message(
            HeartbeatMessage(3, 4)
        )

        async def scenario():
            async def stall_mid_frame(reader, writer):
                writer.write(frames[:10])
                await writer.drain()
                await asyncio.sleep(0.4)
                writer.write(frames[10:])
                await writer.drain()
                await reader.read()  # until the client hangs up
                writer.close()

            server = await asyncio.start_server(stall_mid_frame, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ElapsNetworkClient("127.0.0.1", port)
            await client.connect()
            with pytest.raises(asyncio.TimeoutError):
                await client.receive(timeout=0.15)
            assert await client.receive(timeout=5.0) == HeartbeatMessage(1, 2)
            assert await client.receive(timeout=5.0) == HeartbeatMessage(3, 4)
            await client.close()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_a_gateway_connection_decodes_what_a_plain_decode_would(self):
        """Many subscribers on one socket, one event: the frames share a
        tail, the messages are still each recipient's own."""

        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            gateway = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await gateway.connect()
            await publisher.connect()
            for sub_id in (1, 2, 3):
                await gateway.subscribe(
                    make_sub(sub_id), Point(5_000, 5_000), Point(40, 0)
                )
            await publisher.publish(9, {"topic": "sale", "price": 3}, Point(5_100, 5_000))
            await publisher.publish(10, {"topic": "sale", "price": 4}, Point(5_200, 5_000))
            got = []
            while len(got) < 6:
                message = await gateway.receive()
                if isinstance(message, NotificationMessage):
                    got.append(message)
            assert [(m.sub_id, m.event_id & 0xFFFFFFFF) for m in got] == [
                (1, 9), (2, 9), (3, 9), (1, 10), (2, 10), (3, 10),
            ]
            for message in got:
                price = 3 if message.event_id & 0xFFFFFFFF == 9 else 4
                assert message.attributes == (("price", price), ("topic", "sale"))
                assert decode_message(encode_message(message)) == message
            await gateway.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())


class TestRegionShip:
    def test_one_ship_encodes_its_bitmap_once(self, monkeypatch):
        """The byte counters and the frame used to run the WAH encoder
        once each; the region remembers its bitmap now."""
        encodes = []
        for name in ("from_positions", "from_positions_array", "from_sorted_array"):
            original = getattr(WAHBitmap, name).__func__

            def counting(cls, *args, _original=original, **kwargs):
                encodes.append(1)
                return _original(cls, *args, **kwargs)

            monkeypatch.setattr(WAHBitmap, name, classmethod(counting))

        async def scenario():
            server = ElapsServer(
                Grid(40, SPACE),
                IGM(max_cells=400),
                ServerConfig(initial_rate=1.0),
                event_index=BEQTree(SPACE, emax=32),
            )
            tcp = ElapsTCPServer(server, port=0, timestamp_seconds=0.05)
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            received = await client.subscribe(
                make_sub(), Point(5_000, 5_000), Point(40, 0)
            )
            push = received[-1]
            assert isinstance(push, SafeRegionPush)
            assert len(encodes) == server.metrics.constructions == 1
            # same words on the wire as in the counters
            assert server.metrics.safe_region_bytes == push.bitmap.compressed_bytes()
            await client.send(LocationReport(1, Point(8_000, 8_000), Point(40, 0)))
            assert isinstance(await client.receive(), SafeRegionPush)
            assert len(encodes) == server.metrics.constructions == 2
            await client.close()
            await tcp.stop()

        run(scenario())


class TestHardening:
    def test_connection_reset_is_counted_distinctly(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            # SO_LINGER(0) turns close() into a genuine RST, where a
            # plain abort() of an empty send buffer would just FIN
            sock = client.writer.get_extra_info("socket")
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            client.writer.close()
            await asyncio.sleep(0.2)
            assert tcp.server.metrics.connection_resets == 1
            assert tcp.server.metrics.malformed_frames == 0
            assert 1 not in tcp.server.subscribers
            await tcp.stop()

        run(scenario())

    def test_heartbeat_is_echoed_and_counted(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.send(HeartbeatMessage(1, 42))
            echo = await client.receive()
            assert echo == HeartbeatMessage(1, 42)
            assert tcp.server.metrics.heartbeats == 1
            await client.close()
            await tcp.stop()

        run(scenario())

    def test_nonfinite_subscribe_is_rejected(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.send(
                SubscribeMessage(
                    1,
                    float("inf"),
                    BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
                    Point(5_000, 5_000),
                    Point(40, 0),
                )
            )
            await asyncio.sleep(0.1)
            assert tcp.server.metrics.malformed_frames == 1
            assert 1 not in tcp.server.subscribers
            await tcp.stop()

        run(scenario())

    def test_stalled_drain_counts_as_write_timeout_not_read(self):
        # a zero write budget forces wait_for(drain(), 0) to expire on
        # the first response flush: the stalled *peer* must land in
        # write_timeouts, not be disguised as an idle read timeout
        async def scenario():
            tcp = make_tcp_server(write_timeout=0)
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.send(
                SubscribeMessage(
                    1,
                    make_sub().radius,
                    make_sub().expression,
                    Point(5_000, 5_000),
                    Point(40, 0),
                )
            )
            await asyncio.sleep(0.2)
            assert tcp.server.metrics.write_timeouts == 1
            assert tcp.server.metrics.read_timeouts == 0
            assert tcp.server.metrics.connection_resets == 0
            await client.close()
            await tcp.stop()

        run(scenario())


class TestConnectionOnAVirtualClock:
    """The per-connection protocol with no socket and no sleep: a
    :class:`Connection` of a server that was never started, fed bytes and
    a fake ``now``."""

    @staticmethod
    def connection(**knobs):
        tcp = make_tcp_server(**knobs)
        return tcp, Connection(tcp.config, tcp.server)

    def test_a_trickled_frame_crosses_its_deadline(self):
        tcp, conn = self.connection(read_timeout=0.1)
        frame = encode_message(HeartbeatMessage(3, 7))
        assert conn.deadline(0.0) == 0.1
        # a byte every 20 ms: each byte is in time, the 21-byte frame is not
        for i in range(5):
            now = 0.02 * i
            conn.expire(now)
            assert conn.receive(frame[i : i + 1], now) == []
            assert conn.deadline(now) == 0.1  # arriving bytes do not extend it
        assert not conn.closed
        conn.expire(0.1)
        assert conn.closed
        assert tcp.server.metrics.read_timeouts == 1
        assert tcp.server.metrics.heartbeats == 0
        assert conn.outgoing() == b""

    def test_each_frame_gets_its_own_deadline(self):
        tcp, conn = self.connection(read_timeout=0.1)
        stream = encode_message(HeartbeatMessage(1, 1)) + encode_message(
            HeartbeatMessage(2, 2)
        )
        # 4 ms a byte: 0.084 s a frame fits the deadline, 0.168 s for
        # both would not
        for i in range(len(stream)):
            now = 0.004 * i
            conn.deadline(now)
            conn.expire(now)
            conn.receive(stream[i : i + 1], now)
        assert not conn.closed
        assert tcp.server.metrics.heartbeats == 2
        assert tcp.server.metrics.read_timeouts == 0

    def test_a_heartbeat_is_echoed_as_an_ephemeral_frame(self):
        tcp, conn = self.connection()
        frame = encode_message(HeartbeatMessage(1, 42))
        assert conn.receive(frame, 0.0) == []  # answered here, never dispatched
        entry = conn.queue.pop()
        assert entry.kind is FrameKind.EPHEMERAL
        assert entry.frame == frame
        assert conn.queue.pop() is None
        assert tcp.server.metrics.heartbeats == 1

    def test_an_insane_subscribe_is_malformed_and_closes(self):
        tcp, conn = self.connection()
        publish = encode_message(
            publish_message_for(1, {"topic": "sale"}, Point(5_000, 5_000))
        )
        insane = encode_message(
            SubscribeMessage(
                1, float("inf"), make_sub().expression, Point(5_000, 5_000),
                Point(40, 0),
            )
        )
        messages = conn.receive(publish + insane + publish, 0.0)
        # the frame before it still reaches the dispatcher, none after it
        assert [type(m) for m in messages] == [EventPublishMessage]
        assert tcp.server.metrics.malformed_frames == 1
        assert conn.closed
        assert conn.receive(publish, 0.0) == []


class TestStatsOverTCP:
    def test_snapshot_after_batched_publish(self):
        # the acceptance path of the observability work: a plain TCP
        # client requests frame type 12 and gets back per-stage latency
        # histograms that the batched publish actually populated
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            subscriber = ElapsNetworkClient("127.0.0.1", tcp.port)
            publisher = ElapsNetworkClient("127.0.0.1", tcp.port)
            await subscriber.connect()
            await publisher.connect()
            await subscriber.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            await publisher.publish_batch(
                [
                    (100 + i, {"topic": "sale", "price": i}, Point(5_100, 5_000))
                    for i in range(8)
                ]
            )
            snapshot = await publisher.request_stats()
            assert isinstance(snapshot, StatsSnapshot)
            histograms = snapshot.histograms()
            for stage in ("publish", "match", "dispatch", "decode"):
                assert stage in histograms, sorted(histograms)
                assert histograms[stage].count > 0, stage
            counters = snapshot.counters_dict()
            assert counters["batches"] == 1
            assert counters["batch_events"] == 8
            assert counters == tcp.server.metrics.as_dict()
            await subscriber.close()
            await publisher.close()
            await tcp.stop()

        run(scenario())

    def test_snapshot_on_idle_server_is_well_formed(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            snapshot = await client.request_stats()
            assert isinstance(snapshot, StatsSnapshot)
            # nothing published yet: counters are all baseline zeroes
            assert snapshot.counters_dict()["notifications"] == 0
            await client.close()
            await tcp.stop()

        run(scenario())

    def test_snapshot_feeds_the_prometheus_exporter(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            client = ElapsNetworkClient("127.0.0.1", tcp.port)
            await client.connect()
            await client.subscribe(make_sub(), Point(5_000, 5_000), Point(40, 0))
            snapshot = await client.request_stats()
            text = render_prometheus(
                snapshot.counters_dict(), snapshot.histograms()
            )
            assert "# TYPE elaps_stage_duration_seconds histogram" in text
            assert 'le="+Inf"' in text
            await client.close()
            await tcp.stop()

        run(scenario())
