"""Byte-stream fuzzing of the server's frame decoder.

The hardening contract of DESIGN.md §8: whatever bytes arrive on the
socket, the event loop never sees an unhandled exception — the server
counts the incident in :class:`CommunicationStats`, drops the offending
connection, and keeps serving well-behaved clients.
"""

from __future__ import annotations

import asyncio
import random
import struct

import pytest

from repro.core import IGM
from repro.expressions import BooleanExpression, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.system import NetworkConfig, ServerConfig, ElapsServer
from repro.system.config import MAX_FRAME_LENGTH
from repro.system.network import ElapsNetworkClient, ElapsTCPServer
from repro.expressions import Event
from repro.system.protocol import (
    EventPublishBatchMessage,
    ResyncMessage,
    SafeRegionPush,
    SubscribeMessage,
    decode_message,
    encode_message,
    notification_for,
    publish_message_for,
)

SPACE = Rect(0, 0, 10_000, 10_000)
FUZZ_SEED = 0xE1A95


def make_tcp_server(**kwargs) -> ElapsTCPServer:
    server = ElapsServer(
        Grid(40, SPACE),
        IGM(max_cells=400),
        ServerConfig(initial_rate=1.0),
        event_index=BEQTree(SPACE, emax=32))
    kwargs.setdefault("read_timeout", 0.3)
    config = NetworkConfig().with_(**kwargs)
    return ElapsTCPServer(server, port=0, timestamp_seconds=0.05, config=config)


def make_sub(sub_id=1):
    return Subscription(
        sub_id,
        BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
        radius=1_500.0,
    )


async def send_raw(port: int, payload: bytes) -> None:
    """Open a raw connection, blast bytes, close."""
    _, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    try:
        await writer.drain()
        # give the server a beat to chew on the garbage before EOF
        await asyncio.sleep(0.05)
    except ConnectionError:
        pass
    writer.close()


async def assert_still_serving(tcp: ElapsTCPServer, sub_id: int) -> None:
    """A well-behaved subscriber must still get a region push."""
    client = ElapsNetworkClient("127.0.0.1", tcp.port)
    await client.connect()
    received = await client.subscribe(make_sub(sub_id), Point(5_000, 5_000), Point(40, 0))
    assert isinstance(received[-1], SafeRegionPush)
    await client.close()


def run_with_loop_watch(coro_factory):
    """Run a scenario capturing unhandled event-loop exceptions."""
    loop_errors = []

    async def wrapper():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, context: loop_errors.append(context)
        )
        await coro_factory()

    asyncio.run(wrapper())
    return loop_errors


class TestGarbageStreams:
    def test_random_byte_streams_never_crash_the_loop(self):
        rng = random.Random(FUZZ_SEED)
        blobs = [rng.randbytes(rng.randint(1, 400)) for _ in range(25)]

        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            for blob in blobs:
                await send_raw(tcp.port, blob)
            # let any stalled readers hit their timeout
            await asyncio.sleep(0.5)
            metrics = tcp.server.metrics
            assert (
                metrics.malformed_frames
                + metrics.read_timeouts
                + metrics.connection_resets
                > 0
            )
            await assert_still_serving(tcp, sub_id=7)
            await tcp.stop()

        assert run_with_loop_watch(scenario) == []

    def test_corrupted_valid_frames_are_rejected_and_counted(self):
        rng = random.Random(FUZZ_SEED + 1)
        frame = encode_message(
            SubscribeMessage(
                1, 1_500.0,
                BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
                Point(5_000, 5_000), Point(40, 0),
            )
        )

        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            for _ in range(40):
                mutated = bytearray(frame)
                for _ in range(rng.randint(1, 4)):
                    mutated[rng.randrange(len(mutated))] ^= rng.randrange(1, 256)
                await send_raw(tcp.port, bytes(mutated))
            await asyncio.sleep(0.5)
            await assert_still_serving(tcp, sub_id=9)
            await tcp.stop()

        assert run_with_loop_watch(scenario) == []

    def test_truncated_frame_counts_as_malformed(self):
        frame = encode_message(
            SubscribeMessage(
                2, 1_500.0,
                BooleanExpression([Predicate("topic", Operator.EQ, "sale")]),
                Point(5_000, 5_000), Point(40, 0),
            )
        )

        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            await send_raw(tcp.port, frame[: len(frame) // 2])
            await asyncio.sleep(0.2)
            assert tcp.server.metrics.malformed_frames >= 1
            await assert_still_serving(tcp, sub_id=3)
            await tcp.stop()

        assert run_with_loop_watch(scenario) == []

    def test_oversized_declared_length_is_malformed(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            await send_raw(tcp.port, struct.pack(">BI", 1, MAX_FRAME_LENGTH + 1))
            await asyncio.sleep(0.2)
            assert tcp.server.metrics.malformed_frames >= 1
            await assert_still_serving(tcp, sub_id=4)
            await tcp.stop()

        assert run_with_loop_watch(scenario) == []

    def test_unknown_message_type_is_malformed(self):
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            await send_raw(tcp.port, struct.pack(">BI", 201, 4) + b"\x00" * 4)
            await asyncio.sleep(0.2)
            assert tcp.server.metrics.malformed_frames >= 1
            await assert_still_serving(tcp, sub_id=5)
            await tcp.stop()

        assert run_with_loop_watch(scenario) == []

    def test_string_running_past_the_payload_is_malformed(self):
        """The last string declares 100 bytes and 5 are there: a slice
        would hand back the 5 as if nothing were wrong."""
        frame = encode_message(
            notification_for(1, Event(7, {"topic": "sales"}, Point(1.0, 2.0)), 1)
        )
        assert frame.endswith(struct.pack(">I", 5) + b"sales")
        lying = frame[:-9] + struct.pack(">I", 100) + b"sales"
        with pytest.raises(ValueError, match="past the buffer"):
            decode_message(lying)
        self._assert_counted_as_malformed(lying)

    def test_bytes_after_the_last_pair_are_malformed(self):
        for message in (
            notification_for(1, Event(7, {"topic": "sale"}, Point(1.0, 2.0)), 1),
            publish_message_for(7, {"topic": "sale"}, Point(1.0, 2.0)),
            EventPublishBatchMessage(
                (publish_message_for(7, {"topic": "sale"}, Point(1.0, 2.0)),)
            ),
            SubscribeMessage(
                1, 1_500.0, make_sub().expression, Point(5_000, 5_000), Point(40, 0)
            ),
            # no pairs, an id array: the client-to-server frame whose
            # decoder used to stop reading at the count it declared
            ResyncMessage(1, Point(5_000, 5_000), Point(40, 0), (7, 9)),
        ):
            payload = message.encode_payload() + b"\x00\x00\x00"
            padded = struct.pack(">BI", message.TYPE, len(payload)) + payload
            with pytest.raises(ValueError, match="fields end at byte"):
                decode_message(padded)
            self._assert_counted_as_malformed(padded)

    def test_batch_element_with_trailing_bytes_is_malformed(self):
        element = publish_message_for(
            7, {"topic": "sale"}, Point(1.0, 2.0)
        ).encode_payload() + b"\x00"
        payload = struct.pack(">II", 1, len(element)) + element
        with pytest.raises(ValueError, match="fields end at byte"):
            decode_message(struct.pack(">BI", 10, len(payload)) + payload)

    @staticmethod
    def _assert_counted_as_malformed(frame: bytes) -> None:
        async def scenario():
            tcp = make_tcp_server()
            await tcp.start()
            await send_raw(tcp.port, frame)
            await asyncio.sleep(0.1)
            assert tcp.server.metrics.malformed_frames == 1
            await assert_still_serving(tcp, sub_id=8)
            await tcp.stop()

        assert run_with_loop_watch(scenario) == []

    def test_slow_loris_connection_is_reaped(self):
        """A connection that sends a header then stalls hits the timeout."""

        async def scenario():
            tcp = make_tcp_server(read_timeout=0.2)
            await tcp.start()
            _, writer = await asyncio.open_connection("127.0.0.1", tcp.port)
            writer.write(struct.pack(">BI", 1, 500))  # promises 500 bytes, sends none
            await writer.drain()
            await asyncio.sleep(0.6)
            assert tcp.server.metrics.read_timeouts >= 1
            writer.close()
            await assert_still_serving(tcp, sub_id=6)
            await tcp.stop()

        assert run_with_loop_watch(scenario) == []
