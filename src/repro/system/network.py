"""Elaps over TCP: the wire protocol served on a real socket.

The simulation drives the server through in-process callbacks; this
module exposes the same server as a network service so that real clients
(mobile devices, publishers) can speak the binary protocol of
:mod:`repro.system.protocol` over TCP:

* **subscribers** connect, send a :class:`SubscribeMessage`, receive the
  already-matching events and their first :class:`SafeRegionPush`, then
  report with :class:`LocationReport` whenever they leave the region;
  notifications and new regions are pushed down the same connection;
* **publishers** connect and send :class:`EventPublishMessage` frames;
  the server stamps arrival times from its own clock and fans out
  notifications to the affected subscriber connections.

One simplification versus the paper's synchronous ping: when an arriving
event lands in a subscriber's impact region, the server answers the
"ping" from the subscriber's most recent report instead of blocking the
publish on a network round-trip (clients report whenever they leave
their safe region, so the freshness guarantee is the same as the
simulation's: one report round per region exit).

The server side is split in two (DESIGN.md §17): a :class:`Connection`
is one socket's protocol as a pure state machine (bytes and clock
readings in; messages, send-queue verdicts and bytes to write out), and
:class:`ElapsTCPServer` is the asyncio adapter that moves the bytes and
reads the clock.

The layer assumes a hostile network (DESIGN.md §8).  Framing (one
:class:`FrameParser` per stream) distinguishes clean EOF
from peer resets and truncated streams; the server enforces per-frame
read timeouts and a frame-length cap,
echoes client heartbeats, and degrades gracefully on malformed frames
(count in :class:`~repro.system.metrics.CommunicationStats`, drop the
connection — never the event loop).  :class:`ResilientElapsClient` is
the subscriber built for that network: heartbeat keepalive, reconnect
with exponential backoff + jitter, and resubscribe + resync after every
reconnect so deliveries stay exactly-once end to end.

The data path is built around explicit bounded queues (DESIGN.md §17),
configured by one frozen :class:`~repro.system.config.NetworkConfig`:

* **ingress** — handlers read, their connections decode, and the
  messages feed a bounded queue drained by one dispatcher task.  When
  the queue is full the handlers stop reading (TCP backpressure):
  the kernel window closes and well-behaved publishers slow down
  instead of ballooning server memory.  Heartbeats are answered inline,
  off the ingress path, so keepalives survive a backed-up queue.
* **egress** — every connection owns a bounded :class:`SendQueue`
  drained by a dedicated writer task; nothing writes to a socket
  directly.  An over-cap queue sheds *stale* frames (a newer
  ``SafeRegionPush`` supersedes any queued older push or delta; a delta
  whose base push was shed is dropped and forces the full-push
  fallback; notifications are never shed), and a consumer that stays
  over cap past the grace window — or hits the hard cap — is counted in
  ``slow_consumer_disconnects`` and dropped: no further frames are
  accepted (bounding memory at the hard cap), the queued backlog is
  flushed, and the socket closes cleanly, so the subscribe+resync path
  heals the remainder exactly like any other dead connection.

The wrapped :class:`~repro.system.ElapsServer` is not thread-safe; all
core access runs on the dispatcher task, on the event-loop thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import enum
import itertools
import logging
import math
import random
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Set

from ..expressions import Event, Subscription
from ..geometry import Grid, Point
from .client import MobileClient
from .config import (
    MAX_FRAME_LENGTH,
    ClientConfig,
    NetworkConfig,
    ReconnectPolicy,
    Transport,
)
from .metrics import CommunicationStats
from .protocol import (
    FRAME_HEADER,
    EventPublishBatchMessage,
    EventPublishMessage,
    HeartbeatMessage,
    LocationReport,
    MessageDecoder,
    NotificationMessage,
    ResyncMessage,
    SafeRegionDelta,
    SafeRegionPush,
    StatsRequest,
    StatsSnapshot,
    SubscribeMessage,
    UnsubscribeMessage,
    cells_from_delta,
    decode_message,
    encode_message,
    notification_frame,
    notification_tail,
    publish_batch_message_for,
    publish_message_for,
    region_delta_for,
    region_from_push,
    region_push_for,
    stats_snapshot_for,
    subscribe_message_for,
)
from .server import ElapsServer

logger = logging.getLogger(__name__)

_HEADER_SIZE = FRAME_HEADER.size
#: bytes asked of the socket per read: the stream reader's own buffer limit
_READ_CHUNK = 64 * 1024
#: seconds ``stop()`` waits for connection handlers, and then for the
#: ingress queue to drain, before cancelling what is left
STOP_TIMEOUT = 5.0


class FrameError(Exception):
    """The byte stream violated the framing protocol."""


class TruncatedFrameError(FrameError):
    """The peer vanished mid-frame (partial header or payload)."""


class FrameParser:
    """The one frame parser: bytes in, frames out, no I/O.

    Bytes arrive in whatever chunks the stream hands out, and frames are
    sliced out of the buffer for as long as a complete one is there.
    The ways a stream can go wrong stay distinct so callers can account
    for them: its end (``feed(b"")``) inside a frame is
    :class:`TruncatedFrameError`, a declared length over the cap is
    :class:`FrameError` as soon as its header is parsed (so at most one
    chunk of such a frame is ever buffered), and a clean end is silent.
    """

    def __init__(self, max_length: int = MAX_FRAME_LENGTH) -> None:
        self._max_length = max_length
        self._buffer = bytearray()
        #: offset of the first byte not yet returned in a frame
        self._consumed = 0

    def feed(self, data: bytes) -> None:
        """Append bytes read off the stream; ``b""`` is its end."""
        if not data:
            pending = len(self._buffer) - self._consumed
            if pending:
                raise TruncatedFrameError(f"stream ended {pending} bytes into a frame")
            return
        # the consumed prefix goes when the next chunk arrives, not
        # frame by frame
        del self._buffer[: self._consumed]
        self._consumed = 0
        self._buffer += data

    def pop(self) -> Optional[bytes]:
        """The next frame if all of it is buffered, else ``None``."""
        buffer, start = self._buffer, self._consumed
        if len(buffer) - start < _HEADER_SIZE:
            return None
        (_, length) = FRAME_HEADER.unpack_from(buffer, start)
        if length > self._max_length:
            raise FrameError(
                f"declared payload of {length} bytes exceeds {self._max_length}"
            )
        end = start + _HEADER_SIZE + length
        if end > len(buffer):
            return None
        self._consumed = end
        return bytes(buffer[start:end])


class FrameReader:
    """A :class:`FrameParser` over an asyncio stream: the read side of
    both clients and of the chaos proxy.

    It awaits once per socket chunk (``reader.read`` of up to
    :data:`_READ_CHUNK`), not once per frame.  Clean EOF is ``None``, a
    truncated or oversize frame raises as the parser does, and a peer
    reset propagates as :class:`ConnectionResetError` instead of being
    conflated with a graceful disconnect.  A timeout leaves whatever part
    of a frame has arrived in the parser: the next read resumes the same
    frame instead of parsing its payload as a header.
    """

    def __init__(
        self, reader: asyncio.StreamReader, max_length: int = MAX_FRAME_LENGTH
    ) -> None:
        self._reader = reader
        self._parser = FrameParser(max_length)
        self._decoder = MessageDecoder()

    async def read(self, timeout: Optional[float]) -> Optional[bytes]:
        """The next frame, or ``None`` on a clean EOF.

        Awaits only when no complete frame is buffered.  ``timeout``
        (``None`` waits forever) bounds the wait for this *frame*, not
        for each chunk of it, so a peer trickling bytes cannot extend it;
        :class:`asyncio.TimeoutError` when it expires.
        """
        frame = self._parser.pop()
        if frame is not None:
            return frame
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while True:
            remaining = None if deadline is None else deadline - loop.time()
            if remaining is not None and remaining <= 0:
                raise asyncio.TimeoutError()
            chunk = await asyncio.wait_for(self._reader.read(_READ_CHUNK), remaining)
            self._parser.feed(chunk)
            frame = self._parser.pop()
            if frame is not None or not chunk:
                return frame

    async def read_message(self, timeout: Optional[float]):
        """:meth:`read`, decoded; ``None`` on a clean EOF.  Consecutive
        notifications of one event share one parse of its attributes
        (:class:`~repro.system.protocol.MessageDecoder`)."""
        frame = await self.read(timeout)
        if frame is None:
            return None
        return self._decoder.decode(frame)


# ----------------------------------------------------------------------
# Egress: the bounded per-connection send queue
# ----------------------------------------------------------------------
class FrameKind(enum.Enum):
    """What a queued egress frame carries, for shed eligibility.

    The shed-eligibility table (DESIGN.md §17): ``REGION``/``DELTA``
    frames are *state* — latest wins, older ones may be coalesced away
    and a shed is healed by the full-push fallback; ``EPHEMERAL`` frames
    (heartbeat echoes) carry no durable meaning; ``NOTIFICATION`` and
    ``CONTROL`` frames are deliveries the client is owed and are never
    shed — a consumer that cannot drain them is disconnected instead,
    which triggers the resync path that redelivers exactly-once.
    """

    NOTIFICATION = "notification"
    REGION = "region"
    DELTA = "delta"
    EPHEMERAL = "ephemeral"
    CONTROL = "control"


#: frame kinds an over-cap queue may drop (healed by fallback/next echo)
SHEDDABLE_KINDS = frozenset(
    {FrameKind.REGION, FrameKind.DELTA, FrameKind.EPHEMERAL}
)

#: frame kinds that carry region state for one subscriber
_REGION_KINDS = frozenset({FrameKind.REGION, FrameKind.DELTA})


class SendVerdict(enum.Enum):
    """What :meth:`SendQueue.offer` concluded about the consumer."""

    #: queue at or under the soft cap
    OK = "ok"
    #: over the soft cap but inside the grace window — keep serving
    OVER = "over"
    #: hard cap reached, or over cap past the grace window — drop the
    #: consumer (it will heal through reconnect + resync)
    DISCONNECT = "disconnect"


@dataclass
class QueuedFrame:
    """One frame waiting in a :class:`SendQueue`."""

    kind: FrameKind
    sub_id: Optional[int]
    frame: bytes


class SendQueue:
    """A bounded egress queue with stale-frame shedding.

    Pure synchronous state (offers and pops happen on the event loop;
    the property suite drives it directly).  Counters go to the
    :class:`~repro.system.metrics.CommunicationStats` handed in —
    ``frames_shed``, ``superseded_region_ships`` and the
    ``send_queue_high_water`` gauge.

    Invariants the property tests pin:

    * depth never exceeds ``hard_cap``, provided the caller stops
      offering once it sees :data:`SendVerdict.DISCONNECT` — which the
      server does by marking the connection draining;
    * no ``DELTA`` frame for a subscriber survives (or enters) the queue
      after a region frame for that subscriber was shed, until a fresh
      full push re-syncs the chain (``region_state_dirty``);
    * ``NOTIFICATION``/``CONTROL`` frames are never dropped;
    * the relative order of surviving frames is preserved.
    """

    def __init__(
        self,
        soft_cap: int,
        hard_cap: Optional[int] = None,
        *,
        grace: float = 2.0,
        stats: Optional[CommunicationStats] = None,
    ) -> None:
        if soft_cap < 1:
            raise ValueError(f"soft_cap must be positive: {soft_cap}")
        self.soft_cap = soft_cap
        self.hard_cap = hard_cap if hard_cap is not None else 2 * soft_cap
        if self.hard_cap < soft_cap:
            raise ValueError(
                f"hard_cap ({self.hard_cap}) must be at least soft_cap ({soft_cap})"
            )
        self.grace = grace
        self.stats = stats if stats is not None else CommunicationStats()
        self.high_water = 0
        self._entries: Deque[QueuedFrame] = deque()
        self._sheddable = 0
        self._dirty: Set[int] = set()
        self._over_since: Optional[float] = None

    def __len__(self) -> int:
        return len(self._entries)

    def region_state_dirty(self, sub_id: int) -> bool:
        """True if a region frame for ``sub_id`` was shed and no full
        push has re-synced the chain since — the server must fall back
        to a full push instead of shipping a delta."""
        return sub_id in self._dirty

    def offer(
        self, kind: FrameKind, sub_id: Optional[int], frame: bytes, now: float
    ) -> SendVerdict:
        """Enqueue one frame and judge the consumer's health."""
        if kind is FrameKind.REGION:
            self._supersede(sub_id)
            # a full push is self-contained: it re-syncs a broken chain
            self._dirty.discard(sub_id)
        elif kind is FrameKind.DELTA and sub_id in self._dirty:
            # the base region this delta applies to was shed off this
            # queue; applying it would corrupt the client's region, so
            # it is dropped here and the sub stays dirty — the server's
            # next ship for it becomes a full push
            self.stats.frames_shed += 1
            return self._verdict(now)
        self._entries.append(QueuedFrame(kind, sub_id, frame))
        if kind in SHEDDABLE_KINDS:
            self._sheddable += 1
        depth = len(self._entries)
        if depth > self.high_water:
            self.high_water = depth
        if depth > self.stats.send_queue_high_water:
            self.stats.send_queue_high_water = depth
        if depth > self.soft_cap and self._sheddable:
            self._shed()
        return self._verdict(now)

    def pop(self) -> Optional[QueuedFrame]:
        """The oldest queued frame, or None when empty."""
        if not self._entries:
            return None
        entry = self._entries.popleft()
        if entry.kind in SHEDDABLE_KINDS:
            self._sheddable -= 1
        if len(self._entries) <= self.soft_cap:
            self._over_since = None
        return entry

    # internals --------------------------------------------------------
    def _supersede(self, sub_id: Optional[int]) -> None:
        """A newer full push makes queued region state for the sub moot."""
        if sub_id is None or not self._entries:
            return
        removed = 0
        kept: Deque[QueuedFrame] = deque()
        for entry in self._entries:
            if entry.sub_id == sub_id and entry.kind in _REGION_KINDS:
                removed += 1
                self._sheddable -= 1
            else:
                kept.append(entry)
        if removed:
            self._entries = kept
            self.stats.superseded_region_ships += removed

    def _shed(self) -> None:
        """Drop stale frames, oldest first, until back under the cap.

        Dropping any region frame for a subscriber breaks its delta
        chain: every queued region frame for that subscriber goes with
        it and the subscriber is marked dirty until a fresh full push.
        """
        need = len(self._entries) - self.soft_cap
        broken: Set[int] = set()
        kept: Deque[QueuedFrame] = deque()
        for entry in self._entries:
            region_frame = entry.kind in _REGION_KINDS
            if region_frame and entry.sub_id in broken:
                self.stats.frames_shed += 1
                self._sheddable -= 1
                need -= 1
                continue
            if need > 0 and entry.kind in SHEDDABLE_KINDS:
                self.stats.frames_shed += 1
                self._sheddable -= 1
                need -= 1
                if region_frame and entry.sub_id is not None:
                    broken.add(entry.sub_id)
                    self._dirty.add(entry.sub_id)
                continue
            kept.append(entry)
        self._entries = kept

    def _verdict(self, now: float) -> SendVerdict:
        depth = len(self._entries)
        if depth <= self.soft_cap:
            self._over_since = None
            return SendVerdict.OK
        if depth >= self.hard_cap:
            return SendVerdict.DISCONNECT
        if self._over_since is None:
            self._over_since = now
            return SendVerdict.OVER
        if now - self._over_since > self.grace:
            return SendVerdict.DISCONNECT
        return SendVerdict.OVER


class Connection:
    """One accepted socket's protocol, as a pure state machine.

    No ``await``, no socket, no clock read: the adapter
    (:class:`ElapsTCPServer`) does the I/O and hands in ``now``, so a
    test drives the whole protocol on a fake clock.  ``wake`` is called
    whenever the writer has something new to do (bytes, or the close).
    """

    __slots__ = (
        "queue", "sub_ids", "closed", "draining", "wake", "_server",
        "_parser", "_read_timeout", "_deadline",
    )

    def __init__(self, config: NetworkConfig, server: ElapsServer) -> None:
        self.queue = SendQueue(
            config.send_queue,
            config.hard_cap,
            grace=config.slow_consumer_grace,
            stats=server.metrics,
        )
        self.sub_ids: Set[int] = set()
        self.closed = False
        #: a slow-consumer verdict landed: no new frames are accepted
        #: (bounding memory at the hard cap) but the queued backlog is
        #: still flushed before the close, so the client keeps every
        #: frame it was already owed and its next resync only has to
        #: cover the remainder — a backlog larger than the hard cap
        #: heals geometrically instead of livelocking on resets
        self.draining = False
        self.wake: Callable[[], None] = lambda: None
        self._server = server
        self._parser = FrameParser()
        self._read_timeout = config.read_timeout
        #: when the frame being awaited is overdue; armed by :meth:`deadline`
        self._deadline: Optional[float] = None

    def deadline(self, now: float) -> Optional[float]:
        """When the frame now awaited is overdue (``None``: never); the
        first call after a frame arms it, so it bounds the frame, not
        each read, and bytes trickling in cannot extend it."""
        if self._deadline is None and self._read_timeout is not None:
            self._deadline = now + self._read_timeout
        return self._deadline

    def expire(self, now: float) -> None:
        """Reap the connection (``read_timeouts``) if the frame awaited
        is overdue at ``now``."""
        if self._deadline is not None and now >= self._deadline and not self.closed:
            self._server.metrics.read_timeouts += 1
            self.close()

    def receive(self, data: bytes, now: float) -> List:
        """The messages for the dispatcher in ``data`` (``b""``: EOF).

        Heartbeats are answered here, so keepalives stay responsive
        however busy the dispatcher is.  A frame that does not parse,
        decode or pass :meth:`_message_sane` counts in
        ``malformed_frames`` and closes the connection; the messages
        before it are still returned.
        """
        if self.closed:
            return []
        metrics = self._server.metrics
        tracer = self._server.tracer
        messages = []
        try:
            self._parser.feed(data)
            while (frame := self._parser.pop()) is not None:
                self._deadline = None
                with tracer.span("decode"):
                    message = decode_message(frame)
                if not self._message_sane(message):
                    raise ValueError(f"{type(message).__name__} out of bounds")
                if isinstance(message, HeartbeatMessage):
                    metrics.heartbeats += 1
                    self.offer(FrameKind.EPHEMERAL, None, encode_message(message), now)
                else:
                    messages.append(message)
        except Exception:
            # a broken frame or a corrupted payload (bad tag, short
            # buffer, garbage unicode, unknown type, poison geometry...)
            metrics.malformed_frames += 1
            self.close()
        if not data:
            self.close()
        return messages

    def offer(
        self, kind: FrameKind, sub_id: Optional[int], frame: bytes, now: float
    ) -> Optional[SendVerdict]:
        """Queue one frame at ``now``: the queue's verdict (``DISCONNECT``
        starts the drain), or ``None`` once nothing more is accepted."""
        if self.closed or self.draining:
            return None
        verdict = self.queue.offer(kind, sub_id, frame, now)
        if verdict is SendVerdict.DISCONNECT:
            self._server.metrics.slow_consumer_disconnects += 1
            logger.warning(
                "slow consumer: send queue depth %d (cap %d/%d); "
                "disconnecting after flush",
                len(self.queue),
                self.queue.soft_cap,
                self.queue.hard_cap,
            )
            self.draining = True
        self.wake()
        return verdict

    def outgoing(self) -> bytes:
        """The next write — up to 64 queued frames coalesced into one —
        or ``b""`` when there is none.

        A draining connection whose backlog is flushed closes here, and
        the adapter ends it with a clean FIN so every written frame
        survives (an abort's RST could discard them in flight).
        """
        if self.closed:
            return b""
        frames = []
        while len(frames) < 64 and (entry := self.queue.pop()) is not None:
            frames.append(entry.frame)
        if not frames and self.draining:
            self.close()
        return b"".join(frames)

    def close(self) -> None:
        """End the connection: nothing more is read, queued or written."""
        if not self.closed:
            self.closed = True
            self.wake()

    def _message_sane(self, message) -> bool:
        """Semantic bounds on network input.

        Decoding only proves the bytes parse; a corrupted frame can
        still carry poison — a radius of ``1e308`` would iterate region
        construction until the heat death of the universe, a NaN
        coordinate breaks cell addressing.  Geometry must be finite and
        the radius must fit inside the served space.
        """

        def sane_point(p: Point) -> bool:
            """Both coordinates finite (no NaN/inf cell addressing)."""
            return math.isfinite(p.x) and math.isfinite(p.y)

        space = self._server.grid.space
        diagonal = math.hypot(space.width, space.height)
        if isinstance(message, SubscribeMessage):
            return (
                sane_point(message.location)
                and sane_point(message.velocity)
                and math.isfinite(message.radius)
                and 0 < message.radius <= diagonal
            )
        if isinstance(message, (LocationReport, ResyncMessage)):
            return sane_point(message.location) and sane_point(message.velocity)
        if isinstance(message, EventPublishMessage):
            return sane_point(message.location)
        if isinstance(message, EventPublishBatchMessage):
            return all(sane_point(event.location) for event in message.events)
        return True


class ElapsTCPServer(Transport):
    """Serve an :class:`ElapsServer` (or a
    :class:`~repro.system.sharding.ShardedElapsServer`) on a TCP port.

    Every front-end knob lives on the :class:`NetworkConfig` passed as
    ``config``.  The class that owns the sockets is the wrapped server's
    :class:`~repro.system.config.Transport`: regions and deltas are
    framed and queued on the subscriber's live connection, and the
    location ping is answered from the last reported position (a TCP
    client is not synchronously pingable — it reports when it leaves its
    region, exactly the paper's protocol).

    It is the asyncio adapter around one :class:`Connection` per socket,
    and the only server code that reads a clock.
    """

    def __init__(
        self,
        server: ElapsServer,
        host: str = "127.0.0.1",
        port: int = 0,
        timestamp_seconds: float = 5.0,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        if timestamp_seconds <= 0:
            raise ValueError(f"timestamp length must be positive: {timestamp_seconds}")
        #: the immutable knob set this front-end was built from
        self.config = config or NetworkConfig()
        self.server = server
        self.host = host
        self.port = port
        self.timestamp_seconds = timestamp_seconds
        self._subscriber_conns: Dict[int, Connection] = {}
        #: every live connection, and the socket its writer task writes
        self._connections: Dict[Connection, asyncio.StreamWriter] = {}
        self._connection_tasks: Set[asyncio.Task] = set()
        self._writer_tasks: Set[asyncio.Task] = set()
        self._event_ids = itertools.count(1)
        self._started_at = time.monotonic()
        #: the clock reading of the message being dispatched, which the
        #: frames the core ships through this transport are offered at
        self._now = self._started_at
        self._tcp_server: Optional[asyncio.base_events.Server] = None
        self._ingress: Optional[asyncio.Queue] = None
        self._dispatcher: Optional[asyncio.Task] = None
        # everything the wrapped server ships goes out over the sockets
        server.transport = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind, start the dispatcher, and start accepting connections."""
        self._ingress = asyncio.Queue(maxsize=self.config.ingress_queue)
        self._dispatcher = asyncio.ensure_future(self._dispatcher_loop())
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._tcp_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close every connection, wait for handlers.

        Handlers are unblocked by closing their connections first (each
        writer task then closes its transport): a clean EOF exercises
        exactly the disconnect path they already own.  Any handler still
        alive after :data:`STOP_TIMEOUT` is cancelled and logged instead
        of leaked; the dispatcher then
        drains the remaining ingress work (including the handlers' close
        markers) before it is stopped.
        """
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for conn in list(self._connections):
            conn.close()
        pending = [task for task in self._connection_tasks if not task.done()]
        if pending:
            _, survivors = await asyncio.wait(pending, timeout=STOP_TIMEOUT)
            if survivors:
                logger.warning(
                    "stop(): cancelling %d connection handler(s) still "
                    "alive after %.1fs",
                    len(survivors),
                    STOP_TIMEOUT,
                )
                for task in survivors:
                    task.cancel()
                await asyncio.gather(*survivors, return_exceptions=True)
        if self._dispatcher is not None:
            if self._ingress is not None:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._ingress.join(), STOP_TIMEOUT)
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        for task in list(self._writer_tasks):
            task.cancel()
        if self._writer_tasks:
            await asyncio.gather(*self._writer_tasks, return_exceptions=True)
            self._writer_tasks.clear()
        self._subscriber_conns.clear()
        self._connections.clear()

    def now(self) -> int:
        """The server clock in timestamps since start."""
        return self._timestamp(time.monotonic())

    def _timestamp(self, now: float) -> int:
        return int((now - self._started_at) / self.timestamp_seconds)

    # ------------------------------------------------------------------
    # The wrapped server's transport (egress)
    # ------------------------------------------------------------------
    def locate(self, sub_id: int):
        """The last position the subscriber reported over the wire."""
        record = self.server.subscribers[sub_id]
        return record.location, record.velocity

    def ship_region(self, sub_id: int, region) -> None:
        """Frame and queue a full safe region for the live connection."""
        self._ship(
            sub_id, FrameKind.REGION, encode_message(region_push_for(sub_id, region))
        )

    def ship_delta(self, sub_id: int, removed, region) -> None:
        """Queue a repair as a delta frame (the full region stays home).

        The delta only makes sense against the region the client already
        holds.  With no live connection the frame is dropped, exactly
        like a full push would be, and the client's reconnect resync
        ships a fresh full region anyway.  If the queue shed the base
        region this delta builds on, the delta would poison the client's
        state — the ship falls back to the full post-repair region
        instead (the PR 3 delta contract).
        """
        conn = self._subscriber_conns.get(sub_id)
        if conn is None:
            return
        if conn.queue.region_state_dirty(sub_id):
            self.ship_region(sub_id, region)
            return
        self._ship(
            sub_id,
            FrameKind.DELTA,
            encode_message(region_delta_for(sub_id, self.server.grid, removed)),
        )

    def _push_notifications(self, notifications) -> None:
        # a publish returns its notifications event by event: the part of
        # the frame every recipient shares is encoded once per run
        event = tail = None
        for notification in notifications:
            if notification.event is not event:
                event = notification.event
                tail = notification_tail(event)
            self._ship(
                notification.sub_id,
                FrameKind.NOTIFICATION,
                notification_frame(
                    notification.sub_id, event.event_id, notification.seq, tail
                ),
            )

    def _ship(self, sub_id: int, kind: FrameKind, frame: bytes) -> None:
        """Queue a frame for a subscriber's connection."""
        conn = self._subscriber_conns.get(sub_id)
        if conn is None:
            # no live connection: the loss is healed by the client's
            # next resync, exactly like the pre-queue direct write
            return
        self._offer(conn, kind, sub_id, frame, self._now)

    def _offer(self, conn: Connection, kind, sub_id, frame, now: float) -> None:
        """Hand one frame from the dispatcher to a connection at ``now``."""
        conn.offer(kind, sub_id, frame, now)

    async def _writer_loop(
        self, conn: Connection, writer: asyncio.StreamWriter, ready: asyncio.Event
    ) -> None:
        """Write what the connection gives out onto its socket, draining
        once per write; woken through ``conn.wake``.

        The only place this connection's socket is written or closed: a
        closed connection ends with a clean FIN; a stalled drain
        (``write_timeouts``), any other write failure on a live
        connection (``push_errors``, the counter the old silent
        ``_push_to`` except-pass was hiding) or a cancel aborts it.
        """
        metrics = self.server.metrics
        tracer = self.server.tracer
        write_timeout = self.config.write_timeout
        clean = False
        try:
            while True:
                data = conn.outgoing()
                if data:
                    writer.write(data)
                    with tracer.span("drain"):
                        await asyncio.wait_for(writer.drain(), write_timeout)
                elif conn.closed:
                    clean = True
                    return
                else:
                    ready.clear()
                    await ready.wait()
        except asyncio.TimeoutError:
            # a drain that cannot flush is a stalled *peer*, not a
            # silent one; counting it as a read timeout hid every
            # backpressure incident inside the idle-connection tally
            if not conn.closed:
                metrics.write_timeouts += 1
        except Exception:
            if not conn.closed:
                metrics.push_errors += 1
                logger.debug("write to connection failed; dropping it", exc_info=True)
        finally:
            conn.close()
            with contextlib.suppress(Exception):
                if clean:
                    writer.close()
                else:
                    writer.transport.abort()

    # ------------------------------------------------------------------
    # Connection handling (ingress)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read chunks off the socket into its :class:`Connection` and
        queue the messages it decodes for the dispatcher."""
        metrics = self.server.metrics
        tracer = self.server.tracer
        config = self.config
        if (
            config.max_connections is not None
            and len(self._connections) >= config.max_connections
        ):
            metrics.connections_refused += 1
            writer.close()
            return
        if config.write_buffer_limit is not None:
            # cap the kernel+transport buffering so a slow consumer
            # backs up into the (observable, bounded) send queue instead
            # of hiding megabytes of frames below the metrics
            with contextlib.suppress(Exception):
                writer.transport.set_write_buffer_limits(
                    high=config.write_buffer_limit
                )
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_SNDBUF,
                        config.write_buffer_limit,
                    )
        assert self._ingress is not None, "start() first"
        task = asyncio.current_task()
        self._connection_tasks.add(task)
        conn = Connection(config, self.server)
        ready = asyncio.Event()
        conn.wake = ready.set
        self._connections[conn] = writer
        writer_task = asyncio.ensure_future(self._writer_loop(conn, writer, ready))
        self._writer_tasks.add(writer_task)
        writer_task.add_done_callback(self._writer_tasks.discard)
        try:
            while not conn.closed:
                now = time.monotonic()
                deadline = conn.deadline(now)
                try:
                    # the "read" stage is the wait for the peer's next
                    # bytes, so its histogram is the arrival picture
                    # between bursts, not parsing cost
                    with tracer.span("read"):
                        data = await asyncio.wait_for(
                            reader.read(_READ_CHUNK),
                            None if deadline is None else deadline - now,
                        )
                except asyncio.TimeoutError:
                    conn.expire(time.monotonic())
                    continue
                except ConnectionResetError:
                    if not conn.closed:
                        metrics.connection_resets += 1
                    break
                for message in conn.receive(data, time.monotonic()):
                    # a full ingress queue blocks here, which stops this
                    # read loop: the kernel window closes and the peer
                    # experiences ordinary TCP backpressure
                    await self._ingress.put((conn, message))
                    depth = self._ingress.qsize()
                    if depth > metrics.ingress_queue_high_water:
                        metrics.ingress_queue_high_water = depth
        except Exception:  # graceful degradation: never crash the loop
            logger.exception("connection handler failed; dropping connection")
        finally:
            conn.close()
            self._connections.pop(conn, None)
            self._connection_tasks.discard(task)
            # the dispatcher owns subscriber-state cleanup, via a close
            # marker that queues FIFO *behind* this connection's
            # still-pending messages — no teardown/dispatch races
            try:
                self._ingress.put_nowait((conn, None))
            except asyncio.QueueFull:
                with contextlib.suppress(asyncio.CancelledError):
                    await self._ingress.put((conn, None))

    # ------------------------------------------------------------------
    # Dispatch (the core side of the ingress queue)
    # ------------------------------------------------------------------
    async def _dispatcher_loop(self) -> None:
        """Drain the ingress queue into the wrapped server, in order."""
        assert self._ingress is not None
        tracer = self.server.tracer
        while True:
            conn, message = await self._ingress.get()
            try:
                if message is None:
                    self._cleanup_connection(conn)
                else:
                    now = time.monotonic()
                    with tracer.span("dispatch"):
                        self._dispatch(conn, message, now)
            except asyncio.CancelledError:
                raise
            except Exception:
                # graceful degradation: a poisoned message costs its
                # connection, never the dispatcher
                logger.exception("dispatch failed; dropping connection")
                conn.close()
            finally:
                self._ingress.task_done()

    def _cleanup_connection(self, conn: Connection) -> None:
        """Tear down the subscriber state a dead connection owned."""
        for sub_id in list(conn.sub_ids):
            # a reconnected client may already own a fresh connection;
            # only tear down state that still belongs to this one
            if self._subscriber_conns.get(sub_id) is not conn:
                continue
            self._subscriber_conns.pop(sub_id, None)
            if (
                not self.config.retain_subscribers
                and sub_id in self.server.subscribers
            ):
                self.server.unsubscribe(sub_id)

    def _dispatch(self, conn: Connection, message, now: float) -> None:
        """Apply one decoded frame to the wrapped server at ``now``."""
        self._now = now
        timestamp = self._timestamp(now)
        if isinstance(message, SubscribeMessage):
            self._subscriber_conns[message.sub_id] = conn
            conn.sub_ids.add(message.sub_id)
            subscription = Subscription(
                message.sub_id, message.expression, message.radius
            )
            notifications, _ = self.server.subscribe(
                subscription, message.location, message.velocity, timestamp
            )
            # the initial region push went out through ship_region;
            # deliver the already-matching events
            self._push_notifications(notifications)
        elif isinstance(message, LocationReport):
            if message.sub_id in self.server.subscribers:
                notifications, _ = self.server.report_location(
                    message.sub_id, message.location, message.velocity, timestamp
                )
                self._push_notifications(notifications)
        elif isinstance(message, ResyncMessage):
            if message.sub_id in self.server.subscribers:
                self._subscriber_conns[message.sub_id] = conn
                conn.sub_ids.add(message.sub_id)
                notifications, _ = self.server.resync(
                    message.sub_id,
                    message.location,
                    message.velocity,
                    message.received,
                    timestamp,
                )
                self._push_notifications(notifications)
        elif isinstance(message, StatsRequest):
            # observability pull: answer with a point-in-time copy of the
            # whole registry on the requesting connection
            self._offer(
                conn,
                FrameKind.CONTROL,
                None,
                encode_message(stats_snapshot_for(self.server.merged_registry())),
                now,
            )
        elif isinstance(message, UnsubscribeMessage):
            if message.sub_id in self.server.subscribers:
                self.server.unsubscribe(message.sub_id)
            self._subscriber_conns.pop(message.sub_id, None)
            conn.sub_ids.discard(message.sub_id)
        elif isinstance(message, (EventPublishMessage, EventPublishBatchMessage)):
            # one pipeline behind both wire forms: a lone publish frame
            # is a batch of one
            items = (
                (message,) if isinstance(message, EventPublishMessage)
                else message.events
            )
            events = [self._event_from(item, timestamp) for item in items]
            self.server.expire_due_events(timestamp)
            notifications = self.server.publish_batch(events, timestamp)
            self._push_notifications(notifications)

    def _event_from(self, message: EventPublishMessage, now: int) -> Event:
        """A server-side event for one publish, with a collision-free id."""
        return Event(
            next(self._event_ids) << 32 | (message.event_id & 0xFFFFFFFF),
            dict(message.attributes),
            message.location,
            arrived_at=now,
            expires_at=None if message.ttl <= 0 else now + message.ttl,
        )


class ElapsNetworkClient:
    """One *connection* to an :class:`ElapsTCPServer`: frames out,
    frames in, no subscription at construction and no subscriber state,
    so one socket carries any number of subscribers plus the publisher
    role.  (:class:`ResilientElapsClient` is the other thing — one
    supervised subscriber — not this with reconnection added.)"""

    def __init__(
        self, host: str, port: int, config: Optional[ClientConfig] = None
    ) -> None:
        self.host = host
        self.port = port
        self.config = config or ClientConfig()
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self._frames: Optional[FrameReader] = None

    async def connect(self) -> None:
        """Open the TCP connection."""
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        self._frames = FrameReader(self.reader)

    async def close(self) -> None:
        """Close the connection."""
        if self.writer is not None:
            self.writer.close()
            with contextlib.suppress(ConnectionResetError):  # platform noise
                await self.writer.wait_closed()

    async def send(self, message) -> None:
        """Send one protocol message."""
        assert self.writer is not None, "connect() first"
        self.writer.write(encode_message(message))
        await self.writer.drain()

    async def receive(self, timeout: Optional[float] = None):
        """Receive one pushed message (decoded), or None on EOF.

        ``timeout`` defaults to ``config.receive_timeout``.  A frame that
        has only partly arrived when it expires stays buffered, and the
        next call resumes it.
        """
        assert self._frames is not None, "connect() first"
        if timeout is None:
            timeout = self.config.receive_timeout
        return await self._frames.read_message(timeout)

    # convenience wrappers ------------------------------------------------
    async def subscribe(self, subscription, location: Point, velocity: Point):
        """Subscribe and collect the pushes until the first region arrives."""
        await self.send(subscribe_message_for(subscription, location, velocity))
        received = []
        while True:
            message = await self.receive()
            received.append(message)
            if message is None or message.TYPE == SafeRegionPush.TYPE:
                return received

    async def publish(self, event_id: int, attributes: dict, location: Point,
                      ttl: int = 0) -> None:
        """Publish one event."""
        await self.send(publish_message_for(event_id, attributes, location, ttl))

    async def request_stats(
        self, timeout: Optional[float] = None
    ) -> Optional[StatsSnapshot]:
        """Request a :class:`StatsSnapshot`, skipping unrelated pushes.

        Notifications or region pushes already in flight on this
        connection are consumed (and discarded) until the snapshot
        arrives; a dedicated metrics connection sees none.  Returns
        ``None`` if the server closes first.
        """
        await self.send(StatsRequest())
        while True:
            message = await self.receive(timeout)
            if message is None or isinstance(message, StatsSnapshot):
                return message

    async def publish_batch(self, events) -> None:
        """Publish a burst as one frame (the batched fast path).

        ``events`` is an iterable of ``(event_id, attributes, location)``
        or ``(event_id, attributes, location, ttl)`` tuples.
        """
        await self.send(publish_batch_message_for(events))


# ----------------------------------------------------------------------
# Resilient subscriber
# ----------------------------------------------------------------------
class ResilientElapsClient:
    """A *subscriber* that survives resets, drops, and silent networks
    (for a bare connection carrying many roles, see
    :class:`ElapsNetworkClient`).

    Wraps one :class:`~repro.system.client.MobileClient` (the durable
    state: subscription, location, received events) in a supervised
    connection loop:

    * every connection starts with a :class:`SubscribeMessage`; every
      *re*-connection follows it with a :class:`ResyncMessage` carrying
      the ids of all events the client actually holds, so the server can
      redeliver what the dead connection swallowed without ever
      double-shipping;
    * a heartbeat frame goes out every ``heartbeat_interval`` seconds and
      the server echoes it, so a connection with no frame inside
      ``read_timeout`` is declared dead;
    * any connection failure (reset, truncation, timeout, refused
      connect) feeds the :class:`ReconnectPolicy` backoff and the loop
      tries again; delivered events are deduped by id, so the
      application sees each event at most once no matter how the
      network behaves.

    Configured by the same :class:`~repro.system.config.ClientConfig`
    as :class:`ElapsNetworkClient`, and exposing the same convenience
    surface (``subscribe``/``publish``/``publish_batch``/
    ``request_stats``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        subscription: Subscription,
        location: Point,
        velocity: Optional[Point] = None,
        *,
        grid: Optional[Grid] = None,
        config: Optional[ClientConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        config = config or ClientConfig()
        self.host = host
        self.port = port
        self.config = config
        self.mobile = MobileClient(
            subscription, location, velocity or Point(0.0, 0.0)
        )
        #: with a grid, safe-region pushes are decoded into real regions
        #: so ``mobile.must_report`` works; without one they are counted
        self.grid = grid
        self.policy = config.reconnect
        self.heartbeat_interval = config.heartbeat_interval
        self.read_timeout = config.effective_read_timeout
        self.rng = rng or random.Random()
        self.connections = 0
        self.reconnects = 0
        self.regions_received = 0
        self.deltas_received = 0
        self.heartbeats_acked = 0
        self._writer: Optional[asyncio.StreamWriter] = None
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        self._connected = asyncio.Event()
        self._region_received = asyncio.Event()
        self._stats_waiters: List[asyncio.Future] = []
        self._session_ok = False

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Event]:
        """Every event delivered to the application (deduped)."""
        return self.mobile.received_events

    @property
    def duplicates_suppressed(self) -> int:
        """Redeliveries the dedupe filter absorbed."""
        return self.mobile.duplicates_suppressed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the connection supervisor."""
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Stop reconnecting and close the live connection, if any.

        The connection is closed before the supervisor is cancelled, as
        :meth:`ElapsTCPServer.stop` does for its handlers: the session's
        read then ends on EOF even if the cancellation is lost.  (On
        Python 3.11, ``asyncio.wait_for`` returns a read that completed
        in the same loop pass as the cancel and drops the
        ``CancelledError``; a live session kept up by heartbeats would
        never end.)
        """
        self._stopping = True
        self._close_writer()
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    async def wait_connected(self, timeout: float = 5.0) -> None:
        """Block until a connection is up and the subscribe was sent."""
        await asyncio.wait_for(self._connected.wait(), timeout)

    # ------------------------------------------------------------------
    # Application actions (the shared client surface)
    # ------------------------------------------------------------------
    async def subscribe(self, timeout: Optional[float] = None) -> int:
        """Ensure the subscription is live: start the supervisor if
        needed and wait until the current session holds a safe region.

        The resilient twin of :meth:`ElapsNetworkClient.subscribe` — the
        subscription itself was fixed at construction, so this waits for
        the session's :class:`SafeRegionPush` instead of sending one.
        Returns the total number of regions received so far.
        """
        if timeout is None:
            timeout = self.config.receive_timeout
        if self._task is None:
            await self.start()
        await asyncio.wait_for(self._region_received.wait(), timeout)
        return self.regions_received

    async def publish(self, event_id: int, attributes: dict, location: Point,
                      ttl: int = 0) -> None:
        """Publish one event on the live connection (best effort —
        a publish raced by a reconnect is not replayed)."""
        await self.wait_connected()
        await self._send_quietly(
            publish_message_for(event_id, attributes, location, ttl)
        )

    async def publish_batch(self, events) -> None:
        """Publish a burst as one frame (best effort, like
        :meth:`publish`)."""
        await self.wait_connected()
        await self._send_quietly(publish_batch_message_for(events))

    async def request_stats(
        self, timeout: Optional[float] = None
    ) -> Optional[StatsSnapshot]:
        """Request a :class:`StatsSnapshot` over the live connection."""
        if timeout is None:
            timeout = self.config.receive_timeout
        await self.wait_connected(timeout)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._stats_waiters.append(future)
        try:
            await self._send_quietly(StatsRequest())
            return await asyncio.wait_for(future, timeout)
        finally:
            if future in self._stats_waiters:
                self._stats_waiters.remove(future)

    async def report(self, location: Point, velocity: Point) -> None:
        """Move the subscriber and (best-effort) report the position."""
        self.mobile.location = location
        self.mobile.velocity = velocity
        await self._send_quietly(
            LocationReport(self.mobile.subscription.sub_id, location, velocity)
        )

    async def resync_now(self) -> None:
        """Force a resync on the live connection (e.g. after a chaos run)."""
        await self._send_quietly(self._resync())

    def _resync(self) -> ResyncMessage:
        mobile = self.mobile
        return ResyncMessage(
            mobile.subscription.sub_id, mobile.location, mobile.velocity,
            mobile.received_ids(),
        )

    async def force_reconnect(self) -> None:
        """Kill the live connection; the supervisor dials a new one."""
        self._close_writer(abort=True)

    async def _send_quietly(self, message) -> None:
        writer = self._writer
        if writer is None:
            return
        try:
            writer.write(encode_message(message))
            await writer.drain()
        except (ConnectionError, OSError):
            # the reader loop will notice and reconnect; the resync on
            # the fresh connection replays whatever this send was for
            self._close_writer(abort=True)

    def _close_writer(self, abort: bool = False) -> None:
        writer, self._writer = self._writer, None
        if writer is None:
            return
        with contextlib.suppress(Exception):  # platform noise
            if abort:
                writer.transport.abort()
            else:
                writer.close()

    # ------------------------------------------------------------------
    # Supervisor
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        attempt = 0
        while not self._stopping:
            self._session_ok = False
            try:
                await self._session()
            except asyncio.CancelledError:
                raise
            except Exception:
                # resets, timeouts, truncation, decode errors from a
                # corrupted push... every network failure funnels into
                # the same answer: back off and dial again
                logger.debug("subscriber session failed; reconnecting", exc_info=True)
            finally:
                self._connected.clear()
                self._region_received.clear()
                self._close_writer()
                self.mobile.reset_connection()
            if self._stopping:
                break
            # a session that got as far as a region push earns a fresh
            # backoff schedule; repeated failures keep escalating
            attempt = 0 if self._session_ok else attempt + 1
            self.reconnects += 1
            await asyncio.sleep(self.policy.delay_for(attempt, self.rng))

    async def _session(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        self.connections += 1
        writer.write(
            encode_message(
                subscribe_message_for(
                    self.mobile.subscription, self.mobile.location,
                    self.mobile.velocity,
                )
            )
        )
        if self.connections > 1:
            # reconnect: reconcile the server against what actually
            # arrived before the old connection died
            writer.write(encode_message(self._resync()))
        await writer.drain()
        self._connected.set()
        heartbeats = asyncio.ensure_future(self._heartbeat_loop(writer))
        frames = FrameReader(reader)
        try:
            while True:
                message = await frames.read_message(self.read_timeout)
                if message is None:
                    return  # server closed cleanly
                self._apply(message)
        finally:
            heartbeats.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await heartbeats

    async def _heartbeat_loop(self, writer: asyncio.StreamWriter) -> None:
        seq = 0
        sub_id = self.mobile.subscription.sub_id
        try:
            while True:
                await asyncio.sleep(self.heartbeat_interval)
                seq += 1
                writer.write(encode_message(HeartbeatMessage(sub_id, seq)))
                await writer.drain()
        except (ConnectionError, OSError):
            return  # the reader loop surfaces the failure

    def _apply(self, message) -> None:
        if isinstance(message, NotificationMessage):
            self.mobile.receive_notification(
                Event(message.event_id, dict(message.attributes), message.location),
                message.seq,
            )
        elif isinstance(message, SafeRegionPush):
            self.regions_received += 1
            self._session_ok = True
            self._region_received.set()
            if self.grid is not None:
                self.mobile.receive_region(region_from_push(message, self.grid))
        elif isinstance(message, SafeRegionDelta):
            self.deltas_received += 1
            if self.grid is not None:
                # False (no region held — e.g. the delta raced a
                # reconnect) is safe to ignore: a region-less client
                # reports immediately and resyncs into a full push
                self.mobile.apply_region_delta(cells_from_delta(message, self.grid))
        elif isinstance(message, HeartbeatMessage):
            self.heartbeats_acked += 1
        elif isinstance(message, StatsSnapshot):
            for future in self._stats_waiters:
                if not future.done():
                    future.set_result(message)
                    break
