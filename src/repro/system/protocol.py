"""The Elaps wire protocol, and the one place a value is laid out in bytes.

The paper's communication analysis counts message *rounds* and, in
Appendix B, the bytes of the safe-region push (z-ordered WAH bitmaps).
This module pins the whole protocol down so byte-level accounting is
possible for every flow of Figure 6:

============================  =========  =====================================
message                       direction  payload
============================  =========  =====================================
``SubscribeMessage``          C -> S     sub id, radius, boolean expression,
                                         location, velocity
``UnsubscribeMessage``        C -> S     sub id
``LocationReport``            C -> S     sub id, location, velocity
``LocationPing``              S -> C     sub id (the event-arrival ping)
``SafeRegionPush``            S -> C     sub id, grid size, complement flag,
                                         WAH-compressed cell bitmap
``SafeRegionDelta``           S -> C     sub id, grid size, WAH bitmap of the
                                         cells a repair removed from the
                                         client's current safe region
``NotificationMessage``       S -> C     sub id, event id, location, attributes
``EventPublishMessage``       P -> S     event id, location, attributes, ttl
``EventPublishBatchMessage``  P -> S     a burst of event publishes sharing
                                         one arrival timestamp (the batched
                                         fast path)
``HeartbeatMessage``          C <-> S    sub id, sequence number (keepalive;
                                         the server echoes it back)
``ResyncMessage``             C -> S     sub id, location, velocity, ids of
                                         the events the client already holds
``StatsRequest``              C -> S     empty; asks for a metrics snapshot
``StatsSnapshot``             S -> C     every counter plus the per-stage
                                         latency histograms (bucket counts
                                         and exact sums) of the server's
                                         :class:`MetricsRegistry`
============================  =========  =====================================

Frames are ``[1-byte type][4-byte big-endian payload length][payload]``.
Values inside payloads are tagged scalars (int / float / str; a bool is
the int 0/1), strings are length-prefixed UTF-8, points are two doubles,
id lists and WAH word arrays are ``u32``-counted, and expressions
serialise clause by clause so DNF subscriptions travel unchanged.

The journal (``journal.py``) writes the same values to disk with the
encoders below and reads them back with the same :class:`_Reader`, so
the wire and the disk follow one rule: a payload decodes to exactly its
length — a short one, bytes after the last field, a bad tag or bad
UTF-8 are all a ``ValueError``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from ..bitmap import WAHBitmap
from ..expressions import (
    BooleanExpression,
    DnfExpression,
    Operator,
    Predicate,
    clauses_of,
)
from ..geometry import Point

Expression = Union[BooleanExpression, DnfExpression]

# ----------------------------------------------------------------------
# Value codecs: one encoder per value here, its decoder on _Reader
# ----------------------------------------------------------------------
_TAG_INT = 0
_TAG_FLOAT = 1
_TAG_STR = 2

_BYTE = struct.Struct(">B")
_U32 = struct.Struct(">I")
_ID = struct.Struct(">Q")
_INT = struct.Struct(">q")
_FLOAT = struct.Struct(">d")
_POINT = struct.Struct(">dd")

_OPERATOR_CODES: Dict[Operator, int] = {op: i for i, op in enumerate(Operator)}
_CODES_OPERATOR: Dict[int, Operator] = {i: op for op, i in _OPERATOR_CODES.items()}
_SET_OPERATORS = (Operator.IN, Operator.NOT_IN)


def _encode_scalar(value) -> bytes:
    """A tagged scalar.  A bool is the int 0/1: ``True == 1`` and the
    indexes alias the two (``type_group``), so it decodes equal."""
    if isinstance(value, int):
        return struct.pack(">Bq", _TAG_INT, value)
    if isinstance(value, float):
        return struct.pack(">Bd", _TAG_FLOAT, value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return struct.pack(">BI", _TAG_STR, len(raw)) + raw
    raise TypeError(f"unsupported scalar type: {type(value).__name__}")


def _encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _encode_pairs(pairs) -> bytes:
    """``[u32 count][str name, tagged scalar]*`` in iteration order —
    event attributes and counters, on the wire and in the journal."""
    parts = [_U32.pack(len(pairs))]
    for name, value in pairs:
        parts.append(_encode_str(name))
        parts.append(_encode_scalar(value))
    return b"".join(parts)


def _encode_point(point: Point) -> bytes:
    return _POINT.pack(point.x, point.y)


def _encode_array(code: str, values) -> bytes:
    """``[u32 count][count × code]``: an id list is ``Q``, a WAH word
    array ``I``."""
    return struct.pack(f">I{len(values)}{code}", len(values), *values)


def _encode_predicate(predicate: Predicate) -> bytes:
    parts = [
        _encode_str(predicate.attribute),
        _BYTE.pack(_OPERATOR_CODES[predicate.operator]),
    ]
    if predicate.operator is Operator.BETWEEN:
        low, high = predicate.operand
        parts.append(_encode_scalar(low))
        parts.append(_encode_scalar(high))
    elif predicate.operator in _SET_OPERATORS:
        members = sorted(predicate.operand, key=repr)
        parts.append(_U32.pack(len(members)))
        parts.extend(_encode_scalar(member) for member in members)
    else:
        parts.append(_encode_scalar(predicate.operand))
    return b"".join(parts)


def encode_expression(expression: Expression) -> bytes:
    """Serialise a conjunction or DNF, clause by clause."""
    clauses = clauses_of(expression)
    parts = [_U32.pack(len(clauses))]
    for clause in clauses:
        parts.append(_U32.pack(len(clause.predicates)))
        parts.extend(_encode_predicate(p) for p in clause.predicates)
    return b"".join(parts)


class _Reader:
    """A bounds-checked cursor over one buffer.

    Every read advances :attr:`offset`; a field or string that would run
    past the buffer is a ``ValueError``, never a silently short value,
    and :meth:`exactly` is the one end rule: a payload (or a
    length-prefixed entry) must end where its last field does.
    """

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: bytes) -> None:
        self.buffer = buffer
        self.offset = 0

    def exactly(
        self, read: Callable[["_Reader"], object], length: Optional[int] = None
    ):
        """``read(self)``, which must consume exactly ``length`` bytes
        (default: the rest of the buffer)."""
        end = len(self.buffer) if length is None else self.offset + length
        value = read(self)
        if self.offset != end:
            raise ValueError(
                f"payload ends at byte {end}, fields end at byte {self.offset}"
            )
        return value

    def unpack(self, layout: struct.Struct) -> tuple:
        """The fields of one fixed-size ``layout``."""
        start = self.offset
        self.offset = start + layout.size
        try:
            return layout.unpack_from(self.buffer, start)
        except struct.error:
            raise self._overrun(start) from None

    def _overrun(self, start: int) -> ValueError:
        return ValueError(
            f"a field from byte {start} to {self.offset} runs "
            f"{self.offset - len(self.buffer)} past the buffer"
        )

    def count(self) -> int:
        """A ``u32`` element count."""
        return self.unpack(_U32)[0]

    def array(self, code: str, count: int) -> tuple:
        """``count`` values of the struct ``code``.  The bounds are checked
        first: a format of a hostile ``count`` would be allocated whole."""
        start = self.offset
        self.offset = start + count * struct.calcsize(">" + code)
        if self.offset > len(self.buffer):
            raise self._overrun(start)
        return struct.unpack_from(f">{count}{code}", self.buffer, start)

    def counted(self, code: str) -> tuple:
        """Inverse of :func:`_encode_array`."""
        return self.array(code, self.count())

    def sized(self, read: Callable[["_Reader"], object]):
        """``read`` over the next ``[u32 length][length bytes]`` entry,
        in place, which it must consume exactly."""
        return self.exactly(read, self.count())

    def point(self) -> Point:
        """Inverse of :func:`_encode_point`."""
        return Point(*self.unpack(_POINT))

    def text(self) -> str:
        """Inverse of :func:`_encode_str`."""
        (length,) = self.unpack(_U32)
        start = self.offset
        self.offset = start + length
        if self.offset > len(self.buffer):
            # a slice would silently shorten the string
            raise self._overrun(start)
        return self.buffer[start : self.offset].decode("utf-8")

    def scalar(self):
        """Inverse of :func:`_encode_scalar`."""
        (tag,) = self.unpack(_BYTE)
        if tag == _TAG_INT:
            return self.unpack(_INT)[0]
        if tag == _TAG_FLOAT:
            return self.unpack(_FLOAT)[0]
        if tag == _TAG_STR:
            return self.text()
        raise ValueError(f"unknown scalar tag {tag}")

    def pairs(self) -> list:
        """Inverse of :func:`_encode_pairs`."""
        return [(self.text(), self.scalar()) for _ in range(self.count())]

    def _predicate(self) -> Predicate:
        attribute = self.text()
        (code,) = self.unpack(_BYTE)
        operator = _CODES_OPERATOR.get(code)
        if operator is None:
            raise ValueError(f"unknown operator code {code}")
        if operator is Operator.BETWEEN:
            operand = (self.scalar(), self.scalar())
        elif operator in _SET_OPERATORS:
            operand = frozenset([self.scalar() for _ in range(self.count())])
        else:
            operand = self.scalar()
        return Predicate(attribute, operator, operand)

    def expression(self) -> Expression:
        """Inverse of :func:`encode_expression`."""
        clauses = [
            BooleanExpression([self._predicate() for _ in range(self.count())])
            for _ in range(self.count())
        ]
        return clauses[0] if len(clauses) == 1 else DnfExpression(clauses)


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
class _Message:
    """What every message shares: its ``_read(reader)`` classmethod is
    the payload layout, and decoding ends where the payload does."""

    @classmethod
    def decode_payload(cls, payload: bytes):
        """Inverse of ``encode_payload``."""
        return _Reader(payload).exactly(cls._read)


_REPORT = struct.Struct(">Qdddd")  # sub id, location, velocity


@dataclass(frozen=True)
class SubscribeMessage(_Message):
    """C->S: register a subscription with its start location."""

    TYPE = 1
    _HEAD = struct.Struct(">Qddddd")
    sub_id: int
    radius: float
    expression: Expression
    location: Point
    velocity: Point

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return (
            self._HEAD.pack(
                self.sub_id,
                self.radius,
                self.location.x,
                self.location.y,
                self.velocity.x,
                self.velocity.y,
            )
            + encode_expression(self.expression)
        )

    @classmethod
    def _read(cls, reader: _Reader) -> "SubscribeMessage":
        sub_id, radius, x, y, vx, vy = reader.unpack(cls._HEAD)
        return cls(sub_id, radius, reader.expression(), Point(x, y), Point(vx, vy))


@dataclass(frozen=True)
class UnsubscribeMessage(_Message):
    """C->S: drop a subscription."""

    TYPE = 2
    sub_id: int

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return _ID.pack(self.sub_id)

    @classmethod
    def _read(cls, reader: _Reader) -> "UnsubscribeMessage":
        return cls(*reader.unpack(_ID))


@dataclass(frozen=True)
class LocationReport(_Message):
    """C->S: position and velocity after a safe-region exit or ping."""

    TYPE = 3
    sub_id: int
    location: Point
    velocity: Point

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return _REPORT.pack(
            self.sub_id,
            self.location.x,
            self.location.y,
            self.velocity.x,
            self.velocity.y,
        )

    @classmethod
    def _read(cls, reader: _Reader) -> "LocationReport":
        sub_id, x, y, vx, vy = reader.unpack(_REPORT)
        return cls(sub_id, Point(x, y), Point(vx, vy))


@dataclass(frozen=True)
class LocationPing(_Message):
    """S->C: request a location (event-arrival flow)."""

    TYPE = 4
    sub_id: int

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return _ID.pack(self.sub_id)

    @classmethod
    def _read(cls, reader: _Reader) -> "LocationPing":
        return cls(*reader.unpack(_ID))


@dataclass(frozen=True)
class SafeRegionPush(_Message):
    """S->C: a freshly constructed safe region as a WAH bitmap."""

    TYPE = 5
    _HEAD = struct.Struct(">QIBI")  # sub id, grid n, complement, bit length
    sub_id: int
    grid_n: int
    complement: bool
    bitmap: WAHBitmap

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return self._HEAD.pack(
            self.sub_id, self.grid_n, int(self.complement), self.bitmap.length
        ) + _encode_array("I", self.bitmap.words)

    @classmethod
    def _read(cls, reader: _Reader) -> "SafeRegionPush":
        sub_id, grid_n, complement, length = reader.unpack(cls._HEAD)
        bitmap = WAHBitmap(length, list(reader.counted("I")))
        return cls(sub_id, grid_n, bool(complement), bitmap)


#: A notification frame is a per-recipient *head* — frame type, payload
#: length, sub id, event id, seq — and a *tail* — x, y, attribute pairs —
#: that is the same bytes for every recipient of one event.
_NOTIFICATION_HEAD = struct.Struct(">BIQQQ")
#: the part of the head that belongs to the payload (the three ids)
_NOTIFICATION_IDS = struct.Struct(">QQQ")


def _notification_tail(location: Point, attributes) -> bytes:
    return _encode_point(location) + _encode_pairs(attributes)


@dataclass(frozen=True)
class NotificationMessage(_Message):
    """S->C: deliver one matching event."""

    TYPE = 6
    _HEAD = struct.Struct(">QQQdd")  # sub id, event id, seq, location
    sub_id: int
    event_id: int
    location: Point
    attributes: Tuple[Tuple[str, object], ...]
    #: per-subscriber delivery sequence number (0 = unsequenced); lets a
    #: reconnecting client detect gaps in the stream it saw before the
    #: resync reconciliation catches up
    seq: int = 0

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return _NOTIFICATION_IDS.pack(
            self.sub_id, self.event_id, self.seq
        ) + _notification_tail(self.location, self.attributes)

    @classmethod
    def _read(cls, reader: _Reader) -> "NotificationMessage":
        sub_id, event_id, seq, x, y = reader.unpack(cls._HEAD)
        return cls(sub_id, event_id, Point(x, y), tuple(reader.pairs()), seq)


@dataclass(frozen=True)
class EventPublishMessage(_Message):
    """P->S: a publisher announces a spatial event (optionally expiring)."""

    TYPE = 7
    _HEAD = struct.Struct(">Qddi")  # event id, location, ttl
    event_id: int
    location: Point
    attributes: Tuple[Tuple[str, object], ...]
    ttl: int  # validity in timestamps; 0 means never expires

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return self._HEAD.pack(
            self.event_id, self.location.x, self.location.y, self.ttl
        ) + _encode_pairs(self.attributes)

    @classmethod
    def _read(cls, reader: _Reader) -> "EventPublishMessage":
        event_id, x, y, ttl = reader.unpack(cls._HEAD)
        return cls(event_id, Point(x, y), tuple(reader.pairs()), ttl)


@dataclass(frozen=True)
class EventPublishBatchMessage(_Message):
    """P->S: a burst of spatial events published as one frame.

    The batched fast path of the server: all events of the frame share
    one arrival timestamp and are processed by
    :meth:`~repro.system.server.ElapsServer.publish_batch`, which
    amortises index descents and safe-region reconstruction across the
    burst.  Each element is a complete :class:`EventPublishMessage`
    payload, length-prefixed, so the two encodings never diverge.
    """

    TYPE = 10
    events: Tuple[EventPublishMessage, ...]

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError("an event batch needs at least one event")

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        parts = [_U32.pack(len(self.events))]
        for event in self.events:
            payload = event.encode_payload()
            parts.append(_U32.pack(len(payload)))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def _read(cls, reader: _Reader) -> "EventPublishBatchMessage":
        read = EventPublishMessage._read
        return cls(tuple([reader.sized(read) for _ in range(reader.count())]))


@dataclass(frozen=True)
class SafeRegionDelta(_Message):
    """S->C: cells removed from the client's current safe region.

    The incremental-repair alternative to a full :class:`SafeRegionPush`:
    a type-II event only ever *shrinks* the safe region (safety is
    monotone in the event corpus), so the server ships just the carved
    cells as a z-ordered WAH bitmap and the client subtracts them from
    the region it already holds.  Unlike a push there is no complement
    flag — a delta is a removed-cell *set*, applied identically whatever
    representation the client's region uses.  The server falls back to a
    full push whenever the delta would not be smaller or the client's
    base region is unknown.
    """

    TYPE = 11
    _HEAD = struct.Struct(">QII")  # sub id, grid n, bit length
    sub_id: int
    grid_n: int
    bitmap: WAHBitmap

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return self._HEAD.pack(
            self.sub_id, self.grid_n, self.bitmap.length
        ) + _encode_array("I", self.bitmap.words)

    @classmethod
    def _read(cls, reader: _Reader) -> "SafeRegionDelta":
        sub_id, grid_n, length = reader.unpack(cls._HEAD)
        return cls(sub_id, grid_n, WAHBitmap(length, list(reader.counted("I"))))


@dataclass(frozen=True)
class StatsRequest(_Message):
    """C->S: ask the server for a :class:`StatsSnapshot`.

    The observability pull model: any connected peer (an operator tool,
    the bench-smoke job, a dashboard scraper) sends this empty frame and
    the server answers on the same connection with frame type 13.  No
    subscriber state is involved, so the request carries no fields.
    """

    TYPE = 12

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded): empty."""
        return b""

    @classmethod
    def _read(cls, reader: _Reader) -> "StatsRequest":
        return cls()


@dataclass(frozen=True)
class StatsSnapshot(_Message):
    """S->C: a point-in-time copy of the server's metrics registry.

    Two sections travel:

    * ``counters`` — every :class:`~repro.system.metrics.CommunicationStats`
      field by name;
    * ``spans`` — per pipeline stage, the fixed-bucket latency histogram
      as ``(stage, bucket counts, exact seconds sum)``; bucket bounds
      are the protocol constant
      :data:`~repro.system.observability.BUCKET_BOUNDS`, so histograms
      from different servers merge bucket-wise without negotiation.
    """

    TYPE = 13
    counters: Tuple[Tuple[str, Union[int, float]], ...]
    spans: Tuple[Tuple[str, Tuple[int, ...], float], ...]

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        parts = [_encode_pairs(self.counters), _U32.pack(len(self.spans))]
        for stage, counts, total_seconds in self.spans:
            parts.append(_encode_str(stage))
            parts.append(_encode_array("Q", counts))
            parts.append(_FLOAT.pack(total_seconds))
        return b"".join(parts)

    @classmethod
    def _read(cls, reader: _Reader) -> "StatsSnapshot":
        counters = tuple(reader.pairs())
        spans = tuple(
            (reader.text(), reader.counted("Q"), reader.unpack(_FLOAT)[0])
            for _ in range(reader.count())
        )
        return cls(counters, spans)

    # convenience views ---------------------------------------------------
    def counters_dict(self) -> Dict[str, Union[int, float]]:
        """The counters section as a plain dict."""
        return dict(self.counters)

    def histograms(self):
        """The spans section as live :class:`LatencyHistogram` objects."""
        from .observability import LatencyHistogram

        return {
            stage: LatencyHistogram(list(counts), total_seconds)
            for stage, counts, total_seconds in self.spans
        }


def stats_snapshot_for(registry) -> StatsSnapshot:
    """The wire message carrying a :class:`MetricsRegistry` snapshot."""
    return StatsSnapshot(
        tuple(sorted(registry.stats.as_dict().items())),
        tuple(
            (stage, tuple(histogram.counts), histogram.total_seconds)
            for stage, histogram in sorted(registry.tracer.histograms.items())
        ),
    )


@dataclass(frozen=True)
class HeartbeatMessage(_Message):
    """C<->S: liveness probe; the server echoes the frame unchanged.

    A quiet subscriber is indistinguishable from a dead connection (the
    whole point of the safe region is that healthy clients are silent),
    so liveness travels out of band: the client heartbeats on an
    interval and both sides treat a silent period longer than their read
    timeout as a lost connection.
    """

    TYPE = 8
    _HEAD = struct.Struct(">QQ")
    sub_id: int
    seq: int

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return self._HEAD.pack(self.sub_id, self.seq)

    @classmethod
    def _read(cls, reader: _Reader) -> "HeartbeatMessage":
        return cls(*reader.unpack(cls._HEAD))


@dataclass(frozen=True)
class ResyncMessage(_Message):
    """C->S: reconcile state after a reconnect.

    The client reports its position and the ids of every notification it
    actually received; the server adopts that set as the subscriber's
    ``delivered`` ground truth, redelivers matching in-region events the
    network lost, and ships a fresh safe region.
    """

    TYPE = 9
    sub_id: int
    location: Point
    velocity: Point
    received: Tuple[int, ...]

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return _REPORT.pack(
            self.sub_id,
            self.location.x,
            self.location.y,
            self.velocity.x,
            self.velocity.y,
        ) + _encode_array("Q", self.received)

    @classmethod
    def _read(cls, reader: _Reader) -> "ResyncMessage":
        sub_id, x, y, vx, vy = reader.unpack(_REPORT)
        return cls(sub_id, Point(x, y), Point(vx, vy), reader.counted("Q"))


_MESSAGE_TYPES = {
    cls.TYPE: cls
    for cls in (
        SubscribeMessage,
        UnsubscribeMessage,
        LocationReport,
        LocationPing,
        SafeRegionPush,
        NotificationMessage,
        EventPublishMessage,
        EventPublishBatchMessage,
        HeartbeatMessage,
        ResyncMessage,
        SafeRegionDelta,
        StatsRequest,
        StatsSnapshot,
    )
}

#: what every frame starts with: type byte, payload length
FRAME_HEADER = struct.Struct(">BI")


def encode_message(message) -> bytes:
    """One framed message: type byte, payload length, payload."""
    payload = message.encode_payload()
    return FRAME_HEADER.pack(message.TYPE, len(payload)) + payload


def decode_message(frame: bytes):
    """Decode one framed message (an instance of one of the
    ``_MESSAGE_TYPES``); trailing bytes are an error."""
    message_type, length = FRAME_HEADER.unpack_from(frame, 0)
    header = FRAME_HEADER.size
    if len(frame) != header + length:
        raise ValueError(
            f"frame length mismatch: header says {length}, got {len(frame) - header}"
        )
    cls = _MESSAGE_TYPES.get(message_type)
    if cls is None:
        raise ValueError(f"unknown message type {message_type}")
    return cls.decode_payload(frame[header:])


class MessageDecoder:
    """:func:`decode_message` for one connection's inbound stream, with a
    one-entry memo of the last notification tail it parsed.

    A connection that multiplexes many subscribers receives one event's
    notification once per matching subscriber, back to back, and those
    frames differ only in the head: the location and the attribute pairs
    are parsed for the first and reused (they are immutable) for the rest.
    A connection carrying one subscriber pays one failed compare a frame.
    Only a tail that parsed to its end is ever remembered.
    """

    __slots__ = ("_tail", "_location", "_attributes")

    def __init__(self) -> None:
        self._tail: Optional[bytes] = None
        self._location: Optional[Point] = None
        self._attributes: Tuple[Tuple[str, object], ...] = ()

    def decode(self, frame: bytes):
        """What ``decode_message(frame)`` returns."""
        tail = self._tail
        head = _NOTIFICATION_HEAD.size
        if (
            tail is not None
            and len(frame) == head + len(tail)
            and frame[0] == NotificationMessage.TYPE
            and frame.endswith(tail)
        ):
            _, length, sub_id, event_id, seq = _NOTIFICATION_HEAD.unpack_from(frame)
            if length == _NOTIFICATION_IDS.size + len(tail):
                return NotificationMessage(
                    sub_id, event_id, self._location, self._attributes, seq
                )
        message = decode_message(frame)
        if isinstance(message, NotificationMessage):
            self._tail = bytes(frame[head:])
            self._location = message.location
            self._attributes = message.attributes
        return message


def message_bytes(message) -> int:
    """Wire size of one message, frame header included."""
    return len(encode_message(message))


def subscribe_message_for(subscription, location, velocity) -> SubscribeMessage:
    """The wire message registering ``subscription`` at a position.

    The one way both network clients phrase a subscribe, so their
    convenience wrappers cannot drift apart.
    """
    return SubscribeMessage(
        subscription.sub_id,
        subscription.radius,
        subscription.expression,
        location,
        velocity,
    )


def publish_message_for(
    event_id: int, attributes, location, ttl: int = 0
) -> EventPublishMessage:
    """The wire message publishing one event."""
    return EventPublishMessage(
        event_id, location, tuple(sorted(dict(attributes).items())), ttl
    )


def publish_batch_message_for(events) -> EventPublishBatchMessage:
    """The batched publish frame for ``(event_id, attributes, location
    [, ttl])`` tuples."""
    items = []
    for entry in events:
        event_id, attributes, location = entry[:3]
        ttl = entry[3] if len(entry) > 3 else 0
        items.append(publish_message_for(event_id, attributes, location, ttl))
    return EventPublishBatchMessage(tuple(items))


def notification_for(sub_id: int, event, seq: int = 0) -> NotificationMessage:
    """The wire message delivering ``event`` to ``sub_id``."""
    return NotificationMessage(
        sub_id,
        event.event_id,
        event.location,
        tuple(sorted(event.attributes.items())),
        seq,
    )


def notification_tail(event) -> bytes:
    """The bytes every recipient's notification of ``event`` ends with,
    so a fan-out encodes them once per event."""
    return _notification_tail(event.location, sorted(event.attributes.items()))


def notification_frame(sub_id: int, event_id: int, seq: int, tail: bytes) -> bytes:
    """``encode_message(notification_for(sub_id, event, seq))`` from the
    event's :func:`notification_tail`."""
    length = _NOTIFICATION_IDS.size + len(tail)
    return _NOTIFICATION_HEAD.pack(
        NotificationMessage.TYPE, length, sub_id, event_id, seq
    ) + tail


def notification_bytes(event) -> int:
    """Wire size of one notification of ``event``, frame header included
    (the same for every recipient)."""
    return _NOTIFICATION_HEAD.size + len(notification_tail(event))


def region_push_for(sub_id: int, safe_region) -> SafeRegionPush:
    """The wire message shipping a safe region to its client."""
    return SafeRegionPush(
        sub_id,
        safe_region.grid.n,
        safe_region.complement,
        safe_region.to_bitmap(),
    )


def region_delta_for(sub_id: int, grid, removed_cells) -> SafeRegionDelta:
    """The wire message shipping a repair's removed cells (their ascending
    Morton codes, as ``GridRegion.subtract`` returns them) to its client."""
    from ..core import RegionDelta

    return SafeRegionDelta(
        sub_id, grid.n, RegionDelta(grid, removed_cells).to_bitmap()
    )


def cells_from_delta(delta: SafeRegionDelta, grid):
    """The removed cells of a :class:`SafeRegionDelta`, as their ascending
    Morton codes (the bitmap's set positions).

    Inverse of :func:`region_delta_for`; the client subtracts the result
    from the safe region it holds (``GridRegion.subtract``).  ``grid``
    must match the server's grid, as with :func:`region_from_push`.
    """
    if delta.grid_n != grid.n:
        raise ValueError(
            f"grid mismatch: delta encodes n={delta.grid_n}, client has n={grid.n}"
        )
    return delta.bitmap.positions_array()


def region_from_push(push: SafeRegionPush, grid):
    """Reconstruct the client-side :class:`~repro.core.SafeRegion`.

    Inverse of :func:`region_push_for`: bit positions are Morton codes
    (see ``GridRegion.to_bitmap``), ascending, which is what a region
    holds.  ``grid`` must match the server's grid — the push carries
    ``grid_n`` so a client can verify before decoding.
    """
    from ..core import SafeRegion

    if push.grid_n != grid.n:
        raise ValueError(
            f"grid mismatch: push encodes n={push.grid_n}, client has n={grid.n}"
        )
    return SafeRegion(grid, push.bitmap.positions_array(), push.complement)
