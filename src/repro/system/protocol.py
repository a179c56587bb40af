"""The Elaps wire protocol: compact binary encodings for every message.

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
Values inside payloads are tagged scalars (int / float / str), strings
are length-prefixed UTF-8, and expressions serialise clause by clause so
DNF subscriptions travel unchanged.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..bitmap import WAHBitmap
from ..expressions import (
    BooleanExpression,
    DnfExpression,
    Operator,
    Predicate,
    clauses_of,
)
from ..geometry import Point

# ----------------------------------------------------------------------
# Scalar tagging
# ----------------------------------------------------------------------
_TAG_INT = 0
_TAG_FLOAT = 1
_TAG_STR = 2


def _encode_scalar(value) -> bytes:
    if isinstance(value, bool):
        raise TypeError("booleans are not part of the wire format; use 0/1")
    if isinstance(value, int):
        return struct.pack(">Bq", _TAG_INT, value)
    if isinstance(value, float):
        return struct.pack(">Bd", _TAG_FLOAT, value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return struct.pack(">BI", _TAG_STR, len(raw)) + raw
    raise TypeError(f"unsupported scalar type: {type(value).__name__}")


def _decode_scalar(buffer: bytes, offset: int):
    (tag,) = struct.unpack_from(">B", buffer, offset)
    offset += 1
    if tag == _TAG_INT:
        (value,) = struct.unpack_from(">q", buffer, offset)
        return value, offset + 8
    if tag == _TAG_FLOAT:
        (value,) = struct.unpack_from(">d", buffer, offset)
        return value, offset + 8
    if tag == _TAG_STR:
        return _decode_str(buffer, offset)
    raise ValueError(f"unknown scalar tag {tag}")


def _encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _decode_str(buffer: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from(">I", buffer, offset)
    offset += 4
    end = offset + length
    if end > len(buffer):
        # a slice would silently shorten the string
        raise ValueError(
            f"string of {length} bytes runs {end - len(buffer)} past the buffer"
        )
    return buffer[offset:end].decode("utf-8"), end


def _encode_pairs(pairs) -> bytes:
    """``[u32 count][str name, tagged scalar]*`` in iteration order —
    event attributes and counters, on the wire and in the journal.  A
    bool (``bytes_measured``) travels as 0/1."""
    parts = [struct.pack(">I", len(pairs))]
    for name, value in pairs:
        parts.append(_encode_str(name))
        parts.append(_encode_scalar(int(value) if isinstance(value, bool) else value))
    return b"".join(parts)


def _decode_pairs(buffer: bytes, offset: int) -> Tuple[List[Tuple[str, object]], int]:
    (count,) = struct.unpack_from(">I", buffer, offset)
    offset += 4
    pairs = []
    for _ in range(count):
        name, offset = _decode_str(buffer, offset)
        value, offset = _decode_scalar(buffer, offset)
        pairs.append((name, value))
    return pairs, offset


def _require_end(payload: bytes, offset: int) -> None:
    """A variable-length payload must end where its last field does."""
    if offset != len(payload):
        raise ValueError(
            f"payload of {len(payload)} bytes, fields end at byte {offset}"
        )


# ----------------------------------------------------------------------
# Expression encoding
# ----------------------------------------------------------------------
_OPERATOR_CODES: Dict[Operator, int] = {op: i for i, op in enumerate(Operator)}
_CODES_OPERATOR: Dict[int, Operator] = {i: op for op, i in _OPERATOR_CODES.items()}


def _encode_predicate(predicate: Predicate) -> bytes:
    parts = [
        _encode_str(predicate.attribute),
        struct.pack(">B", _OPERATOR_CODES[predicate.operator]),
    ]
    if predicate.operator is Operator.BETWEEN:
        low, high = predicate.operand
        parts.append(_encode_scalar(low))
        parts.append(_encode_scalar(high))
    elif predicate.operator in (Operator.IN, Operator.NOT_IN):
        members = sorted(predicate.operand, key=repr)
        parts.append(struct.pack(">I", len(members)))
        parts.extend(_encode_scalar(member) for member in members)
    else:
        parts.append(_encode_scalar(predicate.operand))
    return b"".join(parts)


def _decode_predicate(buffer: bytes, offset: int) -> Tuple[Predicate, int]:
    attribute, offset = _decode_str(buffer, offset)
    (code,) = struct.unpack_from(">B", buffer, offset)
    offset += 1
    operator = _CODES_OPERATOR[code]
    if operator is Operator.BETWEEN:
        low, offset = _decode_scalar(buffer, offset)
        high, offset = _decode_scalar(buffer, offset)
        return Predicate(attribute, operator, (low, high)), offset
    if operator in (Operator.IN, Operator.NOT_IN):
        (count,) = struct.unpack_from(">I", buffer, offset)
        offset += 4
        members = []
        for _ in range(count):
            member, offset = _decode_scalar(buffer, offset)
            members.append(member)
        return Predicate(attribute, operator, frozenset(members)), offset
    operand, offset = _decode_scalar(buffer, offset)
    return Predicate(attribute, operator, operand), offset


Expression = Union[BooleanExpression, DnfExpression]


def encode_expression(expression: Expression) -> bytes:
    """Serialise a conjunction or DNF, clause by clause."""
    clauses = clauses_of(expression)
    parts = [struct.pack(">I", len(clauses))]
    for clause in clauses:
        parts.append(struct.pack(">I", len(clause.predicates)))
        parts.extend(_encode_predicate(p) for p in clause.predicates)
    return b"".join(parts)


def decode_expression(buffer: bytes, offset: int = 0) -> Tuple[Expression, int]:
    """Inverse of :func:`encode_expression`; returns (expression, offset)."""
    (clause_count,) = struct.unpack_from(">I", buffer, offset)
    offset += 4
    clauses: List[BooleanExpression] = []
    for _ in range(clause_count):
        (predicate_count,) = struct.unpack_from(">I", buffer, offset)
        offset += 4
        predicates = []
        for _ in range(predicate_count):
            predicate, offset = _decode_predicate(buffer, offset)
            predicates.append(predicate)
        clauses.append(BooleanExpression(predicates))
    if len(clauses) == 1:
        return clauses[0], offset
    return DnfExpression(clauses), offset


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SubscribeMessage:
    """C->S: register a subscription with its start location."""

    TYPE = 1
    sub_id: int
    radius: float
    expression: Expression
    location: Point
    velocity: Point

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return (
            struct.pack(
                ">Qddddd",
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
    def decode_payload(cls, payload: bytes) -> "SubscribeMessage":
        """Inverse of :meth:`encode_payload`."""
        sub_id, radius, x, y, vx, vy = struct.unpack_from(">Qddddd", payload, 0)
        expression, end = decode_expression(payload, struct.calcsize(">Qddddd"))
        _require_end(payload, end)
        return cls(sub_id, radius, expression, Point(x, y), Point(vx, vy))


@dataclass(frozen=True)
class UnsubscribeMessage:
    """C->S: drop a subscription."""

    TYPE = 2
    sub_id: int

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return struct.pack(">Q", self.sub_id)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "UnsubscribeMessage":
        """Inverse of :meth:`encode_payload`."""
        (sub_id,) = struct.unpack(">Q", payload)
        return cls(sub_id)


@dataclass(frozen=True)
class LocationReport:
    """C->S: position and velocity after a safe-region exit or ping."""

    TYPE = 3
    sub_id: int
    location: Point
    velocity: Point

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return struct.pack(
            ">Qdddd",
            self.sub_id,
            self.location.x,
            self.location.y,
            self.velocity.x,
            self.velocity.y,
        )

    @classmethod
    def decode_payload(cls, payload: bytes) -> "LocationReport":
        """Inverse of :meth:`encode_payload`."""
        sub_id, x, y, vx, vy = struct.unpack(">Qdddd", payload)
        return cls(sub_id, Point(x, y), Point(vx, vy))


@dataclass(frozen=True)
class LocationPing:
    """S->C: request a location (event-arrival flow)."""

    TYPE = 4
    sub_id: int

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return struct.pack(">Q", self.sub_id)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "LocationPing":
        """Inverse of :meth:`encode_payload`."""
        (sub_id,) = struct.unpack(">Q", payload)
        return cls(sub_id)


@dataclass(frozen=True)
class SafeRegionPush:
    """S->C: a freshly constructed safe region as a WAH bitmap."""

    TYPE = 5
    sub_id: int
    grid_n: int
    complement: bool
    bitmap: WAHBitmap

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        words = self.bitmap.words
        header = struct.pack(
            ">QIBII", self.sub_id, self.grid_n, int(self.complement),
            self.bitmap.length, len(words),
        )
        return header + struct.pack(f">{len(words)}I", *words)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "SafeRegionPush":
        """Inverse of :meth:`encode_payload`."""
        sub_id, grid_n, complement, length, word_count = struct.unpack_from(
            ">QIBII", payload, 0
        )
        offset = struct.calcsize(">QIBII")
        words = struct.unpack_from(f">{word_count}I", payload, offset)
        _require_end(payload, offset + 4 * word_count)
        return cls(sub_id, grid_n, bool(complement), WAHBitmap(length, list(words)))


#: A notification frame is a per-recipient *head* — frame type, payload
#: length, sub id, event id, seq — and a *tail* — x, y, attribute pairs —
#: that is the same bytes for every recipient of one event.
_NOTIFICATION_HEAD = struct.Struct(">BIQQQ")
#: the part of the head that belongs to the payload (the three ids)
_NOTIFICATION_IDS = struct.calcsize(">QQQ")


def _notification_tail(location: Point, attributes) -> bytes:
    return struct.pack(">dd", location.x, location.y) + _encode_pairs(attributes)


@dataclass(frozen=True)
class NotificationMessage:
    """S->C: deliver one matching event."""

    TYPE = 6
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
        return struct.pack(
            ">QQQ", self.sub_id, self.event_id, self.seq
        ) + _notification_tail(self.location, self.attributes)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "NotificationMessage":
        """Inverse of :meth:`encode_payload`."""
        sub_id, event_id, seq, x, y = struct.unpack_from(">QQQdd", payload, 0)
        attributes, end = _decode_pairs(payload, struct.calcsize(">QQQdd"))
        _require_end(payload, end)
        return cls(sub_id, event_id, Point(x, y), tuple(attributes), seq)


@dataclass(frozen=True)
class EventPublishMessage:
    """P->S: a publisher announces a spatial event (optionally expiring)."""

    TYPE = 7
    event_id: int
    location: Point
    attributes: Tuple[Tuple[str, object], ...]
    ttl: int  # validity in timestamps; 0 means never expires

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return struct.pack(
            ">Qddi", self.event_id, self.location.x, self.location.y, self.ttl
        ) + _encode_pairs(self.attributes)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "EventPublishMessage":
        """Inverse of :meth:`encode_payload`."""
        event_id, x, y, ttl = struct.unpack_from(">Qddi", payload, 0)
        attributes, end = _decode_pairs(payload, struct.calcsize(">Qddi"))
        _require_end(payload, end)
        return cls(event_id, Point(x, y), tuple(attributes), ttl)


@dataclass(frozen=True)
class EventPublishBatchMessage:
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
        parts = [struct.pack(">I", len(self.events))]
        for event in self.events:
            payload = event.encode_payload()
            parts.append(struct.pack(">I", len(payload)))
            parts.append(payload)
        return b"".join(parts)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "EventPublishBatchMessage":
        """Inverse of :meth:`encode_payload`."""
        (count,) = struct.unpack_from(">I", payload, 0)
        offset = 4
        events = []
        for _ in range(count):
            (length,) = struct.unpack_from(">I", payload, offset)
            offset += 4
            events.append(
                EventPublishMessage.decode_payload(payload[offset : offset + length])
            )
            offset += length
        _require_end(payload, offset)
        return cls(tuple(events))


@dataclass(frozen=True)
class SafeRegionDelta:
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
    sub_id: int
    grid_n: int
    bitmap: WAHBitmap

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        words = self.bitmap.words
        header = struct.pack(
            ">QIII", self.sub_id, self.grid_n, self.bitmap.length, len(words)
        )
        return header + struct.pack(f">{len(words)}I", *words)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "SafeRegionDelta":
        """Inverse of :meth:`encode_payload`."""
        sub_id, grid_n, length, word_count = struct.unpack_from(">QIII", payload, 0)
        offset = struct.calcsize(">QIII")
        words = struct.unpack_from(f">{word_count}I", payload, offset)
        _require_end(payload, offset + 4 * word_count)
        return cls(sub_id, grid_n, WAHBitmap(length, list(words)))


@dataclass(frozen=True)
class StatsRequest:
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
    def decode_payload(cls, payload: bytes) -> "StatsRequest":
        """Inverse of :meth:`encode_payload`."""
        if payload:
            raise ValueError(
                f"stats request carries no payload, got {len(payload)} bytes"
            )
        return cls()


@dataclass(frozen=True)
class StatsSnapshot:
    """S->C: a point-in-time copy of the server's metrics registry.

    Two sections travel:

    * ``counters`` — every :class:`~repro.system.metrics.CommunicationStats`
      field by name (the ``bytes_measured`` flag as 0/1);
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
        parts = [_encode_pairs(self.counters), struct.pack(">I", len(self.spans))]
        for stage, counts, total_seconds in self.spans:
            parts.append(_encode_str(stage))
            parts.append(struct.pack(">I", len(counts)))
            parts.append(struct.pack(f">{len(counts)}Q", *counts))
            parts.append(struct.pack(">d", total_seconds))
        return b"".join(parts)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "StatsSnapshot":
        """Inverse of :meth:`encode_payload`."""
        counters, offset = _decode_pairs(payload, 0)
        (span_count,) = struct.unpack_from(">I", payload, offset)
        offset += 4
        spans = []
        for _ in range(span_count):
            stage, offset = _decode_str(payload, offset)
            (bucket_count,) = struct.unpack_from(">I", payload, offset)
            offset += 4
            counts = struct.unpack_from(f">{bucket_count}Q", payload, offset)
            offset += 8 * bucket_count
            (total_seconds,) = struct.unpack_from(">d", payload, offset)
            offset += 8
            spans.append((stage, counts, total_seconds))
        _require_end(payload, offset)
        return cls(tuple(counters), tuple(spans))

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
class HeartbeatMessage:
    """C<->S: liveness probe; the server echoes the frame unchanged.

    A quiet subscriber is indistinguishable from a dead connection (the
    whole point of the safe region is that healthy clients are silent),
    so liveness travels out of band: the client heartbeats on an
    interval and both sides treat a silent period longer than their read
    timeout as a lost connection.
    """

    TYPE = 8
    sub_id: int
    seq: int

    def encode_payload(self) -> bytes:
        """Serialise the payload (frame header excluded)."""
        return struct.pack(">QQ", self.sub_id, self.seq)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "HeartbeatMessage":
        """Inverse of :meth:`encode_payload`."""
        sub_id, seq = struct.unpack(">QQ", payload)
        return cls(sub_id, seq)


@dataclass(frozen=True)
class ResyncMessage:
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
        header = struct.pack(
            ">QddddI",
            self.sub_id,
            self.location.x,
            self.location.y,
            self.velocity.x,
            self.velocity.y,
            len(self.received),
        )
        return header + struct.pack(f">{len(self.received)}Q", *self.received)

    @classmethod
    def decode_payload(cls, payload: bytes) -> "ResyncMessage":
        """Inverse of :meth:`encode_payload`."""
        sub_id, x, y, vx, vy, count = struct.unpack_from(">QddddI", payload, 0)
        offset = struct.calcsize(">QddddI")
        received = struct.unpack_from(f">{count}Q", payload, offset)
        _require_end(payload, offset + 8 * count)
        return cls(sub_id, Point(x, y), Point(vx, vy), tuple(received))


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
            if length == _NOTIFICATION_IDS + len(tail):
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
    return _NOTIFICATION_HEAD.pack(
        NotificationMessage.TYPE, _NOTIFICATION_IDS + len(tail), sub_id, event_id, seq
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
    """The wire message shipping a repair's removed cells to its client."""
    from ..core import RegionDelta

    return SafeRegionDelta(
        sub_id, grid.n, RegionDelta.of(grid, removed_cells).to_bitmap()
    )


def cells_from_delta(delta: SafeRegionDelta, grid):
    """The removed-cell set of a :class:`SafeRegionDelta`.

    Inverse of :func:`region_delta_for`; the client subtracts the result
    from the safe region it holds (``GridRegion.subtract``).  ``grid``
    must match the server's grid, as with :func:`region_from_push`.
    """
    from ..geometry.zorder import deinterleave

    if delta.grid_n != grid.n:
        raise ValueError(
            f"grid mismatch: delta encodes n={delta.grid_n}, client has n={grid.n}"
        )
    return frozenset(deinterleave(code) for code in delta.bitmap.positions())


def region_from_push(push: SafeRegionPush, grid):
    """Reconstruct the client-side :class:`~repro.core.SafeRegion`.

    Inverse of :func:`region_push_for`: bit positions are Morton codes
    (see ``GridRegion.to_bitmap``), so each set position deinterleaves
    back to a grid cell.  ``grid`` must match the server's grid — the
    push carries ``grid_n`` so a client can verify before decoding.
    """
    from ..core import SafeRegion
    from ..geometry.zorder import deinterleave

    if push.grid_n != grid.n:
        raise ValueError(
            f"grid mismatch: push encodes n={push.grid_n}, client has n={grid.n}"
        )
    cells = frozenset(deinterleave(code) for code in push.bitmap.positions())
    return SafeRegion(grid, cells, push.complement)
