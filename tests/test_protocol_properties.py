"""Hypothesis round-trip properties for the whole wire protocol.

Every message type must satisfy ``decode_message(encode_message(m)) ==
m`` for arbitrary well-typed payloads — the framing, scalar tagging,
expression codec and bitmap packing all get exercised from the outside.
The hand-written cases in ``test_protocol.py`` pin the byte layout;
these properties pin totality.  The journal's record codec rides the
same strategies: every ``(method, args)`` command of its ``OPERATIONS``
table must survive ``decode(encode(command))``, and a record or
snapshot body that is cut short or carries bytes after its last field
is a ``JournalCorruptionError`` — the wire's end rule, on disk.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import WAHBitmap
from repro.expressions import (
    BooleanExpression,
    DnfExpression,
    Event,
    Operator,
    Predicate,
    Subscription,
)
from repro.geometry import Point
from repro.system.journal import (
    OPERATIONS,
    JournalCorruptionError,
    ServerSnapshot,
    SubscriberSnapshot,
    _decode_record,
    _encode_record,
    decode_snapshot,
    encode_snapshot,
)
from repro.system.observability import BUCKET_BOUNDS
from repro.system.protocol import (
    _MESSAGE_TYPES,
    EventPublishBatchMessage,
    EventPublishMessage,
    HeartbeatMessage,
    LocationPing,
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
    decode_message,
    encode_message,
    message_bytes,
    notification_bytes,
    notification_for,
    notification_frame,
    notification_tail,
)

# ----------------------------------------------------------------------
# Strategies mirroring the wire types exactly
# ----------------------------------------------------------------------
uint64 = st.integers(min_value=0, max_value=2**64 - 1)
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
int32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
uint32 = st.integers(min_value=1, max_value=2**32 - 1)
finite = st.floats(allow_nan=False, allow_infinity=False)
points = st.builds(Point, finite, finite)
radii = st.floats(min_value=0.001, max_value=1e9, allow_nan=False)
names = st.text(min_size=1, max_size=12)
#: a bool travels as the int 0/1 and decodes equal (``True == 1``)
scalars = st.one_of(int64, finite, st.text(max_size=16), st.booleans())


def _between_operand(draw_pair):
    low, high = sorted(draw_pair)
    return (low, high)


predicates = st.one_of(
    # relational / equality operators over any scalar
    st.builds(
        Predicate,
        names,
        st.sampled_from(
            [Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE]
        ),
        scalars,
    ),
    # BETWEEN needs an ordered homogeneous pair
    st.builds(
        lambda name, pair: Predicate(name, Operator.BETWEEN, _between_operand(pair)),
        names,
        st.one_of(st.tuples(int64, int64), st.tuples(finite, finite)),
    ),
    # IN / NOT IN over homogeneous member sets
    st.builds(
        Predicate,
        names,
        st.sampled_from([Operator.IN, Operator.NOT_IN]),
        st.one_of(
            st.frozensets(int64, min_size=1, max_size=5),
            st.frozensets(st.text(max_size=8), min_size=1, max_size=5),
        ),
    ),
)

conjunctions = st.builds(
    BooleanExpression, st.lists(predicates, min_size=1, max_size=4)
)
# a decoded single-clause expression comes back as a BooleanExpression,
# so DNF strategies always carry at least two clauses
dnfs = st.builds(DnfExpression, st.lists(conjunctions, min_size=2, max_size=3))
expressions = st.one_of(conjunctions, dnfs)

attribute_tuples = st.lists(
    st.tuples(names, scalars), max_size=5
).map(tuple)

bitmaps = st.builds(
    WAHBitmap.from_bits, st.lists(st.booleans(), min_size=1, max_size=200)
)

publishes = st.builds(EventPublishMessage, uint64, points, attribute_tuples, int32)
span_rows = st.tuples(
    names,
    st.lists(
        uint64, min_size=len(BUCKET_BOUNDS) + 1, max_size=len(BUCKET_BOUNDS) + 1
    ).map(tuple),
    finite,
)

#: one strategy per message type, all thirteen of them
MESSAGES_BY_TYPE = {
    SubscribeMessage: st.builds(
        SubscribeMessage, uint64, radii, expressions, points, points
    ),
    UnsubscribeMessage: st.builds(UnsubscribeMessage, uint64),
    LocationReport: st.builds(LocationReport, uint64, points, points),
    LocationPing: st.builds(LocationPing, uint64),
    SafeRegionPush: st.builds(SafeRegionPush, uint64, uint32, st.booleans(), bitmaps),
    NotificationMessage: st.builds(
        NotificationMessage, uint64, uint64, points, attribute_tuples
    ),
    EventPublishMessage: publishes,
    EventPublishBatchMessage: st.builds(
        EventPublishBatchMessage, st.lists(publishes, min_size=1, max_size=3).map(tuple)
    ),
    HeartbeatMessage: st.builds(HeartbeatMessage, uint64, uint64),
    ResyncMessage: st.builds(
        ResyncMessage, uint64, points, points, st.lists(uint64, max_size=8).map(tuple)
    ),
    SafeRegionDelta: st.builds(SafeRegionDelta, uint64, uint32, bitmaps),
    StatsRequest: st.builds(StatsRequest),
    StatsSnapshot: st.builds(
        StatsSnapshot,
        st.lists(st.tuples(names, st.one_of(int64, finite)), max_size=5).map(tuple),
        st.lists(span_rows, max_size=3).map(tuple),
    ),
}
MESSAGES = st.one_of(*MESSAGES_BY_TYPE.values())


def test_every_message_type_has_a_strategy():
    assert set(MESSAGES_BY_TYPE) == set(_MESSAGE_TYPES.values())


@settings(max_examples=200, deadline=None)
@given(MESSAGES)
def test_every_message_roundtrips(message):
    frame = encode_message(message)
    assert decode_message(frame) == message


@settings(max_examples=100, deadline=None)
@given(MESSAGES)
def test_frame_header_accounts_for_every_byte(message):
    frame = encode_message(message)
    assert message_bytes(message) == len(frame)
    assert frame[0] == message.TYPE


@settings(max_examples=100, deadline=None)
@given(st.builds(HeartbeatMessage, uint64, uint64))
def test_heartbeat_roundtrip(message):
    assert decode_message(encode_message(message)) == message


@settings(max_examples=100, deadline=None)
@given(uint64, points, points, st.lists(uint64, max_size=32).map(tuple))
def test_resync_roundtrip(sub_id, location, velocity, received):
    message = ResyncMessage(sub_id, location, velocity, received)
    assert decode_message(encode_message(message)) == message


@settings(max_examples=150, deadline=None)
@given(MESSAGES, st.integers(min_value=0, max_value=30))
def test_truncated_frames_never_decode_silently(message, cut):
    """A frame missing trailing bytes is rejected, not misparsed."""
    frame = encode_message(message)
    if cut == 0 or cut >= len(frame):
        return
    truncated = frame[:-cut]
    try:
        decode_message(truncated)
    except Exception:
        return  # rejection is the expected outcome
    raise AssertionError("truncated frame decoded without error")


@pytest.mark.parametrize("message_type", list(MESSAGES_BY_TYPE), ids=lambda t: t.__name__)
@settings(max_examples=40, deadline=None)
@given(st.data(), st.binary(min_size=1, max_size=9))
def test_bytes_after_the_last_field_never_decode_silently(message_type, data, junk):
    """Junk after a payload's last field is rejected even when the frame
    header accounts for it — by every message type, array-carrying or
    pair-carrying, fixed-size or empty."""
    message = data.draw(MESSAGES_BY_TYPE[message_type])
    payload = message.encode_payload() + junk
    padded = bytes([message.TYPE]) + len(payload).to_bytes(4, "big") + payload
    with pytest.raises(Exception):
        decode_message(padded)


# ----------------------------------------------------------------------
# Notifications: a per-recipient head and a tail every recipient shares
# ----------------------------------------------------------------------
event_attributes = st.dictionaries(names, scalars, min_size=1, max_size=5)


@settings(max_examples=200, deadline=None)
@given(uint64, uint64, uint64, points, event_attributes, st.randoms(use_true_random=False))
def test_notification_frame_is_head_plus_shared_tail(
    sub_id, event_id, seq, location, attributes, shuffler
):
    items = list(attributes.items())
    shuffler.shuffle(items)  # the frame sorts; the event's own order is free
    event = Event(event_id, dict(items), location)
    tail = notification_tail(event)
    frame = notification_frame(sub_id, event_id, seq, tail)
    assert frame == encode_message(notification_for(sub_id, event, seq))
    assert notification_bytes(event) == len(frame)
    assert decode_message(frame) == MessageDecoder().decode(frame)


notifications = st.builds(
    NotificationMessage, uint64, uint64, points, attribute_tuples, uint64
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(notifications, min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(0, 2), uint64, uint64, st.integers(0, 1)) | MESSAGES,
        max_size=12,
    ),
)
def test_tail_memo_never_changes_a_decode(pool, script):
    """Two connections' decoders, fed any interleaving of a few events'
    notifications (so tails repeat) and other frames: every message is
    what the memo-less ``decode_message`` returns."""
    decoders = (MessageDecoder(), MessageDecoder())
    for step in script:
        if isinstance(step, tuple):
            which, sub_id, seq, connection = step
            base = pool[which % len(pool)]
            message = NotificationMessage(
                sub_id, base.event_id, base.location, base.attributes, seq
            )
        else:
            message, connection = step, 0
        frame = encode_message(message)
        assert decoders[connection].decode(frame) == decode_message(frame) == message


def test_tail_memo_a_b_a_then_one_byte_off():
    def frame(sub_id, name, seq):
        event = Event(7, {"topic": name, "price": 3}, Point(1.0, 2.0))
        return encode_message(notification_for(sub_id, event, seq))

    # A, B, A, then A' — A with one byte of its tail changed — then A
    frames = [
        frame(1, "sale", 1), frame(2, "sold", 1), frame(3, "sale", 2),
        frame(4, "salf", 1), frame(5, "sale", 3),
    ]
    assert len(frames[2]) == len(frames[3])
    first, second = MessageDecoder(), MessageDecoder()
    for data in frames:
        assert first.decode(data) == decode_message(data)
    # nothing leaks between connections: the second one has only ever
    # seen A' when A arrives
    assert second.decode(frames[3]) == decode_message(frames[3])
    assert second.decode(frames[0]) == decode_message(frames[0])


def test_tail_memo_keeps_only_a_tail_that_parsed_to_its_end():
    good = encode_message(
        notification_for(1, Event(7, {"topic": "sale"}, Point(1.0, 2.0)), 1)
    )
    payload = good[5:] + b"\x00\x01"  # two bytes after the last pair
    bad = good[:1] + len(payload).to_bytes(4, "big") + payload
    decoder = MessageDecoder()
    for _ in range(2):  # a remembered bad tail would decode the second time
        with pytest.raises(ValueError):
            decoder.decode(bad)
    assert decoder.decode(good) == decode_message(good)
    # a frame whose header lies about its length never rides the memo
    lying = good[:1] + (len(good) - 4).to_bytes(4, "big") + good[5:]
    with pytest.raises(ValueError):
        decoder.decode(lying)


# ----------------------------------------------------------------------
# Journal records: the same ``(method, args)`` commands, on disk
# ----------------------------------------------------------------------
timestamps = st.integers(min_value=0, max_value=2**62)
subscriptions = st.builds(Subscription, uint64, expressions, radii)
events = st.builds(
    lambda event_id, attributes, location, arrived, ttl: Event(
        event_id, attributes, location, arrived_at=arrived,
        expires_at=None if ttl is None else arrived + ttl,
    ),
    uint64,
    st.dictionaries(names, scalars, min_size=1, max_size=5),
    points,
    timestamps,
    st.none() | st.integers(min_value=0, max_value=1000),
)
bursts = st.lists(events, max_size=4).map(tuple)
id_tuples = st.lists(uint64, max_size=8).map(tuple)
#: one argument-tuple strategy per journaled operation
COMMAND_ARGS = {
    "subscribe": st.tuples(subscriptions, points, points, int64),
    "unsubscribe": st.tuples(uint64),
    "report_location": st.tuples(uint64, points, points, int64),
    "resync": st.tuples(uint64, points, points, id_tuples, int64),
    "publish": st.tuples(events, int64),
    "publish_batch": st.tuples(bursts, int64),
    "expire_due_events": st.tuples(int64),
    "bootstrap": st.tuples(bursts),
    "extract_events_in_columns": st.tuples(
        st.lists(st.tuples(uint64, uint64), max_size=4).map(tuple)
    ),
}
COMMANDS = st.one_of(
    *(st.tuples(st.just(method), args) for method, args in COMMAND_ARGS.items())
)


def test_every_journaled_operation_has_a_strategy():
    assert set(COMMAND_ARGS) == set(OPERATIONS)


def _attribute_orders(value):
    """Every event's attribute names in mapping order, depth first
    (``Event.__eq__`` compares the mappings as dicts — blind to order)."""
    if isinstance(value, Event):
        return [list(value.attributes)]
    if isinstance(value, tuple):
        return [order for item in value for order in _attribute_orders(item)]
    return []


@settings(max_examples=300, deadline=None)
@given(uint64, COMMANDS)
def test_every_journal_command_roundtrips(seq, command):
    method, args = command
    record = _decode_record(_encode_record(seq, method, args))
    assert record == (seq, method, args)
    assert _attribute_orders(record.args) == _attribute_orders(args)


# ----------------------------------------------------------------------
# Journal bodies decode strictly
# ----------------------------------------------------------------------
#: a region is its ascending Morton codes; every cell (i, j) with
#: coordinates below 2**31 has one below 2**62
codes = st.lists(st.integers(0, 2**62 - 1), unique=True, max_size=4).map(
    lambda drawn: np.array(sorted(drawn), dtype=np.int64)
)
regions = st.none() | st.tuples(st.booleans(), codes)
snapshots = st.builds(
    ServerSnapshot,
    last_seq=uint64,
    started_at=st.none() | timestamps,
    arrival_times=st.lists(int64, max_size=4),
    events=st.lists(events, max_size=3),
    subscribers=st.lists(
        st.builds(
            SubscriberSnapshot,
            subscription=subscriptions,
            location=points,
            velocity=points,
            delivered=st.frozensets(uint64, max_size=4),
            next_seq=uint64,
            safe=regions,
            impact=regions,
        ),
        max_size=2,
    ),
    counters=st.dictionaries(names, scalars, max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(snapshots)
def test_every_snapshot_roundtrips(snapshot):
    def comparable(image):
        def plain(region):
            return None if region is None else (region[0], region[1].tolist())

        return dataclasses.replace(image, subscribers=[
            dataclasses.replace(sub, safe=plain(sub.safe), impact=plain(sub.impact))
            for sub in image.subscribers
        ])

    decoded = decode_snapshot(encode_snapshot(snapshot))
    assert comparable(decoded) == comparable(snapshot)


#: every kind of journal body — one per operation, and the snapshot —
#: as ``(encoded body strategy, decoder)``
JOURNAL_BODIES = {
    **{
        method: (
            st.builds(
                lambda seq, args, method=method: _encode_record(seq, method, args),
                uint64,
                arguments,
            ),
            _decode_record,
        )
        for method, arguments in COMMAND_ARGS.items()
    },
    "snapshot": (snapshots.map(encode_snapshot), decode_snapshot),
}


@pytest.mark.parametrize("body", list(JOURNAL_BODIES))
@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=30))
def test_truncated_journal_bodies_never_decode_silently(body, data, cut):
    """A complete, CRC-clean body missing its last bytes is corruption:
    only the framing decides a torn tail."""
    strategy, decode = JOURNAL_BODIES[body]
    encoded = data.draw(strategy)
    with pytest.raises(JournalCorruptionError):
        decode(encoded[:-cut])


@pytest.mark.parametrize("body", list(JOURNAL_BODIES))
@settings(max_examples=40, deadline=None)
@given(st.data(), st.binary(min_size=1, max_size=9))
def test_bytes_after_a_journal_body_never_decode_silently(body, data, junk):
    strategy, decode = JOURNAL_BODIES[body]
    with pytest.raises(JournalCorruptionError):
        decode(data.draw(strategy) + junk)
