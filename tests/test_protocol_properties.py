"""Hypothesis round-trip properties for the whole wire protocol.

Every message type must satisfy ``decode_message(encode_message(m)) ==
m`` for arbitrary well-typed payloads — the framing, scalar tagging,
expression codec and bitmap packing all get exercised from the outside.
The hand-written cases in ``test_protocol.py`` pin the byte layout;
these properties pin totality.  The journal's record codec rides the
same strategies: every ``(method, args)`` command of its ``OPERATIONS``
table must survive ``decode(encode(command))``.
"""

from __future__ import annotations

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
from repro.system.journal import OPERATIONS, _decode_record, _encode_record
from repro.system.protocol import (
    EventPublishMessage,
    HeartbeatMessage,
    LocationPing,
    LocationReport,
    NotificationMessage,
    ResyncMessage,
    SafeRegionPush,
    SubscribeMessage,
    UnsubscribeMessage,
    decode_message,
    encode_message,
    message_bytes,
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
scalars = st.one_of(int64, finite, st.text(max_size=16))


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

MESSAGES = st.one_of(
    st.builds(SubscribeMessage, uint64, radii, expressions, points, points),
    st.builds(UnsubscribeMessage, uint64),
    st.builds(LocationReport, uint64, points, points),
    st.builds(LocationPing, uint64),
    st.builds(SafeRegionPush, uint64, uint32, st.booleans(), bitmaps),
    st.builds(NotificationMessage, uint64, uint64, points, attribute_tuples),
    st.builds(EventPublishMessage, uint64, points, attribute_tuples, int32),
    st.builds(HeartbeatMessage, uint64, uint64),
    st.builds(
        ResyncMessage,
        uint64,
        points,
        points,
        st.lists(uint64, max_size=8).map(tuple),
    ),
)


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
