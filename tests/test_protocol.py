"""Wire protocol: frame round-trips for every message type, expression
serialisation including DNF, and size accounting."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bitmap import WAHBitmap
from repro.expressions import BooleanExpression, DnfExpression, Operator, Predicate
from repro.geometry import Point, cells_of_codes, codes_of_cells
from repro.system.protocol import (
    LocationPing,
    LocationReport,
    NotificationMessage,
    SafeRegionDelta,
    SafeRegionPush,
    StatsRequest,
    StatsSnapshot,
    SubscribeMessage,
    UnsubscribeMessage,
    _Reader,
    cells_from_delta,
    decode_message,
    encode_expression,
    encode_message,
    message_bytes,
    region_delta_for,
)


def expr():
    return BooleanExpression([
        Predicate("name", Operator.EQ, "shoes"),
        Predicate("price", Operator.LT, 1000),
        Predicate("size", Operator.BETWEEN, (40, 46)),
        Predicate("color", Operator.IN, frozenset({"red", "black"})),
    ])


class TestExpressionCodec:
    def test_conjunction_roundtrip(self):
        encoded = encode_expression(expr())
        reader = _Reader(encoded)
        decoded = reader.expression()
        assert reader.offset == len(encoded)
        assert isinstance(decoded, BooleanExpression)
        assert {str(p) for p in decoded} == {str(p) for p in expr()}

    def test_dnf_roundtrip(self):
        dnf = DnfExpression([
            BooleanExpression([Predicate("a", Operator.GE, 1)]),
            BooleanExpression([Predicate("b", Operator.NE, "x"),
                               Predicate("c", Operator.NOT_IN, frozenset({1, 2}))]),
        ])
        decoded = _Reader(encode_expression(dnf)).expression()
        assert isinstance(decoded, DnfExpression)
        assert len(decoded.clauses) == 2
        assert decoded.matches({"a": 5})
        assert decoded.matches({"b": "y", "c": 3})
        assert not decoded.matches({"b": "x", "c": 3})

    def test_float_operand_roundtrip(self):
        expression = BooleanExpression([Predicate("rating", Operator.GE, 7.5)])
        decoded = _Reader(encode_expression(expression)).expression()
        assert decoded.predicates[0].operand == 7.5


MESSAGES = [
    SubscribeMessage(7, 2_000.0, expr(), Point(1.5, 2.5), Point(60.0, -3.0)),
    UnsubscribeMessage(7),
    LocationReport(7, Point(10.0, 20.0), Point(1.0, 2.0)),
    LocationPing(7),
    SafeRegionPush(7, 120, False, WAHBitmap.from_positions([1, 2, 3, 700], 16_384)),
    SafeRegionPush(8, 120, True, WAHBitmap.from_positions([], 16_384)),
    SafeRegionDelta(7, 120, WAHBitmap.from_positions([4, 5, 1_023], 16_384)),
    NotificationMessage(7, 99, Point(5.0, 6.0),
                        (("name", "shoes"), ("price", 899), ("rating", 4.5))),
    StatsRequest(),
    StatsSnapshot(
        counters=(("notifications", 42), ("server_seconds", 0.125),
                  ("bytes_measured", 1)),
        spans=(("match", (3, 0, 1) + (0,) * 25, 0.0075),
               ("ship", (0,) * 28, 0.0)),
    ),
]


class TestMessageFraming:
    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: type(m).__name__)
    def test_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    def test_truncated_frame_rejected(self):
        frame = encode_message(LocationPing(7))
        with pytest.raises(ValueError):
            decode_message(frame[:-1])

    def test_trailing_bytes_rejected(self):
        frame = encode_message(LocationPing(7))
        with pytest.raises(ValueError):
            decode_message(frame + b"\x00")

    def test_unknown_type_rejected(self):
        frame = bytearray(encode_message(LocationPing(7)))
        frame[0] = 99
        with pytest.raises(ValueError):
            decode_message(bytes(frame))

    def test_message_bytes_matches_encoding(self):
        for message in MESSAGES:
            assert message_bytes(message) == len(encode_message(message))

    def test_ping_is_tiny(self):
        # the event-arrival ping is the most frequent server->client
        # message; it must stay minimal
        assert message_bytes(LocationPing(7)) <= 16

    def test_region_delta_roundtrip_recovers_the_removed_cells(self):
        from repro.geometry import Grid, Rect

        grid = Grid(40, Rect(0, 0, 10_000, 10_000))
        removed = {(3, 7), (3, 8), (4, 7), (39, 39)}
        delta = region_delta_for(7, grid, codes_of_cells(removed))
        assert decode_message(encode_message(delta)) == delta
        assert set(cells_of_codes(cells_from_delta(delta, grid))) == removed

    def test_region_delta_rejects_grid_mismatch(self):
        from repro.geometry import Grid, Rect

        grid = Grid(40, Rect(0, 0, 10_000, 10_000))
        delta = region_delta_for(7, grid, codes_of_cells([(1, 1)]))
        with pytest.raises(ValueError):
            cells_from_delta(delta, Grid(80, Rect(0, 0, 10_000, 10_000)))

    def test_region_delta_much_smaller_than_full_push(self):
        # the whole point: carving a few cells must not cost a region
        from repro.core import SafeRegion
        from repro.geometry import Grid, Rect
        from repro.system.protocol import region_push_for

        grid = Grid(40, Rect(0, 0, 10_000, 10_000))
        region = SafeRegion.of(
            grid, ((i, j) for i in range(10, 30) for j in range(10, 30))
        )
        delta = region_delta_for(7, grid, codes_of_cells([(10, 10), (10, 11)]))
        assert message_bytes(delta) < message_bytes(region_push_for(7, region))

    def test_safe_region_push_dominated_by_bitmap(self):
        dense = SafeRegionPush(
            7, 120, False, WAHBitmap.from_positions(range(0, 10_000, 2), 16_384)
        )
        sparse = SafeRegionPush(
            7, 120, False, WAHBitmap.from_positions(range(100), 16_384)
        )
        assert message_bytes(dense) > message_bytes(sparse)


class TestStatsMessages:
    def test_stats_request_rejects_payload(self):
        with pytest.raises(ValueError):
            StatsRequest.decode_payload(b"\x00")

    def test_snapshot_counters_dict(self):
        snapshot = next(m for m in MESSAGES if isinstance(m, StatsSnapshot))
        counters = snapshot.counters_dict()
        assert counters["notifications"] == 42
        assert counters["server_seconds"] == 0.125

    def test_snapshot_histograms_reconstruct(self):
        snapshot = next(m for m in MESSAGES if isinstance(m, StatsSnapshot))
        histograms = snapshot.histograms()
        match = histograms["match"]
        assert match.count == 4
        assert match.total_seconds == 0.0075
        assert histograms["ship"].count == 0

    def test_snapshot_for_live_registry(self):
        from repro.system.metrics import CommunicationStats
        from repro.system.observability import MetricsRegistry
        from repro.system.protocol import stats_snapshot_for

        registry = MetricsRegistry(CommunicationStats())
        registry.stats.notifications = 9
        with registry.tracer.span("match"):
            pass
        snapshot = stats_snapshot_for(registry)
        assert decode_message(encode_message(snapshot)) == snapshot
        assert snapshot.counters_dict() == registry.stats.as_dict()
        assert snapshot.histograms()["match"].count == 1


@given(
    sub_id=st.integers(min_value=0, max_value=2**63 - 1),
    x=st.floats(allow_nan=False, allow_infinity=False, width=32),
    y=st.floats(allow_nan=False, allow_infinity=False, width=32),
)
def test_property_location_report_roundtrip(sub_id, x, y):
    message = LocationReport(sub_id, Point(x, y), Point(0.0, 0.0))
    assert decode_message(encode_message(message)) == message


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_notification_roundtrip(data):
    attributes = tuple(
        (f"a{i}", data.draw(st.one_of(
            st.integers(min_value=-1000, max_value=1000),
            st.text(max_size=8),
        )))
        for i in range(data.draw(st.integers(0, 5)))
    )
    message = NotificationMessage(1, 2, Point(0.0, 0.0), attributes)
    assert decode_message(encode_message(message)) == message
