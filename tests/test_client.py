"""The mobile client state machine."""

from __future__ import annotations

import pytest

from repro.core import SafeRegion
from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Grid, Point, Rect, codes_of_cells
from repro.system import MobileClient


@pytest.fixture
def grid():
    return Grid(10, Rect(0, 0, 1000, 1000))


def make_client():
    subscription = Subscription(
        1, BooleanExpression([Predicate("a", Operator.EQ, 1)]), radius=100.0
    )
    return MobileClient(subscription, Point(50, 50), Point(10, 0))


class TestReporting:
    def test_reports_without_region(self):
        client = make_client()
        assert client.must_report()
        assert client.move_to(Point(60, 50), Point(10, 0))

    def test_reports_with_empty_region(self, grid):
        client = make_client()
        client.receive_region(SafeRegion.empty(grid))
        assert client.must_report()

    def test_silent_inside_region(self, grid):
        client = make_client()
        client.receive_region(SafeRegion.of(grid, [grid.cell_of(Point(60, 50))]))
        assert not client.move_to(Point(60, 50), Point(10, 0))

    def test_reports_after_leaving_region(self, grid):
        client = make_client()
        client.receive_region(SafeRegion.of(grid, [grid.cell_of(Point(50, 50))]))
        assert not client.move_to(Point(55, 55), Point(10, 0))
        assert client.move_to(Point(500, 500), Point(10, 0))

    def test_report_counts_and_payload(self):
        client = make_client()
        client.move_to(Point(70, 50), Point(20, 0))
        location, velocity = client.report()
        assert location == Point(70, 50)
        assert velocity == Point(20, 0)
        assert client.reports_sent == 1

    def test_complement_region_membership(self, grid):
        client = make_client()
        excluded = grid.cell_of(Point(900, 900))
        client.receive_region(SafeRegion.of(grid, [excluded], complement=True))
        assert not client.move_to(Point(100, 100), Point(1, 0))
        assert client.move_to(Point(900, 900), Point(1, 0))


class TestPushes:
    def test_region_replacement(self, grid):
        client = make_client()
        first = SafeRegion.of(grid, [(0, 0)])
        second = SafeRegion.of(grid, [(5, 5)])
        client.receive_region(first)
        client.receive_region(second)
        assert client.safe_region is second

    def test_notifications_accumulate(self):
        client = make_client()
        event = Event(9, {"a": 1}, Point(10, 10))
        client.receive_notification(event)
        assert client.received_events == [event]

    def test_answer_ping_returns_current_state(self):
        client = make_client()
        client.move_to(Point(33, 44), Point(5, 6))
        assert client.answer_ping() == (Point(33, 44), Point(5, 6))


class TestRegionDeltas:
    def test_delta_shrinks_the_held_region(self, grid):
        client = make_client()
        client.receive_region(SafeRegion.of(grid, [(0, 0), (0, 1), (1, 0)]))
        assert client.apply_region_delta(codes_of_cells([(0, 1), (1, 0)]))
        assert set(client.safe_region.iter_cells()) == {(0, 0)}
        assert isinstance(client.safe_region, SafeRegion)

    def test_delta_without_region_is_discarded(self):
        client = make_client()
        assert not client.apply_region_delta(codes_of_cells([(0, 0)]))
        assert client.safe_region is None
        assert client.must_report()  # region-less clients keep reporting

    def test_delta_can_force_a_report(self, grid):
        # the carved cell is the one the client stands in: the repaired
        # region no longer contains it, exactly as a rebuild would decide
        client = make_client()
        cell = grid.cell_of(Point(50, 50))
        client.receive_region(SafeRegion.of(grid, [cell, (5, 5)]))
        assert not client.must_report()
        client.apply_region_delta(codes_of_cells([cell]))
        assert client.must_report()

    def test_delta_on_complement_region(self, grid):
        client = make_client()
        client.receive_region(SafeRegion.of(grid, [(9, 9)], complement=True))
        client.apply_region_delta(codes_of_cells([(0, 0), (9, 9)]))
        assert client.safe_region.complement
        assert not client.safe_region.covers_cell((0, 0))
        assert client.safe_region.covers_cell((1, 1))
