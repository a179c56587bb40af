"""Cross-cutting property tests on core invariants (hypothesis)."""

from __future__ import annotations

import math
from array import array

from hypothesis import given, settings, strategies as st

from repro.bitmap import WAHBitmap
from repro.core import CostModel, SystemStats
from repro.geometry import Grid, Point, Rect, deinterleave, interleave
from repro.trajectories import Trajectory, walk_polyline

SPACE = Rect(0, 0, 10_000, 10_000)


def walked(waypoints, steps):
    """One Point per position of a walker starting at the first waypoint."""
    xs, ys = array("d", [waypoints[0].x]), array("d", [waypoints[0].y])
    walk_polyline(waypoints, steps, xs, ys)
    trajectory = Trajectory(xs, ys)
    return [trajectory.position_at(t) for t in range(len(trajectory))]

points = st.builds(
    Point,
    st.floats(min_value=0, max_value=10_000, allow_nan=False),
    st.floats(min_value=0, max_value=10_000, allow_nan=False),
)


class TestPolylineProperties:
    @given(
        waypoints=st.lists(points, min_size=2, max_size=6),
        steps=st.lists(st.floats(min_value=0, max_value=500), min_size=1, max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_walker_never_overshoots_per_step(self, waypoints, steps):
        positions = walked(waypoints, steps)
        for k, step in enumerate(steps):
            moved = positions[k].distance_to(positions[k + 1])
            assert moved <= step + 1e-6

    @given(
        waypoints=st.lists(points, min_size=2, max_size=6),
        steps=st.lists(st.floats(min_value=1, max_value=500), min_size=1, max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_walker_stays_on_or_before_polyline_end(self, waypoints, steps):
        positions = walked(waypoints, steps)
        total_length = sum(
            waypoints[i].distance_to(waypoints[i + 1]) for i in range(len(waypoints) - 1)
        )
        travelled = sum(
            positions[i].distance_to(positions[i + 1]) for i in range(len(positions) - 1)
        )
        assert travelled <= total_length + 1e-6

    @given(steps=st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_straight_line_distance_conservation(self, steps):
        """On a long straight segment every step is spent exactly."""
        waypoints = [Point(0, 0), Point(1e9, 0)]
        positions = walked(waypoints, steps)
        assert math.isclose(positions[-1].x, sum(steps), rel_tol=1e-9, abs_tol=1e-4)


class TestGridProperties:
    @given(
        x=st.floats(min_value=0, max_value=9_999.99),
        y=st.floats(min_value=0, max_value=9_999.99),
        n=st.integers(min_value=1, max_value=64),
    )
    def test_cell_of_contains_the_point(self, x, y, n):
        grid = Grid(n, SPACE)
        cell = grid.cell_of(Point(x, y))
        assert grid.cell_rect(cell).contains_point(Point(x, y))

    @given(
        n=st.integers(min_value=2, max_value=32),
        i=st.integers(min_value=0, max_value=31),
        j=st.integers(min_value=0, max_value=31),
        radius=st.floats(min_value=1, max_value=4_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_dilation_covers_the_cell_itself(self, n, i, j, radius):
        grid = Grid(n, SPACE)
        cell = (i % n, j % n)
        assert cell in grid.dilate({cell}, radius)

    @given(
        n=st.integers(min_value=2, max_value=24),
        radius=st.floats(min_value=100, max_value=3_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_strips_partition_consistency(self, n, radius):
        """Strips are subsets of the disk and contain its outer rim."""
        grid = Grid(n, SPACE)
        offsets = grid.disk(radius).offsets
        for direction, strip in grid.disk(radius).strips.items():
            assert strip <= offsets
            shifted_out = {
                off for off in offsets
                if (off[0] - direction[0], off[1] - direction[1]) not in offsets
            }
            assert strip == shifted_out


class TestZOrderBitmapComposition:
    @given(
        cells=st.sets(
            st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=60
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_zorder_wah_roundtrip(self, cells):
        """The exact pipeline a safe region travels through on the wire."""
        positions = [interleave(i, j) for (i, j) in cells]
        bitmap = WAHBitmap.from_positions(positions, 64 * 64)
        decoded = {deinterleave(p) for p in bitmap.positions()}
        assert decoded == cells


class TestCostModelScaling:
    @given(
        scale=st.floats(min_value=0.1, max_value=10),
        d=st.floats(min_value=1, max_value=10_000),
        speed=st.floats(min_value=0.1, max_value=200),
        ne=st.integers(min_value=1, max_value=100),
    )
    def test_balance_scale_invariance(self, scale, d, speed, ne):
        """bm is invariant when f and n scale together (Equation 6)."""
        base = CostModel(SystemStats(event_rate=2.0, total_events=1_000))
        scaled = CostModel(
            SystemStats(event_rate=2.0 * scale, total_events=int(1_000 * scale))
        )
        a = base.balance(d, speed, ne)
        b = scaled.balance(d, speed, ne)
        assert math.isclose(a, b, rel_tol=0.01)
