"""Geometry substrate tests: points, rectangles, circles, grid, z-order."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Circle, Grid, Point, Rect, deinterleave, interleave

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_vector_arithmetic(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)
        assert Point(1, 2).scaled(3) == Point(3, 6)

    def test_dot_and_norm(self):
        assert Point(3, 4).norm() == 5.0
        assert Point(1, 0).dot(Point(0, 1)) == 0.0

    def test_normalized_unit_length(self):
        unit = Point(3, 4).normalized()
        assert math.isclose(unit.norm(), 1.0)

    def test_normalized_zero_vector_is_zero(self):
        assert Point(0, 0).normalized() == Point(0, 0)

    def test_angle_to_parallel_vectors(self):
        assert math.isclose(Point(2, 0).angle_to(Point(5, 0)), 1.0)

    def test_angle_to_opposite_vectors(self):
        assert math.isclose(Point(2, 0).angle_to(Point(-1, 0)), -1.0)

    def test_angle_to_zero_vector_is_neutral(self):
        assert Point(1, 1).angle_to(Point(0, 0)) == 0.0

    @given(x1=coords, y1=coords, x2=coords, y2=coords)
    def test_distance_symmetry(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == b.distance_to(a)


class TestRect:
    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 0, 5)

    def test_contains_point_boundary_inclusive(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains_point(Point(0, 0))
        assert rect.contains_point(Point(10, 10))
        assert not rect.contains_point(Point(10.01, 5))

    def test_min_distance_inside_is_zero(self):
        assert Rect(0, 0, 10, 10).min_distance_to_point(Point(5, 5)) == 0.0

    def test_min_distance_outside_corner(self):
        assert Rect(0, 0, 10, 10).min_distance_to_point(Point(13, 14)) == 5.0

    def test_max_distance_to_point(self):
        assert Rect(0, 0, 3, 4).max_distance_to_point(Point(0, 0)) == 5.0

    def test_min_distance_between_rects(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(4, 5, 6, 7)
        assert a.min_distance_to_rect(b) == 5.0

    def test_rect_intersections(self):
        a = Rect(0, 0, 10, 10)
        assert a.intersects(Rect(10, 10, 20, 20))  # corner touch counts
        assert not a.intersects(Rect(11, 11, 20, 20))

    def test_contains_rect(self):
        assert Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 8, 8))
        assert not Rect(0, 0, 10, 10).contains_rect(Rect(2, 2, 12, 8))

    def test_quadrants_partition_area(self):
        rect = Rect(0, 0, 10, 20)
        quads = rect.quadrants()
        assert sum(q.width * q.height for q in quads) == pytest.approx(200.0)
        assert all(rect.contains_rect(q) for q in quads)

    @given(px=coords, py=coords)
    def test_min_le_max_distance(self, px, py):
        rect = Rect(-10, -10, 10, 10)
        p = Point(px, py)
        assert rect.min_distance_to_point(p) <= rect.max_distance_to_point(p)


class TestCircle:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1.0)

    def test_contains_boundary_inclusive(self):
        circle = Circle(Point(0, 0), 5.0)
        assert circle.contains(Point(3, 4))
        assert not circle.contains(Point(3.01, 4))

    def test_intersects_rect(self):
        circle = Circle(Point(0, 0), 5.0)
        assert circle.intersects_rect(Rect(4, 0, 10, 1))
        assert not circle.intersects_rect(Rect(5.1, 5.1, 10, 10))

    def test_contains_rect(self):
        circle = Circle(Point(0, 0), 5.0)
        assert circle.contains_rect(Rect(-3, -3, 3, 3))
        assert not circle.contains_rect(Rect(-4, -4, 4, 4))

    def test_contains_any_corner(self):
        circle = Circle(Point(0, 0), 5.0)
        assert circle.contains_any_corner_of(Rect(3, 3, 100, 100))
        assert not circle.contains_any_corner_of(Rect(4, 4, 100, 100))


class TestGrid:
    def test_invalid_resolution_rejected(self, space):
        with pytest.raises(ValueError):
            Grid(0, space)

    def test_cell_of_clamps_outside_points(self, grid):
        assert grid.cell_of(Point(-100, -100)) == (0, 0)
        assert grid.cell_of(Point(1e9, 1e9)) == (grid.n - 1, grid.n - 1)

    def test_cell_rect_roundtrip(self, grid):
        for cell in [(0, 0), (10, 20), (49, 49)]:
            assert grid.cell_of(grid.cell_center(cell)) == cell

    def test_cell_index_roundtrip(self, grid):
        for cell in [(0, 0), (7, 3), (49, 49)]:
            assert grid.cell_from_index(grid.cell_index(cell)) == cell

    def test_neighbors_interior_count(self, grid):
        assert len(grid.neighbors((10, 10))) == 8

    def test_neighbors_corner_count(self, grid):
        assert len(grid.neighbors((0, 0))) == 3

    def test_cell_cell_distance_adjacent_zero(self, grid):
        assert grid.min_distance_cell_cell((5, 5), (6, 6)) == 0.0

    def test_cell_cell_distance_matches_rects(self, grid):
        a, b = (2, 3), (10, 20)
        expected = grid.cell_rect(a).min_distance_to_rect(grid.cell_rect(b))
        assert grid.min_distance_cell_cell(a, b) == pytest.approx(expected)

    def test_disk_offsets_contains_origin(self, grid):
        assert (0, 0) in grid.disk(100.0).offsets

    def test_disk_offsets_symmetry(self, grid):
        offsets = grid.disk(700.0).offsets
        assert all((-di, -dj) in offsets for (di, dj) in offsets)

    def test_dilate_matches_brute_force(self, grid):
        radius = 600.0
        cells = {(25, 25), (26, 25)}
        dilated = grid.dilate(cells, radius)
        for candidate in grid.all_cells():
            expected = any(
                grid.min_distance_cell_cell(candidate, c) < radius for c in cells
            )
            assert (candidate in dilated) == expected

    def test_dilation_strips_reconstruct_disk(self, grid):
        """dilate(c) - dilate(c+d) == strip(d) applied at c."""
        radius = 600.0
        offsets = grid.disk(radius).offsets
        strips = grid.disk(radius).strips
        for direction, strip in strips.items():
            brute = {
                off
                for off in offsets
                if (off[0] - direction[0], off[1] - direction[1]) not in offsets
            }
            assert strip == brute

    def test_cells_intersecting_circle(self, grid):
        circle = Circle(Point(5000, 5000), 500.0)
        cells = list(grid.cells_intersecting_circle(circle))
        assert grid.cell_of(circle.center) in cells
        for cell in cells:
            assert circle.intersects_rect(grid.cell_rect(cell))


class TestZOrder:
    def test_roundtrip_small(self):
        for i in range(16):
            for j in range(16):
                assert deinterleave(interleave(i, j)) == (i, j)

    def test_known_codes(self):
        assert interleave(0, 0) == 0
        assert interleave(1, 0) == 1
        assert interleave(0, 1) == 2
        assert interleave(1, 1) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            interleave(-1, 0)
        with pytest.raises(ValueError):
            deinterleave(-5)

    @given(i=st.integers(min_value=0, max_value=2**30), j=st.integers(min_value=0, max_value=2**30))
    def test_roundtrip_property(self, i, j):
        assert deinterleave(interleave(i, j)) == (i, j)

    @given(i=st.integers(min_value=0, max_value=2**20), j=st.integers(min_value=0, max_value=2**20))
    def test_locality_monotone_in_each_axis(self, i, j):
        # Increasing one coordinate strictly increases the Morton code.
        assert interleave(i + 1, j) > interleave(i, j)
        assert interleave(i, j + 1) > interleave(i, j)
