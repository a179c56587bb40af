"""Safe/impact region semantics: the paper's Lemmas 1-4, the complement
representation, and the Appendix B wire encoding."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core import (
    ConstructionRequest,
    GridRegion,
    IGM,
    ImpactRegion,
    SafeRegion,
    StaticMatchingField,
    SystemStats,
    impact_from_safe,
)
from repro.geometry import Grid, Point, Rect, cells_of_codes, codes_of_cells
from repro.system.executors import _ReplySeam

from conftest import make_subscription

RADIUS = 700.0


@pytest.fixture
def small_grid():
    return Grid(30, Rect(0, 0, 6000, 6000))


class TestGridRegion:
    def test_membership_direct(self, small_grid):
        region = GridRegion.of(small_grid, [(1, 1), (2, 2)])
        assert region.covers_cell((1, 1))
        assert not region.covers_cell((3, 3))

    def test_membership_complement(self, small_grid):
        region = GridRegion.of(small_grid, [(1, 1)], complement=True)
        assert not region.covers_cell((1, 1))
        assert region.covers_cell((3, 3))
        assert not region.covers_cell((-1, 0))  # out of bounds is never covered

    def test_contains_point(self, small_grid):
        region = GridRegion.of(small_grid, [small_grid.cell_of(Point(3000, 3000))])
        assert region.contains_point(Point(3000, 3000))
        assert not region.contains_point(Point(100, 100))

    def test_area_cells(self, small_grid):
        assert GridRegion.of(small_grid, [(0, 0), (1, 1)]).area_cells() == 2
        total = small_grid.n * small_grid.n
        assert GridRegion.of(small_grid, [(0, 0)], complement=True).area_cells() == total - 1
        assert GridRegion.whole_space(small_grid).area_cells() == total
        assert GridRegion.empty(small_grid).is_empty()

    def test_iter_cells_complement(self, small_grid):
        region = GridRegion.of(small_grid, [(0, 0)], complement=True)
        cells = set(region.iter_cells())
        assert (0, 0) not in cells
        assert len(cells) == small_grid.n * small_grid.n - 1

    def test_bitmap_roundtrip(self, small_grid):
        rng = random.Random(1)
        cells = {(rng.randrange(30), rng.randrange(30)) for _ in range(50)}
        region = GridRegion.of(small_grid, cells)
        bitmap = region.to_bitmap()
        from repro.geometry import deinterleave

        decoded = {deinterleave(position) for position in bitmap.positions()}
        assert decoded == cells

    def test_encoded_bytes_positive(self, small_grid):
        region = GridRegion.of(small_grid, [(1, 1)])
        assert region.encoded_bytes() > 0


    @pytest.mark.parametrize("cells", [3, 200], ids=["scalar", "array"])
    def test_bitmap_is_encoded_once_and_stays_out_of_the_value(self, small_grid, cells):
        chosen = [(i % 30, i // 30) for i in range(cells)]
        region = SafeRegion.of(small_grid, chosen)
        twin = SafeRegion.of(small_grid, chosen)
        bitmap = region.to_bitmap()
        assert region.to_bitmap() is bitmap  # small and large regions alike
        assert bitmap.words == twin.to_bitmap().words
        # the memo is no part of the value ...
        assert region == SafeRegion.of(small_grid, chosen)
        assert hash(region) == hash(SafeRegion.of(small_grid, chosen))
        assert "bitmap" not in repr(region)
        # ... and rides neither a plain pickle nor a fleet worker's pipe
        fresh = SafeRegion.of(small_grid, chosen)
        assert len(pickle.dumps(region)) == len(pickle.dumps(fresh))
        assert "_bitmap" not in vars(pickle.loads(pickle.dumps(region)))
        seam = _ReplySeam(small_grid)
        piped = seam.dumps(region)
        assert len(piped) == len(seam.dumps(fresh))
        copy = seam.loads(piped)
        assert copy == region and "_bitmap" not in vars(copy)
        assert copy.to_bitmap().words == bitmap.words
        # a derived region encodes its own cells
        smaller, removed = region.subtract(codes_of_cells([chosen[0]]))
        assert cells_of_codes(removed) == [chosen[0]]
        assert smaller.to_bitmap().words == SafeRegion.of(
            small_grid, chosen[1:]
        ).to_bitmap().words


    def test_intersection_needs_one_grid_not_just_one_resolution(self, small_grid):
        region = SafeRegion.of(small_grid, [(1, 1), (2, 2)])
        # an equal grid built elsewhere (a recovered or a client-side one) will do
        twin = Grid(small_grid.n, Rect(0, 0, 6000, 6000))
        merged = region.intersected_with(SafeRegion.of(twin, [(2, 2), (3, 3)]))
        assert merged == SafeRegion.of(small_grid, [(2, 2)])
        # the same 30 x 30 cells laid over another stretch of space will not
        shifted = Grid(small_grid.n, Rect(3000, 0, 9000, 6000))
        with pytest.raises(ValueError, match="different grids"):
            region.intersected_with(SafeRegion.of(shifted, [(2, 2)]))
        with pytest.raises(ValueError, match="different grids"):
            region.intersected_with(SafeRegion.of(Grid(31, small_grid.space), [(2, 2)]))


class TestImpactFromSafe:
    def test_direct_dilation_matches_brute_force(self, small_grid):
        safe = SafeRegion.of(small_grid, [(10, 10), (11, 10), (10, 11)])
        impact = impact_from_safe(safe, RADIUS)
        for cell in small_grid.all_cells():
            expected = any(
                small_grid.min_distance_cell_cell(cell, member) < RADIUS
                for member in safe.iter_cells()
            )
            assert impact.covers_cell(cell) == expected

    def test_complement_dilation_matches_direct(self, small_grid):
        """GM path: dilating a complement region must equal dilating the
        materialised cell set."""
        rng = random.Random(3)
        excluded = {(rng.randrange(30), rng.randrange(30)) for _ in range(250)}
        safe_complement = SafeRegion.of(small_grid, excluded, complement=True)
        safe_direct = SafeRegion.of(
            small_grid,
            [c for c in small_grid.all_cells() if c not in excluded],
        )
        impact_a = impact_from_safe(safe_complement, RADIUS)
        impact_b = impact_from_safe(safe_direct, RADIUS)
        for cell in small_grid.all_cells():
            assert impact_a.covers_cell(cell) == impact_b.covers_cell(cell)

    def test_lemma2_safe_subset_of_impact(self, small_grid):
        safe = SafeRegion.of(small_grid, [(5, 5), (5, 6)])
        impact = impact_from_safe(safe, RADIUS)
        for cell in safe.iter_cells():
            assert impact.covers_cell(cell)

    def test_lemma3_monotone_in_safe_region(self, small_grid):
        smaller = SafeRegion.of(small_grid, [(5, 5)])
        larger = SafeRegion.of(small_grid, [(5, 5), (6, 5), (7, 5)])
        impact_small = impact_from_safe(smaller, RADIUS)
        impact_large = impact_from_safe(larger, RADIUS)
        for cell in impact_small.iter_cells():
            assert impact_large.covers_cell(cell)


class TestConstructedRegionLemmas:
    """Lemmas 1 and 4 on regions produced by an actual construction."""

    def _construct(self, small_grid, events, at=Point(3000, 3000)):
        field = StaticMatchingField(small_grid, events, RADIUS)
        request = ConstructionRequest(
            location=at,
            velocity=Point(40, 10),
            matching_field=field,
            stats=SystemStats(event_rate=1.0, total_events=200),
        )
        return IGM().construct(request)

    def test_lemma1_notification_circle_inside_impact(self, small_grid):
        rng = random.Random(9)
        events = [Point(rng.uniform(0, 6000), rng.uniform(0, 6000)) for _ in range(12)]
        # the subscriber stands at the first lattice point (a cell centre,
        # row-major) whose cell the events leave safe
        field = StaticMatchingField(small_grid, events, RADIUS)
        at = next(
            small_grid.cell_center(cell)
            for cell in small_grid.all_cells()
            if field.is_cell_safe(cell)
        )
        pair = self._construct(small_grid, events, at)
        assert not pair.safe.is_empty()
        assert pair.safe.contains_point(at)
        # Lemma 1: while the subscriber is inside R, the circle cells are in I.
        for cell in small_grid.cells_intersecting_circle(
            make_subscription(1, RADIUS).notification_region(at)
        ):
            assert pair.impact.covers_cell(cell)

    def test_lemma4_no_matching_event_strictly_inside_impact(self, small_grid):
        """Matching events may touch boundary impact *cells* (the grid
        over-approximates), but never lie within the true impact region:
        every matching event is > r away from every safe-region point."""
        rng = random.Random(10)
        events = [Point(rng.uniform(0, 6000), rng.uniform(0, 6000)) for _ in range(12)]
        pair = self._construct(small_grid, events)
        for event in events:
            for cell in pair.safe.iter_cells():
                assert small_grid.cell_rect(cell).min_distance_to_point(event) > RADIUS
