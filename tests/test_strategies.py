"""The four safe-region strategies: safety invariants, Algorithm 1
behaviours, Example 2's incremental impact expansion, and the cost-model
responses the evaluation relies on."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ConstructionRequest,
    GridMethod,
    IDGM,
    IGM,
    StaticMatchingField,
    SystemStats,
    VoronoiMethod,
)
from repro.geometry import Grid, Point, Rect

SPACE = Rect(0, 0, 10_000, 10_000)
RADIUS = 800.0


def request_for(grid, events, *, at=Point(5000, 5000), velocity=Point(40, 15),
                rate=2.0, total=500, radius=RADIUS):
    return ConstructionRequest(
        location=at,
        velocity=velocity,
        matching_field=StaticMatchingField(grid, events, radius),
        stats=SystemStats(event_rate=rate, total_events=total),
    )


@pytest.fixture
def grid():
    return Grid(50, SPACE)


@pytest.fixture
def events():
    rng = random.Random(13)
    return [Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(25)]


ALL_STRATEGIES = [IGM(), IDGM(), VoronoiMethod(), GridMethod()]


class TestSafetyInvariants:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
    def test_every_safe_cell_is_truly_safe(self, grid, events, strategy):
        pair = strategy.construct(request_for(grid, events))
        for cell in pair.safe.iter_cells():
            rect = grid.cell_rect(cell)
            for event in events:
                assert rect.min_distance_to_point(event) > RADIUS

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
    def test_safe_region_inside_impact_region(self, grid, events, strategy):
        pair = strategy.construct(request_for(grid, events))
        for cell in pair.safe.iter_cells():
            assert pair.impact.covers_cell(cell)

    @pytest.mark.parametrize("strategy", [IGM(), IDGM(), VoronoiMethod()], ids=lambda s: s.name)
    def test_impact_is_exact_dilation(self, grid, events, strategy):
        pair = strategy.construct(request_for(grid, events))
        expected = grid.dilate(set(pair.safe.iter_cells()), RADIUS)
        assert set(pair.impact.iter_cells()) == expected

    @pytest.mark.parametrize("strategy", [IGM(), IDGM(), VoronoiMethod()], ids=lambda s: s.name)
    def test_region_contains_subscriber_when_nonempty(self, grid, events, strategy):
        request = request_for(grid, events)
        pair = strategy.construct(request)
        if not pair.safe.is_empty():
            assert pair.safe.contains_point(request.location)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
    def test_unsafe_start_yields_region_excluding_subscriber(self, grid, strategy):
        at = Point(5000, 5000)
        events = [Point(5000 + RADIUS / 2, 5000)]  # the start cell is unsafe
        pair = strategy.construct(request_for(grid, events, at=at))
        assert not pair.safe.contains_point(at)


class TestIGMBehaviour:
    def test_no_events_fills_reachable_space(self, grid):
        pair = IGM().construct(request_for(grid, []))
        assert pair.safe.area_cells() == grid.n * grid.n

    def test_max_cells_cap_respected(self, grid):
        pair = IGM(max_cells=40).construct(request_for(grid, []))
        assert pair.safe.area_cells() == 40

    def test_higher_event_rate_shrinks_region(self, grid, events):
        sizes = [
            IGM().construct(request_for(grid, events, rate=rate)).safe.area_cells()
            for rate in (0.5, 4.0, 32.0)
        ]
        assert sizes[0] >= sizes[1] >= sizes[2]
        assert sizes[0] > sizes[2]

    def test_higher_speed_grows_region(self, grid, events):
        slow = IGM().construct(
            request_for(grid, events, velocity=Point(10, 0))
        ).safe.area_cells()
        fast = IGM().construct(
            request_for(grid, events, velocity=Point(200, 0))
        ).safe.area_cells()
        assert fast >= slow

    def test_beta_monotone_region_growth(self, grid, events):
        sizes = [
            IGM(beta=beta).construct(request_for(grid, events, rate=8.0)).safe.area_cells()
            for beta in (0.01, 1.0, 100.0)
        ]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_alpha_zero_idgm_equals_igm(self, grid, events):
        request = request_for(grid, events, rate=8.0)
        igm_pair = IGM().construct(request)
        idgm_pair = IDGM(alpha=0.0).construct(request)
        assert igm_pair.safe == idgm_pair.safe

    def test_idgm_elongates_along_direction(self, grid, events):
        """With full direction weight the region reaches farther along the
        motion vector than against it."""
        at = Point(5000, 5000)
        request = request_for(grid, events, at=at, velocity=Point(100, 0), rate=16.0, total=200)
        pair = IDGM(alpha=0.9).construct(request)
        if pair.safe.is_empty():
            pytest.skip("degenerate world")
        centers = [grid.cell_center(c) for c in pair.safe.iter_cells()]
        ahead = max((c.x - at.x) for c in centers)
        behind = max((at.x - c.x) for c in centers)
        assert ahead >= behind

    def test_alpha_range_validated(self):
        with pytest.raises(ValueError):
            IDGM(alpha=1.5)
        with pytest.raises(ValueError):
            IGM(beta=0.0)

    def test_region_connected(self, grid, events):
        pair = IGM().construct(request_for(grid, events, rate=8.0))
        cells = set(pair.safe.iter_cells())
        if not cells:
            pytest.skip("empty region")
        start = next(iter(cells))
        seen = {start}
        stack = [start]
        while stack:
            i, j = stack.pop()
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    neighbor = (i + di, j + dj)
                    if neighbor in cells and neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
        assert seen == cells


class TestVM:
    def test_region_confined_to_voronoi_cell_of_nearest(self, grid, events):
        request = request_for(grid, events)
        pair = VoronoiMethod().construct(request)
        nearest = min(events, key=request.location.distance_to)
        for cell in pair.safe.iter_cells():
            center = grid.cell_center(cell)
            if cell == grid.cell_of(request.location):
                continue
            best = min(center.distance_to(e) for e in events)
            assert center.distance_to(nearest) <= best + 1e-6

    def test_no_events_degenerates_to_whole_space(self, grid):
        pair = VoronoiMethod().construct(request_for(grid, []))
        assert pair.safe.area_cells() == grid.n * grid.n

    def test_max_cells_cap(self, grid, events):
        pair = VoronoiMethod(max_cells=10).construct(request_for(grid, events))
        assert pair.safe.area_cells() <= 10


class TestGM:
    def test_region_is_every_safe_cell(self, grid, events):
        pair = GridMethod().construct(request_for(grid, events))
        for cell in grid.all_cells():
            rect = grid.cell_rect(cell)
            truly_safe = all(rect.min_distance_to_point(e) > RADIUS for e in events)
            assert pair.safe.covers_cell(cell) == truly_safe

    def test_gm_is_location_independent(self, grid, events):
        a = GridMethod().construct(request_for(grid, events, at=Point(1000, 1000)))
        b = GridMethod().construct(request_for(grid, events, at=Point(9000, 9000)))
        assert set(a.safe.iter_cells()) == set(b.safe.iter_cells())

    def test_gm_largest_region(self, grid, events):
        request = request_for(grid, events)
        gm_area = GridMethod().construct(request).safe.area_cells()
        for strategy in (IGM(), IDGM(), VoronoiMethod()):
            assert strategy.construct(request).safe.area_cells() <= gm_area


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_property_safety_across_random_worlds(data):
    """Whatever the world, no strategy ever marks an unsafe cell safe."""
    rng = random.Random(data.draw(st.integers(0, 9999)))
    grid = Grid(30, SPACE)
    events = [
        Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000))
        for _ in range(data.draw(st.integers(0, 20)))
    ]
    request = request_for(
        grid,
        events,
        at=Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)),
        rate=data.draw(st.floats(0.0, 20.0)),
        radius=data.draw(st.floats(200.0, 2000.0)),
    )
    strategy = data.draw(st.sampled_from(ALL_STRATEGIES))
    pair = strategy.construct(request)
    for cell in pair.safe.iter_cells():
        rect = grid.cell_rect(cell)
        for event in events:
            assert rect.min_distance_to_point(event) > request.radius
