"""Matching-event fields: the static and lazy (BEQ-backed) implementations
must agree on safety, counts and enumeration; the lazy field must not scan
the whole tree for local constructions."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    ConstructionRequest,
    IGM,
    LazyBEQField,
    StaticMatchingField,
    SystemStats,
)
from repro.expressions import BooleanExpression, Event, Operator, Predicate
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree
from repro.testing import ScalarIGM

from conftest import random_events

SPACE = Rect(0, 0, 10_000, 10_000)
RADIUS = 700.0


@pytest.fixture
def world():
    rng = random.Random(21)
    grid = Grid(40, SPACE)
    events = random_events(rng, SPACE, 300)
    tree = BEQTree(SPACE, emax=16)
    tree.insert_all(events)
    expression = BooleanExpression([Predicate("a1", Operator.LE, 6)])
    matching = [e.location for e in events if expression.matches(e.attributes)]
    return grid, tree, expression, matching


class TestStaticField:
    def test_counts(self, world):
        grid, _, _, matching = world
        field = StaticMatchingField(grid, matching, RADIUS)
        for cell in grid.all_cells():
            expected = sum(1 for p in matching if grid.cell_of(p) == cell)
            assert field.count_in_cell(cell) == expected

    def test_safety_matches_brute_force(self, world):
        grid, _, _, matching = world
        field = StaticMatchingField(grid, matching, RADIUS)
        for cell in list(grid.all_cells())[::17]:
            rect = grid.cell_rect(cell)
            expected = all(rect.min_distance_to_point(p) > RADIUS for p in matching)
            assert field.is_cell_safe(cell) == expected

    def test_unsafe_cells_complement_of_safe(self, world):
        grid, _, _, matching = world
        field = StaticMatchingField(grid, matching, RADIUS)
        unsafe = field.unsafe_cells()
        for cell in list(grid.all_cells())[::13]:
            assert (cell in unsafe) == (not field.is_cell_safe(cell))

    def test_all_points(self, world):
        grid, _, _, matching = world
        field = StaticMatchingField(grid, matching, RADIUS)
        assert sorted(map(repr, field.all_points())) == sorted(map(repr, matching))


class TestLazyField:
    def test_agrees_with_static_on_safety_and_counts(self, world):
        grid, tree, expression, matching = world
        static = StaticMatchingField(grid, matching, RADIUS)
        lazy = LazyBEQField(grid, tree, expression, RADIUS)
        for cell in list(grid.all_cells())[::11]:
            assert lazy.is_cell_safe(cell) == static.is_cell_safe(cell)
            assert lazy.count_in_cell(cell) == static.count_in_cell(cell)

    def test_all_points_equals_static(self, world):
        grid, tree, expression, matching = world
        lazy = LazyBEQField(grid, tree, expression, RADIUS)
        assert sorted(map(repr, lazy.all_points())) == sorted(
            map(repr, StaticMatchingField(grid, matching, RADIUS).all_points())
        )

    def test_excluded_ids_are_invisible(self, world):
        grid, tree, expression, _ = world
        all_ids = {e.event_id for e in tree.be_match(expression)}
        excluded = set(list(all_ids)[: len(all_ids) // 2])
        lazy = LazyBEQField(grid, tree, expression, RADIUS, excluded_ids=excluded)
        assert len(lazy.all_points()) == len(all_ids) - len(excluded)

    def test_local_queries_do_not_scan_everything(self, world):
        grid, tree, expression, _ = world
        lazy = LazyBEQField(grid, tree, expression, RADIUS)
        lazy.is_cell_safe((20, 20))
        assert lazy.events_scanned < len(tree)

    def test_leaves_scanned_at_most_once(self, world):
        grid, tree, expression, _ = world
        lazy = LazyBEQField(grid, tree, expression, RADIUS)
        for cell in [(20, 20), (21, 20), (20, 21), (22, 22)]:
            lazy.is_cell_safe(cell)
        total_leaves = sum(1 for _ in tree.leaves())
        assert lazy.leaves_scanned <= total_leaves


class TestCoveredWindow:
    """``covered_window`` is exactly the set of cells whose neighbourhood
    query grows no coverage — the frontier skips the field for those."""

    @pytest.mark.parametrize("seed", range(6))
    def test_the_window_is_where_a_query_covers_nothing(self, world, seed):
        grid, tree, expression, _ = world
        rng = random.Random(seed)
        radius = rng.choice([0.0, 300.0, 1_200.0])
        field = LazyBEQField(grid, tree, expression, radius)
        assert field.covered_window() == (0, 0, -1, -1)  # nothing covered yet
        for _ in range(4):
            field.ensure_cell_neighbourhood((rng.randrange(grid.n), rng.randrange(grid.n)))
            i_min, j_min, i_max, j_max = field.covered_window()
            for cell in grid.all_cells():
                probe = LazyBEQField(grid, tree, expression, radius)
                probe._covered = field._covered
                probe.ensure_cell_neighbourhood(cell)
                inside = i_min <= cell[0] <= i_max and j_min <= cell[1] <= j_max
                assert (probe._covered == field._covered) == inside, cell

    def test_a_materialised_field_covers_the_grid(self, world):
        grid, _, _, matching = world
        last = grid.n - 1
        assert StaticMatchingField(grid, matching, RADIUS).covered_window() == (0, 0, last, last)


class TestConstructionEquivalence:
    def test_igm_identical_under_both_fields(self, world):
        grid, tree, expression, matching = world
        stats = SystemStats(event_rate=3.0, total_events=300)
        results = []
        for field in (
            StaticMatchingField(grid, matching, RADIUS),
            LazyBEQField(grid, tree, expression, RADIUS),
        ):
            request = ConstructionRequest(
                location=Point(5000, 5000),
                velocity=Point(50, 20),
                matching_field=field,
                stats=stats,
            )
            results.append(IGM().construct(request))
        assert set(results[0].safe.cells) == set(results[1].safe.cells)
        assert set(results[0].impact.cells) == set(results[1].impact.cells)


class FullWalkField(LazyBEQField):
    """The field as it was before coverage grew by strips: every growth
    re-walks every leaf under the whole new rectangle."""

    def _cover(self, i_min, j_min, i_max, j_max):
        n = self.grid.n
        i_min, j_min = max(i_min, 0), max(j_min, 0)
        i_max, j_max = min(i_max, n - 1), min(j_max, n - 1)
        if self._covered is not None:
            ci_min, cj_min, ci_max, cj_max = self._covered
            if ci_min <= i_min and cj_min <= j_min and i_max <= ci_max and j_max <= cj_max:
                return
            i_min, j_min = min(i_min, ci_min), min(j_min, cj_min)
            i_max, j_max = max(i_max, ci_max), max(j_max, cj_max)
        lo = self.grid.cell_rect((i_min, j_min))
        hi = self.grid.cell_rect((i_max, j_max))
        area = Rect(lo.x_min, lo.y_min, hi.x_max, hi.y_max)
        for leaf in self._tree.leaves_intersecting_rect(area):
            if leaf.cell_id in self._scanned_leaves:
                continue
            self._scanned_leaves.add(leaf.cell_id)
            self.leaves_scanned += 1
            self.events_scanned += len(leaf.events)
            for event in leaf.be_match(self._expression):
                if event.event_id in self._excluded or event.event_id in self._position:
                    continue
                self._admit(event.event_id, event.location)
        self._covered = (i_min, j_min, i_max, j_max)


class TestStripWalk:
    """Growing coverage by strips scans the leaves the full-rectangle
    walk scans — same counters, same events, same regions — on a tree
    that keeps splitting and merging between constructions."""

    @staticmethod
    def observed(field):
        return (
            field.leaves_scanned,
            field.events_scanned,
            field._covered,
            set(field.known_points()),
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_random_expansions_over_a_churning_tree(self, seed):
        rng = random.Random(seed)
        grid = Grid(40, SPACE)
        tree = BEQTree(SPACE, emax=8)
        live = random_events(rng, SPACE, 150)
        tree.insert_all(live)
        next_id = len(live)
        expression = BooleanExpression([Predicate("a1", Operator.LE, 7)])
        stats = SystemStats(event_rate=3.0, total_events=300)
        for _ in range(12):
            # churn: a clustered burst splits leaves, deletions merge them
            centre = Point(rng.uniform(500, 9_500), rng.uniform(500, 9_500))
            for _ in range(rng.randint(0, 40)):
                event = Event(
                    next_id,
                    {"a1": rng.randint(0, 9)},
                    Point(
                        min(max(centre.x + rng.gauss(0, 300), 0), 9_999),
                        min(max(centre.y + rng.gauss(0, 300), 0), 9_999),
                    ),
                )
                next_id += 1
                tree.insert(event)
                live.append(event)
            rng.shuffle(live)
            for _ in range(rng.randint(0, min(30, len(live) - 20))):
                tree.delete(live.pop())
            excluded = {e.event_id for e in rng.sample(live, len(live) // 4)}
            strips = LazyBEQField(grid, tree, expression, RADIUS, excluded_ids=set(excluded))
            full = FullWalkField(grid, tree, expression, RADIUS, excluded_ids=set(excluded))
            # a random walk of queries, the way a frontier wanders
            i, j = rng.randrange(40), rng.randrange(40)
            for _ in range(rng.randint(5, 60)):
                i = min(max(i + rng.randint(-3, 3), 0), 39)
                j = min(max(j + rng.randint(-3, 3), 0), 39)
                query = rng.choice(["safe", "count", "neighbourhood"])
                answers = []
                for field in (strips, full):
                    if query == "safe":
                        answers.append(field.is_cell_safe((i, j)))
                    elif query == "count":
                        answers.append(field.count_in_cell((i, j)))
                    else:
                        answers.append(field.ensure_cell_neighbourhood((i, j)))
                assert answers[0] == answers[1]
                assert self.observed(strips) == self.observed(full)
            # and whole constructions, array core and scalar oracle
            for strategy in (IGM(max_cells=120), ScalarIGM(max_cells=120)):
                location = Point(rng.uniform(0, 9_999), rng.uniform(0, 9_999))
                pairs = []
                for cls in (LazyBEQField, FullWalkField):
                    field = cls(grid, tree, expression, RADIUS, excluded_ids=set(excluded))
                    request = ConstructionRequest(
                        location=location,
                        velocity=Point(50, 20),
                        matching_field=field,
                        stats=stats,
                    )
                    pairs.append((strategy.construct(request), self.observed(field)))
                (strip_pair, strip_seen), (full_pair, full_seen) = pairs
                assert strip_pair == full_pair
                assert strip_seen == full_seen
                for region in ("safe", "impact"):
                    assert (
                        getattr(strip_pair, region).to_bitmap().words
                        == getattr(full_pair, region).to_bitmap().words
                    )
