"""BEQ-Tree specifics: Algorithm 2 internals, tree maintenance (Appendix C),
the spatial-interval bounds of Figure 5, and the on-demand matching mode."""

from __future__ import annotations

import math
import random

import pytest

from repro.expressions import BooleanExpression, Event, Operator, Predicate, Subscription
from repro.geometry import Circle, Point, Rect
from repro.index import BEQTree, circle_rect_boundary_intersections
from repro.index.beq_tree import LeafCell, SpatialList

from conftest import random_events

SPACE = Rect(0, 0, 10_000, 10_000)


class TestBoundaryIntersections:
    def test_circle_crossing_one_edge(self):
        circle = Circle(Point(-3, 5), 5.0)
        rect = Rect(0, 0, 10, 10)
        points = circle_rect_boundary_intersections(circle, rect)
        assert len(points) == 2
        for p in points:
            assert math.isclose(circle.center.distance_to(p), 5.0)
            assert p.x == 0.0

    def test_disjoint_circle_no_intersections(self):
        circle = Circle(Point(-100, -100), 5.0)
        assert circle_rect_boundary_intersections(circle, Rect(0, 0, 10, 10)) == []

    def test_circle_inside_rect_no_intersections(self):
        circle = Circle(Point(5, 5), 1.0)
        assert circle_rect_boundary_intersections(circle, Rect(0, 0, 10, 10)) == []

    def test_intersections_lie_on_circle_and_rect_boundary(self):
        circle = Circle(Point(12, 5), 6.0)
        rect = Rect(0, 0, 10, 10)
        for p in circle_rect_boundary_intersections(circle, rect):
            assert math.isclose(circle.center.distance_to(p), 6.0, abs_tol=1e-9)
            on_edge = (
                math.isclose(p.x, 0) or math.isclose(p.x, 10)
                or math.isclose(p.y, 0) or math.isclose(p.y, 10)
            )
            assert on_edge and rect.contains_point(p)


class TestTreeStructure:
    def test_split_on_overflow(self):
        tree = BEQTree(SPACE, emax=4)
        events = random_events(random.Random(0), SPACE, 40)
        tree.insert_all(events)
        assert tree.depth() > 1
        for leaf in tree.leaves():
            assert len(leaf) <= 4 or tree.depth() >= tree.max_depth

    def test_leaves_partition_events(self):
        tree = BEQTree(SPACE, emax=8)
        events = random_events(random.Random(1), SPACE, 100)
        tree.insert_all(events)
        seen = [e for leaf in tree.leaves() for e in leaf.events]
        assert sorted(seen) == sorted(range(100))

    def test_merge_on_empty_siblings(self):
        tree = BEQTree(SPACE, emax=2)
        events = random_events(random.Random(2), SPACE, 30)
        tree.insert_all(events)
        assert tree.depth() > 1
        for event in events:
            tree.delete(event)
        assert tree.depth() == 1
        assert len(tree) == 0

    def test_out_of_bounds_insert_rejected(self):
        tree = BEQTree(SPACE, emax=4)
        with pytest.raises(ValueError):
            tree.insert(Event(1, {"a": 1}, Point(-5, 0)))

    def test_a_split_leaves_each_child_as_adding_its_events_would(self):
        # A split hands the full leaf's postings out in bulk; every child
        # must hold the lists and spatial order of a cell fed its events
        # one by one.  Aliased values (1 / True / 1.0), NaN, shared
        # locations and deletes between the splits all take part.
        rng = random.Random(11)
        nan = float("nan")
        corners = [Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(40)]
        tree = BEQTree(SPACE, emax=8)
        live = []
        for event_id in range(300):
            attributes = {
                f"a{rng.randrange(4)}": rng.choice([1, True, 1.0, 2, 2.5, "x", nan])
                for _ in range(rng.randint(1, 4))
            }
            event = Event(event_id, attributes, rng.choice(corners))
            tree.insert(event)
            live.append(event)
            if rng.random() < 0.3:
                tree.delete(live.pop(rng.randrange(len(live))))
        assert tree.depth() > 2
        for leaf in tree.leaves():
            fresh = LeafCell(leaf.cell_id, leaf.boundary)
            for event in leaf.events.values():
                fresh.add(event)
            assert {a: list(lst) for a, lst in leaf.lists.lists.items()} == {
                a: list(lst) for a, lst in fresh.lists.lists.items()
            }
            assert list(leaf.spatial) == list(fresh.spatial)

    def test_a_batch_leaves_the_tree_as_one_by_one_inserts_would(self):
        # Events enter in the caller's order, batched or not.  Events share
        # locations, and the second batch splits the root mid-way.
        rng = random.Random(23)
        spots = [Point(rng.uniform(0, 10_000), rng.uniform(0, 10_000)) for _ in range(20)]
        events = [
            Event(
                event_id,
                {f"a{rng.randrange(3)}": rng.choice([1, 2, "x"]) for _ in range(3)},
                rng.choice(spots),
            )
            for event_id in range(60)
        ]

        def layout(tree):
            return [
                (
                    leaf.cell_id,
                    leaf.boundary,
                    list(leaf.events),
                    [(a, list(lst)) for a, lst in leaf.lists.lists.items()],
                    list(leaf.spatial),
                )
                for leaf in tree.leaves()
            ]

        one_by_one = BEQTree(SPACE, emax=8)
        for event in events:
            one_by_one.insert(event)
        batched = BEQTree(SPACE, emax=8)
        batched.insert_batch(events[:6])
        assert batched.depth() == 1
        batched.insert_batch(events[6:])
        assert batched.depth() > 2
        assert layout(batched) == layout(one_by_one)

    def test_max_depth_bounds_colocation(self):
        tree = BEQTree(SPACE, emax=2, max_depth=5)
        # 20 events at the same location would split forever without the cap.
        for event_id in range(20):
            tree.insert(Event(event_id, {"a": 1}, Point(123.0, 456.0)))
        assert tree.depth() <= 5
        assert len(tree) == 20


class TestDeleteUsesTheStoredEvent:
    def test_a_copy_with_other_attributes_leaves_no_ghost_tuples(self):
        # delete() is handed a same-id, same-location copy whose tuples
        # differ: the stored event's tuples must go, not the copy's.
        tree = BEQTree(SPACE, emax=4)
        at = Point(100.0, 200.0)
        tree.insert(Event(1, {"a": 1}, at))
        tree.insert(Event(2, {"a": 1}, Point(300.0, 400.0)))
        tree.delete(Event(1, {"b": 2}, at))
        expr = BooleanExpression([Predicate("a", Operator.EQ, 1)])
        assert [e.event_id for e in tree.be_match(expr)] == [2]
        assert tree.memory_stats()["tuple_entries"] == 1


class TestSpatialList:
    def test_spatial_list_sorted_by_reference_distance(self):
        tree = BEQTree(SPACE, emax=64)
        events = random_events(random.Random(3), SPACE, 50)
        tree.insert_all(events)
        for leaf in tree.leaves():
            values = leaf.spatial.distances
            assert values == sorted(values)
            for distance, event_id in leaf.spatial:
                actual = leaf.reference.distance_to(leaf.events[event_id].location)
                assert math.isclose(distance, actual)

    def test_ids_within_a_closed_interval(self):
        spatial = SpatialList()
        for event_id, distance in enumerate((5.0, 1.0, 4.0, 2.0, 3.0)):
            spatial.insert(distance, event_id)
        assert spatial.ids_within(2.0, 4.0) == [3, 4, 2]

    def test_ids_from_a_distance_on(self):
        spatial = SpatialList()
        for event_id, distance in enumerate((1.0, 2.0, 3.0)):
            spatial.insert(distance, event_id)
        assert spatial.ids_within(2.0, math.inf) == [1, 2]

    def test_equal_distances_keep_insertion_order_and_delete_by_id(self):
        spatial = SpatialList()
        for event_id in (7, 3, 9):
            spatial.insert(1.5, event_id)
        spatial.delete(1.5, 3)
        assert list(spatial) == [(1.5, 7), (1.5, 9)]
        with pytest.raises(ValueError):
            spatial.delete(1.5, 3)


class TestOnDemandMatching:
    def test_be_match_in_rect_covers_rect_events(self):
        tree = BEQTree(SPACE, emax=8)
        events = random_events(random.Random(4), SPACE, 200)
        tree.insert_all(events)
        expr = BooleanExpression([Predicate("a1", Operator.LE, 5)])
        rect = Rect(2000, 2000, 6000, 6000)
        got_ids = {e.event_id for e in tree.be_match_in_rect(expr, rect)}
        # every be-matching event inside the rect must be found (the leaf
        # granularity may also return matches just outside the rect)
        for event in events:
            if expr.matches(event.attributes) and rect.contains_point(event.location):
                assert event.event_id in got_ids

    def test_be_match_full_space(self):
        tree = BEQTree(SPACE, emax=8)
        events = random_events(random.Random(5), SPACE, 200)
        tree.insert_all(events)
        expr = BooleanExpression([Predicate("a2", Operator.GE, 3)])
        got = {e.event_id for e in tree.be_match(expr)}
        expected = {e.event_id for e in events if expr.matches(e.attributes)}
        assert got == expected

    def test_be_candidates_superset_of_matches(self):
        tree = BEQTree(SPACE, emax=8)
        events = random_events(random.Random(6), SPACE, 200)
        tree.insert_all(events)
        sub = Subscription(
            1, BooleanExpression([Predicate("a1", Operator.LE, 7)]), radius=2000
        )
        at = Point(5000, 5000)
        matches = {e.event_id for e in tree.match(sub, at)}
        candidates = {e.event_id for e in tree.be_candidates(sub, at)}
        assert matches <= candidates


class TestUpdateCostShape:
    def test_deeper_trees_make_insertion_slower_not_wrong(self):
        """Fig 11 shape precondition: the tree stays correct through heavy
        insert/delete churn."""
        tree = BEQTree(SPACE, emax=4)
        rng = random.Random(7)
        alive = {}
        next_id = 0
        for round_ in range(10):
            batch = random_events(rng, SPACE, 30)
            for event in batch:
                renumbered = Event(next_id, dict(event.attributes), event.location)
                tree.insert(renumbered)
                alive[next_id] = renumbered
                next_id += 1
            for event_id in list(alive)[:10]:
                tree.delete(alive.pop(event_id))
        assert len(tree) == len(alive)
        expr = BooleanExpression([Predicate("a0", Operator.GE, 0)])
        got = {e.event_id for e in tree.be_match(expr)}
        expected = {i for i, e in alive.items() if expr.matches(e.attributes)}
        assert got == expected


class TestMemoryStats:
    def test_counts_are_consistent(self):
        tree = BEQTree(SPACE, emax=8)
        events = random_events(random.Random(8), SPACE, 150)
        tree.insert_all(events)
        stats = tree.memory_stats()
        assert stats["events"] == 150
        assert stats["spatial_entries"] == 150  # one iDistance entry per event
        # one tuple entry per attribute-value pair (Appendix C: O(|T|))
        assert stats["tuple_entries"] == sum(len(e) for e in events)
        assert stats["leaves"] >= 1
        assert stats["depth"] == tree.depth()

    def test_postings_count_distinct_values_per_leaf_and_attribute(self):
        tree = BEQTree(SPACE, emax=64)
        for event_id, attributes in enumerate(
            ({"a": 1, "b": 1}, {"a": 1}, {"a": 2}, {"a": True, "b": 1.0})
        ):
            tree.insert(Event(event_id, attributes, Point(10.0 * event_id, 5.0)))
        stats = tree.memory_stats()
        # a: {1, True} share one key, {2}; b: {1, 1.0} share one key
        assert (stats["tuple_entries"], stats["postings"]) == (6, 3)

    def test_stats_shrink_after_deletion(self):
        tree = BEQTree(SPACE, emax=8)
        events = random_events(random.Random(9), SPACE, 100)
        tree.insert_all(events)
        before = tree.memory_stats()
        for event in events[:50]:
            tree.delete(event)
        after = tree.memory_stats()
        assert after["events"] == 50
        assert after["tuple_entries"] < before["tuple_entries"]
        assert after["spatial_entries"] == 50
