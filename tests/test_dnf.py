"""DNF (disjunction) extension: expression semantics and full-stack support
across every index and the live server."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IGM, LazyBEQField, StaticMatchingField
from repro.expressions import (
    BooleanExpression,
    DnfExpression,
    Event,
    Operator,
    Predicate,
    Subscription,
    clauses_of,
)
from repro.geometry import Grid, Point, Rect
from repro.index import BEQTree, KIndex, OpIndex, QuadTree, SubscriptionIndex
from repro.system import ServerConfig, ElapsServer

from conftest import random_events

SPACE = Rect(0, 0, 10_000, 10_000)


def clause(*predicates):
    return BooleanExpression(predicates)


def make_dnf():
    return DnfExpression([
        clause(Predicate("a1", Operator.LE, 3), Predicate("a2", Operator.GE, 5)),
        clause(Predicate("a3", Operator.EQ, 7)),
    ])


class TestDnfExpression:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DnfExpression([])

    def test_or_semantics(self):
        dnf = make_dnf()
        assert dnf.matches({"a3": 7})  # second clause
        assert dnf.matches({"a1": 1, "a2": 9})  # first clause
        assert not dnf.matches({"a1": 1, "a2": 1})
        assert not dnf.matches({"a3": 6})

    def test_size_counts_all_predicates(self):
        assert len(make_dnf()) == 3

    def test_attributes_union(self):
        assert make_dnf().attributes == frozenset({"a1", "a2", "a3"})

    def test_str(self):
        rendered = str(make_dnf())
        assert " OR " in rendered and "(" in rendered

    def test_clauses_of_polymorphism(self):
        conjunction = clause(Predicate("a", Operator.EQ, 1))
        assert clauses_of(conjunction) == (conjunction,)
        assert len(clauses_of(make_dnf())) == 2
        with pytest.raises(TypeError):
            clauses_of("not an expression")

    def test_single_clause_dnf_equals_conjunction(self):
        conjunction = clause(
            Predicate("a1", Operator.LE, 3), Predicate("a2", Operator.GE, 5)
        )
        dnf = DnfExpression([conjunction])
        for attrs in ({"a1": 1, "a2": 9}, {"a1": 9, "a2": 9}, {"a2": 9},):
            assert dnf.matches(attrs) == conjunction.matches(attrs)


class TestDnfEventIndexes:
    @pytest.fixture(scope="class")
    def world(self):
        rng = random.Random(31)
        events = random_events(rng, SPACE, 350)
        quadtree = QuadTree(SPACE, max_per_leaf=16)
        kindex = KIndex()
        opindex = OpIndex()
        beq = BEQTree(SPACE, emax=16)
        for index in (quadtree, kindex, beq):
            index.insert_all(events)
        opindex.insert_all(events)
        return events, {"quadtree": quadtree, "kindex": kindex,
                        "opindex": opindex, "beq": beq}

    def test_all_indexes_agree_on_dnf(self, world):
        events, indexes = world
        subscription = Subscription(1, make_dnf(), radius=3_500.0)
        at = Point(5000, 5000)
        expected = sorted(
            e.event_id for e in events if subscription.matches(e, at)
        )
        assert expected, "workload must exercise the DNF path"
        for name, index in indexes.items():
            got = sorted(e.event_id for e in index.match(subscription, at))
            assert got == expected, name

    def test_be_match_union_no_duplicates(self, world):
        events, indexes = world
        # overlapping clauses: both can match the same event
        dnf = DnfExpression([
            clause(Predicate("a1", Operator.LE, 6)),
            clause(Predicate("a1", Operator.LE, 3)),
        ])
        subscription = Subscription(1, dnf, radius=3_000.0)
        for name in ("kindex", "opindex", "beq"):
            got = [e.event_id for e in indexes[name].be_match(subscription.expression)
                   ] if name == "beq" else [
                e.event_id for e in indexes[name].be_match(subscription)
            ]
            assert len(got) == len(set(got)), name


class TestDnfSubscriptionIndex:
    def test_match_any_clause(self):
        index = SubscriptionIndex()
        index.insert(Subscription(1, make_dnf(), 1000.0))
        assert index.match_event(Event(1, {"a3": 7}, Point(0, 0)))
        assert index.match_event(Event(2, {"a1": 2, "a2": 8}, Point(0, 0)))
        assert not index.match_event(Event(3, {"a1": 2, "a2": 2}, Point(0, 0)))

    def test_reported_once_when_both_clauses_match(self):
        index = SubscriptionIndex()
        dnf = DnfExpression([
            clause(Predicate("a", Operator.GE, 1)),
            clause(Predicate("a", Operator.GE, 0)),
        ])
        index.insert(Subscription(1, dnf, 1000.0))
        matched = index.match_event(Event(1, {"a": 5}, Point(0, 0)))
        assert [s.sub_id for s in matched] == [1]

    def test_delete_removes_all_clauses(self):
        index = SubscriptionIndex()
        sub = Subscription(1, make_dnf(), 1000.0)
        index.insert(sub)
        index.delete(sub)
        assert len(index) == 0
        assert not index.match_event(Event(1, {"a3": 7}, Point(0, 0)))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_dnf_match_agrees_with_brute_force(self, data):
        rng = random.Random(data.draw(st.integers(0, 9999)))
        index = SubscriptionIndex()
        subs = []
        for sub_id in range(data.draw(st.integers(1, 10))):
            clauses = []
            for _ in range(rng.randint(1, 3)):
                predicates = [
                    Predicate(f"a{rng.randint(0, 3)}", Operator.GE, rng.randint(0, 9))
                    for _ in range(rng.randint(1, 2))
                ]
                clauses.append(BooleanExpression(predicates))
            sub = Subscription(sub_id, DnfExpression(clauses), 1000.0)
            subs.append(sub)
            index.insert(sub)
        for _ in range(8):
            attrs = {f"a{k}": rng.randint(0, 9) for k in range(rng.randint(1, 4))}
            event = Event(0, attrs, Point(0, 0))
            expected = {s.sub_id for s in subs if s.be_matches(event)}
            got = {s.sub_id for s in index.match_event(event)}
            assert got == expected


class TestDnfInTheServer:
    def test_end_to_end_dnf_subscription(self):
        grid = Grid(40, SPACE)
        server = ElapsServer(
            grid, IGM(max_cells=400),
        ServerConfig(initial_rate=1.0), event_index=BEQTree(SPACE, emax=32))
        dnf = DnfExpression([
            clause(Predicate("topic", Operator.EQ, "sale")),
            clause(Predicate("topic", Operator.EQ, "concert"),
                   Predicate("price", Operator.LT, 50)),
        ])
        sub = Subscription(1, dnf, radius=1_500.0)
        server.bootstrap([
            Event(1, {"topic": "concert", "price": 30}, Point(5_400, 5_000)),
            Event(2, {"topic": "concert", "price": 90}, Point(5_300, 5_000)),
        ])
        delivered, _ = server.subscribe(sub, Point(5_000, 5_000), Point(40, 0))
        assert [n.event.event_id for n in delivered] == [1]
        # a sale arriving nearby matches through the other clause
        notifications = server.publish(
            Event(3, {"topic": "sale"}, Point(5_200, 5_100)), now=1
        )
        assert [n.event.event_id for n in notifications] == [3]

    def test_safe_region_respects_union_of_clauses(self):
        grid = Grid(40, SPACE)
        tree = BEQTree(SPACE, emax=32)
        events = random_events(random.Random(5), SPACE, 200)
        tree.insert_all(events)
        dnf = make_dnf()
        field = LazyBEQField(grid, tree, dnf, 900.0)
        matching = [e.location for e in events if dnf.matches(e.attributes)]
        static = StaticMatchingField(grid, matching, 900.0)
        for cell in list(grid.all_cells())[::9]:
            assert field.is_cell_safe(cell) == static.is_cell_safe(cell)
