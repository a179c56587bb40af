"""Cross-index agreement: Quadtree, k-index, OpIndex and BEQ-Tree must all
produce exactly the brute-force result (the paper: "all the approaches
produce the same and complete results")."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.expressions import (
    BooleanExpression,
    DnfExpression,
    Event,
    Operator,
    Predicate,
    Subscription,
)
from repro.geometry import Point, Rect
from repro.index import BEQTree, KIndex, OpIndex, QuadTree, SortedTupleList
from repro.testing.oracle import BruteForceOracle

from conftest import random_events

SPACE = Rect(0, 0, 10_000, 10_000)


def brute_force(events, subscription, at):
    return sorted(e.event_id for e in events if subscription.matches(e, at))


def build_all(events):
    quadtree = QuadTree(SPACE, max_per_leaf=16)
    kindex = KIndex()
    opindex = OpIndex()
    beq = BEQTree(SPACE, emax=16)
    for index in (quadtree, kindex, beq):
        index.insert_all(events)
    opindex.insert_all(events)
    return {"quadtree": quadtree, "kindex": kindex, "opindex": opindex, "beq": beq}


@pytest.fixture(scope="module")
def world():
    rng = random.Random(99)
    events = random_events(rng, SPACE, 400)
    return events, build_all(events)


SUBSCRIPTIONS = [
    Subscription(1, BooleanExpression([Predicate("a1", Operator.LE, 5)]), 2500),
    Subscription(
        2,
        BooleanExpression(
            [Predicate("a1", Operator.LE, 5), Predicate("a2", Operator.GE, 2)]
        ),
        3000,
    ),
    Subscription(
        3,
        BooleanExpression(
            [Predicate("a0", Operator.BETWEEN, (2, 7)), Predicate("a3", Operator.NE, 4)]
        ),
        4000,
    ),
    Subscription(
        4,
        BooleanExpression([Predicate("a2", Operator.IN, frozenset({1, 3, 5}))]),
        1500,
    ),
    Subscription(5, BooleanExpression([Predicate("zz", Operator.EQ, 1)]), 5000),
]


class TestAgreement:
    @pytest.mark.parametrize("sub", SUBSCRIPTIONS, ids=lambda s: f"sub{s.sub_id}")
    @pytest.mark.parametrize("at", [Point(5000, 5000), Point(100, 9000)], ids=["centre", "edge"])
    def test_all_indexes_match_brute_force(self, world, sub, at):
        events, indexes = world
        expected = brute_force(events, sub, at)
        for name, index in indexes.items():
            got = sorted(e.event_id for e in index.match(sub, at))
            assert got == expected, f"{name} diverged for sub {sub.sub_id}"

    def test_sizes_agree(self, world):
        events, indexes = world
        for name, index in indexes.items():
            assert len(index) == len(events), name


DNF_SUBSCRIPTION = Subscription(
    6,
    DnfExpression(
        [
            BooleanExpression([Predicate("a1", Operator.LE, 3)]),
            BooleanExpression(
                [Predicate("a2", Operator.GE, 6), Predicate("a0", Operator.NE, 2)]
            ),
        ]
    ),
    3500,
)


class TestExclude:
    """``match(sub, at, exclude=D)`` is the order-preserving filter of
    ``match(sub, at)`` — on the four indexes and on the oracle."""

    @pytest.mark.parametrize(
        "sub", SUBSCRIPTIONS + [DNF_SUBSCRIPTION], ids=lambda s: f"sub{s.sub_id}"
    )
    def test_exclude_filters_in_place(self, world, sub):
        events, indexes = world
        indexes = dict(indexes, oracle=BruteForceOracle(events))
        rng = random.Random(sub.sub_id)
        at = Point(5000, 5000)
        for name, index in indexes.items():
            full = [e.event_id for e in index.match(sub, at)]
            matched = set(full)
            strangers = {e.event_id for e in events} - matched
            for excluded in (
                set(),
                frozenset(full[::2]),
                set(rng.sample(sorted(matched), len(matched) // 3))
                | set(rng.sample(sorted(strangers), 20)),
                matched,
            ):
                got = [e.event_id for e in index.match(sub, at, exclude=excluded)]
                assert got == [i for i in full if i not in excluded], name
            assert [e.event_id for e in index.match(sub, at, exclude=None)] == full

    def test_leaf_be_match_excludes_before_building_events(self, world):
        events, indexes = world
        expression = DNF_SUBSCRIPTION.expression
        for leaf in indexes["beq"].leaves():
            full = [e.event_id for e in leaf.be_match(expression)]
            excluded = set(full[::2]) | {10**9}
            got = {e.event_id for e in leaf.be_match(expression, excluded)}
            assert got == set(full) - excluded


class TestDeletion:
    def test_delete_half_then_match(self):
        rng = random.Random(5)
        events = random_events(rng, SPACE, 200)
        indexes = build_all(events)
        for event in events[:100]:
            for index in indexes.values():
                index.delete(event)
        sub = SUBSCRIPTIONS[1]
        at = Point(5000, 5000)
        expected = brute_force(events[100:], sub, at)
        for name, index in indexes.items():
            assert len(index) == 100, name
            got = sorted(e.event_id for e in index.match(sub, at))
            assert got == expected, name

    def test_delete_unknown_raises(self):
        indexes = build_all(random_events(random.Random(1), SPACE, 10))
        ghost = Event(999, {"a": 1}, Point(1, 1))
        for name, index in indexes.items():
            with pytest.raises(KeyError):
                index.delete(ghost)

    def test_duplicate_insert_rejected(self):
        events = random_events(random.Random(2), SPACE, 5)
        indexes = build_all(events)
        for name, index in indexes.items():
            if name == "quadtree":
                continue  # purely spatial; duplicates are the caller's business
            with pytest.raises(ValueError):
                index.insert(events[0])


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_property_agreement(data):
    """Randomised workloads: the four indexes always agree with brute force."""
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    events = random_events(rng, SPACE, data.draw(st.integers(1, 120)))
    indexes = build_all(events)
    size = data.draw(st.integers(1, 3))
    predicates = []
    for k in range(size):
        attr = f"a{data.draw(st.integers(0, 5))}"
        op = data.draw(
            st.sampled_from(
                [Operator.EQ, Operator.LE, Operator.GE, Operator.BETWEEN, Operator.NE]
            )
        )
        if op is Operator.BETWEEN:
            low = data.draw(st.integers(0, 8))
            operand = (low, low + data.draw(st.integers(0, 5)))
        else:
            operand = data.draw(st.integers(0, 9))
        predicates.append(Predicate(attr, op, operand))
    sub = Subscription(
        1,
        BooleanExpression(predicates),
        radius=data.draw(st.floats(100, 8000)),
    )
    at = Point(
        data.draw(st.floats(0, 10_000)),
        data.draw(st.floats(0, 10_000)),
    )
    expected = brute_force(events, sub, at)
    for name, index in indexes.items():
        got = sorted(e.event_id for e in index.match(sub, at))
        assert got == expected, name


#: event values an ordered list cannot place by equality alone: NaN
#: (unequal to itself), the infinities, and bool/int/float aliases
EDGE_VALUES = (float("nan"), math.inf, -math.inf, True, 1, 1.0, 0, 2.5)
EDGE_PREDICATES = [
    Predicate("a", operator, operand)
    for operator in (
        Operator.EQ, Operator.NE, Operator.LT, Operator.LE, Operator.GT, Operator.GE
    )
    for operand in (1, 5, math.inf, -math.inf)
] + [
    Predicate("a", Operator.BETWEEN, (0, 5)),
    Predicate("a", Operator.BETWEEN, (-math.inf, math.inf)),
    Predicate("a", Operator.IN, frozenset({1, math.inf})),
    Predicate("a", Operator.NOT_IN, frozenset({1, math.inf})),
]


class TestSelfUnequalEventValues:
    """A NaN event value satisfies ``!=`` and ``not in`` and nothing else
    (:meth:`Predicate.matches`), and an index must be able to drop it."""

    @staticmethod
    def events():
        return [
            Event(k, {"a": value}, Point(4_000 + 100 * k, 5_000))
            for k, value in enumerate(EDGE_VALUES)
        ]

    @pytest.mark.parametrize("predicate", EDGE_PREDICATES, ids=str)
    def test_every_index_answers_as_predicate_matches(self, predicate):
        events = self.events()
        sub = Subscription(1, BooleanExpression([predicate]), 5_000)
        at = Point(5_000, 5_000)
        expected = brute_force(events, sub, at)
        for name, index in build_all(events).items():
            assert sorted(e.event_id for e in index.match(sub, at)) == expected, name

    def test_insert_then_delete_leaves_every_index_empty(self):
        events = self.events()
        everything = Subscription(
            1, BooleanExpression([Predicate("a", Operator.NE, 7)]), 5_000
        )
        for name, index in build_all(events).items():
            for event in events:
                index.delete(event)
            assert len(index) == 0, name
            assert index.match(everything, Point(5_000, 5_000)) == [], name

    def test_a_sorted_list_deletes_a_nan_by_its_payload(self):
        lst = SortedTupleList()
        for payload, value in enumerate(EDGE_VALUES):
            lst.insert(value, payload)
        assert not lst.delete(float("nan"), 99)
        for payload, value in enumerate(EDGE_VALUES):
            # a fresh NaN object: equality cannot find the stored one
            probe = float("nan") if value != value else value
            assert lst.delete(probe, payload), value
        assert len(lst) == 0 and list(lst) == []
