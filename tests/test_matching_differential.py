"""Differential suite: index matching vs the brute-force predicate oracle.

Pits ``SubscriptionIndex.match_event`` and ``match_batch`` against a
total, per-clause reimplementation of BE-match built directly on
``Predicate.matches``.  The strategies deliberately generate the
adversarial shapes behind the PR 9 bugfixes: duplicate IN members
(bypassing frozenset normalisation), mixed-type operands, bool/int/float
aliases, multi-clause DNF, and multiple predicates per attribute.  The
churn tests pit an index warmed by interleaved inserts, deletes and
matches (its probe memos live) against one built fresh from the same
subscriptions, with NaN among the event values.

Runs under the ``differential`` marker; ``DIFFERENTIAL_EXAMPLES``
controls the per-test example budget (default 25).
"""

from __future__ import annotations

import math
import os
from typing import Dict, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.expressions import (
    BooleanExpression,
    DnfExpression,
    Event,
    Operator,
    Predicate,
    Subscription,
    clauses_of,
)
from repro.core import IGM
from repro.geometry import Grid, Point, Rect
from repro.index import (
    BEQTree,
    BETreeIndex,
    KSubscriptionIndex,
    SubscriptionIndex,
    subscription_index,
)
from repro.system import ElapsServer

pytestmark = pytest.mark.differential

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "25"))
DIFF_SETTINGS = settings(max_examples=EXAMPLES, deadline=None)

ATTRIBUTES = ("a", "b", "c", "d")
# Aliased numerics, floats between ints, strings, and the empty string.
VALUES = (0, 1, 2, 3, True, False, 0.5, 1.0, 2.5, "x", "y", "")
NUMERIC = tuple(v for v in VALUES if isinstance(v, (int, float)))
STRINGS = tuple(v for v in VALUES if isinstance(v, str))
NAN = float("nan")

SCALAR_OPS = (
    Operator.EQ,
    Operator.NE,
    Operator.LT,
    Operator.LE,
    Operator.GT,
    Operator.GE,
)


@st.composite
def predicates(draw):
    attribute = draw(st.sampled_from(ATTRIBUTES))
    kind = draw(st.sampled_from(("scalar", "between", "in", "not_in", "raw_in")))
    if kind == "scalar":
        return Predicate(attribute, draw(st.sampled_from(SCALAR_OPS)), draw(st.sampled_from(VALUES)))
    if kind == "between":
        pool = draw(st.sampled_from((NUMERIC, STRINGS)))
        low, high = sorted(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2)))
        return Predicate(attribute, Operator.BETWEEN, (low, high))
    members = tuple(draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=4)))
    if kind == "not_in":
        return Predicate(attribute, Operator.NOT_IN, frozenset(members))
    predicate = Predicate(attribute, Operator.IN, frozenset(members))
    if kind == "raw_in":
        # Operand kept as a literal tuple — duplicates and aliased
        # members (True vs 1) survive, the satellite-1 bug surface.
        object.__setattr__(predicate, "operand", members)
    return predicate


@st.composite
def subscriptions(draw, sub_id):
    clause_count = draw(st.integers(min_value=1, max_value=3))
    clauses = [
        # Repeated attributes allowed: multiple predicates per attribute.
        BooleanExpression(tuple(draw(st.lists(predicates(), min_size=1, max_size=3))))
        for _ in range(clause_count)
    ]
    if clause_count == 1:
        expression = clauses[0]
    else:
        expression = DnfExpression(clauses)
    return Subscription(sub_id, expression, 1000.0)


@st.composite
def events(draw, event_id):
    attrs = draw(
        st.dictionaries(
            st.sampled_from(ATTRIBUTES),
            st.sampled_from(VALUES),
            min_size=1,
            max_size=len(ATTRIBUTES),
        )
    )
    return Event(event_id, attrs, Point(0.0, 0.0))


def _clause_satisfied(clause: Sequence[Predicate], attributes: Dict[str, object]) -> bool:
    return all(
        predicate.attribute in attributes
        and predicate.matches(attributes[predicate.attribute])
        for predicate in clause
    )


def oracle_matches(subscription: Subscription, event: Event) -> bool:
    return any(
        _clause_satisfied(clause, event.attributes)
        for clause in clauses_of(subscription.expression)
    )


@DIFF_SETTINGS
@given(data=st.data())
def test_match_event_agrees_with_oracle(data):
    subs = [data.draw(subscriptions(sub_id)) for sub_id in range(data.draw(st.integers(1, 12)))]
    index = SubscriptionIndex()
    for sub in subs:
        index.insert(sub)
    for event_id in range(data.draw(st.integers(1, 8))):
        event = data.draw(events(event_id))
        got = {s.sub_id for s in index.match_event(event)}
        expected = {s.sub_id for s in subs if oracle_matches(s, event)}
        assert got == expected, event.attributes


@DIFF_SETTINGS
@given(data=st.data())
def test_match_batch_is_byte_identical_to_match_event(data):
    subs = [data.draw(subscriptions(sub_id)) for sub_id in range(data.draw(st.integers(1, 12)))]
    index = SubscriptionIndex()
    for sub in subs:
        index.insert(sub)
    batch = [data.draw(events(event_id)) for event_id in range(data.draw(st.integers(1, 10)))]
    per_event = [index.match_event(event) for event in batch]
    batched = index.match_batch(batch)
    # Exact list equality: same subscriptions in the same order.
    assert [[s.sub_id for s in row] for row in batched] == [
        [s.sub_id for s in row] for row in per_event
    ]


@DIFF_SETTINGS
@given(data=st.data())
def test_match_survives_churn(data):
    subs = [data.draw(subscriptions(sub_id)) for sub_id in range(data.draw(st.integers(2, 12)))]
    index = SubscriptionIndex()
    for sub in subs:
        index.insert(sub)
    removed = set()
    for sub in subs[:: 2]:
        index.delete(sub)
        removed.add(sub.sub_id)
    remaining = [s for s in subs if s.sub_id not in removed]
    for event_id in range(data.draw(st.integers(1, 6))):
        event = data.draw(events(event_id))
        got = {s.sub_id for s in index.match_event(event)}
        expected = {s.sub_id for s in remaining if oracle_matches(s, event)}
        assert got == expected


def _ids(rows):
    return [[s.sub_id for s in row] for row in rows]


def _answers_like_a_fresh_index(index, live, batch):
    """The warm ``index`` answers ``batch`` list-equal to an index built
    fresh from ``live`` (insertion-ordered), and set-equal to the oracle."""
    fresh = SubscriptionIndex()
    for sub in live.values():
        fresh.insert(sub)
    got = _ids(index.match_batch(batch))
    assert got == _ids(fresh.match_batch(batch))
    for row, event in zip(got, batch):
        expected = {s.sub_id for s in live.values() if oracle_matches(s, event)}
        assert set(row) == expected, event.attributes


@st.composite
def churn_events(draw, event_id):
    # NaN rides along with the aliased values: unordered, equal to nothing
    values = st.sampled_from(VALUES + (NAN,))
    attrs = draw(
        st.dictionaries(
            st.sampled_from(ATTRIBUTES), values, min_size=1, max_size=len(ATTRIBUTES)
        )
    )
    return Event(event_id, attrs, Point(0.0, 0.0))


@DIFF_SETTINGS
@given(data=st.data())
def test_a_churned_warm_index_answers_like_a_fresh_one(data):
    # Inserts, deletes, re-inserts of a sub_id under a new expression and
    # matches, interleaved: every write must invalidate exactly the memo
    # entries it could change, and freed slots must come back clean.
    index = SubscriptionIndex()
    live: Dict[int, Subscription] = {}
    for _ in range(data.draw(st.integers(4, 30))):
        action = data.draw(st.sampled_from(("insert", "insert", "delete", "match")))
        if action == "insert":
            sub_id = data.draw(st.integers(0, 7))
            if sub_id in live:
                index.delete(live.pop(sub_id))
            live[sub_id] = data.draw(subscriptions(sub_id))
            index.insert(live[sub_id])
        elif action == "delete" and live:
            index.delete(live.pop(data.draw(st.sampled_from(sorted(live)))))
        else:
            batch = [data.draw(churn_events(i)) for i in range(data.draw(st.integers(1, 6)))]
            _answers_like_a_fresh_index(index, live, batch)
    batch = [data.draw(churn_events(i)) for i in range(4)]
    _answers_like_a_fresh_index(index, live, batch)


def test_the_churn_shapes_by_hand():
    # The shapes the random churn must reach, scripted once each: a DNF,
    # two predicates on one attribute in one clause, True / 1 / 1.0 on
    # one memo entry, NaN, and a layer emptied and then recreated.
    index = SubscriptionIndex()
    live: Dict[int, Subscription] = {}

    def insert(sub):
        live[sub.sub_id] = sub
        index.insert(sub)

    insert(Subscription(1, DnfExpression([
        BooleanExpression((Predicate("a", Operator.EQ, 1),)),
        BooleanExpression((Predicate("a", Operator.GT, 0), Predicate("a", Operator.LT, 2),
                           Predicate("b", Operator.NE, 5))),
    ]), 1000.0))
    insert(Subscription(2, BooleanExpression((Predicate("a", Operator.NE, 3),)), 1000.0))
    batch = [
        Event(i, {"a": value, "b": 2}, Point(0.0, 0.0))
        for i, value in enumerate((True, 1, 1.0, NAN, 0.5))
    ]
    _answers_like_a_fresh_index(index, live, batch)
    partition = index._partitions["a"]
    assert len(partition.layers["a"].memo) == 3  # True / 1 / 1.0 share one
    assert _ids(index.match_batch(batch)) == [[1, 2], [1, 2], [1, 2], [2], [1, 2]]
    # sub 1 alone had a "b" predicate: its delete empties that layer
    index.delete(live.pop(1))
    assert "b" not in partition.layers
    _answers_like_a_fresh_index(index, live, batch)
    insert(Subscription(1, BooleanExpression(
        (Predicate("a", Operator.LE, 1), Predicate("b", Operator.EQ, 2))), 1000.0))
    _answers_like_a_fresh_index(index, live, batch)
    assert _ids(index.match_batch(batch)) == [[1, 2], [1, 2], [1, 2], [2], [1, 2]]


def test_the_probe_memo_stays_bounded_on_distinct_values():
    index = SubscriptionIndex()
    index.insert(Subscription(1, BooleanExpression((Predicate("a", Operator.GE, 0.5),)), 1000.0))
    layer = index._partitions["a"].layers["a"]
    sizes = []
    for event_id in range(3 * subscription_index._PROBE_MEMO_LIMIT):
        value = event_id / 7.0
        row = index.match_event(Event(event_id, {"a": value}, Point(0.0, 0.0)))
        assert bool(row) is (value >= 0.5)
        sizes.append(len(layer.memo))
    assert max(sizes) == subscription_index._PROBE_MEMO_LIMIT
    assert index.match_batch_probes == len(sizes)  # every value was new


@DIFF_SETTINGS
@given(data=st.data())
def test_batch_sizes_do_not_change_results(data):
    subs = [data.draw(subscriptions(sub_id)) for sub_id in range(6)]
    index = SubscriptionIndex()
    for sub in subs:
        index.insert(sub)
    batch = [data.draw(events(event_id)) for event_id in range(12)]
    whole = [[s.sub_id for s in row] for row in index.match_batch(batch)]
    chunk = data.draw(st.sampled_from((1, 3, 5)))
    chunked = []
    for start in range(0, len(batch), chunk):
        chunked.extend(
            [s.sub_id for s in row] for row in index.match_batch(batch[start : start + chunk])
        )
    assert chunked == whole


# ----------------------------------------------------------------------
# Self-unequal and infinite operands
# ----------------------------------------------------------------------
#: operands an operand-sorted index cannot place by value alone: NaN
#: (one object, so ``in`` may hold by identity), the infinities, and the
#: bool/int/float aliases beside them
EDGE_OPERANDS = (NAN, math.inf, -math.inf, 1, 5, 2.5, True)
EDGE_EVENT_VALUES = EDGE_OPERANDS + (0, 1.0, "x")
EDGE_SPACE = Rect(0.0, 0.0, 10_000.0, 10_000.0)


@st.composite
def edge_predicates(draw):
    attribute = draw(st.sampled_from(("a", "b")))
    kind = draw(st.sampled_from(("scalar", "scalar", "between", "in", "not_in")))
    operands = st.sampled_from(EDGE_OPERANDS)
    if kind == "scalar":
        return Predicate(attribute, draw(st.sampled_from(SCALAR_OPS)), draw(operands))
    if kind == "between":
        low, high = draw(operands), draw(operands)
        if low == low and high == high and low > high:
            low, high = high, low
        return Predicate(attribute, Operator.BETWEEN, (low, high))
    members = frozenset(draw(st.lists(operands, min_size=1, max_size=3)))
    return Predicate(attribute, Operator.IN if kind == "in" else Operator.NOT_IN, members)


def _edge_events(draw):
    values = st.sampled_from(EDGE_EVENT_VALUES)
    return [
        Event(
            event_id,
            draw(st.dictionaries(st.sampled_from(("a", "b")), values, min_size=1)),
            Point(500.0 + 900.0 * event_id, 5_000.0),
        )
        for event_id in range(draw(st.integers(1, 10)))
    ]


@DIFF_SETTINGS
@given(data=st.data())
def test_nan_and_infinite_operands_agree_with_the_oracle(data):
    """Every subscription index and the BEQ-Tree answer NaN and ±inf
    operands as :meth:`Predicate.matches` does: ``= nan``, ``<= nan`` and
    ``[nan, 5]`` hold for nothing, ``!= nan`` for everything, and an
    ``in`` set holds for its members only."""
    subs = [
        Subscription(
            sub_id,
            BooleanExpression(tuple(data.draw(st.lists(edge_predicates(), min_size=1, max_size=2)))),
            1_000.0,
        )
        for sub_id in range(data.draw(st.integers(1, 8)))
    ]
    events = _edge_events(data.draw)
    # a small BE-Tree bucket splits into value directories, whose
    # clustering arithmetic must place (or refuse) a NaN bound
    indexes = [SubscriptionIndex(), KSubscriptionIndex(), BETreeIndex(max_bucket=2)]
    for index in indexes:
        for sub in subs:
            index.insert(sub)
    for event in events:
        expected = {sub.sub_id for sub in subs if oracle_matches(sub, event)}
        for index in indexes:
            got = {sub.sub_id for sub in index.match_event(event)}
            assert got == expected, (type(index).__name__, event.attributes)
    tree = BEQTree(EDGE_SPACE, emax=4)
    for event in events:
        tree.insert(event)
    for sub in subs:
        expected = {event.event_id for event in events if oracle_matches(sub, event)}
        got = {event.event_id for event in tree.be_match(sub.expression)}
        assert got == expected, str(sub.expression)
    for index in indexes:
        for sub in subs:
            index.delete(sub)
        assert len(index) == 0


@pytest.mark.parametrize(
    "predicate, delivered",
    [
        (Predicate("a", Operator.LE, NAN), []),
        (Predicate("a", Operator.EQ, NAN), []),
        (Predicate("a", Operator.BETWEEN, (NAN, 5)), []),
        (Predicate("a", Operator.IN, frozenset({NAN})), []),
        (Predicate("a", Operator.NE, NAN), [1, 2]),
        (Predicate("a", Operator.LE, math.inf), [1, 2]),
    ],
    ids=str,
)
def test_a_subscriber_is_delivered_what_its_predicate_matches(predicate, delivered):
    """The parent's misread end to end: ``a <= nan`` was delivered the
    whole corpus at subscribe time."""
    grid = Grid(25, EDGE_SPACE)
    server = ElapsServer(grid, IGM(max_cells=60), event_index=BEQTree(EDGE_SPACE, emax=16))
    server.bootstrap([
        Event(1, {"a": 1}, Point(5_000.0, 5_000.0)),
        Event(2, {"a": 5}, Point(5_200.0, 5_000.0)),
    ])
    notes, _ = server.subscribe(
        Subscription(1, BooleanExpression((predicate,)), 1_000.0),
        Point(5_100.0, 5_000.0), Point(0.0, 0.0), now=0,
    )
    assert sorted(note.event.event_id for note in notes) == delivered
    index = SubscriptionIndex()
    index.insert(Subscription(1, BooleanExpression((predicate,)), 1_000.0))
    matched = [event_id for event_id, value in ((1, 1), (2, 5))
               if index.match_event(Event(event_id, {"a": value}, Point(0.0, 0.0)))]
    assert matched == delivered
