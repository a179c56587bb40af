"""Differential suite: posting-list inverted lists vs a flat sorted list.

``SortedTupleList`` keeps one insertion-ordered posting per distinct
operand key.  The reference here is the layout it replaced, kept brute
force: one entry per tuple in a list sorted by ``(operand_key, insertion
seq)``, self-unequal values after it in insertion order, every match a
``Predicate.matches`` filter over that order.  Random interleavings of
inserts and deletes over ints, floats, bools, strings, NaN and duplicate
values must leave both with the same entries in the same order, the
same ``iter_matching`` payload sequence for every operator (``IN`` with
aliased members ``1`` / ``True`` / ``1.0`` and NaN operands included) and
the same ``count_matches`` dict, item order included — the order
``matching_payloads`` and so notification order inherit.

Runs under the ``differential`` marker; ``DIFFERENTIAL_EXAMPLES``
controls the per-test example budget (default 25).
"""

from __future__ import annotations

import bisect
import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.expressions import Operator, Predicate, operand_key
from repro.index import AttributeLists, SortedTupleList

pytestmark = pytest.mark.differential

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "25"))
DIFF_SETTINGS = settings(max_examples=EXAMPLES, deadline=None)

NAN = float("nan")
ATTRIBUTES = ("a", "b", "c")
# aliased numerics (0 / False / -0.0 / 0.0, 1 / True / 1.0), floats
# between ints, strings, the empty string and one shared NaN object
VALUES = (0, 1, 2, 3, True, False, -0.0, 0.0, 0.5, 1.0, 2.5, "x", "y", "", NAN)
NUMERIC = tuple(v for v in VALUES if isinstance(v, (int, float)) and v == v)
STRINGS = tuple(v for v in VALUES if isinstance(v, str))

values = st.one_of(
    st.sampled_from(VALUES),
    st.integers(min_value=-2, max_value=6),
    st.builds(float, st.just("nan")),  # a fresh NaN object each draw
)
payloads = st.integers(min_value=0, max_value=7)


class FlatReference:
    """The flat layout: ``(key, seq, value, payload)`` sorted by key then seq."""

    def __init__(self) -> None:
        self.ordered = []
        self.unordered = []
        self._seq = itertools.count()

    def __iter__(self):
        return iter([(v, p) for _, _, v, p in self.ordered] + self.unordered)

    def holds(self, value, payload) -> bool:
        """True if a key-equal value is already held under ``payload``."""
        key = operand_key(value)
        return any(k == key and p == payload for k, _, _, p in self.ordered)

    def insert(self, value, payload) -> None:
        if value != value:
            self.unordered.append((value, payload))
        else:
            entry = (operand_key(value), next(self._seq), value, payload)
            bisect.insort(self.ordered, entry)

    def delete(self, value, payload) -> bool:
        if value != value:
            for index, (_, p) in enumerate(self.unordered):
                if p == payload:
                    del self.unordered[index]
                    return True
            return False
        key = operand_key(value)
        for index, (k, _, v, p) in enumerate(self.ordered):
            if k == key and v == value and p == payload:
                del self.ordered[index]
                return True
        return False

    def matching(self, predicate: Predicate):
        return [payload for value, payload in self if predicate.matches(value)]


def raw_in(attribute, operator, members):
    """An ``in`` / ``not in`` predicate keeping its members as drawn
    (aliases and duplicates), bypassing frozenset normalisation."""
    predicate = Predicate(attribute, operator, frozenset(members))
    object.__setattr__(predicate, "operand", tuple(members))
    return predicate


@st.composite
def predicates(draw, attribute=None):
    attribute = attribute or draw(st.sampled_from(ATTRIBUTES))
    op = draw(st.sampled_from(list(Operator)))
    if op is Operator.BETWEEN:
        pool = draw(st.sampled_from((NUMERIC, STRINGS)))
        low, high = sorted(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2)))
        if draw(st.booleans()) and pool is NUMERIC:
            low = NAN  # a NaN bound selects nothing
        return Predicate(attribute, op, (low, high))
    if op in (Operator.IN, Operator.NOT_IN):
        members = draw(st.lists(values, min_size=1, max_size=4))
        if draw(st.booleans()):
            members += [1, True, 1.0]
        if draw(st.booleans()):
            return raw_in(attribute, op, members)
        return Predicate(attribute, op, frozenset(members))
    return Predicate(attribute, op, draw(values))


def reference_counts(references, preds):
    if any(p.attribute not in references for p in preds):
        return {}
    counts = {}
    for predicate in preds:
        for payload in references[predicate.attribute].matching(predicate):
            counts[payload] = counts.get(payload, 0) + 1
    return counts


operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), values, payloads),
        st.tuples(st.just("delete"), values, payloads),
        st.tuples(st.just("delete_live"), st.integers(min_value=0, max_value=99)),
    ),
    max_size=40,
)


@DIFF_SETTINGS
@given(ops=operations, probes=st.lists(predicates("k"), min_size=1, max_size=8))
def test_a_list_keeps_the_flat_order_and_multiplicity(ops, probes):
    lst, reference = SortedTupleList(), FlatReference()
    for op in ops:
        if op[0] == "delete_live":
            live = list(reference)
            if not live:
                continue
            value, payload = live[op[1] % len(live)]
            assert lst.delete(value, payload) and reference.delete(value, payload)
        elif op[0] == "delete":
            assert lst.delete(op[1], op[2]) == reference.delete(op[1], op[2])
        elif op[1] == op[1] and reference.holds(op[1], op[2]):
            # a repeated (key, payload) pair is refused, and changes nothing
            with pytest.raises(ValueError):
                lst.insert(op[1], op[2])
        else:
            lst.insert(op[1], op[2])
            reference.insert(op[1], op[2])
        assert list(lst) == list(reference)
        assert len(lst) == len(list(reference)) and bool(lst) == bool(list(reference))
        for predicate in probes:
            assert list(lst.iter_matching(predicate)) == reference.matching(predicate), predicate


@DIFF_SETTINGS
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("insert"),
                st.dictionaries(st.sampled_from(ATTRIBUTES), values, min_size=1),
            ),
            st.tuples(st.just("delete_live"), st.integers(min_value=0, max_value=99)),
        ),
        max_size=30,
    ),
    queries=st.lists(st.lists(predicates(), min_size=1, max_size=4), min_size=1, max_size=6),
)
def test_count_matches_keeps_the_first_increment_order(ops, queries):
    lists, references, live = AttributeLists(), {}, {}
    payload_ids = itertools.count()
    for op in ops:
        if op[0] == "insert":
            payload = next(payload_ids)
            live[payload] = op[1]
            lists.insert_tuples(op[1].items(), payload)
            for attribute, value in op[1].items():
                references.setdefault(attribute, FlatReference()).insert(value, payload)
        elif live:
            payload = list(live)[op[1] % len(live)]
            attributes = live.pop(payload)
            lists.delete_tuples(attributes.items(), payload)
            for attribute, value in attributes.items():
                assert references[attribute].delete(value, payload)
                if not list(references[attribute]):
                    del references[attribute]
        assert set(lists.lists) == set(references)
        for preds in queries:
            expected = reference_counts(references, preds)
            assert list(lists.count_matches(preds).items()) == list(expected.items())
            needed = len(preds)
            assert lists.matching_payloads(preds) == [
                p for p, count in expected.items() if count == needed
            ]


class TestMultiplicity:
    def test_a_key_equal_value_under_the_same_payload_is_refused(self):
        lst = SortedTupleList()
        lst.insert(1, "p")
        for alias in (1, True, 1.0):
            with pytest.raises(ValueError):
                lst.insert(alias, "p")
        lst.insert(2, "p")  # another key: a second entry
        assert list(lst) == [(1, "p"), (2, "p")]

    def test_self_unequal_values_keep_their_multiplicity(self):
        lst = SortedTupleList()
        lst.insert(NAN, "p")
        lst.insert(NAN, "p")
        assert len(lst) == 2
        assert list(lst.iter_matching(Predicate("k", Operator.NE, 3))) == ["p", "p"]
        assert lst.delete(float("nan"), "p") and len(lst) == 1
