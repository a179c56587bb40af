"""Sorted inverted lists and the counting algorithm."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.expressions import Operator, Predicate
from repro.index import AttributeLists, SortedTupleList


class TestSortedTupleList:
    def test_insert_keeps_order(self):
        lst = SortedTupleList()
        for value, payload in [(5, "a"), (1, "b"), (3, "c"), (3, "d")]:
            lst.insert(value, payload)
        assert [v for v, _ in lst] == [1, 3, 3, 5]

    def test_delete_specific_payload(self):
        lst = SortedTupleList()
        lst.insert(3, "a")
        lst.insert(3, "b")
        assert lst.delete(3, "a")
        assert list(lst) == [(3, "b")]

    def test_delete_missing_returns_false(self):
        lst = SortedTupleList()
        lst.insert(1, "a")
        assert not lst.delete(2, "a")
        assert not lst.delete(1, "zz")

    @pytest.mark.parametrize(
        "op,operand,expected",
        [
            (Operator.EQ, 3, {"c", "d"}),
            (Operator.NE, 3, {"a", "b", "e"}),
            (Operator.LT, 3, {"b"}),
            (Operator.LE, 3, {"b", "c", "d"}),
            (Operator.GT, 3, {"a", "e"}),
            (Operator.GE, 3, {"a", "c", "d", "e"}),
            (Operator.BETWEEN, (2, 5), {"a", "c", "d"}),
            (Operator.IN, frozenset({1, 7}), {"b", "e"}),
            (Operator.NOT_IN, frozenset({1, 7}), {"a", "c", "d"}),
        ],
    )
    def test_iter_matching_per_operator(self, op, operand, expected):
        lst = SortedTupleList()
        for value, payload in [(5, "a"), (1, "b"), (3, "c"), (3, "d"), (7, "e")]:
            lst.insert(value, payload)
        assert set(lst.iter_matching(Predicate("x", op, operand))) == expected

    def test_range_for_rejects_noncontiguous(self):
        lst = SortedTupleList()
        with pytest.raises(ValueError):
            lst.range_for(Predicate("x", Operator.NE, 3))

    @given(
        values=st.lists(st.integers(min_value=0, max_value=50), max_size=60),
        operand=st.integers(min_value=0, max_value=50),
        op=st.sampled_from([Operator.EQ, Operator.LT, Operator.LE, Operator.GT, Operator.GE]),
    )
    def test_matches_brute_force(self, values, operand, op):
        lst = SortedTupleList()
        for index, value in enumerate(values):
            lst.insert(value, index)
        predicate = Predicate("x", op, operand)
        expected = {i for i, v in enumerate(values) if predicate.matches(v)}
        assert set(lst.iter_matching(predicate)) == expected


def raw_in(attribute, members):
    """An IN predicate whose operand bypasses frozenset normalisation.

    Models operands carrying literal duplicates (e.g. ``(3, 3)``) — the
    pre-fix bug surface: ``iter_matching`` ran one range scan per member
    and double-yielded the shared run."""
    predicate = Predicate(attribute, Operator.IN, frozenset(members))
    object.__setattr__(predicate, "operand", tuple(members))
    return predicate


class TestInDeduplication:
    def test_duplicate_member_yields_once(self):
        lst = SortedTupleList()
        lst.insert(3, "e1")
        assert list(lst.iter_matching(raw_in("x", (3, 3)))) == ["e1"]

    def test_aliased_members_yield_once(self):
        # True and 1 are equal, so their runs overlap completely; the
        # overlap must not double-yield either entry.
        lst = SortedTupleList()
        lst.insert(1, "e1")
        lst.insert(True, "e2")
        assert sorted(lst.iter_matching(raw_in("x", (True, 1)))) == ["e1", "e2"]

    def test_duplicate_in_member_cannot_fake_full_count(self):
        # Regression (PR 9 satellite 1): the duplicate-member IN counted
        # e1 twice, reaching |s| = 2 although the b-predicate fails — a
        # false-positive be-match.
        lists = AttributeLists()
        lists.insert_tuples([("a", 3), ("b", 9)], "e1")
        predicates = [raw_in("a", (3, 3)), Predicate("b", Operator.EQ, 2)]
        assert lists.matching_payloads(predicates) == []


class TestMixedTypeValues:
    def test_mixed_insert_does_not_raise(self):
        lst = SortedTupleList()
        lst.insert(3, "e1")
        lst.insert("x", "e2")  # pre-fix: TypeError from the raw bisect
        lst.insert(1, "e3")
        assert [v for v, _ in lst] == [1, 3, "x"]

    def test_range_scans_stay_in_group(self):
        lst = SortedTupleList()
        for value, payload in [(3, "e1"), ("x", "e2"), (1, "e3"), ("a", "e4")]:
            lst.insert(value, payload)
        assert set(lst.iter_matching(Predicate("k", Operator.LT, 5))) == {"e1", "e3"}
        assert set(lst.iter_matching(Predicate("k", Operator.GT, 0))) == {"e1", "e3"}
        assert set(lst.iter_matching(Predicate("k", Operator.LE, "x"))) == {"e2", "e4"}
        assert set(lst.iter_matching(Predicate("k", Operator.GE, "b"))) == {"e2"}
        assert set(lst.iter_matching(Predicate("k", Operator.EQ, "x"))) == {"e2"}
        assert set(lst.iter_matching(Predicate("k", Operator.NE, 3))) == {"e2", "e3", "e4"}

    def test_mixed_in_members(self):
        lst = SortedTupleList()
        for value, payload in [(3, "e1"), ("x", "e2")]:
            lst.insert(value, payload)
        predicate = Predicate("k", Operator.IN, frozenset({3, "x", 7}))
        assert set(lst.iter_matching(predicate)) == {"e1", "e2"}

    def test_matches_is_total_across_groups(self):
        assert not Predicate("k", Operator.LT, 5).matches("x")
        assert not Predicate("k", Operator.BETWEEN, (2, 5)).matches("x")
        assert Predicate("k", Operator.NE, 5).matches("x")
        assert Predicate("k", Operator.NOT_IN, frozenset({5})).matches("x")

    def test_delete_across_mixed_groups(self):
        lst = SortedTupleList()
        lst.insert(3, "e1")
        lst.insert("x", "e2")
        assert lst.delete("x", "e2")
        assert list(lst) == [(3, "e1")]

    def test_bool_aliases_int_in_order(self):
        lst = SortedTupleList()
        lst.insert(True, "e1")
        lst.insert(0, "e2")
        lst.insert(2, "e3")
        assert set(lst.iter_matching(Predicate("k", Operator.LE, 1))) == {"e1", "e2"}
        assert set(lst.iter_matching(Predicate("k", Operator.EQ, 1))) == {"e1"}
        assert lst.delete(1, "e1")  # 1 == True finds the aliased entry


class TestAttributeLists:
    def _loaded(self):
        lists = AttributeLists()
        lists.insert_tuples([("a", 1), ("b", 5)], "e1")
        lists.insert_tuples([("a", 3), ("b", 2)], "e2")
        lists.insert_tuples([("a", 3)], "e3")
        return lists

    def test_counting_algorithm(self):
        lists = self._loaded()
        predicates = [
            Predicate("a", Operator.GE, 2),
            Predicate("b", Operator.LE, 5),
        ]
        assert set(lists.matching_payloads(predicates)) == {"e2"}

    def test_missing_attribute_short_circuits(self):
        lists = self._loaded()
        predicates = [Predicate("zz", Operator.EQ, 1)]
        assert lists.count_matches(predicates) == {}

    def test_delete_tuples_prunes_empty_lists(self):
        lists = self._loaded()
        lists.delete_tuples([("b", 5)], "e1")
        lists.delete_tuples([("b", 2)], "e2")
        assert "b" not in lists

    def test_same_attribute_twice_counts_twice(self):
        lists = AttributeLists()
        lists.insert_tuples([("a", 5)], "e1")
        predicates = [
            Predicate("a", Operator.GE, 2),
            Predicate("a", Operator.LE, 8),
        ]
        assert set(lists.matching_payloads(predicates)) == {"e1"}
