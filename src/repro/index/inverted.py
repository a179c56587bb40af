"""Sorted inverted lists and the counting algorithm.

Every index in this package (k-index, OpIndex, BEQ-Tree) stores event
tuples in per-attribute lists *sorted by operand value* and answers
subscription matches with the classic counting algorithm (Yan &
Garcia-Molina; Fabret et al.): for each predicate, visit exactly the
entries of the attribute list whose value satisfies the predicate and
increment a per-event counter; an event be-matches when its counter
reaches the subscription size |s|.

The sort order makes each relational operator a contiguous range scan
(binary search for the endpoints); only ``!=`` and ``not in`` degenerate
to full scans with a skipped range, exactly as the paper describes.

Entries are ordered by :func:`repro.expressions.operand_key`, the same
total order the subscription index sorts its operator groups by: within
one type group it is the natural value order (so homogeneous data sorts
exactly as before), and across groups it is well-defined instead of a
``TypeError`` — an attribute carrying ``3`` and ``"x"`` no longer kills
the publish path.  Range scans are bounded to the probe value's group,
because values from different groups never satisfy a ``<``/``>``
constraint (see :meth:`Predicate.matches`).
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Tuple, TypeVar

from ..expressions import Operator, Predicate, operand_key

Payload = TypeVar("Payload")


def _group_of(key: Tuple[str, object]) -> Tuple[str]:
    """Projection of an operand key onto its type group, for bisect."""
    return (key[0],)


class SortedTupleList:
    """A list of ``(value, payload)`` entries kept sorted by value.

    Payloads are event identifiers (or local slots).  Duplicate values are
    allowed; delete removes one matching ``(value, payload)`` entry.

    A value unequal to itself (NaN) has no place in the order: it
    satisfies no ``=``, ``<`` or ``[]`` constraint (see
    :meth:`Predicate.matches`), and as a key it would mislead every
    bisect over the entries beside it.  Such entries are kept apart,
    reached only by the full scans of ``!=`` and ``not in`` and by an
    ``in`` set holding that very object, and deleted by payload, since
    equality never finds them.  The same holds for a self-unequal
    *operand*: ``= nan``, ``<= nan`` or ``[nan, 5]`` selects nothing,
    and a NaN member of an ``in`` set matches no ordered entry.
    """

    __slots__ = ("_values", "_payloads", "_keys", "_unordered")

    def __init__(self) -> None:
        self._values: List = []
        self._payloads: List = []
        # operand_key(value) per entry: the list the bisects run over,
        # so mixed-type values stay totally ordered.
        self._keys: List[Tuple[str, object]] = []
        # (value, payload) entries whose value is unequal to itself
        self._unordered: List[Tuple[object, object]] = []

    def __len__(self) -> int:
        return len(self._values) + len(self._unordered)

    def __iter__(self) -> Iterator[Tuple[object, object]]:
        return itertools.chain(zip(self._values, self._payloads), self._unordered)

    def insert(self, value, payload) -> None:
        """Insert keeping the key order (O(log n) search, O(n) shift)."""
        if value != value:
            self._unordered.append((value, payload))
            return
        key = operand_key(value)
        index = bisect.bisect_right(self._keys, key)
        self._keys.insert(index, key)
        self._values.insert(index, value)
        self._payloads.insert(index, payload)

    def delete(self, value, payload) -> bool:
        """Remove one ``(value, payload)`` entry; False if absent."""
        if value != value:
            for index, (_, stored) in enumerate(self._unordered):
                if stored == payload:
                    del self._unordered[index]
                    return True
            return False
        key = operand_key(value)
        index = bisect.bisect_left(self._keys, key)
        while index < len(self._keys) and self._keys[index] == key:
            if self._values[index] == value and self._payloads[index] == payload:
                del self._keys[index]
                del self._values[index]
                del self._payloads[index]
                return True
            index += 1
        return False

    def _group_bounds(self, group: str) -> Tuple[int, int]:
        """The half-open index range holding the group's entries."""
        # (group,) sorts before every (group, value) and the projected
        # bisect finds the end of the group's run.
        lo = bisect.bisect_left(self._keys, (group,))
        hi = bisect.bisect_right(self._keys, (group,), key=_group_of)
        return lo, hi

    # ------------------------------------------------------------------
    # Range scans per operator
    # ------------------------------------------------------------------
    def range_for(self, predicate: Predicate) -> Tuple[int, int]:
        """The half-open index range selected by a contiguous predicate.

        Only valid for ``=, <, <=, >, >=, []`` — the operators whose
        satisfying values form one contiguous run in the sorted order.
        An operand or bound unequal to itself selects the empty range.
        """
        op, operand = predicate.operator, predicate.operand
        if op is Operator.BETWEEN:
            low, high = operand
            if low != low or high != high:
                return 0, 0
            return (
                bisect.bisect_left(self._keys, operand_key(low)),
                bisect.bisect_right(self._keys, operand_key(high)),
            )
        if operand != operand:
            return 0, 0
        key = operand_key(operand)
        if op is Operator.EQ:
            return (
                bisect.bisect_left(self._keys, key),
                bisect.bisect_right(self._keys, key),
            )
        # <, <=, >, >= are bounded to the operand's type group: a value
        # from another group never satisfies a range constraint.
        if op in (Operator.LT, Operator.LE, Operator.GT, Operator.GE):
            group_lo, group_hi = self._group_bounds(key[0])
            if op is Operator.LT:
                return group_lo, bisect.bisect_left(self._keys, key)
            if op is Operator.LE:
                return group_lo, bisect.bisect_right(self._keys, key)
            if op is Operator.GT:
                return bisect.bisect_right(self._keys, key), group_hi
            return bisect.bisect_left(self._keys, key), group_hi
        raise ValueError(f"operator {op.value!r} does not select a contiguous range")

    def iter_matching(self, predicate: Predicate) -> Iterator:
        """Payloads of all entries whose value satisfies ``predicate``."""
        op = predicate.operator
        if op in (Operator.NE, Operator.NOT_IN):
            # Full scan minus the excluded values; the paper notes these
            # operators visit all entries except the operand's.
            for value, payload in self:
                if predicate.matches(value):
                    yield payload
            return
        if op is Operator.IN:
            # Each entry must be yielded at most once per predicate —
            # duplicate members (a raw ``(3, 3)`` operand) or key-equal
            # members with overlapping runs would double-increment the
            # counting algorithm and fake a full |s| count.  Deduplicate
            # and clamp each run past the previous one.  A self-unequal
            # member has no run; set membership can still hold for an
            # unordered entry (the very same NaN object).
            last_hi = 0
            members = {member for member in predicate.operand if member == member}
            for member in sorted(members, key=operand_key):
                member_key = operand_key(member)
                lo = bisect.bisect_left(self._keys, member_key)
                hi = bisect.bisect_right(self._keys, member_key)
                if hi <= last_hi:
                    continue
                yield from self._payloads[max(lo, last_hi) : hi]
                last_hi = hi
            for value, payload in self._unordered:
                if predicate.matches(value):
                    yield payload
            return
        lo, hi = self.range_for(predicate)
        yield from self._payloads[lo:hi]

    def iter_value_range(self, low, high) -> Iterator[Tuple[object, object]]:
        """``(value, payload)`` entries with ``low <= value <= high``."""
        lo = bisect.bisect_left(self._keys, operand_key(low))
        hi = bisect.bisect_right(self._keys, operand_key(high))
        return iter(list(zip(self._values[lo:hi], self._payloads[lo:hi])))

    def iter_value_from(self, low) -> Iterator[Tuple[object, object]]:
        """``(value, payload)`` entries with ``value >= low``."""
        lo = bisect.bisect_left(self._keys, operand_key(low))
        return iter(list(zip(self._values[lo:], self._payloads[lo:])))

    def values(self) -> List:
        """The values in order, self-unequal ones last (a copy)."""
        return [value for value, _ in self]


class AttributeLists:
    """A bundle of per-attribute :class:`SortedTupleList` objects."""

    __slots__ = ("lists",)

    def __init__(self) -> None:
        self.lists: Dict[str, SortedTupleList] = {}

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.lists

    def __len__(self) -> int:
        return len(self.lists)

    def list_for(self, attribute: str) -> SortedTupleList:
        """The attribute's list, created on first use."""
        existing = self.lists.get(attribute)
        if existing is None:
            existing = SortedTupleList()
            self.lists[attribute] = existing
        return existing

    def insert_tuples(self, attributes: Iterable[Tuple[str, object]], payload) -> None:
        """Index one item's attribute-value tuples under ``payload``."""
        for attribute, value in attributes:
            self.list_for(attribute).insert(value, payload)

    def delete_tuples(self, attributes: Iterable[Tuple[str, object]], payload) -> None:
        """Remove one item's tuples; empty lists are pruned."""
        for attribute, value in attributes:
            lst = self.lists.get(attribute)
            if lst is not None:
                lst.delete(value, payload)
                if not lst:
                    del self.lists[attribute]

    def count_matches(self, predicates: Iterable[Predicate]) -> Dict:
        """The counting algorithm: payload -> number of satisfied predicates.

        Returns an empty dict as soon as one predicate's attribute is
        missing — no event here can reach the full count then.
        """
        counters: Dict = defaultdict(int)
        predicates = list(predicates)
        for predicate in predicates:
            if predicate.attribute not in self.lists:
                return {}
        for predicate in predicates:
            lst = self.lists[predicate.attribute]
            for payload in lst.iter_matching(predicate):
                counters[payload] += 1
        return counters

    def matching_payloads(self, predicates: Iterable[Predicate]) -> List:
        """Payloads satisfying *all* predicates (full counter value)."""
        predicates = list(predicates)
        counters = self.count_matches(predicates)
        needed = len(predicates)
        return [payload for payload, count in counters.items() if count == needed]
