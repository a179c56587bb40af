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

A list is stored as its sorted *distinct* keys, each with one *posting*:
an insertion-ordered ``payload -> value`` dict.  An insert or delete is
a dict operation that bisects only when a key appears or disappears,
and a range scan chains the postings of the keys in range in C.  The
runs are short: attributes are vocabulary keywords, so a BEQ-Tree
leaf's list for one of them holds a few entries a key (2.8 on
``commute_sim``'s corpus, 3.3 on ``event_storm``'s, 5.0 on a
Foursquare-like one; ``BEQTree.memory_stats()`` counts both).
Visiting the keys in order and each posting in insertion order is
exactly the order of a flat list kept sorted by key with
``bisect_right`` inserts, the layout this one replaced.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Tuple, TypeVar

from ..expressions import Operator, Predicate, operand_key

Payload = TypeVar("Payload")

_ABSENT = object()


def _group_of(key: Tuple[str, object]) -> Tuple[str]:
    """Projection of an operand key onto its type group, for bisect."""
    return (key[0],)


class SortedTupleList:
    """A list of ``(value, payload)`` entries kept sorted by value.

    Payloads are event identifiers (or local slots).  Entries with
    key-equal values (``1``, ``1.0`` and ``True`` share one key) share
    one posting and keep their insertion order.  A payload is held at
    most once under one key: inserting it again under a key-equal value
    raises ``ValueError`` (an event carries one value per attribute, so
    no index in this package does).  Delete removes the payload from
    its value's posting.

    A value unequal to itself (NaN) has no place in the order: it
    satisfies no ``=``, ``<`` or ``[]`` constraint (see
    :meth:`Predicate.matches`), and as a key it would mislead every
    bisect over the keys beside it.  Such entries are kept apart in
    insertion order, with their multiplicity (equality never identifies
    two of them), reached only by the full scans of ``!=`` and
    ``not in`` and by an ``in`` set holding that very object, and
    deleted by payload.  The same holds for a self-unequal *operand*:
    ``= nan``, ``<= nan`` or ``[nan, 5]`` selects nothing, and a NaN
    member of an ``in`` set matches no ordered entry.
    """

    __slots__ = ("_keys", "_postings", "_unordered")

    def __init__(self) -> None:
        # the distinct operand keys, sorted: the list the bisects run over
        self._keys: List[Tuple[str, object]] = []
        # operand key -> its posting (payload -> value, insertion order)
        self._postings: Dict[Tuple[str, object], Dict] = {}
        # (value, payload) entries whose value is unequal to itself
        self._unordered: List[Tuple[object, object]] = []

    def __len__(self) -> int:
        return sum(map(len, self._postings.values())) + len(self._unordered)

    def __bool__(self) -> bool:
        return bool(self._keys or self._unordered)

    def __iter__(self) -> Iterator[Tuple[object, object]]:
        ordered = (
            (value, payload)
            for posting in map(self._postings.__getitem__, self._keys)
            for payload, value in posting.items()
        )
        return itertools.chain(ordered, self._unordered)

    def posting_count(self) -> int:
        """The number of distinct keys, one posting each."""
        return len(self._keys)

    def insert(self, value, payload) -> None:
        """Insert keeping the key order (a dict write; a bisect for a new key)."""
        if value != value:
            self._unordered.append((value, payload))
            return
        key = operand_key(value)
        posting = self._postings.get(key)
        if posting is None:
            self._postings[key] = {payload: value}
            bisect.insort(self._keys, key)
        elif payload in posting:
            raise ValueError(f"payload {payload!r} is already held under {value!r}")
        else:
            posting[payload] = value

    def delete(self, value, payload) -> bool:
        """Remove the ``(value, payload)`` entry; False if absent."""
        if value != value:
            for index, (_, stored) in enumerate(self._unordered):
                if stored == payload:
                    del self._unordered[index]
                    return True
            return False
        key = operand_key(value)
        posting = self._postings.get(key)
        if posting is None or posting.pop(payload, _ABSENT) is _ABSENT:
            return False
        if not posting:
            del self._postings[key]
            del self._keys[bisect.bisect_left(self._keys, key)]
        return True

    def _group_bounds(self, group: str) -> Tuple[int, int]:
        """The half-open key-index range holding the group's keys."""
        # (group,) sorts before every (group, value) and the projected
        # bisect finds the end of the group's run.
        lo = bisect.bisect_left(self._keys, (group,))
        hi = bisect.bisect_right(self._keys, (group,), key=_group_of)
        return lo, hi

    # ------------------------------------------------------------------
    # Range scans per operator
    # ------------------------------------------------------------------
    def range_for(self, predicate: Predicate) -> Tuple[int, int]:
        """The half-open range of distinct keys selected by a contiguous
        predicate.

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
        """Payloads of all entries whose value satisfies ``predicate``,
        in list order."""
        op = predicate.operator
        if op in (Operator.NE, Operator.NOT_IN):
            # Full scan minus the excluded values; the paper notes these
            # operators visit all entries except the operand's.
            return (payload for value, payload in self if predicate.matches(value))
        if op is Operator.IN:
            # Each entry must be yielded at most once per predicate —
            # duplicate members (a raw ``(3, 3)`` operand) or key-equal
            # members (``1`` / ``True`` / ``1.0``) would double-increment
            # the counting algorithm and fake a full |s| count, so the
            # members collapse to their distinct keys.  A self-unequal
            # member has no key; set membership can still hold for an
            # unordered entry (the very same NaN object).
            keys = {operand_key(member) for member in predicate.operand if member == member}
            ordered = itertools.chain.from_iterable(
                [self._postings[key] for key in sorted(keys) if key in self._postings]
            )
            if not self._unordered:
                return ordered
            return itertools.chain(
                ordered,
                (payload for value, payload in self._unordered if predicate.matches(value)),
            )
        lo, hi = self.range_for(predicate)
        postings = map(self._postings.__getitem__, self._keys[lo:hi])
        return itertools.chain.from_iterable(postings)


class AttributeLists:
    """A bundle of per-attribute :class:`SortedTupleList` objects."""

    __slots__ = ("lists",)

    def __init__(self) -> None:
        self.lists: Dict[str, SortedTupleList] = {}

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.lists

    def __len__(self) -> int:
        return len(self.lists)

    def insert_tuples(self, attributes: Iterable[Tuple[str, object]], payload) -> None:
        """Index one item's attribute-value tuples under ``payload``; a
        list is created on first use."""
        lists = self.lists
        for attribute, value in attributes:
            lst = lists.get(attribute)
            if lst is None:
                lst = lists[attribute] = SortedTupleList()
            lst.insert(value, payload)

    def delete_tuples(self, attributes: Iterable[Tuple[str, object]], payload) -> None:
        """Remove one item's tuples; empty lists are pruned."""
        lists = self.lists
        for attribute, value in attributes:
            lst = lists.get(attribute)
            if lst is not None:
                lst.delete(value, payload)
                if not lst:
                    del lists[attribute]

    def partition(self, home: Dict[object, "AttributeLists"]) -> None:
        """Hand every entry to the bundle ``home[payload]``; each target
        must start without the attributes it receives.

        A list's postings are walked key by key in order, each in
        insertion order, so a target's keys arrive sorted (an append, no
        bisect, no key recomputed) and each of its postings keeps this
        list's order, which is the order inserting its entries one by one
        would leave.  This list is left as it was.
        """
        for attribute, source in self.lists.items():
            # target bundle -> its list for this attribute
            parts: Dict[AttributeLists, SortedTupleList] = {}
            postings = source._postings
            for key in source._keys:
                for payload, value in postings[key].items():
                    bundle = home[payload]
                    part = parts.get(bundle)
                    if part is None:
                        part = parts[bundle] = bundle.lists[attribute] = SortedTupleList()
                    posting = part._postings.get(key)
                    if posting is None:
                        posting = part._postings[key] = {}
                        part._keys.append(key)
                    posting[payload] = value
            for value, payload in source._unordered:
                bundle = home[payload]
                part = parts.get(bundle)
                if part is None:
                    part = parts[bundle] = bundle.lists[attribute] = SortedTupleList()
                part._unordered.append((value, payload))

    def count_matches(self, predicates: Iterable[Predicate]) -> Dict:
        """The counting algorithm: payload -> number of satisfied predicates,
        in the order of each payload's first increment.

        Returns an empty dict as soon as one predicate's attribute is
        missing — no event here can reach the full count then.
        """
        predicates = list(predicates)
        lists = self.lists
        for predicate in predicates:
            if predicate.attribute not in lists:
                return {}
        # one C counting pass over every predicate's matching payloads
        return Counter(
            itertools.chain.from_iterable(
                lists[predicate.attribute].iter_matching(predicate)
                for predicate in predicates
            )
        )

    def matching_payloads(self, predicates: Iterable[Predicate]) -> List:
        """Payloads satisfying *all* predicates (full counter value)."""
        predicates = list(predicates)
        counters = self.count_matches(predicates)
        needed = len(predicates)
        return [payload for payload, count in counters.items() if count == needed]
