"""BE-Tree-style subscription index (Sadoghi & Jacobsen, SIGMOD 2011).

Section 5 of the paper names BE-Tree, alongside OpIndex, as an adoptable
subscription index for the event-arrival path.  This module implements
the BE-Tree's signature *two-phase* scheme over conjunctive clauses:

* **space partitioning** — an overflowing node picks its most
  discriminating attribute (the one most of its clauses constrain and
  that was not used higher up) and moves the clauses constraining it
  into a child directory for that attribute;
* **space clustering** — within an attribute directory, each clause's
  predicate is summarised by its satisfying *interval* of the operand
  space and placed into one of a fixed number of value buckets (plus an
  "open" bucket for predicates whose satisfying set is not an interval,
  e.g. ``!=`` or ``not in``); each bucket is a node again, so
  partitioning and clustering alternate down the tree.

Matching an event walks only the buckets whose interval contains the
event's value for the directory attribute (plus the open bucket), and
evaluates the surviving clauses with early exit.  Like the other two
subscription indexes, a DNF registers one entry per clause and a
subscription is reported once.

This is a faithful miniature, not a re-implementation of every BE-Tree
engineering device (no bitmap leaves, no cost-based bucket adaptation).
Its role here is the one the paper assigns it: a drop-in alternative
behind :class:`~repro.system.ElapsServer`'s subscription-index slot,
equivalence-tested against the OpIndex-style default.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..expressions import Event, Operator, Predicate, Subscription
from ..expressions.dnf import clauses_of

ClauseKey = Tuple[int, int]  # (sub_id, clause index)


def predicate_interval(predicate: Predicate) -> Optional[Tuple[float, float]]:
    """The satisfying interval of a numeric predicate, or None.

    ``None`` means the satisfying set is not a closed numeric interval
    (``!=``, set operators, string operands, or a NaN bound, which no
    bucket arithmetic can place) and the predicate must go to the open
    bucket, which every probe visits.
    """
    operand = predicate.operand
    op = predicate.operator
    if op is Operator.BETWEEN:
        low, high = operand
        if isinstance(low, (int, float)) and isinstance(high, (int, float)):
            if low != low or high != high:
                return None
            return (float(low), float(high))
        return None
    if not isinstance(operand, (int, float)) or isinstance(operand, bool) or operand != operand:
        return None
    value = float(operand)
    if op is Operator.EQ:
        return (value, value)
    if op in (Operator.LT, Operator.LE):
        return (-math.inf, value)
    if op in (Operator.GT, Operator.GE):
        return (value, math.inf)
    return None


class _Entry:
    """One conjunctive clause stored in the tree."""

    __slots__ = ("key", "clause", "attributes")

    def __init__(self, key: ClauseKey, clause) -> None:
        self.key = key
        self.clause = clause
        self.attributes: FrozenSet[str] = clause.attributes

    def matches(self, event: Event) -> bool:
        """Evaluate the whole clause against the event."""
        return self.clause.matches(event.attributes)


class _Node:
    """A BE-Tree node: a bucket of clauses plus attribute directories."""

    __slots__ = ("bucket", "directories", "used_attributes")

    def __init__(self, used_attributes: FrozenSet[str]) -> None:
        self.bucket: List[_Entry] = []
        self.directories: Dict[str, "_Directory"] = {}
        self.used_attributes = used_attributes


class _Directory:
    """The clustering phase: value buckets over one attribute's operands."""

    __slots__ = ("attribute", "low", "high", "buckets", "open_bucket")

    FANOUT = 8

    def __init__(self, attribute: str, low: float, high: float,
                 used_attributes: FrozenSet[str]) -> None:
        self.attribute = attribute
        if not math.isfinite(low) or not math.isfinite(high) or low >= high:
            low, high = 0.0, 1.0
        self.low = low
        self.high = high
        self.buckets: List[_Node] = [
            _Node(used_attributes) for _ in range(self.FANOUT)
        ]
        self.open_bucket = _Node(used_attributes)

    def _bucket_range(self, interval: Tuple[float, float]) -> Optional[Tuple[int, int]]:
        """Bucket indexes [first, last] fully covering the interval."""
        low, high = interval
        if math.isinf(low) or math.isinf(high):
            return None
        if low < self.low or high > self.high:
            return None  # outside the clustering range (late insert)
        span = self.high - self.low
        first = int((low - self.low) / span * self.FANOUT)
        last = int((high - self.low) / span * self.FANOUT)
        if first != last:
            return None  # straddles buckets: keep it in the open bucket
        if not 0 <= first < self.FANOUT:
            return None
        return (first, last)

    def place(self, entry: _Entry, predicate: Predicate) -> "_Node":
        """The bucket this entry's predicate interval selects."""
        interval = predicate_interval(predicate)
        if interval is None:
            return self.open_bucket
        bucket_range = self._bucket_range(interval)
        if bucket_range is None:
            return self.open_bucket
        return self.buckets[bucket_range[0]]

    def probe(self, value) -> List["_Node"]:
        """The buckets that may hold predicates satisfied by ``value``."""
        nodes = [self.open_bucket]
        # a bool is the number it compares as (True == 1), as in
        # Predicate.matches; a NaN lies in no bucket
        if isinstance(value, (int, float)):
            v = float(value)
            if self.low <= v <= self.high:
                index = min(
                    int((v - self.low) / (self.high - self.low) * self.FANOUT),
                    self.FANOUT - 1,
                )
                nodes.append(self.buckets[index])
        return nodes

    def all_nodes(self) -> List["_Node"]:
        """Every bucket of this directory, open bucket included."""
        return [*self.buckets, self.open_bucket]


class BETreeIndex:
    """The BE-Tree-style subscription index."""

    def __init__(self, max_bucket: int = 16) -> None:
        if max_bucket <= 0:
            raise ValueError(f"max_bucket must be positive: {max_bucket}")
        self.max_bucket = max_bucket
        self._root = _Node(frozenset())
        self._subscriptions: Dict[int, Subscription] = {}

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: int) -> bool:
        return sub_id in self._subscriptions

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, subscription: Subscription) -> None:
        """Register a subscription; a DNF registers one entry per clause."""
        if subscription.sub_id in self._subscriptions:
            raise ValueError(f"duplicate subscription id {subscription.sub_id}")
        self._subscriptions[subscription.sub_id] = subscription
        for clause_index, clause in enumerate(clauses_of(subscription.expression)):
            entry = _Entry((subscription.sub_id, clause_index), clause)
            self._insert_entry(self._root, entry)

    def _insert_entry(self, node: _Node, entry: _Entry) -> None:
        while True:
            # Partitioning phase: descend into an existing directory for
            # one of the entry's attributes, if any.
            directory = next(
                (node.directories[a] for a in entry.attributes if a in node.directories),
                None,
            )
            if directory is None:
                break
            predicate = next(
                p for p in entry.clause.predicates
                if p.attribute == directory.attribute
            )
            node = directory.place(entry, predicate)
        node.bucket.append(entry)
        if len(node.bucket) > self.max_bucket:
            self._split(node)

    def _split(self, node: _Node) -> None:
        """Partition an overflowing bucket on its best unused attribute."""
        frequencies: Counter = Counter()
        for entry in node.bucket:
            for attribute in entry.attributes:
                if attribute not in node.used_attributes and attribute not in node.directories:
                    frequencies[attribute] += 1
        if not frequencies:
            return  # nothing left to partition on; the bucket stays fat
        attribute, gain = frequencies.most_common(1)[0]
        if gain < 2:
            return  # splitting would not spread anything out
        movers = [e for e in node.bucket if attribute in e.attributes]
        node.bucket = [e for e in node.bucket if attribute not in e.attributes]
        # clustering bounds from the movers' finite interval endpoints
        endpoints: List[float] = []
        for entry in movers:
            predicate = next(
                p for p in entry.clause.predicates if p.attribute == attribute
            )
            interval = predicate_interval(predicate)
            if interval is not None:
                endpoints.extend(v for v in interval if math.isfinite(v))
        low = min(endpoints) if endpoints else 0.0
        high = max(endpoints) if endpoints else 1.0
        used = node.used_attributes | {attribute}
        directory = _Directory(attribute, low, high, used)
        node.directories[attribute] = directory
        for entry in movers:
            predicate = next(
                p for p in entry.clause.predicates if p.attribute == attribute
            )
            target = directory.place(entry, predicate)
            target.bucket.append(entry)
            if len(target.bucket) > self.max_bucket:
                self._split(target)

    def delete(self, subscription: Subscription) -> None:
        """Remove a subscription's clauses from every bucket."""
        stored = self._subscriptions.pop(subscription.sub_id, None)
        if stored is None:
            raise KeyError(f"subscription {subscription.sub_id} is not in the index")
        keys = {
            (stored.sub_id, clause_index)
            for clause_index in range(len(clauses_of(stored.expression)))
        }
        removed = self._remove_keys(self._root, keys)
        assert removed == len(keys), "index out of sync with the subscription set"

    def _remove_keys(self, node: _Node, keys: set) -> int:
        removed = len([e for e in node.bucket if e.key in keys])
        if removed:
            node.bucket = [e for e in node.bucket if e.key not in keys]
        for directory in node.directories.values():
            for child in directory.all_nodes():
                removed += self._remove_keys(child, keys)
        return removed

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match_event(self, event: Event) -> List[Subscription]:
        """All stored subscriptions whose expression the event satisfies."""
        matched_ids: set = set()
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.bucket:
                if entry.key[0] in matched_ids:
                    continue
                if entry.matches(event):
                    matched_ids.add(entry.key[0])
            for attribute, directory in node.directories.items():
                if attribute in event.attributes:
                    stack.extend(directory.probe(event.attributes[attribute]))
                # clauses constraining an attribute the event lacks can
                # never match: the whole directory is pruned
        return [self._subscriptions[sub_id] for sub_id in sorted(matched_ids)]

    def match_batch(self, events: Iterable[Event]) -> List[List[Subscription]]:
        """Per-event be-matches: :meth:`match_event` once per event."""
        return [self.match_event(event) for event in events]

    # ------------------------------------------------------------------
    # Introspection (for tests and tuning)
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total node count (tree-shape introspection for tests)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            for directory in node.directories.values():
                stack.extend(directory.all_nodes())
        return count
