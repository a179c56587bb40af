"""k-index over subscriptions: the alternative subscription index.

Section 5 of the paper adopts "an existing subscription index such as
OpIndex [16] and BE-Tree [15]" for the event-arrival path.  The default
here is the OpIndex-style :class:`~repro.index.SubscriptionIndex`; this
module provides the k-index alternative (Whang et al., PVLDB 2009) with
the same interface, so the server can run either.

k-index's first layer partitions subscriptions by *subscription size*
(the predicate count of a clause); the second layer groups each
partition's predicates by attribute.  Matching an event runs the
counting algorithm within each partition and reports the clauses whose
satisfied-predicate counter reaches the partition's size.

The size prune: a clause constraining ``k`` *distinct attributes* needs
an event carrying all of them, so partitions keyed ``k > |e|`` cannot
contain matches and are skipped outright — the k-index analogue of
OpIndex's pivot prune.  (Partitioning by distinct-attribute count rather
than raw predicate count keeps the prune sound when a clause stacks
several predicates on one attribute, e.g. both bounds of a range plus an
exclusion.)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from ..expressions import Event, Predicate, Subscription
from ..expressions.dnf import clauses_of


class KSubscriptionIndex:
    """Size-partitioned counting index over subscriptions."""

    def __init__(self) -> None:
        # distinct-attribute count -> attribute -> [(predicate, clause key)]
        self._partitions: Dict[int, Dict[str, List[Tuple[Predicate, Tuple[int, int]]]]] = {}
        self._subscriptions: Dict[int, Subscription] = {}
        # clause key -> (distinct attribute count, predicate count)
        self._clause_sizes: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: int) -> bool:
        return sub_id in self._subscriptions

    def insert(self, subscription: Subscription) -> None:
        """Register a subscription; a DNF registers one entry per clause."""
        if subscription.sub_id in self._subscriptions:
            raise ValueError(f"duplicate subscription id {subscription.sub_id}")
        for clause_index, clause in enumerate(clauses_of(subscription.expression)):
            key = (subscription.sub_id, clause_index)
            attribute_count = len(clause.attributes)
            partition = self._partitions.setdefault(attribute_count, defaultdict(list))
            for predicate in clause:
                partition[predicate.attribute].append((predicate, key))
            self._clause_sizes[key] = (attribute_count, len(clause.predicates))
        self._subscriptions[subscription.sub_id] = subscription

    def delete(self, subscription: Subscription) -> None:
        """Remove a subscription's clauses; empty partitions are pruned."""
        stored = self._subscriptions.pop(subscription.sub_id, None)
        if stored is None:
            raise KeyError(f"subscription {subscription.sub_id} is not in the index")
        for clause_index, clause in enumerate(clauses_of(stored.expression)):
            key = (stored.sub_id, clause_index)
            attribute_count, _ = self._clause_sizes.pop(key)
            partition = self._partitions[attribute_count]
            for predicate in clause:
                partition[predicate.attribute].remove((predicate, key))
                if not partition[predicate.attribute]:
                    del partition[predicate.attribute]
            if not partition:
                del self._partitions[attribute_count]

    def match_event(self, event: Event) -> List[Subscription]:
        """All stored subscriptions whose expression ``event`` satisfies."""
        matched: List[Subscription] = []
        matched_ids: set = set()
        event_size = len(event)
        for attribute_count, partition in self._partitions.items():
            if attribute_count > event_size:
                continue  # the k-index size prune
            counters: Dict[Tuple[int, int], int] = defaultdict(int)
            for attribute, value in event.attributes.items():
                for predicate, key in partition.get(attribute, ()):
                    if predicate.matches(value):
                        counters[key] += 1
            for key, count in counters.items():
                sub_id = key[0]
                if sub_id in matched_ids:
                    continue
                if count == self._clause_sizes[key][1]:
                    matched_ids.add(sub_id)
                    matched.append(self._subscriptions[sub_id])
        return matched

    def match_batch(self, events: Iterable[Event]) -> List[List[Subscription]]:
        """Per-event be-matches: :meth:`match_event` once per event."""
        return [self.match_event(event) for event in events]
