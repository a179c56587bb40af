"""k-index (Whang et al., PVLDB 2009) extended to event indexing.

k-index was designed to index *subscriptions* partitioned by subscription
size.  Following Section 2.2 of the Elaps paper we extend it to index
*events*: the first layer partitions events by event size |e| and the
second layer keeps per-attribute sorted inverted lists inside each
partition.

The size partitioning gives only a weak prune for subscription matching:
a matching event must carry a tuple for every distinct attribute of the
subscription, so partitions with |e| < #attributes(s) can be skipped —
but every larger partition must still be scanned, and the spatial
constraint is verified only afterwards, event by event.  That is exactly
the inefficiency the paper attributes to this extension.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional

from ..expressions import Event, Subscription
from ..expressions.dnf import clauses_of
from ..geometry import Point
from .base import EventIndex
from .inverted import AttributeLists


class KIndex(EventIndex):
    """Size-partitioned inverted-list index over events."""

    def __init__(self) -> None:
        self._partitions: Dict[int, AttributeLists] = {}
        self._events: Dict[int, Event] = {}

    def __len__(self) -> int:
        return len(self._events)

    def insert(self, event: Event) -> None:
        """Index an event into its size partition."""
        if event.event_id in self._events:
            raise ValueError(f"duplicate event id {event.event_id}")
        partition = self._partitions.get(len(event))
        if partition is None:
            partition = AttributeLists()
            self._partitions[len(event)] = partition
        partition.insert_tuples(event.attributes.items(), event.event_id)
        self._events[event.event_id] = event

    def delete(self, event: Event) -> None:
        """Remove an event; empty partitions are pruned."""
        stored = self._events.pop(event.event_id, None)
        if stored is None:
            raise KeyError(f"event {event.event_id} is not in the index")
        partition = self._partitions[len(stored)]
        partition.delete_tuples(stored.attributes.items(), stored.event_id)
        if not len(partition):
            del self._partitions[len(stored)]

    def be_candidates(self, subscription: Subscription, at: Point) -> List[Event]:
        """Events be-matching the subscription, across eligible partitions."""
        return self.be_match(subscription)

    def be_match(self, subscription: Subscription) -> List[Event]:
        """All stored events be-matching ``subscription`` (no spatial test).

        DNF subscriptions union the clauses' results; the size prune
        applies per clause.
        """
        matched_ids: set = set()
        matched: List[Event] = []
        for clause in clauses_of(subscription.expression):
            predicates = list(clause)
            min_size = len(clause.attributes)
            for size, partition in self._partitions.items():
                if size < min_size:
                    continue
                for event_id in partition.matching_payloads(predicates):
                    if event_id not in matched_ids:
                        matched_ids.add(event_id)
                        matched.append(self._events[event_id])
        return matched

    def match(
        self,
        subscription: Subscription,
        at: Point,
        exclude: Optional[AbstractSet[int]] = None,
    ) -> List[Event]:
        """Definition 5 match: be-match then spatial verification."""
        exclude = exclude or ()
        return [
            event
            for event in self.be_match(subscription)
            if event.event_id not in exclude
            and subscription.spatial_matches(event, at)
        ]
