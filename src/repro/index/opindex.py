"""OpIndex (Zhang, Chan, Tan, PVLDB 2014) extended to event indexing.

OpIndex partitions by a *pivot attribute*: each indexed item is assigned
its least-frequent attribute under a global attribute-frequency order, and
the second layer keeps per-attribute sorted inverted lists inside each
pivot partition.

Extended to events (Section 2.2 of the Elaps paper): an event's pivot is
its rarest attribute.  For subscription matching the pivot gives a
partition-level prune — a matching event contains every attribute of the
subscription, so its pivot can be at most as frequent as the rarest
subscription attribute; partitions pivoted on more frequent attributes
are skipped.  All remaining partitions must still be scanned, and the
spatial constraint is verified last, event by event — the inefficiency
the paper reports for this extension.

The global order is *fixed*: it is taken from an optional frequency hint
(e.g. the dataset vocabulary), or computed from the first bulk load, and
never changes afterwards.  A fixed order keeps the pivot prune sound —
every stored event's pivot was assigned under the same order the query
prune consults.  Attributes unknown to the order count as frequency 0
(rarest), which disables the prune for them but never loses a match.
"""

from __future__ import annotations

from collections import Counter
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Tuple

from ..expressions import Event, Subscription
from ..expressions.dnf import clauses_of
from ..geometry import Point
from .base import EventIndex
from .inverted import AttributeLists


class OpIndex(EventIndex):
    """Pivot-partitioned inverted-list index over events."""

    def __init__(self, frequency_hint: Optional[Mapping[str, int]] = None) -> None:
        self._partitions: Dict[str, AttributeLists] = {}
        self._events: Dict[int, Tuple[Event, str]] = {}
        self._order: Dict[str, int] = dict(frequency_hint or {})

    def __len__(self) -> int:
        return len(self._events)

    def _pivot_of(self, event: Event) -> str:
        """The event's rarest attribute; ties broken lexicographically."""
        return min(event.attributes, key=lambda a: (self._order.get(a, 0), a))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_all(self, events: Iterable[Event]) -> None:
        """Bulk load; derives the frequency order from the batch if unset."""
        events = list(events)
        if not self._order and events:
            frequencies: Counter = Counter()
            for event in events:
                frequencies.update(event.attributes.keys())
            self._order = dict(frequencies)
        for event in events:
            self.insert(event)

    def insert(self, event: Event) -> None:
        """Index an event into its pivot partition."""
        if event.event_id in self._events:
            raise ValueError(f"duplicate event id {event.event_id}")
        pivot = self._pivot_of(event)
        partition = self._partitions.get(pivot)
        if partition is None:
            partition = AttributeLists()
            self._partitions[pivot] = partition
        partition.insert_tuples(event.attributes.items(), event.event_id)
        self._events[event.event_id] = (event, pivot)

    def delete(self, event: Event) -> None:
        """Remove an event; empty partitions are pruned."""
        stored = self._events.pop(event.event_id, None)
        if stored is None:
            raise KeyError(f"event {event.event_id} is not in the index")
        stored_event, pivot = stored
        partition = self._partitions[pivot]
        partition.delete_tuples(stored_event.attributes.items(), stored_event.event_id)
        if not len(partition):
            del self._partitions[pivot]

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def be_candidates(self, subscription: Subscription, at: Point) -> List[Event]:
        """Events passing OpIndex's native (boolean-first) filtering."""
        return self.be_match(subscription)

    def be_match(self, subscription: Subscription) -> List[Event]:
        """All stored events be-matching ``subscription`` (no spatial test).

        DNF subscriptions union the clauses' results; the pivot prune
        applies per clause.
        """
        matched_ids: set = set()
        matched: List[Event] = []
        for clause in clauses_of(subscription.expression):
            predicates = list(clause)
            rarest = min(
                (self._order.get(a, 0) for a in clause.attributes),
                default=0,
            )
            for pivot, partition in self._partitions.items():
                # A matching event's pivot is its rarest attribute and the
                # event contains all clause attributes, so the pivot
                # frequency is bounded by the clause's rarest attribute.
                if self._order.get(pivot, 0) > rarest:
                    continue
                for event_id in partition.matching_payloads(predicates):
                    if event_id not in matched_ids:
                        matched_ids.add(event_id)
                        matched.append(self._events[event_id][0])
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
