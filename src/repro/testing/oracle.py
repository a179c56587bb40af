"""A brute-force matching oracle for differential testing.

Every index in :mod:`repro.index` is an optimisation of the same
specification — Definition 5: subscriber ``s`` standing at ``at`` is
notified of event ``e`` iff the boolean expression matches ``e``'s
attributes and ``e`` lies within the notification radius.  The oracle
implements that specification with no index at all: a flat event list
scanned in O(S·E).  Anything cleverer (BEQ-Tree walks, OpIndex counting,
batched single-pass matching) must agree with it *exactly*; the
differential suite in ``tests/test_oracle_differential.py`` holds them
to that on randomized workloads.

The oracle is deliberately dumb: no early exits, no spatial pruning, no
shared state between queries — each ``match`` call re-scans the full
event list so a bug cannot hide in cached results.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..expressions import Event, Subscription
from ..geometry import Point


class BruteForceOracle:
    """The O(S·E) reference matcher: a scanned list of events."""

    def __init__(self, events: Iterable[Event] = ()) -> None:
        self._events: List[Event] = []
        self._ids: Set[int] = set()
        for event in events:
            self.insert(event)

    def __len__(self) -> int:
        return len(self._events)

    def insert(self, event: Event) -> None:
        """Append an event (duplicate ids rejected, like the real indexes)."""
        if event.event_id in self._ids:
            raise ValueError(f"duplicate event id {event.event_id}")
        self._ids.add(event.event_id)
        self._events.append(event)

    def delete(self, event: Event) -> None:
        """Remove an event by id."""
        if event.event_id not in self._ids:
            raise KeyError(f"unknown event id {event.event_id}")
        self._ids.discard(event.event_id)
        self._events = [e for e in self._events if e.event_id != event.event_id]

    # ------------------------------------------------------------------
    # The specification
    # ------------------------------------------------------------------
    def be_match(self, subscription: Subscription) -> List[Event]:
        """Definition 3: boolean-expression matches, locations ignored."""
        return [e for e in self._events if subscription.be_matches(e)]

    def match(
        self,
        subscription: Subscription,
        at: Point,
        exclude: Optional[AbstractSet[int]] = None,
    ) -> List[Event]:
        """Definition 5: full matches for one subscriber at ``at``, minus
        the already-sent ids in ``exclude``.

        Insertion order — compare against index output as *sets* of event
        ids (the indexes return spatial-walk order).
        """
        exclude = exclude or ()
        return [
            e
            for e in self._events
            if e.event_id not in exclude and subscription.matches(e, at)
        ]

    def matching_pairs(
        self, queries: Sequence[Tuple[Subscription, Point]]
    ) -> Set[Tuple[int, int]]:
        """Every ``(sub_id, event_id)`` pair the specification notifies.

        The order-free canonical form all index outputs are reduced to in
        the differential tests.
        """
        return {
            (subscription.sub_id, event.event_id)
            for subscription, at in queries
            for event in self.match(subscription, at)
        }

    def matches_of_event(
        self, event: Event, queries: Sequence[Tuple[Subscription, Point]]
    ) -> List[Subscription]:
        """The event-arrival direction: who is notified of ``event``.

        The mirror of :meth:`match` used to check subscription-side
        indexes (OpIndex / SubscriptionIndex counting algorithm).
        """
        return [s for s, at in queries if s.matches(event, at)]


def oracle_pairs(
    events: Iterable[Event], queries: Sequence[Tuple[Subscription, Point]]
) -> Set[Tuple[int, int]]:
    """One-shot convenience: the notification pairs of a static workload."""
    return BruteForceOracle(events).matching_pairs(queries)


def ids(events: Iterable[Event]) -> List[int]:
    """Event ids in the given order (test-side comparison helper)."""
    return [event.event_id for event in events]
