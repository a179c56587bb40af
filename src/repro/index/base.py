"""The common interface of the four event indexes the paper compares.

Each index supports insertion/deletion of spatial events and answers a
*subscription match*: given a spatial subscription and the subscriber's
current location, return every stored event that both be-matches the
subscription (Definition 3) and lies inside its notification region
(Definition 4).

The evaluation (Figure 8) reports the boolean-expression phase and the
spatial phase separately, so the interface exposes the two stages:
``be_candidates`` runs the index's native filtering order and returns the
candidates it would hand to the remaining verification, and ``match``
completes the job.  For Quadtree the "BE phase" is the residual
expression verification and the "spatial phase" the range query, mirroring
the paper's per-method accounting.
"""

from __future__ import annotations

import abc
from typing import AbstractSet, Iterable, List, Optional

from ..expressions import Event, Subscription
from ..geometry import Point


class EventIndex(abc.ABC):
    """Abstract base of Quadtree, k-index, OpIndex and BEQ-Tree."""

    @abc.abstractmethod
    def insert(self, event: Event) -> None:
        """Add ``event`` to the index."""

    @abc.abstractmethod
    def delete(self, event: Event) -> None:
        """Remove ``event``; unknown events raise :class:`KeyError`."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """The number of stored events."""

    @abc.abstractmethod
    def match(
        self,
        subscription: Subscription,
        at: Point,
        exclude: Optional[AbstractSet[int]] = None,
    ) -> List[Event]:
        """All stored events matching ``subscription`` at location ``at``,
        except those whose id is in ``exclude`` (the ids a subscriber was
        already sent): the order-preserving filter of the full result."""

    def insert_all(self, events: Iterable[Event]) -> None:
        """Insert a batch of events."""
        for event in events:
            self.insert(event)
