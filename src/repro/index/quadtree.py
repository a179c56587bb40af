"""A point-region quadtree over spatial events.

This is the "Quadtree" baseline of Figure 8: a purely spatial index that
first collects every event inside the notification circle and only then
verifies the boolean expression event by event.  It is also the spatial
skeleton the BEQ-Tree builds on (the BEQ-Tree keeps its own node type
because its leaves carry inverted lists).
"""

from __future__ import annotations

from typing import AbstractSet, Iterator, List, Optional

from ..expressions import Event, Subscription
from ..geometry import Circle, Point, Rect
from .base import EventIndex


class _Node:
    """One quadtree node; a leaf holds events, an inner node four children."""

    __slots__ = ("boundary", "events", "children")

    def __init__(self, boundary: Rect) -> None:
        self.boundary = boundary
        self.events: Optional[List[Event]] = []
        self.children: Optional[List["_Node"]] = None

    @property
    def is_leaf(self) -> bool:
        """True when this node holds events directly."""
        return self.children is None


class QuadTree(EventIndex):
    """PR-quadtree: leaves split at ``max_per_leaf`` events.

    ``max_depth`` guards against unbounded splitting when many events share
    a location (real check-in data has heavy co-location).
    """

    def __init__(self, boundary: Rect, max_per_leaf: int = 64, max_depth: int = 16) -> None:
        if max_per_leaf <= 0:
            raise ValueError(f"max_per_leaf must be positive: {max_per_leaf}")
        self.boundary = boundary
        self.max_per_leaf = max_per_leaf
        self.max_depth = max_depth
        self._root = _Node(boundary)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert(self, event: Event) -> None:
        """Insert an event; splits the leaf past ``max_per_leaf``."""
        if not self.boundary.contains_point(event.location):
            raise ValueError(
                f"event {event.event_id} at {event.location} is outside {self.boundary}"
            )
        self._insert(self._root, event, depth=0)
        self._size += 1

    def _insert(self, node: _Node, event: Event, depth: int) -> None:
        while not node.is_leaf:
            node = self._child_for(node, event.location)
            depth += 1
        node.events.append(event)
        if len(node.events) > self.max_per_leaf and depth < self.max_depth:
            self._split(node, depth)

    def _split(self, node: _Node, depth: int) -> None:
        node.children = [_Node(quad) for quad in node.boundary.quadrants()]
        events, node.events = node.events, None
        for event in events:
            leaf = self._child_for(node, event.location)
            leaf.events.append(event)
        # A pathological split can push everything into one child; recurse
        # so the invariant is restored (bounded by max_depth).
        for child in node.children:
            if len(child.events) > self.max_per_leaf and depth + 1 < self.max_depth:
                self._split(child, depth + 1)

    @staticmethod
    def _child_for(node: _Node, location: Point) -> _Node:
        cx = (node.boundary.x_min + node.boundary.x_max) / 2.0
        cy = (node.boundary.y_min + node.boundary.y_max) / 2.0
        index = (1 if location.x >= cx else 0) + (2 if location.y >= cy else 0)
        return node.children[index]

    def delete(self, event: Event) -> None:
        """Delete an event; collapses empty subtrees."""
        path: List[_Node] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            node = self._child_for(node, event.location)
        try:
            node.events.remove(event)
        except ValueError:
            raise KeyError(f"event {event.event_id} is not in the index") from None
        self._size -= 1
        # Collapse parents whose children are all empty leaves (Appendix C).
        for parent in reversed(path):
            children = parent.children
            if all(child.is_leaf and not child.events for child in children):
                parent.children = None
                parent.events = []
            else:
                break

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def events_in_circle(self, circle: Circle) -> List[Event]:
        """All stored events inside the disk (the spatial phase)."""
        result: List[Event] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not circle.intersects_rect(node.boundary):
                continue
            if node.is_leaf:
                result.extend(e for e in node.events if circle.contains(e.location))
            else:
                stack.extend(node.children)
        return result

    def be_candidates(self, subscription: Subscription, at: Point) -> List[Event]:
        """Quadtree filters spatially first; candidates await BE verification."""
        return self.events_in_circle(subscription.notification_region(at))

    def match(
        self,
        subscription: Subscription,
        at: Point,
        exclude: Optional[AbstractSet[int]] = None,
    ) -> List[Event]:
        """Definition 5 match: range query then boolean verification."""
        exclude = exclude or ()
        return [
            event
            for event in self.be_candidates(subscription, at)
            if event.event_id not in exclude and subscription.be_matches(event)
        ]

    def leaves(self) -> Iterator[_Node]:
        """Every leaf node of the tree."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children)

    def depth(self) -> int:
        """The maximum leaf depth (1 for a single-leaf tree)."""
        best = 0
        stack = [(self._root, 1)]
        while stack:
            node, level = stack.pop()
            if node.is_leaf:
                best = max(best, level)
            else:
                stack.extend((child, level + 1) for child in node.children)
        return best
