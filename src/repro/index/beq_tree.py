"""BEQ-Tree: Boolean Expression Quad-Tree (Section 4 of the paper).

The BEQ-Tree is a two-layer index over spatial events:

* **First layer** — a quadtree partitions the space; each leaf cell holds
  at most ``emax`` events.
* **Second layer** — inside each leaf cell ``G``:

  - one sorted inverted list ``L<G, A>`` per attribute ``A`` holding the
    ``(value, event)`` tuples of the cell's events;
  - one *spatial list* ``L<G, y>`` holding, for each event, its iDistance
    value ``y = dist(event, sigma)`` to the cell's reference point
    ``sigma`` (the cell centre), sorted ascending;
  - a counter array used by the counting algorithm.

Subscription matching (Algorithm 2) visits only the leaf cells whose
boundary intersects the notification circle, prunes cells missing any
subscription attribute, runs the counting algorithm over the per-attribute
lists (the BE phase), and then scans only the ``[dmin, dmax]`` interval of
the spatial list (the spatial phase), verifying the exact distance for
events whose counter reached |s|.

The tree also serves iGM/idGM safe-region construction *on demand*: the
constructor asks for be-matching events only in the leaf cells its grid
expansion actually touches, so the rest of the space is never scanned
(Section 4.2, "BEQ-Tree used in iGM and idGM").
"""

from __future__ import annotations

import bisect
import itertools
import math
from operator import itemgetter
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..expressions import BooleanExpression, Event, Subscription
from ..expressions.dnf import clauses_of
from ..geometry import Circle, Point, Rect
from .base import EventIndex
from .inverted import AttributeLists

#: per-leaf clause-cache entries beyond this are assumed pathological
#: (an adversarial vocabulary) and the cache is dropped wholesale
_CLAUSE_CACHE_LIMIT = 128


class CacheCounters:
    """The clause-cache counters, shared by every leaf of a tree so the
    server can account the cache globally: ``hits`` / ``misses`` are the
    per-leaf clause-cache outcomes (a hit skips the counting algorithm's
    inverted-list probes entirely).
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> Tuple[int, int]:
        """The counter pair, for delta accounting."""
        return (self.hits, self.misses)


def circle_rect_boundary_intersections(circle: Circle, rect: Rect) -> List[Point]:
    """Intersection points of the circle's boundary with the rectangle's edges.

    Used to tighten the ``dmax`` bound of the spatial range match when the
    subscriber stands outside the cell and the notification circle does not
    swallow any cell corner (Figure 5).
    """
    cx, cy, r = circle.center.x, circle.center.y, circle.radius
    points: List[Point] = []

    def add_vertical(x: float, y_low: float, y_high: float) -> None:
        dx = x - cx
        discriminant = r * r - dx * dx
        if discriminant < 0:
            return
        root = math.sqrt(discriminant)
        for y in (cy - root, cy + root):
            if y_low <= y <= y_high:
                points.append(Point(x, y))

    def add_horizontal(y: float, x_low: float, x_high: float) -> None:
        dy = y - cy
        discriminant = r * r - dy * dy
        if discriminant < 0:
            return
        root = math.sqrt(discriminant)
        for x in (cx - root, cx + root):
            if x_low <= x <= x_high:
                points.append(Point(x, y))

    add_vertical(rect.x_min, rect.y_min, rect.y_max)
    add_vertical(rect.x_max, rect.y_min, rect.y_max)
    add_horizontal(rect.y_min, rect.x_min, rect.x_max)
    add_horizontal(rect.y_max, rect.x_min, rect.x_max)
    return points


class SpatialList:
    """A leaf's iDistance list ``L<G, y>``: event ids sorted by their
    distance to the reference point, as two parallel lists.

    Distances are plain floats, nearly all distinct, so equal keys buy
    nothing here: a write bisects and shifts, and a range query is one
    slice of the ids.
    """

    __slots__ = ("distances", "ids")

    def __init__(self) -> None:
        self.distances: List[float] = []
        self.ids: List[int] = []

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        return zip(self.distances, self.ids)

    def insert(self, distance: float, event_id: int) -> None:
        """Insert after every entry at an equal distance."""
        index = bisect.bisect_right(self.distances, distance)
        self.distances.insert(index, distance)
        self.ids.insert(index, event_id)

    def delete(self, distance: float, event_id: int) -> None:
        """Remove the entry; ``ValueError`` if it is absent."""
        index = bisect.bisect_left(self.distances, distance)
        hi = bisect.bisect_right(self.distances, distance, lo=index)
        index = self.ids.index(event_id, index, hi)
        del self.distances[index]
        del self.ids[index]

    @classmethod
    def of(cls, entries: Iterable[Tuple[float, int]]) -> "SpatialList":
        """The list inserting ``(distance, id)`` entries one by one would
        leave, sorted once (stably, so equal distances keep their order)."""
        spatial = cls()
        for distance, event_id in sorted(entries, key=itemgetter(0)):
            spatial.distances.append(distance)
            spatial.ids.append(event_id)
        return spatial

    def ids_within(self, d_min: float, d_max: float) -> List[int]:
        """Ids at a distance in ``[d_min, d_max]`` (``d_max`` may be inf)."""
        lo = bisect.bisect_left(self.distances, d_min)
        return self.ids[lo : bisect.bisect_right(self.distances, d_max, lo=lo)]


class LeafCell:
    """One leaf partition ``G`` with its second-layer structures."""

    __slots__ = (
        "cell_id", "boundary", "reference", "lists", "spatial", "events",
        "counters", "_clause_cache",
    )

    def __init__(
        self, cell_id: int, boundary: Rect, counters: Optional[CacheCounters] = None
    ) -> None:
        self.cell_id = cell_id
        self.boundary = boundary
        self.reference = boundary.center  # the reference point sigma
        self.lists = AttributeLists()
        self.spatial = SpatialList()
        self.events: Dict[int, Event] = {}
        self.counters = counters if counters is not None else CacheCounters()
        # clause -> event ids be-matching it in this cell; any event churn
        # invalidates the whole cache (the counting result of every clause
        # may have changed)
        self._clause_cache: Dict[BooleanExpression, FrozenSet[int]] = {}

    def __len__(self) -> int:
        return len(self.events)

    def add(self, event: Event) -> None:
        """Index one event into the cell's three structures."""
        self._clause_cache.clear()
        self.events[event.event_id] = event
        self.lists.insert_tuples(event.attributes.items(), event.event_id)
        self.spatial.insert(self.reference.distance_to(event.location), event.event_id)

    def remove(self, event_id: int) -> None:
        """Remove one stored event from the cell's three structures.

        The tuples and distance deleted are the stored event's own, so a
        caller's copy carrying other attributes cannot leave any behind.
        """
        self._clause_cache.clear()
        event = self.events.pop(event_id)
        self.lists.delete_tuples(event.attributes.items(), event_id)
        self.spatial.delete(self.reference.distance_to(event.location), event_id)

    def clause_match_ids(self, clause: BooleanExpression) -> FrozenSet[int]:
        """Ids of this cell's events be-matching one conjunctive clause.

        The result is memoised per clause: a burst of constructions
        probing the same vocabulary pays the counting algorithm once per
        (leaf, clause) instead of once per call.
        """
        cached = self._clause_cache.get(clause)
        if cached is not None:
            self.counters.hits += 1
            return cached
        self.counters.misses += 1
        ids = frozenset(self.lists.matching_payloads(clause.predicates))
        if len(self._clause_cache) >= _CLAUSE_CACHE_LIMIT:
            self._clause_cache.clear()
        self._clause_cache[clause] = ids
        return ids

    def be_match(
        self, expression, exclude: Optional[AbstractSet[int]] = None
    ) -> List[Event]:
        """Events of this cell be-matching the expression (counting only),
        except those whose id is in ``exclude``.

        Accepts a plain conjunction or a DNF; a DNF unions the clauses'
        counting results.
        """
        matched_ids: set = set()
        for clause in clauses_of(expression):
            matched_ids.update(self.clause_match_ids(clause))
        if exclude:
            # one set difference, before any event object is touched
            matched_ids = matched_ids - exclude
        return [self.events[event_id] for event_id in matched_ids]


class _Node:
    """A BEQ-Tree node: a leaf wraps a :class:`LeafCell`."""

    __slots__ = ("boundary", "cell", "children")

    def __init__(self, boundary: Rect, cell: Optional[LeafCell]) -> None:
        self.boundary = boundary
        self.cell = cell
        self.children: Optional[List["_Node"]] = None

    @property
    def is_leaf(self) -> bool:
        """True when this node holds a leaf cell."""
        return self.children is None


class BEQTree(EventIndex):
    """The Boolean Expression Quad-Tree."""

    def __init__(self, boundary: Rect, emax: int = 64, max_depth: int = 16) -> None:
        if emax <= 0:
            raise ValueError(f"emax must be positive: {emax}")
        self.boundary = boundary
        self.emax = emax
        self.max_depth = max_depth
        #: the clause-cache counters every leaf shares
        self.counters = CacheCounters()
        self._cell_ids = itertools.count()
        self._root = _Node(boundary, self._new_leaf(boundary))
        self._size = 0
        self._event_ids: set = set()

    def _new_leaf(self, boundary: Rect) -> LeafCell:
        return LeafCell(next(self._cell_ids), boundary, self.counters)

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Updates (Appendix C)
    # ------------------------------------------------------------------
    def insert(self, event: Event) -> None:
        """Insert one event: a batch of one."""
        self.insert_batch((event,))

    def validate_batch(self, events: Sequence[Event]) -> None:
        """Refuse, with ``ValueError``, a batch :meth:`insert_batch` would
        refuse: an event outside the boundary, an id the tree holds, or an
        id repeated within the batch.  Checks only; stores nothing."""
        fresh_ids: set = set()
        for event in events:
            if not self.boundary.contains_point(event.location):
                raise ValueError(
                    f"event {event.event_id} at {event.location} is outside {self.boundary}"
                )
            if event.event_id in self._event_ids or event.event_id in fresh_ids:
                raise ValueError(f"duplicate event id {event.event_id}")
            fresh_ids.add(event.event_id)

    def insert_batch(self, events: Iterable[Event], validated: bool = False) -> None:
        """Insert events in the order given (Appendix C): descend to each
        event's leaf, add it, and split the leaf past ``emax``.

        The batch is validated upfront (:meth:`validate_batch`; skipped
        when the caller already did, ``validated``), so a rejected batch
        inserts nothing.
        """
        batch = list(events)
        if not validated:
            self.validate_batch(batch)
        self._event_ids.update(event.event_id for event in batch)
        self._size += len(batch)
        for event in batch:
            node, depth = self._descend(event.location)
            node.cell.add(event)
            if len(node.cell) > self.emax and depth < self.max_depth:
                self._split(node, depth)

    def _descend(self, location: Point):
        node, depth = self._root, 1
        while not node.is_leaf:
            node = self._child_for(node, location)
            depth += 1
        return node, depth

    @staticmethod
    def _child_for(node: _Node, location: Point) -> _Node:
        cx = (node.boundary.x_min + node.boundary.x_max) / 2.0
        cy = (node.boundary.y_min + node.boundary.y_max) / 2.0
        index = (1 if location.x >= cx else 0) + (2 if location.y >= cy else 0)
        return node.children[index]

    def _split(self, node: _Node, depth: int) -> None:
        """Partition a full leaf into four child cells (Appendix C).

        The children are filled in bulk, in the full leaf's event order:
        its postings are handed out key by key and each child's distances
        sorted once, which leaves every child as adding its events one by
        one would, without re-keying a tuple or bisecting per entry.
        """
        full = node.cell
        node.cell = None
        node.children = [
            _Node(quad, self._new_leaf(quad)) for quad in node.boundary.quadrants()
        ]
        home: Dict[int, AttributeLists] = {}
        for event_id, event in full.events.items():
            cell = self._child_for(node, event.location).cell
            cell.events[event_id] = event
            home[event_id] = cell.lists
        full.lists.partition(home)
        for child in node.children:
            cell = child.cell
            cell.spatial = SpatialList.of(
                (cell.reference.distance_to(event.location), event_id)
                for event_id, event in cell.events.items()
            )
            if len(cell) > self.emax and depth + 1 < self.max_depth:
                self._split(child, depth + 1)

    def delete(self, event: Event) -> None:
        """Delete an event; merges empty sibling leaves (Appendix C)."""
        path: List[_Node] = []
        node = self._root
        while not node.is_leaf:
            path.append(node)
            node = self._child_for(node, event.location)
        if event.event_id not in node.cell.events:
            raise KeyError(f"event {event.event_id} is not in the index")
        node.cell.remove(event.event_id)
        self._event_ids.discard(event.event_id)
        self._size -= 1
        # Merge empty sibling leaves back into the parent (Appendix C).
        for parent in reversed(path):
            children = parent.children
            if all(child.is_leaf and len(child.cell) == 0 for child in children):
                parent.children = None
                parent.cell = self._new_leaf(parent.boundary)
            else:
                break

    # ------------------------------------------------------------------
    # Leaf traversal
    # ------------------------------------------------------------------
    def leaves(self) -> Iterator[LeafCell]:
        """Every leaf cell of the tree."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node.cell
            else:
                stack.extend(node.children)

    def leaves_intersecting_circle(self, circle: Circle) -> Iterator[LeafCell]:
        """Leaf cells whose boundary intersects the disk."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not circle.intersects_rect(node.boundary):
                continue
            if node.is_leaf:
                yield node.cell
            else:
                stack.extend(node.children)

    def leaves_intersecting_rect(self, rect: Rect) -> Iterator[LeafCell]:
        """Leaf cells whose boundary intersects the rectangle."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not rect.intersects(node.boundary):
                continue
            if node.is_leaf:
                yield node.cell
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

    def memory_stats(self) -> dict:
        """Structure counts backing Appendix C's memory-cost analysis.

        ``tuple_entries`` is |T| (one entry per event tuple in the
        second-layer lists), ``postings`` the number of distinct
        (leaf, attribute, value) postings those entries share, and
        ``spatial_entries`` equals the event count (one iDistance entry
        each); the total space is O(|T|), linear in the stored tuples.
        """
        leaves = 0
        tuple_entries = 0
        postings = 0
        spatial_entries = 0
        attribute_lists = 0
        for leaf in self.leaves():
            leaves += 1
            spatial_entries += len(leaf.spatial)
            attribute_lists += len(leaf.lists)
            for lst in leaf.lists.lists.values():
                tuple_entries += len(lst)
                postings += lst.posting_count()
        return {
            "events": self._size,
            "leaves": leaves,
            "depth": self.depth(),
            "attribute_lists": attribute_lists,
            "tuple_entries": tuple_entries,
            "postings": postings,
            "spatial_entries": spatial_entries,
        }

    # ------------------------------------------------------------------
    # Matching (Algorithm 2)
    # ------------------------------------------------------------------
    def match(
        self,
        subscription: Subscription,
        at: Point,
        exclude: Optional[AbstractSet[int]] = None,
    ) -> List[Event]:
        """All stored events matching ``subscription`` at location ``at``,
        except those whose id is in ``exclude``."""
        circle = subscription.notification_region(at)
        matched: List[Event] = []
        for leaf in self.leaves_intersecting_circle(circle):
            matched.extend(self._match_in_leaf(leaf, subscription, circle, exclude))
        return matched

    def be_candidates(self, subscription: Subscription, at: Point) -> List[Event]:
        """Events passing the BE phase in the circle-intersecting leaves."""
        circle = subscription.notification_region(at)
        candidates: List[Event] = []
        for leaf in self.leaves_intersecting_circle(circle):
            candidates.extend(leaf.be_match(subscription.expression))
        return candidates

    def _match_in_leaf(
        self,
        leaf: LeafCell,
        subscription: Subscription,
        circle: Circle,
        exclude: Optional[AbstractSet[int]] = None,
    ) -> List[Event]:
        """Algorithm 2: BESpatialMatch within one cell partition ``G``."""
        # Lines 2-10, per conjunctive clause: a clause whose attribute is
        # missing from the cell prunes only itself; the counting algorithm
        # collects the cell's be-matching events across clauses.
        matched_ids: set = set()
        for clause in clauses_of(subscription.expression):
            if any(p.attribute not in leaf.lists for p in clause.predicates):
                continue
            matched_ids.update(leaf.clause_match_ids(clause))
        if exclude:
            # already-sent events leave before the spatial scan, in one
            # set difference, not one distance test each
            matched_ids = matched_ids - exclude
        if not matched_ids:
            return []
        # Lines 11-16: the iDistance interval of the spatial list.
        y = circle.center.distance_to(leaf.reference)
        r = circle.radius
        d_min = max(y - r, 0.0)
        if leaf.boundary.contains_point(circle.center):
            d_max = y + r
        elif circle.contains_any_corner_of(leaf.boundary):
            d_max = math.inf
        else:
            crossings = circle_rect_boundary_intersections(circle, leaf.boundary)
            if crossings:
                d_max = max(leaf.reference.distance_to(p) for p in crossings)
            else:
                d_max = y + r  # tangent / degenerate overlap: safe fallback
        # Lines 17-20: scan the interval and verify the exact distance.
        matched: List[Event] = []
        for event_id in leaf.spatial.ids_within(d_min, d_max):
            if event_id not in matched_ids:
                continue
            event = leaf.events[event_id]
            if circle.contains(event.location):
                matched.append(event)
        return matched

    # ------------------------------------------------------------------
    # On-demand BE matching for safe-region construction (Section 4.2)
    # ------------------------------------------------------------------
    def be_match_in_rect(self, expression: BooleanExpression, rect: Rect) -> List[Event]:
        """be-matching events in all leaf cells intersecting ``rect``."""
        matched: List[Event] = []
        for leaf in self.leaves_intersecting_rect(rect):
            matched.extend(leaf.be_match(expression))
        return matched

    def be_match(self, expression: BooleanExpression) -> List[Event]:
        """be-matching events over the whole space."""
        matched: List[Event] = []
        for leaf in self.leaves():
            matched.extend(leaf.be_match(expression))
        return matched
