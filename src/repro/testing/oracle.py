"""Reference implementations for differential testing: a brute-force
matcher and the scalar Algorithm 1.

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

:class:`ScalarIGM` / :class:`ScalarIDGM` are the construction side's
oracle: Algorithm 1 written as the paper states it — ``Set[Cell]``
frontier state, one ``is_cell_safe`` / ``count_in_cell`` question to the
field per cell — which the array-backed :class:`~repro.core.IGM` /
:class:`~repro.core.IDGM` must reproduce byte for byte (same cells, same
``visit_order``, same ``bm`` floats, same scan counters).  They override
only ``construct``; ``tests/test_vectorized_differential.py``, the golden
traces and the property suites run them beside the served core.  They
are test code: no registry names them.
"""

from __future__ import annotations

import heapq
import math
from typing import AbstractSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core import (
    IDGM,
    IGM,
    ConstructionRequest,
    CostModel,
    ImpactRegion,
    RegionPair,
    SafeRegion,
)
from ..expressions import Event, Subscription
from ..geometry import Cell, Point, interleave


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


class ScalarIGM(IGM):
    """iGM over ``Set[Cell]`` state: the array core's differential reference."""

    def construct(self, request: ConstructionRequest) -> RegionPair:
        """Algorithm 1: grid expansion bounded by the balance ratio."""
        grid = request.grid
        field = request.matching_field
        model = CostModel(request.stats)
        radius = request.radius
        speed = request.speed

        start = grid.cell_of(request.location)
        start_dist = grid.min_distance_point_cell(request.location, start)

        # Heap entries are (priority, dist, z-order key, cell): equal-score
        # frontier ties break on the cell's Morton code, a spatial order
        # that is stable across this loop and the array core (and
        # total — the z key is injective — so the pop sequence is unique
        # regardless of push order).
        heap: List[Tuple[float, float, int, Cell]] = []
        visited: Set[Cell] = {start}
        region: Set[Cell] = set()
        impact: Set[Cell] = set()
        matching_in_impact = 0
        cells_examined = 0
        last_accepted_bm: Optional[float] = None
        first_rejected_bm: Optional[float] = None
        visit_order: Optional[List[Cell]] = [] if self.record_visits else None

        heapq.heappush(
            heap,
            (self._priority(request, start, start_dist), start_dist, interleave(*start), start),
        )
        disk = grid.disk(radius)
        offsets = disk.offsets
        strips = disk.strips

        while heap:
            if self.max_cells is not None and len(region) >= self.max_cells:
                break
            _, dist, _, cell = heapq.heappop(heap)
            cells_examined += 1
            if visit_order is not None:
                visit_order.append(cell)
            if not field.is_cell_safe(cell):
                continue  # B[c'] is false: the cell stays outside (line 10)

            unvisited_adjacent = [
                neighbor for neighbor in grid.neighbors(cell) if neighbor not in visited
            ]
            # Equation 7: d(s, R + c') = min(H.top().dist, d(s, c'') over the
            # unvisited adjacent cells of c').  H.top() follows the heap's
            # own expansion order — for idGM that is the tau-ranked frontier,
            # which deliberately estimates the exit time along the expected
            # direction of motion rather than the worst-case rear boundary.
            adjacent_dists = [
                grid.min_distance_point_cell(request.location, neighbor)
                for neighbor in unvisited_adjacent
            ]
            candidates = list(adjacent_dists)
            if heap:
                candidates.append(heap[0][1])
            boundary_distance = min(candidates) if candidates else math.inf

            # Example 2: only the impact cells not yet covered are added.
            # When an already-accepted neighbour exists, the candidates
            # shrink from the full disk to the strip past that neighbour
            # (intersected over all accepted neighbours).
            i, j = cell
            candidate_offsets = None
            if self.incremental_impact:
                for direction, strip in strips.items():
                    if (i + direction[0], j + direction[1]) in region:
                        candidate_offsets = (
                            strip
                            if candidate_offsets is None
                            else candidate_offsets & strip
                        )
            if candidate_offsets is None:
                candidate_offsets = offsets
            new_impact = [
                (i + di, j + dj)
                for (di, dj) in candidate_offsets
                if grid.in_bounds((i + di, j + dj)) and (i + di, j + dj) not in impact
            ]
            candidate_ne = matching_in_impact + sum(
                field.count_in_cell(impact_cell) for impact_cell in new_impact
            )
            bm = model.balance(boundary_distance, speed, candidate_ne)
            if bm > self.beta and first_rejected_bm is None:
                first_rejected_bm = bm
            if bm <= self.beta:
                last_accepted_bm = bm
                region.add(cell)
                impact.update(new_impact)
                matching_in_impact = candidate_ne
                for neighbor, neighbor_dist in zip(unvisited_adjacent, adjacent_dists):
                    visited.add(neighbor)
                    heapq.heappush(
                        heap,
                        (
                            self._priority(request, neighbor, neighbor_dist),
                            neighbor_dist,
                            interleave(*neighbor),
                            neighbor,
                        ),
                    )

        safe = SafeRegion.of(grid, region)
        return RegionPair(
            safe=safe,
            impact=ImpactRegion.of(grid, impact),
            cells_examined=cells_examined,
            last_accepted_bm=last_accepted_bm,
            first_rejected_bm=first_rejected_bm,
            matching_in_impact=matching_in_impact,
            visit_order=tuple(visit_order) if visit_order is not None else None,
        )


class ScalarIDGM(IDGM):
    """idGM over ``Set[Cell]`` state: the array core's differential reference."""

    construct = ScalarIGM.construct
