"""iGM and idGM: incremental grid-based safe-region construction.

Algorithm 1 of the paper: start from the subscriber's cell and expand over
adjacent cells, cheapest first, evaluating after each candidate whether
the balance ratio ``bm`` (Equation 6) would stay within the termination
threshold (1 at the optimum, Lemmas 5-7; Figure 9 sweeps it).  Safe and
impact regions grow *together*: accepting a cell dilates the impact region
incrementally by only the not-yet-covered cells within the notification
radius (Example 2), and the matching-event count ``ne`` is updated from
the per-cell counts of the matching field.

idGM (Section 3.5) generalises the expansion order with the
direction-aware score ``tau`` (Equation 8) blending a direction preference
``A(s, c) = cos(theta)`` (Equation 9) with the normalised distance
preference ``D(s, c)`` (Equation 10).

.. note::
   Equation 8 as printed (``tau = alpha*A + (1-alpha)*D``, expanded in
   increasing ``tau``) would visit cells *behind* the subscriber first,
   contradicting both the motivation and Figure 14(b).  We implement the
   evident intent with the order-equivalent score
   ``tau = alpha * (1 - A)/2 + (1 - alpha) * D``: smaller is better, cells
   along the motion vector and close to the subscriber come first, and
   ``alpha = 0`` degenerates to iGM's pure distance order exactly.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Set, Tuple

from ..geometry import Cell, interleave
from .construction import ConstructionRequest, RegionPair, SafeRegionStrategy
from .cost_model import CostModel
from .regions import ImpactRegion, SafeRegion


class IncrementalGridMethod(SafeRegionStrategy):
    """The iGM/idGM family; ``alpha`` selects the direction awareness.

    Parameters
    ----------
    alpha:
        Weight of the direction preference in the expansion order;
        0 is iGM, the paper's tuned idGM uses 0.5 (Figure 14b).
    beta:
        Termination threshold on ``bm``; 1 is optimal (Figure 9).
    max_cells:
        Optional cap on the safe-region size.  The paper lets the
        expansion run to the whole space when no matching event exerts
        pressure; pure-Python benches cap it to keep runs tractable
        (documented deviation, see DESIGN.md).
    record_visits:
        When True the returned :class:`RegionPair` carries the exact heap
        pop order in ``visit_order`` — the differential suite asserts the
        vectorized frontier visits cells in the same order, not just that
        it lands on the same sets.
    """

    name = "iGM"

    def __init__(
        self,
        alpha: float = 0.0,
        beta: float = 1.0,
        max_cells: Optional[int] = None,
        incremental_impact: bool = True,
        record_visits: bool = False,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1]: {alpha}")
        if beta <= 0:
            raise ValueError(f"beta must be positive: {beta}")
        self.alpha = alpha
        self.beta = beta
        self.max_cells = max_cells
        #: ablation switch for the Example 2 strip optimisation; with
        #: False every accepted cell rescans its full dilation disk
        self.incremental_impact = incremental_impact
        self.record_visits = record_visits

    # ------------------------------------------------------------------
    # Expansion order (Equations 8-10, see the module note)
    # ------------------------------------------------------------------
    def _priority(self, request: ConstructionRequest, cell: Cell, dist: float) -> float:
        d_max = math.hypot(request.grid.space.width, request.grid.space.height)
        distance_preference = dist / d_max if d_max > 0 else 0.0
        if self.alpha == 0.0:
            return distance_preference
        # Equation 9's cosine with the to-cell norm spelled as
        # sqrt(tx*tx + ty*ty): the composed form is what the vectorized
        # frontier can reproduce bit for bit (math.hypot is not).  The
        # velocity norm stays a per-request scalar shared by both paths.
        center = request.grid.cell_center(cell)
        tx = center.x - request.location.x
        ty = center.y - request.location.y
        denom = request.velocity.norm() * math.sqrt(tx * tx + ty * ty)
        if denom == 0.0:
            cosine = 0.0
        else:
            dot = request.velocity.x * tx + request.velocity.y * ty
            cosine = max(-1.0, min(1.0, dot / denom))
        direction_preference = (1.0 - cosine) / 2.0
        return self.alpha * direction_preference + (1.0 - self.alpha) * distance_preference

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
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
        # that is stable across the scalar and vectorized strategies (and
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
            if not field.is_cell_safe(cell, radius):
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

        safe = SafeRegion(grid, frozenset(region))
        return RegionPair(
            safe=safe,
            impact=ImpactRegion(grid, frozenset(impact)),
            cells_examined=cells_examined,
            last_accepted_bm=last_accepted_bm,
            first_rejected_bm=first_rejected_bm,
            matching_in_impact=matching_in_impact,
            visit_order=tuple(visit_order) if visit_order is not None else None,
        )


class IGM(IncrementalGridMethod):
    """iGM: distance-ordered incremental construction (Section 3.4)."""

    name = "iGM"

    def __init__(
        self,
        beta: float = 1.0,
        max_cells: Optional[int] = None,
        incremental_impact: bool = True,
        record_visits: bool = False,
    ) -> None:
        super().__init__(
            alpha=0.0,
            beta=beta,
            max_cells=max_cells,
            incremental_impact=incremental_impact,
            record_visits=record_visits,
        )


class IDGM(IncrementalGridMethod):
    """idGM: direction-aware incremental construction (Section 3.5)."""

    name = "idGM"

    def __init__(
        self,
        alpha: float = 0.5,
        beta: float = 1.0,
        max_cells: Optional[int] = None,
        incremental_impact: bool = True,
        record_visits: bool = False,
    ) -> None:
        super().__init__(
            alpha=alpha,
            beta=beta,
            max_cells=max_cells,
            incremental_impact=incremental_impact,
            record_visits=record_visits,
        )
