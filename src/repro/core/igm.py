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

**Array form.**  The loop keeps Algorithm 1's control flow — a
heap-driven nearest-first/tau frontier popped one cell at a time, because
each acceptance changes the state the next decision depends on — moves
the O(events)-sized work into numpy, and makes each pop pay only for what
depends on that pop:

* the matching field, built for the request's radius, carries its own
  struct-of-arrays projection (uint8 per-cell ``cover`` count + per-cell
  ``counts``, :class:`~repro.core.field.MatchingEventField`) over the
  band of grid rows its coverage reaches, maintained incrementally with
  one signed array dilation pass per batch of admitted and forgotten
  events (one pass per BEQ leaf probe in on-demand mode); the loop reads
  both through flat ``memoryview``s of those same arrays, at its global
  flat index minus the band's ``base``;
* everything a pop needs that is a sum of an x part and a y part is
  tabulated before the loop: the squared per-axis distances to the
  subscriber (per construct, from the grid's edge tables) and the Morton
  code as two per-axis bit spreads (per grid,
  :class:`~repro.geometry.grid.GridAxes`), so a
  neighbour costs one ``sqrt`` of two list reads and its heap key one OR;
* frontier bookkeeping — visited, accepted, impact membership — lives in
  flat ``bytearray``s indexed ``i * n + j``, heap entries carry that
  index, and one pass over the 8-ring reads both the Example 2 strip key
  (accepted neighbours) and the Equation 7 ring (unvisited ones);
* each acceptance applies the Example 2 strip offsets from the disk's
  own tables (:attr:`~repro.geometry.grid.Disk.candidates`): a cell at
  least ``reach`` from every border adds ``i * n + j`` to a tuple of flat
  offsets in Python — a strip holds a handful, below the break-even of
  a numpy call — and a border cell or a long candidate list (a full disk)
  takes the bounds-filtered array path;
* a pop whose neighbourhood the field already covers
  (:meth:`MatchingEventField.covered_window`) skips the call into the
  field, which could only return at once;
* a start cell that is unsafe — the subscriber reports every timestamp
  until it leaves it — is the loop's single pop, and is answered before any
  of that state is allocated.

**Equivalence contract** (enforced by ``tests/test_vectorized_differential``
and the golden traces): Algorithm 1 as the paper writes it — a
``Set[Cell]`` frontier asking the field about one cell at a time — is
kept as the test oracle in :mod:`repro.testing.oracle`, and this loop
returns byte-identical :class:`RegionPair` values.  Every float compared or returned here is
computed by the same sequence of correctly-rounded IEEE-754 operations as
the scalar loop — ``sqrt(dx*dx + dy*dy)`` distances, cell edges formed as
``x_min + (i + 1) * cell_width``, shared per-request scalars (``d_max``,
the velocity norm) taken from the same ``math`` calls.  Heap keys carry
the cell's Morton code, which is injective, so the pop order is the
unique ascending key order for both loops.  Field coverage grows through
:meth:`MatchingEventField.ensure_cell_neighbourhood` for every pop
outside the covered window — the same covered-rectangle growth a scalar
``is_cell_safe`` performs, which is a no-op inside it — so
``events_scanned``/``leaves_scanned`` also match exactly.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Tuple

import numpy as np

from ..geometry import Cell
from ..geometry.grid import RING
from .construction import ConstructionRequest, RegionPair, SafeRegionStrategy
from .cost_model import CostModel
from .regions import ImpactRegion, SafeRegion


#: ``(key bit, di, dj)`` per neighbour direction: the accepted neighbours
#: of a cell, OR-ed, are its :class:`~repro.geometry.grid.StripCandidates` key
_RING_BITS = tuple((1 << bit, di, dj) for bit, (di, dj) in enumerate(RING))

#: strips up to this many offsets are filtered and counted in Python
#: (~0.15 us an offset); longer ones — a full disk: the start cell, or
#: no Example 2 strips — take the array path (~6.5 us, flat), which
#: breaks even at about 35 (DESIGN.md §14)
_SCALAR_STRIP_MAX = 32


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
        scalar oracle visits cells in the same order, not just that it
        lands on the same sets.
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
        # sqrt(tx*tx + ty*ty): the composed form is what the per-axis
        # tables of construct reproduce bit for bit (math.hypot is not).
        # The velocity norm stays a per-request scalar shared by both.
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
        field = request.matching_field
        grid = field.grid
        radius = field.radius
        n = grid.n

        start = grid.cell_of(request.location)
        # An unsafe start cell is the loop's single pop: nothing accepted,
        # nothing pushed.  Decide it before any frontier state is built
        # (with ``max_cells`` 0 the loop pops nothing at all, not even it).
        if (self.max_cells is None or self.max_cells > 0) and field.is_unsafe(start):
            return RegionPair(
                safe=SafeRegion.empty(grid),
                impact=ImpactRegion.empty(grid),
                cells_examined=1,
                matching_in_impact=0,
                visit_order=(start,) if self.record_visits else None,
            )

        balance = CostModel(request.stats).balance
        speed = request.speed
        beta = self.beta
        cap = self.max_cells if self.max_cells is not None else n * n + 1

        # Per-construct distance tables: a neighbour's distance is
        # sqrt(dxx[i] + dyy[j]), Rect.min_distance_to_point's operations
        # in its order (the squares of equal-magnitude zeros agree).
        axes = grid.axes
        px, py = request.location.x, request.location.y
        dx = np.maximum(np.maximum(axes.x_lo - px, 0.0), px - axes.x_hi)
        dy = np.maximum(np.maximum(axes.y_lo - py, 0.0), py - axes.y_hi)
        dxx = (dx * dx).tolist()
        dyy = (dy * dy).tolist()
        morton_x, morton_y = axes.morton_x, axes.morton_y
        d_max = math.hypot(grid.space.width, grid.space.height)
        alpha = self.alpha
        if alpha != 0.0:
            # Equation 9's terms, split by axis as _priority sums them
            vnorm = request.velocity.norm()
            tx = axes.x_mid - px
            ty = axes.y_mid - py
            txx, tyy = (tx * tx).tolist(), (ty * ty).tolist()
            vtx = (request.velocity.x * tx).tolist()
            vty = (request.velocity.y * ty).tolist()

        # Frontier state, flat-indexed i * n + j.  A bytearray probe costs
        # a third of a numpy scalar index; the bounds-filtered border path
        # reads the same bytes through numpy.
        visited = bytearray(n * n)
        accepted = bytearray(n * n)
        in_impact = bytearray(n * n)
        impact_array = np.frombuffer(in_impact, dtype=bool)
        # live views of the field's band, updated in place, cell k at k - base
        base, unsafe, counts, counts_array = field.flat_views()

        start_dist = grid.min_distance_point_cell(request.location, start)
        start_index = start[0] * n + start[1]
        visited[start_index] = 1
        heap: List[Tuple[float, float, int, int]] = [
            (
                self._priority(request, start, start_dist),
                start_dist,
                morton_x[start[0]] | morton_y[start[1]],
                start_index,
            )
        ]
        # Example 2's candidate offsets depend only on the grid, the radius
        # and which neighbours are accepted: looked up, not recomputed.
        disk = grid.disk(radius)
        candidates, flat_candidates = disk.candidates, disk.flat_candidates
        incremental = self.incremental_impact
        # cells this far from every border have all candidates in bounds
        inner_lo, inner_hi = candidates.reach, n - candidates.reach
        ring = tuple((flag, di, dj, di * n + dj) for flag, di, dj in _RING_BITS)

        # Cells whose neighbourhood the field already covers: a pop there
        # skips the field.  The window is read right after a sync, and
        # only ensure_cell grows coverage (and so the known points).
        win_i0, win_j0, win_i1, win_j1 = 0, 0, -1, -1

        heappop, heappush, sqrt = heapq.heappop, heapq.heappush, math.sqrt
        region: List[int] = []  # accepted cells' flat indices
        matching_in_impact = 0
        cells_examined = 0
        last_accepted_bm: Optional[float] = None
        first_rejected_bm: Optional[float] = None
        visit_order: Optional[List[Cell]] = [] if self.record_visits else None

        while heap:
            if len(region) >= cap:
                break
            k = heappop(heap)[3]
            cells_examined += 1
            i, j = divmod(k, n)
            if visit_order is not None:
                visit_order.append((i, j))
            if not (win_i0 <= i <= win_i1 and win_j0 <= j <= win_j1):
                if field.ensure_cell((i, j)):
                    base, unsafe, counts, counts_array = field.flat_views()
                win_i0, win_j0, win_i1, win_j1 = field.covered_window()
            if unsafe[k - base]:
                continue  # B[c'] is false: the cell stays outside (line 10)

            # One pass over the 8-ring: the accepted neighbours are the
            # Example 2 strip key, the unvisited ones the Equation 7 ring.
            neighbors: List[Tuple[float, int, int, int]] = []
            boundary = math.inf
            key = 0
            interior_ring = 0 < i < n - 1 and 0 < j < n - 1
            for flag, di, dj, offset in ring:
                ni, nj = i + di, j + dj
                if not interior_ring and not (0 <= ni < n and 0 <= nj < n):
                    continue
                c = k + offset
                if accepted[c]:
                    key |= flag
                elif not visited[c]:
                    ndist = sqrt(dxx[ni] + dyy[nj])
                    neighbors.append((ndist, ni, nj, c))
                    if ndist < boundary:
                        boundary = ndist
            if not incremental:
                key = 0
            # Equation 7: the heap top competes with the adjacent cells.  The
            # top follows the heap's own order — for idGM the tau-ranked
            # frontier, which estimates the exit time along the expected
            # direction of motion rather than the worst-case rear boundary.
            if heap and heap[0][1] < boundary:
                boundary = heap[0][1]

            fresh: Optional[List[int]] = None
            if inner_lo <= i < inner_hi and inner_lo <= j < inner_hi:
                offsets = flat_candidates[key]
                if len(offsets) <= _SCALAR_STRIP_MAX:
                    fresh = []
                    candidate_ne = matching_in_impact
                    for offset in offsets:
                        c = k + offset
                        if not in_impact[c]:
                            fresh.append(c)
                            candidate_ne += counts[c - base]
                else:
                    idx = candidates[key][2] + k
            else:
                coff_i, coff_j, _ = candidates[key]
                ci = coff_i + i
                cj = coff_j + j
                inb = (ci >= 0) & (ci < n) & (cj >= 0) & (cj < n)
                idx = ci[inb] * n + cj[inb]
            if fresh is None:
                new_idx = idx[~impact_array[idx]]
                candidate_ne = matching_in_impact + int(counts_array[new_idx - base].sum())

            bm = balance(boundary, speed, candidate_ne)
            if bm <= beta:
                last_accepted_bm = bm
                accepted[k] = 1
                region.append(k)
                if fresh is None:
                    impact_array[new_idx] = True
                else:
                    for c in fresh:
                        in_impact[c] = 1
                matching_in_impact = candidate_ne
                for ndist, ni, nj, c in neighbors:
                    visited[c] = 1
                    distp = ndist / d_max if d_max > 0 else 0.0
                    if alpha == 0.0:
                        prio = distp
                    else:
                        denom = vnorm * sqrt(txx[ni] + tyy[nj])
                        if denom == 0.0:
                            cosine = 0.0
                        else:
                            cosine = max(-1.0, min(1.0, (vtx[ni] + vty[nj]) / denom))
                        prio = alpha * ((1.0 - cosine) / 2.0) + (1.0 - alpha) * distp
                    heappush(heap, (prio, ndist, morton_x[ni] | morton_y[nj], c))
            elif bm > beta and first_rejected_bm is None:
                first_rejected_bm = bm

        return RegionPair(
            safe=SafeRegion(grid, grid.codes_of_flat(np.array(region, dtype=np.int64))),
            impact=ImpactRegion(grid, grid.codes_of_flat(np.flatnonzero(impact_array))),
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
