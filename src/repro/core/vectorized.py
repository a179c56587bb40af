"""Vectorized iGM/idGM: array-form construction, byte-identical to scalar.

The scalar :class:`~repro.core.igm.IncrementalGridMethod` spends its time in
three places: dilating every discovered event over the disk of offsets (one
``Rect`` allocation and distance test per offset), probing per-cell event
counts through dict lookups, and re-deriving cell rectangles for frontier
distances.  This module keeps Algorithm 1's control flow — a heap-driven
nearest-first/τ frontier popped one cell at a time, because each acceptance
changes the state the next decision depends on — but moves every O(offsets)-
and O(events)-sized inner loop into numpy:

* the matching field is projected into a struct-of-arrays
  :class:`_FieldArrayView` (``unsafe`` boolean mask + per-cell ``counts``),
  maintained incrementally with one vectorized dilation pass per batch of
  newly discovered events (one pass per BEQ leaf probe in on-demand mode);
* frontier bookkeeping (visited / impact membership) lives in boolean
  arrays, impact flat-indexed ``i * n + j``; the accepted cells are a set,
  probed eight times per pop;
* each acceptance applies the Example 2 strip offsets as array index
  arithmetic: the candidate offsets for the accepted neighbours at hand
  come from the disk's own table
  (:attr:`~repro.geometry.grid.Disk.candidates`) already in flat form, so
  a cell away from the borders adds ``i * n + j`` once; the impact-membership
  filter and the ``ne`` count are elementwise operations, not a Python loop;
* a start cell that is unsafe — the subscriber reports every timestamp
  until it leaves it — is the loop's single pop, and is answered before any
  of that state is allocated.

The 8-cell neighbour ring stays scalar on purpose: numpy's per-call
overhead exceeds the loop cost below a few dozen elements, and the scalar
form reuses the exact arithmetic of ``Rect.min_distance_to_point``.

**Equivalence contract** (enforced by ``tests/test_vectorized_differential``
and the golden traces): every float compared or returned here is computed
by the same sequence of correctly-rounded IEEE-754 operations as the scalar
path — ``sqrt(dx*dx + dy*dy)`` distances, cell edges formed as
``x_min + (i + 1) * cell_width``, shared per-request scalars (``d_max``,
the velocity norm) taken from the same ``math`` calls.  Heap keys carry the
cell's Morton code, which is injective, so the pop order is the unique
ascending key order for both strategies.  Field coverage grows through
:meth:`MatchingEventField.ensure_cell_neighbourhood` once per pop — the
same covered-rectangle growth a scalar ``is_cell_safe`` performs — so
``events_scanned``/``leaves_scanned`` also match exactly.

The scalar classes remain the *oracle*: they are the reference semantics
the paper's lemmas were checked against, and the differential suite runs
them side by side with this module on every randomized workload.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional, Set, Tuple

import numpy as np

from ..geometry import Cell, Grid, interleave
from ..geometry.grid import RING
from .construction import ConstructionRequest, RegionPair
from .cost_model import CostModel
from .field import MatchingEventField
from .igm import IDGM, IGM, IncrementalGridMethod
from .regions import ImpactRegion, SafeRegion


#: ``(key bit, di, dj)`` per neighbour direction: the accepted neighbours
#: of a cell, OR-ed, are its :class:`~repro.geometry.grid.StripCandidates` key
_RING_BITS = tuple((1 << bit, di, dj) for bit, (di, dj) in enumerate(RING))


class _FieldArrayView:
    """Struct-of-arrays projection of a matching field at one radius.

    ``unsafe[i, j]`` is True when cell ``(i, j)`` is within ``radius``
    (closed) of some known matching event; ``counts[i, j]`` is the
    per-cell event count phi.  The view consumes the field's append-only
    ``known_points()`` list through a cursor, so a field reused across
    constructions (repair mode) only pays for events discovered since the
    last sync — mirroring the scalar field's incremental ``_admit``.

    The field holds its views (``field.array_views``) and a view holds
    no reference back — every method takes the field from the caller —
    so there is no cycle: the arrays are freed the moment the field is.
    """

    __slots__ = ("grid", "radius", "unsafe", "counts", "_cursor")

    def __init__(self, grid: Grid, radius: float) -> None:
        self.grid = grid
        self.radius = radius
        self.unsafe = np.zeros((grid.n, grid.n), dtype=bool)
        self.counts = np.zeros((grid.n, grid.n), dtype=np.int32)
        self._cursor = 0

    def ensure_cell(self, field: MatchingEventField, cell: Cell) -> None:
        """Make the arrays authoritative for ``cell`` and its neighbourhood."""
        field.ensure_cell_neighbourhood(cell, self.radius)
        self._sync(field)

    def is_unsafe(self, field: MatchingEventField, cell: Cell) -> bool:
        """The safety bit of ``cell`` with its neighbourhood covered.

        ``unsafe`` bits are only ever set (exclusions are not un-dilated,
        and a field rebuilt for staleness gets a new view), so a bit that
        is already set is final and the points noted since the last sync
        can wait for the next :meth:`ensure_cell`; a clear bit is decided
        only after the sync.
        """
        field.ensure_cell_neighbourhood(cell, self.radius)
        if not self.unsafe[cell]:
            self._sync(field)
        return bool(self.unsafe[cell])

    def _sync(self, field: MatchingEventField) -> None:
        """Project the points the field has learnt since the last sync."""
        points = field.known_points()
        if len(points) == self._cursor:
            return
        fresh = points[self._cursor :]
        self._cursor = len(points)
        count = len(fresh)
        xs = np.fromiter((p.x for p in fresh), dtype=np.float64, count=count)
        ys = np.fromiter((p.y for p in fresh), dtype=np.float64, count=count)
        self.grid.dilate_points_mask(xs, ys, self.radius, out=self.unsafe)
        ci, cj = self.grid.cells_of_array(xs, ys)
        np.add.at(self.counts, (ci, cj), 1)


class VectorizedIncrementalGridMethod(IncrementalGridMethod):
    """Array-backed Algorithm 1 returning byte-identical :class:`RegionPair`s.

    Accepts the same parameters as the scalar class and, like it, keeps
    no state between ``construct`` calls: the array views belong to the
    matching field they project.
    """

    name = "iGM-vec"

    # ------------------------------------------------------------------
    # Algorithm 1, array form
    # ------------------------------------------------------------------
    def construct(self, request: ConstructionRequest) -> RegionPair:
        """Grid expansion bounded by the balance ratio, SoA state."""
        grid = request.grid
        radius = request.radius
        n = grid.n

        field = request.matching_field
        view = field.array_views.get(radius)
        if view is None or view.grid is not grid:
            view = field.array_views[radius] = _FieldArrayView(grid, radius)
        start = grid.cell_of(request.location)
        # An unsafe start cell is the loop's single pop: nothing accepted,
        # nothing pushed.  Decide it before any frontier state is built
        # (with ``max_cells`` 0 the loop pops nothing at all, not even it).
        if (self.max_cells is None or self.max_cells > 0) and view.is_unsafe(field, start):
            return RegionPair(
                safe=SafeRegion(grid, frozenset()),
                impact=ImpactRegion(grid, frozenset()),
                cells_examined=1,
                matching_in_impact=0,
                visit_order=(start,) if self.record_visits else None,
            )

        model = CostModel(request.stats)
        speed = request.speed
        unsafe = view.unsafe
        counts_flat = view.counts.reshape(-1)  # row-major: index i * n + j

        x0, y0 = grid.space.x_min, grid.space.y_min
        cw, ch = grid.cell_width, grid.cell_height
        px, py = request.location.x, request.location.y
        d_max = math.hypot(grid.space.width, grid.space.height)
        alpha = self.alpha
        if alpha != 0.0:
            vx, vy = request.velocity.x, request.velocity.y
            vnorm = request.velocity.norm()

        start_dist = grid.min_distance_point_cell(request.location, start)

        visited = np.zeros((n, n), dtype=bool)
        in_impact = np.zeros(n * n, dtype=bool)
        visited[start] = True

        heap: List[Tuple[float, float, int, Cell]] = [
            (self._priority(request, start, start_dist), start_dist, interleave(*start), start)
        ]
        # Example 2's candidate offsets depend only on the grid, the radius
        # and which neighbours are accepted: looked up, not recomputed.
        candidates = grid.disk(radius).candidates
        ring = _RING_BITS if self.incremental_impact else ()
        # cells this far from every border have all candidates in bounds
        inner_lo, inner_hi = candidates.reach, n - candidates.reach

        region: Set[Cell] = set()
        matching_in_impact = 0
        cells_examined = 0
        last_accepted_bm: Optional[float] = None
        first_rejected_bm: Optional[float] = None
        visit_order: Optional[List[Cell]] = [] if self.record_visits else None

        while heap:
            if self.max_cells is not None and len(region) >= self.max_cells:
                break
            _, dist, _, cell = heapq.heappop(heap)
            cells_examined += 1
            if visit_order is not None:
                visit_order.append(cell)
            view.ensure_cell(field, cell)
            i, j = cell
            if unsafe[i, j]:
                continue  # B[c'] is false: the cell stays outside (line 10)

            # Unvisited 8-ring with Rect.min_distance_to_point arithmetic
            # inlined (scalar on purpose — see the module docstring).
            neighbors: List[Tuple[int, int, float]] = []
            boundary = math.inf
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    ni, nj = i + di, j + dj
                    if 0 <= ni < n and 0 <= nj < n and not visited[ni, nj]:
                        dx = max(x0 + ni * cw - px, 0.0, px - (x0 + (ni + 1) * cw))
                        dy = max(y0 + nj * ch - py, 0.0, py - (y0 + (nj + 1) * ch))
                        ndist = math.sqrt(dx * dx + dy * dy)
                        neighbors.append((ni, nj, ndist))
                        if ndist < boundary:
                            boundary = ndist
            # Equation 7: the heap top competes with the adjacent cells.
            if heap and heap[0][1] < boundary:
                boundary = heap[0][1]

            # Example 2 strips: the accepted neighbours are the table key.
            key = 0
            for flag, di, dj in ring:
                if (i + di, j + dj) in region:
                    key |= flag
            coff_i, coff_j, coff_flat = candidates[key]
            if inner_lo <= i < inner_hi and inner_lo <= j < inner_hi:
                idx = coff_flat + (i * n + j)
            else:
                ci = coff_i + i
                cj = coff_j + j
                inb = (ci >= 0) & (ci < n) & (cj >= 0) & (cj < n)
                idx = ci[inb] * n + cj[inb]
            new_idx = idx[~in_impact[idx]]
            candidate_ne = matching_in_impact + int(counts_flat[new_idx].sum())

            bm = model.balance(boundary, speed, candidate_ne)
            if bm > self.beta and first_rejected_bm is None:
                first_rejected_bm = bm
            if bm <= self.beta:
                last_accepted_bm = bm
                region.add(cell)
                in_impact[new_idx] = True
                matching_in_impact = candidate_ne
                for ni, nj, ndist in neighbors:
                    visited[ni, nj] = True
                    distp = ndist / d_max if d_max > 0 else 0.0
                    if alpha == 0.0:
                        prio = distp
                    else:
                        tx = x0 + (ni + 0.5) * cw - px
                        ty = y0 + (nj + 0.5) * ch - py
                        denom = vnorm * math.sqrt(tx * tx + ty * ty)
                        if denom == 0.0:
                            cosine = 0.0
                        else:
                            cosine = max(-1.0, min(1.0, (vx * tx + vy * ty) / denom))
                        prio = alpha * ((1.0 - cosine) / 2.0) + (1.0 - alpha) * distp
                    heapq.heappush(heap, (prio, ndist, interleave(ni, nj), (ni, nj)))

        ii, jj = np.nonzero(in_impact.reshape(n, n))
        return RegionPair(
            safe=SafeRegion(grid, frozenset(region)),
            impact=ImpactRegion(grid, frozenset(zip(ii.tolist(), jj.tolist()))),
            cells_examined=cells_examined,
            last_accepted_bm=last_accepted_bm,
            first_rejected_bm=first_rejected_bm,
            matching_in_impact=matching_in_impact,
            visit_order=tuple(visit_order) if visit_order is not None else None,
        )


class VectorizedIGM(VectorizedIncrementalGridMethod, IGM):
    """iGM with the array-backed core; drop-in for :class:`~repro.core.IGM`
    (its constructor *is* the scalar class's)."""

    name = "iGM-vec"


class VectorizedIDGM(VectorizedIncrementalGridMethod, IDGM):
    """idGM with the array-backed core; drop-in for :class:`~repro.core.IDGM`
    (its constructor *is* the scalar class's)."""

    name = "idGM-vec"
