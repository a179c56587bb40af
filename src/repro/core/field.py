"""Matching-event fields: where the be-matching events are.

A field belongs to one subscription and is built for its notification
radius ``r`` (Definition 1).  Safe-region construction needs three
queries about the subscriber's be-matching (and not yet delivered)
events:

* **safety** — is a grid cell farther than ``r`` from every matching
  event? (the boolean array ``B`` of Algorithm 1);
* **density** — how many matching events sit inside a grid cell? (the
  per-cell counts ``phi`` feeding the ``ne`` estimate of the cost model);
* **enumeration** — VM and GM need the full matching-event list.

Safety is answered from an *unsafe-cell set*: every matching event is
dilated by ``r`` once, after which each safety test is a set lookup.  Two
implementations exist, mirroring the paper's two server modes (Appendix
D.3):

* :class:`StaticMatchingField` is built from a fully materialised list of
  matching-event locations (the ``-BE`` variants: k-index finds all
  matching events upfront; also VM and GM, which need the global list);
* :class:`LazyBEQField` pulls matching events *on demand* from a BEQ-Tree
  (Section 4.2, "BEQ-Tree used in iGM and idGM").  It maintains a covered
  rectangle of grid cells that grows with the expansion; tree leaves are
  scanned at most once per construction, and freshly discovered events
  are dilated into the unsafe set incrementally.  Safety is kept as a
  per-cell *cover count* (the known events within ``r``), so an event
  that stops mattering is un-dilated exactly.

Every field also carries its own array projection — ``cover``, ``counts``
and ``overflow`` over a band of grid rows — which the construction core
(:mod:`repro.core.igm`) reads instead of asking one cell at a time.

Both keep an ``events_scanned`` counter so the benchmarks can report the
server-side work (Figure 13).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..expressions import BooleanExpression
from ..geometry import Cell, Grid, Point, Rect, cells_of_codes

# Below this many (points x offsets) products the per-point scalar dilation
# (~2 us an offset) beats the array kernel's fixed overhead (~50 us).
_POINTS_ARRAY_CUTOVER = 32

# The array prefilter of ``LazyBEQField.matches_in_circle`` compares
# squared distances built from separately rounded products; the factor
# keeps every point the exact ``math.hypot`` test could accept (their
# results differ by a few ulps, 1e-16 relative) and next to nothing else.
_NEAR_SLACK = 1.0 + 1e-9


def dilate_point(grid: Grid, point: Point, radius: float, into: Set[Cell]) -> None:
    """Add every cell within ``radius`` of ``point`` (closed) to ``into``."""
    i, j = grid.cell_of(point)
    for (di, dj) in grid.disk(radius, inclusive=True).offsets:
        candidate = (i + di, j + dj)
        if candidate in into or not grid.in_bounds(candidate):
            continue
        if grid.cell_rect(candidate).min_distance_to_point(point) <= radius:
            into.add(candidate)


def dilate_points(grid: Grid, points: List[Point], radius: float) -> np.ndarray:
    """The sorted Morton codes of the cells within ``radius`` (closed) of
    any of ``points`` — the repair carve: the fold of :func:`dilate_point`,
    or — from :data:`_POINTS_ARRAY_CUTOVER` (points x offsets) up — the
    same cells from one pass of the array kernel
    (:meth:`Grid.dilation_hits`), their flat indices made unique."""
    count = len(points)
    if count * len(grid.disk(radius, inclusive=True).offsets) >= _POINTS_ARRAY_CUTOVER:
        xs = np.fromiter((p.x for p in points), dtype=np.float64, count=count)
        ys = np.fromiter((p.y for p in points), dtype=np.float64, count=count)
        hits = [I * grid.n + J for I, J, _ in grid.dilation_hits(xs, ys, radius)]
        if not hits:
            return np.empty(0, dtype=np.int64)
        return grid.codes_of_flat(np.unique(np.concatenate(hits)))
    cells: Set[Cell] = set()
    for point in points:
        dilate_point(grid, point, radius, cells)
    morton_x, morton_y = grid.axes.morton_x, grid.axes.morton_y
    return np.array(sorted(morton_x[i] | morton_y[j] for (i, j) in cells), dtype=np.int64)


def cover_point(
    grid: Grid, point: Point, radius: float, cover: Dict[Cell, int], step: int
) -> None:
    """Add ``step`` to the cover count of every cell :func:`dilate_point`
    would add for ``point``; a count that reaches 0 leaves ``cover``, so
    its keys are always the unsafe cells."""
    i, j = grid.cell_of(point)
    for (di, dj) in grid.disk(radius, inclusive=True).offsets:
        candidate = (i + di, j + dj)
        if not grid.in_bounds(candidate):
            continue
        if grid.cell_rect(candidate).min_distance_to_point(point) <= radius:
            count = cover.get(candidate, 0) + step
            if count:
                cover[candidate] = count
            else:
                del cover[candidate]




class MatchingEventField:
    """Interface shared by the static and the lazy field, and the array
    projection both carry for the construction core.

    **The projection** holds the full-width grid rows ``row0 <= i < row0
    + h``: ``cover[i - row0, j]`` counts the known matching events within
    ``radius`` (closed) of cell ``(i, j)`` — the cell is unsafe iff it is
    nonzero — and ``counts[i - row0, j]`` is the per-cell event count phi.
    Flattened, cell ``(i, j)`` sits at ``i * n + j - base`` with ``base =
    row0 * n``, so Algorithm 1 keeps its global flat indices and offset
    tables and only subtracts ``base`` when it reads.  ``cover`` is uint8,
    the size of a boolean mask; a count past 255 is held exactly in
    ``overflow`` (band flat index -> count) while ``cover`` reads 255.

    It is projected from :meth:`known_points` over :meth:`covered_rows`
    the first time the core asks (``cover`` is None until then).  After
    every :meth:`ensure_cell` and :meth:`is_unsafe` the band contains
    every covered row — and every cell a construction reads lies in
    those.  When coverage leaves the band, it grows to twice the larger
    of the covered rows' height and its own (clamped to the grid) and is
    projected again, so a construct that grows coverage a dozen times
    re-projects once or twice.  A flat memoryview wraps a negative index
    silently: a read above the band would return a cell of its last row,
    never an error.

    Once projected, each point the field learns waits in a pending
    admitted list and each point it forgets in a pending excluded list;
    one signed kernel pass (:meth:`_sync`), clipped to the band, applies
    both — so a field reused across constructions (repair mode) only
    pays for what changed since the last sync, and a point admitted and
    forgotten in between nets to nothing.  Dropping the field frees its
    arrays with it.
    """

    def __init__(self, grid: Grid, radius: float) -> None:
        self.grid = grid
        #: the notification radius every query of this field is at
        self.radius = radius
        self.events_scanned = 0
        #: how often the projection outgrew its band of rows and was
        #: projected again (cumulative, like ``events_scanned``)
        self.view_regrowths = 0
        self.cover: Optional[np.ndarray] = None
        self.counts: Optional[np.ndarray] = None
        self.overflow: Dict[int, int] = {}
        self.row0 = 0
        self.base = 0
        self._admitted_points: List[Point] = []
        self._excluded_points: List[Point] = []

    def count_in_cell(self, cell: Cell) -> int:
        """phi[cell]: the number of matching events located in the cell."""
        raise NotImplementedError

    def is_cell_safe(self, cell: Cell) -> bool:
        """True iff every point of ``cell`` is > ``radius`` from every event."""
        raise NotImplementedError

    def unsafe_cells(self) -> FrozenSet[Cell]:
        """All cells within ``radius`` of some matching event (GM's input)."""
        raise NotImplementedError

    def all_points(self) -> List[Point]:
        """Every matching-event location (VM/GM need the global list)."""
        raise NotImplementedError

    def known_points(self) -> List[Point]:
        """The matching-event locations the field knows *now*.

        Unlike :meth:`all_points` this never triggers coverage or scans.
        The projection is made from it; later changes reach the
        projection through the pending lists.
        """
        raise NotImplementedError

    def ensure_cell_neighbourhood(self, cell: Cell) -> None:
        """Discover every event whose dilation could reach ``cell``.

        The construction core calls this once per frontier pop instead
        of :meth:`is_cell_safe`, then reads safety and per-cell counts
        from the projection.  No-op for fully materialised fields; the
        lazy field grows its covered rectangle exactly as a scalar
        ``is_cell_safe`` query would, keeping ``events_scanned`` and
        ``leaves_scanned`` identical to the scalar oracle's.
        """

    def covered_window(self) -> Tuple[int, int, int, int]:
        """The cells :meth:`ensure_cell_neighbourhood` would not grow
        coverage for, as an inclusive ``(i_min, j_min, i_max, j_max)``
        range (empty when ``i_min > i_max``).

        A fully materialised field covers everything from the start.
        """
        last = self.grid.n - 1
        return (0, 0, last, last)

    def covered_rows(self) -> Tuple[int, int]:
        """The grid rows ``lo <= i < hi`` the field's coverage spans, as
        ``(lo, hi)``: every cell a construction reads lies in them.

        A fully materialised field covers every row.
        """
        return (0, self.grid.n)

    # ------------------------------------------------------------------
    # The array projection (the construction core's window into the field)
    # ------------------------------------------------------------------
    def flat_views(self) -> Tuple[int, memoryview, memoryview, np.ndarray]:
        """``(base, cover, counts, counts)``: what Algorithm 1 reads, cell
        ``k = i * n + j`` at ``k - base`` — two flat memoryviews for
        scalar reads and the flat ``counts`` array for index arrays."""
        self._projected()
        counts = self.counts.reshape(-1)
        return self.base, memoryview(self.cover.reshape(-1)), memoryview(counts), counts

    def ensure_cell(self, cell: Cell) -> bool:
        """Make the projection authoritative for ``cell`` and its
        neighbourhood; True when the band regrew, so views taken by
        :meth:`flat_views` before are stale."""
        self._projected()
        self.ensure_cell_neighbourhood(cell)
        if self._regrow():
            return True
        self._sync()
        return False

    def is_unsafe(self, cell: Cell) -> bool:
        """The safety bit of ``cell`` with its neighbourhood covered.

        Admissions only raise counts, so while no exclusion is pending a
        nonzero count is final and the admissions can wait for the next
        :meth:`ensure_cell`; a zero count, or any pending exclusion, is
        decided only after the sync.
        """
        self._projected()
        self.ensure_cell_neighbourhood(cell)
        if not self._regrow():
            if self._excluded_points or not self.cover[cell[0] - self.row0, cell[1]]:
                self._sync()
        return bool(self.cover[cell[0] - self.row0, cell[1]])

    def _projected(self) -> None:
        """Project the arrays over the covered rows, once."""
        if self.cover is None:
            lo, hi = self.covered_rows()
            self._project(lo, hi - lo)

    def _project(self, row0: int, height: int) -> None:
        """Start over on rows ``row0 <= i < row0 + height``; the known
        points wait in the pending admitted list for the next sync."""
        n = self.grid.n
        self.row0 = row0
        self.base = row0 * n
        self.cover = np.zeros((height, n), dtype=np.uint8)
        self.counts = np.zeros((height, n), dtype=np.int32)
        self.overflow = {}
        self._admitted_points = list(self.known_points())
        self._excluded_points = []

    def _regrow(self) -> bool:
        """Grow the band over the covered rows if they left it: to twice
        the larger of their height and its own, clamped to the grid, the
        slack split around the covered rows; then project and sync it
        afresh."""
        lo, hi = self.covered_rows()
        height = self.cover.shape[0]
        if lo >= hi or (self.row0 <= lo and hi <= self.row0 + height):
            return False
        n = self.grid.n
        height = min(2 * max(hi - lo, height), n)
        row0 = min(max(lo - (height - (hi - lo)) // 2, 0), n - height)
        self._project(row0, height)
        self._sync()
        self.view_regrowths += 1
        return True

    def _sync(self) -> None:
        """Apply the points admitted and excluded since the last sync."""
        admitted, excluded = self._admitted_points, self._excluded_points
        if not admitted and not excluded:
            return
        self._admitted_points, self._excluded_points = [], []
        points = admitted + excluded
        count = len(points)
        xs = np.fromiter((p.x for p in points), dtype=np.float64, count=count)
        ys = np.fromiter((p.y for p in points), dtype=np.float64, count=count)
        steps = np.ones(count, dtype=np.int32)
        steps[len(admitted):] = -1
        n = self.grid.n
        row0, height = self.row0, self.cover.shape[0]
        cover = self.cover.reshape(-1)
        overflow = self.overflow
        first = 0
        for I, J, keep in self.grid.dilation_hits(
            xs, ys, self.radius, (row0, row0 + height)
        ):
            chunk = steps[first : first + keep.shape[0]]
            first += keep.shape[0]
            if not I.size:
                continue
            # the net change per touched cell, then the true counts in
            # int64: a cell that nets to zero is left alone
            flat = I * n + J
            lo = int(flat.min())
            delta = np.bincount(flat - lo, weights=np.repeat(chunk, keep.sum(axis=1)))
            touched = np.flatnonzero(delta)
            cells = touched + (lo - self.base)
            before = cover[cells]
            true = before + delta[touched].astype(np.int64)
            if overflow:
                for k in np.flatnonzero(before == 255).tolist():
                    true[k] += overflow.pop(int(cells[k]), 255) - 255
            for k in np.flatnonzero(true > 255).tolist():
                overflow[int(cells[k])] = int(true[k])
            cover[cells] = np.minimum(true, 255)
        ci, cj = self.grid.cells_of_array(xs, ys)
        ci -= row0
        inside = (ci >= 0) & (ci < height)
        np.add.at(self.counts, (ci[inside], cj[inside]), steps[inside])


class StaticMatchingField(MatchingEventField):
    """A field over an upfront list of matching-event locations."""

    def __init__(self, grid: Grid, points: Iterable[Point], radius: float) -> None:
        super().__init__(grid, radius)
        self._counts: Dict[Cell, int] = defaultdict(int)
        self._points: List[Point] = []
        self._unsafe: Optional[FrozenSet[Cell]] = None
        for point in points:
            self._points.append(point)
            self._counts[grid.cell_of(point)] += 1

    def count_in_cell(self, cell: Cell) -> int:
        """phi[cell]: matching events located in the cell."""
        return self._counts.get(cell, 0)

    def unsafe_cells(self) -> FrozenSet[Cell]:
        """All cells within the radius of some matching event (cached)."""
        if self._unsafe is None:
            self._unsafe = frozenset(
                cells_of_codes(dilate_points(self.grid, self._points, self.radius))
            )
        return self._unsafe

    def is_cell_safe(self, cell: Cell) -> bool:
        """O(1) lookup against the precomputed unsafe set."""
        return cell not in self.unsafe_cells()

    def all_points(self) -> List[Point]:
        """Every matching-event location (a copy)."""
        return list(self._points)

    def known_points(self) -> List[Point]:
        """The full point list (static fields know everything upfront)."""
        return self._points


class LazyBEQField(MatchingEventField):
    """A field that discovers matching events leaf-by-leaf from a BEQ-Tree.

    ``excluded_ids`` carries the already-delivered events (footnote 2 of
    the paper: once notified, an event is never considered again for the
    subscriber, so it must not constrain the safe region either).

    Coverage grows as an axis-aligned cell rectangle: a safety query for a
    cell extends the covered rectangle to include the cell's whole
    ``radius``-neighbourhood, scanning only the BEQ-Tree leaves that
    intersect the newly covered strip.  Because iGM/idGM expand outward
    from the subscriber, the rectangle tracks the expansion closely and
    the rest of the space is never touched.  The field also keeps the
    bounding box of the boundaries of every leaf it has scanned, as four
    floats; the covered rectangle lies inside it.

    A field can outlive one construction (the server's repair mode keeps
    one per subscriber): discovered events are deduplicated by id, so a
    leaf split that redistributes already-known events never double-counts
    them, and the server feeds corpus churn in through two hooks:

    * :meth:`note_event` adds a freshly published be-matching event
      located in the box without rescanning any leaf (dedup protects a
      later scan); an event outside the box sits in a leaf the field has
      never scanned — the tree draws a fresh leaf id on every split and
      merge — so coverage growth finds it when it scans that leaf;
    * :meth:`note_exclusion` forgets an event that stopped mattering
      (delivered, expired or extracted; :meth:`note_exclusions` takes a
      whole retirement sweep at once).  Safety is a per-cell cover count,
      so forgetting un-dilates the event exactly: its φ count and every
      cover count it raised go back down, in the scalar dicts and in the
      array projection.

    ``holders`` (optional, shared by the owner's fields) maps an event id
    to the ``owner`` ids of the fields that know it, so the owner can send
    an exclusion to exactly those fields; a field enters it on admission,
    leaves it on exclusion, and :meth:`release` takes it out altogether.
    It holds ids, not fields, so it makes no reference cycle.

    **Invariant** (what construction has always assumed, and what makes
    a retained field the location-update matcher too): the field knows
    every live, undelivered be-matching event located inside its covered
    rectangle, and nothing but such events located inside the box of its
    scanned leaves — a leaf is scanned when coverage first reaches it,
    later arrivals in the box come in through :meth:`note_event`, every
    delivery, expiry or extraction goes out through
    :meth:`note_exclusion`, and whoever stores events *without* telling
    the field (a mid-life ``bootstrap``) must drop it.  Every cell a
    construction reads has its radius-neighbourhood covered, so what it
    reads of the unsafe cells, φ and the projection equals what a fresh
    field over the same live events would give.
    """

    #: retired slots tolerated before :meth:`_compact` (and at least half)
    COMPACT_MIN = 32

    def __init__(
        self,
        grid: Grid,
        tree,
        expression: BooleanExpression,
        radius: float,
        excluded_ids: Optional[Set[int]] = None,
        holders: Optional[Dict[int, Set[int]]] = None,
        owner: int = 0,
    ) -> None:
        super().__init__(grid, radius)
        self._tree = tree
        self._expression = expression
        self._excluded = excluded_ids if excluded_ids is not None else set()
        self._holders = holders
        self._owner = owner
        #: φ per cell, counted on the first :meth:`count_in_cell` (the
        #: array core reads the projection's ``counts`` instead)
        self._counts: Optional[Dict[Cell, int]] = None
        #: known event locations by slot; a forgotten event's slot keeps
        #: its point (its id becomes None) until :meth:`_compact`
        self._points: List[Point] = []
        #: ``_ids[k]`` is the event located at ``_points[k]``
        self._ids: List[Optional[int]] = []
        #: live event id -> slot
        self._position: Dict[int, int] = {}
        self._retired_slots = 0
        #: the coordinates of a prefix of ``_points`` as arrays, extended
        #: by :meth:`matches_in_circle` when it is asked (a field that is
        #: never asked — a stationary subscriber's — never pays for them)
        self._xs = np.empty(0)
        self._ys = np.empty(0)
        #: the cover count of every unsafe cell, counted on the first
        #: :meth:`_cover_at` (the scalar oracle's questions)
        self._cover_counts: Optional[Dict[Cell, int]] = None
        self._scanned_leaves: Set[int] = set()
        #: the bounding box (x_min, y_min, x_max, y_max) of the scanned
        #: leaves' boundaries, closed; empty before the first scan
        self._box = (math.inf, math.inf, -math.inf, -math.inf)
        # Covered cell rectangle (i_min, j_min, i_max, j_max), inclusive.
        self._covered: Optional[Tuple[int, int, int, int]] = None
        self.leaves_scanned = 0
        self._reach = int(radius / min(grid.cell_width, grid.cell_height)) + 2

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def _cover(self, i_min: int, j_min: int, i_max: int, j_max: int) -> None:
        """Grow the covered rectangle to include the requested cell range.

        Only the strips by which the rectangle grew are walked: a leaf
        that meets the old rectangle was scanned when that was covered.
        """
        n = self.grid.n
        i_min, j_min = max(i_min, 0), max(j_min, 0)
        i_max, j_max = min(i_max, n - 1), min(j_max, n - 1)
        if self._covered is None:
            strips = [Rect(*self._edges(i_min, j_min, i_max, j_max))]
        else:
            ci_min, cj_min, ci_max, cj_max = self._covered
            if ci_min <= i_min and cj_min <= j_min and i_max <= ci_max and j_max <= cj_max:
                return
            i_min, j_min = min(i_min, ci_min), min(j_min, cj_min)
            i_max, j_max = max(i_max, ci_max), max(j_max, cj_max)
            # left and right strips run the full new height, bottom and
            # top ones fill in between them; each keeps the edge it
            # shares with the old rectangle, so their union with it is
            # the new rectangle exactly
            ox_min, oy_min, ox_max, oy_max = self._edges(ci_min, cj_min, ci_max, cj_max)
            x_min, y_min, x_max, y_max = self._edges(i_min, j_min, i_max, j_max)
            strips = []
            if i_min < ci_min:
                strips.append(Rect(x_min, y_min, ox_min, y_max))
            if i_max > ci_max:
                strips.append(Rect(ox_max, y_min, x_max, y_max))
            if j_min < cj_min:
                strips.append(Rect(ox_min, y_min, ox_max, oy_min))
            if j_max > cj_max:
                strips.append(Rect(ox_min, oy_max, ox_max, y_max))
        for strip in strips:
            for leaf in self._tree.leaves_intersecting_rect(strip):
                if leaf.cell_id in self._scanned_leaves:
                    continue
                self._scanned_leaves.add(leaf.cell_id)
                self.leaves_scanned += 1
                self.events_scanned += len(leaf.events)
                edges = leaf.boundary
                x_lo, y_lo, x_hi, y_hi = self._box
                self._box = (
                    min(x_lo, edges.x_min), min(y_lo, edges.y_min),
                    max(x_hi, edges.x_max), max(y_hi, edges.y_max),
                )
                for event in leaf.be_match(self._expression, self._excluded):
                    if event.event_id not in self._position:
                        self._admit(event.event_id, event.location)
        self._covered = (i_min, j_min, i_max, j_max)

    def _edges(
        self, i_min: int, j_min: int, i_max: int, j_max: int
    ) -> Tuple[float, float, float, float]:
        """The outer edges of a cell range, as :meth:`Grid.cell_rect`
        computes them."""
        grid = self.grid
        return (
            grid.space.x_min + i_min * grid.cell_width,
            grid.space.y_min + j_min * grid.cell_height,
            grid.space.x_min + (i_max + 1) * grid.cell_width,
            grid.space.y_min + (j_max + 1) * grid.cell_height,
        )

    def _admit(self, event_id: int, location: Point) -> None:
        """Record one newly discovered matching event as a constraint."""
        self._position[event_id] = len(self._points)
        self._points.append(location)
        self._ids.append(event_id)
        self._count(location, 1)
        if self.cover is not None:
            self._admitted_points.append(location)
        holders = self._holders
        if holders is not None:
            held = holders.get(event_id)
            if held is None:
                holders[event_id] = {self._owner}
            else:
                held.add(self._owner)

    def _forget(self, event_id: int) -> bool:
        """Un-dilate one known event; False when the field does not know it."""
        slot = self._position.pop(event_id, None)
        if slot is None:
            return False
        location = self._points[slot]
        self._ids[slot] = None
        self._retired_slots += 1
        self._count(location, -1)
        if self.cover is not None:
            self._excluded_points.append(location)
        if self._holders is not None:
            self._unhold(self._holders, event_id)
        return True

    def _count(self, location: Point, step: int) -> None:
        """Add ``step`` to φ and to the cover counts, once the scalar path
        has asked for them (a count that reaches 0 leaves its dict)."""
        counts = self._counts
        if counts is not None:
            cell = self.grid.cell_of(location)
            count = counts.get(cell, 0) + step
            if count:
                counts[cell] = count
            else:
                del counts[cell]
        if self._cover_counts is not None:
            cover_point(self.grid, location, self.radius, self._cover_counts, step)

    def _unhold(self, holders: Dict[int, Set[int]], event_id: int) -> None:
        held = holders.get(event_id)
        if held is not None:
            held.discard(self._owner)
            if not held:
                del holders[event_id]

    def _compact(self) -> None:
        """Drop the forgotten slots (the projection keeps its own state)."""
        ids = self._ids
        live = [k for k, event_id in enumerate(ids) if event_id is not None]
        prefix = self._xs.size
        if prefix:
            keep = np.fromiter(
                (event_id is not None for event_id in ids[:prefix]), dtype=bool, count=prefix
            )
            self._xs = self._xs[keep]
            self._ys = self._ys[keep]
        self._points = [self._points[k] for k in live]
        self._ids = [ids[k] for k in live]
        self._position = {event_id: k for k, event_id in enumerate(self._ids)}
        self._retired_slots = 0

    # ------------------------------------------------------------------
    # Reuse across constructions (the server's repair mode)
    # ------------------------------------------------------------------
    def note_event(self, event_id: int, location: Point) -> None:
        """Admit a freshly published be-matching event without a leaf
        scan, when it lies in the box of the scanned leaves (see the class
        docstring); the id dedup in :meth:`_cover` prevents a double count
        when its leaf is scanned later."""
        x_lo, y_lo, x_hi, y_hi = self._box
        if not (x_lo <= location.x <= x_hi and y_lo <= location.y <= y_hi):
            return
        if event_id in self._excluded or event_id in self._position:
            return
        self._admit(event_id, location)

    def note_exclusions(self, event_ids: Iterable[int]) -> int:
        """Forget events that no longer constrain the region (delivered,
        expired or extracted): their dilations and φ counts are removed.
        Returns how many of them the field knew."""
        forgotten = sum(self._forget(event_id) for event_id in event_ids)
        retired = self._retired_slots
        if retired > self.COMPACT_MIN and 2 * retired > len(self._points):
            self._compact()
        return forgotten

    def note_exclusion(self, event_id: int) -> bool:
        """:meth:`note_exclusions` of one event: whether the field knew it."""
        return self.note_exclusions((event_id,)) == 1

    def release(self) -> None:
        """Leave ``holders``: the owner is dropping this field."""
        holders, self._holders = self._holders, None
        if holders is not None:
            for event_id in self._position:
                self._unhold(holders, event_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count_in_cell(self, cell: Cell) -> int:
        """phi[cell], covering the cell's leaves on demand."""
        counts = self._counts
        if counts is None:
            counts = self._counts = {}
            for point in self.known_points():
                key = self.grid.cell_of(point)
                counts[key] = counts.get(key, 0) + 1
        self._cover(cell[0], cell[1], cell[0], cell[1])
        return counts.get(cell, 0)

    def _cover_at(self) -> Dict[Cell, int]:
        """The scalar cover counts; the first call counts everything
        known so far."""
        cover = self._cover_counts
        if cover is None:
            cover = self._cover_counts = {}
            for point in self.known_points():
                cover_point(self.grid, point, self.radius, cover, 1)
        return cover

    def is_cell_safe(self, cell: Cell) -> bool:
        """Safety test; covers the cell's radius-neighbourhood on demand."""
        cover = self._cover_at()
        self.ensure_cell_neighbourhood(cell)
        return cell not in cover

    def matches_in_circle(self, center: Point) -> Optional[List[int]]:
        """Ids of the known events within ``radius`` (closed) of
        ``center``, or None when the field cannot vouch for the circle.

        The field vouches for it when the cells of the circle's bounding
        box lie inside the covered rectangle (see the class invariant);
        coverage never grows here.  One array pass over the known points
        keeps those within a hair *more* than ``radius``; each of these
        few is then decided by the arithmetic of ``Point.distance_to`` /
        ``Circle.contains`` (``math.hypot``, closed), so an event at
        distance exactly ``radius`` is decided as the BEQ-Tree's spatial
        match decides it, and a field that has known thousands of events
        (a corpus that never expires) still answers in microseconds.
        """
        if self._covered is None:
            return None
        radius = self.radius
        cx, cy = center.x, center.y
        i_min, j_min = self.grid.cell_of(Point(cx - radius, cy - radius))
        i_max, j_max = self.grid.cell_of(Point(cx + radius, cy + radius))
        ci_min, cj_min, ci_max, cj_max = self._covered
        if i_min < ci_min or j_min < cj_min or i_max > ci_max or j_max > cj_max:
            return None
        points = self._points
        if len(points) > self._xs.size:
            fresh = points[self._xs.size :]
            count = len(fresh)
            self._xs = np.concatenate(
                (self._xs, np.fromiter((p.x for p in fresh), np.float64, count))
            )
            self._ys = np.concatenate(
                (self._ys, np.fromiter((p.y for p in fresh), np.float64, count))
            )
        dx = cx - self._xs
        dy = cy - self._ys
        near = np.flatnonzero(dx * dx + dy * dy <= radius * radius * _NEAR_SLACK)
        ids = self._ids
        return [
            ids[k]
            for k in near.tolist()
            if ids[k] is not None and center.distance_to(points[k]) <= radius
        ]

    def unsafe_cells(self) -> FrozenSet[Cell]:
        """Full-coverage unsafe set (GM under on-demand matching)."""
        self.all_points()  # full coverage
        return frozenset(self._cover_at())

    def all_points(self) -> List[Point]:
        """Falls back to a full scan; defeats the purpose, use sparingly."""
        n = self.grid.n
        self._cover(0, 0, n - 1, n - 1)
        return list(self.known_points())

    def known_points(self) -> List[Point]:
        """The live points discovered so far, without growing coverage
        (compacts the forgotten slots first)."""
        if self._retired_slots:
            self._compact()
        return self._points

    def ensure_cell_neighbourhood(self, cell: Cell) -> None:
        """Cover the cell's radius-neighbourhood (no unsafe-set upkeep)."""
        reach = self._reach
        self._cover(cell[0] - reach, cell[1] - reach, cell[0] + reach, cell[1] + reach)

    def covered_rows(self) -> Tuple[int, int]:
        """The rows of the covered rectangle (none before any coverage)."""
        if self._covered is None:
            return (0, 0)
        return (self._covered[0], self._covered[2] + 1)

    def covered_window(self) -> Tuple[int, int, int, int]:
        """The covered rectangle shrunk by the neighbourhood reach.

        :meth:`_cover` clamps a request to the grid, so a covered side
        that already touches the border admits every cell up to it.
        """
        if self._covered is None:
            return (0, 0, -1, -1)
        reach = self._reach
        last = self.grid.n - 1
        ci_min, cj_min, ci_max, cj_max = self._covered
        return (
            ci_min + reach if ci_min > 0 else 0,
            cj_min + reach if cj_min > 0 else 0,
            ci_max - reach if ci_max < last else last,
            cj_max - reach if cj_max < last else last,
        )
