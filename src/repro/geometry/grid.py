"""The N x N uniform grid used by GM, iGM and idGM.

The paper partitions the whole space into ``N x N`` unit cells (Section 3.4)
and represents safe regions as sets of cells.  A cell is addressed by its
integer coordinates ``(i, j)`` with ``i`` indexing the x axis and ``j`` the
y axis, both in ``range(n)``.

Two distance notions matter:

* *point-to-cell* min distance — used for the safety test (a cell is safe
  iff its min distance to every matching event exceeds the notification
  radius) and for the heap ordering of iGM;
* *cell-to-cell* min distance — used to dilate a safe region into its
  impact region (Definition 2: every point within distance ``r`` of the
  safe region).

For uniform cells the cell-to-cell min distance only depends on the index
offset, so the dilation structuring element (the "disk of offsets") is a
value of its own: :meth:`Grid.disk` hands out one :class:`Disk` per
*distinct offset set*, and everything derived from the set hangs off it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Tuple

import numpy as np

from .circle import Circle
from .point import Point
from .rect import Rect
from .zorder import deinterleave_array, interleave

Cell = Tuple[int, int]

# Cap on the size of (points x offsets) intermediates in the array kernels;
# larger inputs are processed in chunks of roughly this many elements.
_ARRAY_CHUNK = 1 << 18

#: the 8 neighbour directions, in the order of :attr:`Disk.strips`'s keys;
#: bit ``k`` of a :class:`StripCandidates` key stands for ``RING[k]``
RING: Tuple[Cell, ...] = tuple(
    (di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)
)


class StripCandidates(dict):
    """Candidate impact offsets per set of already-accepted neighbours.

    ``table[key]`` is ``(off_i, off_j, off_i * n + off_j)``: the offsets
    of ``disk.arrays`` lying in the strip of *every* direction ``RING[k]``
    whose bit ``k`` is set in ``key`` (the Example 2 intersection; key 0
    is the full disk), in the disk's sorted order.  A pure function of
    the disk, so each of the at most 256 entries is computed on first use
    and kept.  ``reach`` is the largest ``|offset|`` of the disk: a cell
    at least that far from every border has all its candidates in bounds,
    at ``flat + (i * n + j)``.
    """

    def __init__(self, disk: "Disk") -> None:
        super().__init__()
        self._n = disk.n
        self._offsets = disk.arrays
        self._masks = [disk.masks[direction] for direction in RING]
        off_i, off_j = self._offsets
        self.reach = int(max(np.abs(off_i).max(), np.abs(off_j).max())) if off_i.size else 0

    def __missing__(self, key: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        off_i, off_j = self._offsets
        mask = None
        for bit, strip_mask in enumerate(self._masks):
            if key >> bit & 1:
                mask = strip_mask if mask is None else mask & strip_mask
        if mask is not None:
            off_i, off_j = off_i[mask], off_j[mask]
        entry = self[key] = (off_i, off_j, off_i * self._n + off_j)
        return entry


class FlatStripOffsets(dict):
    """``table[key]`` is ``candidates[key]``'s flat offsets as a tuple of
    ints.  A cell at least ``candidates.reach`` from every border adds
    them to ``i * n + j`` one at a time: for the handful of offsets a
    strip holds that beats any array operation's call overhead."""

    def __init__(self, candidates: StripCandidates) -> None:
        super().__init__()
        self._candidates = candidates

    def __missing__(self, key: int) -> Tuple[int, ...]:
        entry = self[key] = tuple(self._candidates[key][2].tolist())
        return entry


class Disk:
    """One dilation structuring element of an ``n x n`` grid: a set of
    index offsets, and every table computed from it on first use.

    :meth:`Grid.disk` interns one instance per distinct offset set, so
    the thousands of float radii a churning population brings share the
    handful of disks they compute; nothing here is keyed by radius.
    """

    def __init__(self, n: int, offsets: FrozenSet[Cell]) -> None:
        self.n = n
        #: the offsets ``(di, dj)`` themselves (what the scalar oracle reads)
        self.offsets = offsets

    @cached_property
    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``offsets`` as a pair of int64 arrays ``(di, dj)``, sorted
        lexicographically so every kernel built on them sees a stable,
        reproducible order."""
        arr = np.array(sorted(self.offsets), dtype=np.int64).reshape(-1, 2)
        return (np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1]))

    @cached_property
    def strips(self) -> Dict[Cell, FrozenSet[Cell]]:
        """Per-direction dilation deltas (the Example 2 optimisation).

        When a cell ``c`` joins a safe region that already contains its
        neighbour ``n = c + d``, the impact cells newly introduced by ``c``
        are contained in ``dilate({c}) - dilate({n})`` — a thin strip on the
        far side of ``c``.  The strip only depends on the direction ``d``:
        ``strips[d] = {off in offsets : off - d not in offsets}``, keyed in
        :data:`RING` order.
        """
        offsets = self.offsets
        return {
            (di, dj): frozenset(
                (oi, oj) for (oi, oj) in offsets if (oi - di, oj - dj) not in offsets
            )
            for (di, dj) in RING
        }

    @cached_property
    def masks(self) -> Dict[Cell, np.ndarray]:
        """``strips`` as boolean masks over ``arrays``: ``masks[d][k]`` is
        True when the k-th offset belongs to the direction-``d`` strip, so
        strip intersections become elementwise ANDs."""
        off_i, off_j = self.arrays
        pairs = list(zip(off_i.tolist(), off_j.tolist()))
        return {
            direction: np.array([off in strip for off in pairs], dtype=bool)
            for direction, strip in self.strips.items()
        }

    @cached_property
    def candidates(self) -> StripCandidates:
        """The per-accepted-neighbour-set candidate offsets of Algorithm 1."""
        return StripCandidates(self)

    @cached_property
    def flat_candidates(self) -> FlatStripOffsets:
        """:attr:`candidates`' flat offsets as Python tuples."""
        return FlatStripOffsets(self.candidates)


class GridAxes:
    """Per-axis tables of a grid, ``n`` (or ``n + 1``) entries each.

    Everything a frontier needs per cell that is a sum of an x part and a
    y part, tabulated once per grid so no construction recomputes it:

    * ``x_lo[i] = x_min + i * cell_width`` and ``x_hi[i] = x_min + (i + 1)
      * cell_width`` (float64 arrays; the y twins alike): the cell edges
      exactly as :meth:`Grid.cell_rect` forms them;
    * ``x_mid[i] = x_min + (i + 0.5) * cell_width``: the centres exactly as
      :meth:`Grid.cell_center` forms them;
    * ``morton_x[i] | morton_y[j] == interleave(i, j)``: the Morton code
      as two per-axis bit spreads (its bits of i and of j are disjoint),
      not an ``n x n`` table; ``morton_x_array`` / ``morton_y_array`` are
      the same spreads as int64 arrays, for whole index arrays at once.

    Each entry is computed by Python float arithmetic, so every table
    value is bit-identical to what the scalar methods compute per call.
    """

    __slots__ = (
        "x_lo", "x_hi", "y_lo", "y_hi", "x_mid", "y_mid",
        "morton_x", "morton_y", "morton_x_array", "morton_y_array",
    )

    def __init__(self, grid: "Grid") -> None:
        n = grid.n
        x0, y0 = grid.space.x_min, grid.space.y_min
        cw, ch = grid.cell_width, grid.cell_height
        x_edges = np.array([x0 + i * cw for i in range(n + 1)], dtype=np.float64)
        y_edges = np.array([y0 + j * ch for j in range(n + 1)], dtype=np.float64)
        self.x_lo, self.x_hi = x_edges[:-1], x_edges[1:]
        self.y_lo, self.y_hi = y_edges[:-1], y_edges[1:]
        self.x_mid = np.array([x0 + (i + 0.5) * cw for i in range(n)], dtype=np.float64)
        self.y_mid = np.array([y0 + (j + 0.5) * ch for j in range(n)], dtype=np.float64)
        self.morton_x = tuple(interleave(i, 0) for i in range(n))
        self.morton_y = tuple(interleave(0, j) for j in range(n))
        self.morton_x_array = np.array(self.morton_x, dtype=np.int64)
        self.morton_y_array = np.array(self.morton_y, dtype=np.int64)


class Grid:
    """A uniform ``n x n`` partition of a square space."""

    #: radius-memo entries beyond this are dropped wholesale (bounds the
    #: memory of a server whose subscribers bring ever-new float radii)
    DISK_MEMO_LIMIT = 1 << 13

    def __init__(self, n: int, space: Rect) -> None:
        if n <= 0:
            raise ValueError(f"grid resolution must be positive, got {n}")
        self.n = n
        self.space = space
        self.cell_width = space.width / n
        self.cell_height = space.height / n
        #: one :class:`Disk` per distinct offset set (at most one per
        #: distinct cell-to-cell distance: bounded by the grid)
        self._disks: Dict[FrozenSet[Cell], Disk] = {}
        #: ``(radius, inclusive)`` -> its disk, the one float-keyed table
        self._disk_memo: Dict[Tuple[float, bool], Disk] = {}

    def __getstate__(self) -> dict:
        # the axis tables are a pure function of (n, space): a pickled
        # grid (what a process fleet ships) stays the size it always was
        state = self.__dict__.copy()
        state.pop("axes", None)
        return state

    @cached_property
    def axes(self) -> GridAxes:
        """The per-axis edge, centre and Morton tables (built on first use)."""
        return GridAxes(self)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def cell_of(self, p: Point) -> Cell:
        """The cell containing ``p``; points outside the space are clamped."""
        i = int((p.x - self.space.x_min) / self.cell_width)
        j = int((p.y - self.space.y_min) / self.cell_height)
        return (min(max(i, 0), self.n - 1), min(max(j, 0), self.n - 1))

    def cells_of_array(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`cell_of` over coordinate arrays.

        ``int()`` truncation (scalar path) and ``np.floor`` round negatives
        differently, but clamping to ``[0, n-1]`` erases the difference: both
        land on 0 for points left of the space.
        """
        i = np.floor((xs - self.space.x_min) / self.cell_width).astype(np.int64)
        j = np.floor((ys - self.space.y_min) / self.cell_height).astype(np.int64)
        np.clip(i, 0, self.n - 1, out=i)
        np.clip(j, 0, self.n - 1, out=j)
        return i, j

    def code_of(self, p: Point) -> int:
        """The Morton code of the cell containing ``p`` (clamped as
        :meth:`cell_of` clamps): what a region's membership test reads."""
        i, j = self.cell_of(p)
        axes = self.axes
        return axes.morton_x[i] | axes.morton_y[j]

    def codes_of_flat(self, flat: np.ndarray) -> np.ndarray:
        """The Morton codes of flat indices ``i * n + j``, sorted (distinct
        indices give distinct codes)."""
        ii, jj = np.divmod(flat, self.n)
        axes = self.axes
        codes = axes.morton_x_array[ii] | axes.morton_y_array[jj]
        codes.sort()
        return codes

    def in_bounds(self, cell: Cell) -> bool:
        """True when the cell index lies inside the grid."""
        return 0 <= cell[0] < self.n and 0 <= cell[1] < self.n

    def cell_rect(self, cell: Cell) -> Rect:
        """The rectangle a cell covers."""
        i, j = cell
        return Rect(
            self.space.x_min + i * self.cell_width,
            self.space.y_min + j * self.cell_height,
            self.space.x_min + (i + 1) * self.cell_width,
            self.space.y_min + (j + 1) * self.cell_height,
        )

    def cell_center(self, cell: Cell) -> Point:
        """The centre point of a cell."""
        i, j = cell
        return Point(
            self.space.x_min + (i + 0.5) * self.cell_width,
            self.space.y_min + (j + 0.5) * self.cell_height,
        )

    def cell_index(self, cell: Cell) -> int:
        """Row-major linear id of a cell; used for bitmap encoding."""
        i, j = cell
        return j * self.n + i

    def cell_from_index(self, index: int) -> Cell:
        """Inverse of :meth:`cell_index`."""
        return (index % self.n, index // self.n)

    def all_cells(self) -> Iterator[Cell]:
        """Every cell, row-major."""
        for j in range(self.n):
            for i in range(self.n):
                yield (i, j)

    # ------------------------------------------------------------------
    # Neighbourhood
    # ------------------------------------------------------------------
    def neighbors(self, cell: Cell) -> List[Cell]:
        """The 8-connected in-bounds neighbours of ``cell``.

        iGM expands the safe region over adjacent cells; 8-connectivity makes
        the circular expansion of Algorithm 1 reach diagonal cells directly.
        """
        i, j = cell
        result = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                neighbor = (i + di, j + dj)
                if self.in_bounds(neighbor):
                    result.append(neighbor)
        return result

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_distance_point_cell(self, p: Point, cell: Cell) -> float:
        """Min distance from ``p`` to any point of ``cell`` (0 when inside)."""
        return self.cell_rect(cell).min_distance_to_point(p)

    def min_distance_cell_cell(self, a: Cell, b: Cell) -> float:
        """Min distance between any two points of cells ``a`` and ``b``."""
        dx = max(abs(a[0] - b[0]) - 1, 0) * self.cell_width
        dy = max(abs(a[1] - b[1]) - 1, 0) * self.cell_height
        return math.hypot(dx, dy)

    # ------------------------------------------------------------------
    # Dilation (impact-region structuring element)
    # ------------------------------------------------------------------
    def disk(self, radius: float, inclusive: bool = False) -> Disk:
        """The :class:`Disk` of index offsets ``(di, dj)`` whose
        cell-to-cell min distance is < ``radius``.

        Dilating a cell set by this structuring element yields exactly the
        set of cells containing at least one point within distance ``radius``
        of the set — the grid rendering of Definition 2's impact region.

        With ``inclusive=True`` offsets at distance exactly ``radius`` are
        kept too; the safety test needs that closed variant (a cell is unsafe
        already when a matching event sits at distance exactly ``r``).

        Radii are outside input, so the radius memo is bounded: past
        :attr:`DISK_MEMO_LIMIT` it is cleared, and a radius still in use
        pays one offset enumeration to find its interned disk again.
        """
        key = (radius, inclusive)
        disk = self._disk_memo.get(key)
        if disk is not None:
            return disk
        reach_x = int(radius / self.cell_width) + 2
        reach_y = int(radius / self.cell_height) + 2
        offsets = set()
        for di in range(-reach_x, reach_x + 1):
            for dj in range(-reach_y, reach_y + 1):
                dx = max(abs(di) - 1, 0) * self.cell_width
                dy = max(abs(dj) - 1, 0) * self.cell_height
                distance = math.hypot(dx, dy)
                if distance < radius or (inclusive and distance == radius):
                    offsets.add((di, dj))
        frozen = frozenset(offsets)
        disk = self._disks.get(frozen)
        if disk is None:
            disk = self._disks[frozen] = Disk(self.n, frozen)
        if len(self._disk_memo) >= self.DISK_MEMO_LIMIT:
            self._disk_memo.clear()
        self._disk_memo[key] = disk
        return disk

    def dilation_hits(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        radius: float,
        rows: Tuple[int, int] | None = None,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every ``(point, cell)`` pair with the cell within ``radius``
        (closed) of the point, one chunk of consecutive points at a time,
        as ``(i, j, keep)``: the pairs' cell indices, point by point, and
        the chunk's ``(points, offsets)`` boolean mask they were kept by
        (``keep.sum(axis=1)`` counts each point's pairs).  ``rows`` =
        ``(lo, hi)`` keeps only the cells with ``lo <= i < hi`` (default:
        the whole grid).

        The array form of :func:`repro.core.field.dilate_point`'s test,
        reproducing ``Rect.min_distance_to_point`` bit for bit: rectangle
        edges are formed as ``x_min + (i + 1) * cell_width`` exactly as
        :meth:`cell_rect` does, and the distance as ``sqrt(dx*dx + dy*dy)``.
        """
        n = self.n
        row_lo, row_hi = (0, n) if rows is None else rows
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        off_i, off_j = self.disk(radius, inclusive=True).arrays
        if xs.size == 0 or off_i.size == 0:
            return
        ci, cj = self.cells_of_array(xs, ys)
        cw, ch = self.cell_width, self.cell_height
        x0, y0 = self.space.x_min, self.space.y_min
        step = max(1, _ARRAY_CHUNK // off_i.size)
        for lo in range(0, xs.size, step):
            hi = lo + step
            I = ci[lo:hi, None] + off_i[None, :]
            J = cj[lo:hi, None] + off_j[None, :]
            inb = (I >= row_lo) & (I < row_hi) & (J >= 0) & (J < n)
            px = xs[lo:hi, None]
            py = ys[lo:hi, None]
            dx = np.maximum(np.maximum(x0 + I * cw - px, 0.0), px - (x0 + (I + 1) * cw))
            dy = np.maximum(np.maximum(y0 + J * ch - py, 0.0), py - (y0 + (J + 1) * ch))
            keep = inb & (np.sqrt(dx * dx + dy * dy) <= radius)
            yield I[keep], J[keep], keep

    def dilate(self, cells: FrozenSet[Cell] | set, radius: float) -> set:
        """All in-bounds cells within ``radius`` of the given cell set
        (the cell-at-a-time reference for :meth:`dilate_codes`)."""
        offsets = self.disk(radius).offsets
        result = set()
        for (i, j) in cells:
            for (di, dj) in offsets:
                candidate = (i + di, j + dj)
                if self.in_bounds(candidate):
                    result.add(candidate)
        return result

    def dilate_codes(
        self, codes: np.ndarray, radius: float, inclusive: bool = False
    ) -> np.ndarray:
        """The sorted Morton codes of every in-bounds cell within
        ``radius`` of the cells whose codes are given (at exactly
        ``radius`` too when ``inclusive``): :meth:`dilate` over code
        arrays, one bounds-filtered offset pass per chunk of seeds."""
        off_i, off_j = self.disk(radius, inclusive=inclusive).arrays
        if codes.size == 0 or off_i.size == 0:
            return np.empty(0, dtype=np.int64)
        seed_i, seed_j = deinterleave_array(codes)
        n = self.n
        hits = []
        step = max(1, _ARRAY_CHUNK // off_i.size)
        for lo in range(0, seed_i.size, step):
            I = (seed_i[lo : lo + step, None] + off_i[None, :]).ravel()
            J = (seed_j[lo : lo + step, None] + off_j[None, :]).ravel()
            keep = (I >= 0) & (I < n) & (J >= 0) & (J < n)
            hits.append(I[keep] * n + J[keep])
        return self.codes_of_flat(np.unique(np.concatenate(hits)))

    def cells_within_radius(
        self, cell: Cell, radius: float, inclusive: bool = False
    ) -> Iterator[Cell]:
        """In-bounds cells whose min distance to ``cell`` is below ``radius``."""
        i, j = cell
        for (di, dj) in self.disk(radius, inclusive=inclusive).offsets:
            candidate = (i + di, j + dj)
            if self.in_bounds(candidate):
                yield candidate

    # ------------------------------------------------------------------
    # Circle coverage
    # ------------------------------------------------------------------
    def cells_intersecting_circle(self, circle: Circle) -> Iterator[Cell]:
        """All cells sharing at least one point with the disk."""
        lo = self.cell_of(Point(circle.center.x - circle.radius, circle.center.y - circle.radius))
        hi = self.cell_of(Point(circle.center.x + circle.radius, circle.center.y + circle.radius))
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                cell = (i, j)
                if circle.intersects_rect(self.cell_rect(cell)):
                    yield cell
