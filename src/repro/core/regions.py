"""Safe regions and impact regions (Definitions 1 and 2).

Both region kinds are sets of grid cells.  The grid rendering keeps the
paper's guarantees conservative:

* a cell belongs to a **safe region** only if *every* point of the cell is
  farther than the notification radius from every matching event
  (Definition 1 holds pointwise);
* the **impact region** of a safe region contains every cell holding at
  least one point within the notification radius of the safe region, so an
  event outside the impact cells provably cannot invalidate the safe
  region (Definition 2 is over-approximated, never under-approximated).

GM's safe region is usually "everything except a few cells", so regions
support a complement representation: the stored cell set is then the
*excluded* cells.  The WAH bitmap codec (Appendix B) handles both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Tuple

import numpy as np
from scipy import ndimage

from ..bitmap import WAHBitmap
from ..geometry import Cell, Grid, Point, interleave
from ..geometry.zorder import interleave_array

# Measured end to end on 128² and 256² bitmaps (DESIGN.md §14): the scalar
# path costs ~1 us per cell (Morton code + O(set bits) WAH encode), the
# array path ~55 us fixed + ~0.3 us per cell.  They cross at 80-96 cells;
# identical words either side.
_BITMAP_ARRAY_CUTOVER = 96


@dataclass(frozen=True)
class GridRegion:
    """An immutable set of grid cells, optionally stored as a complement."""

    grid: Grid
    cells: FrozenSet[Cell]
    complement: bool = False

    @classmethod
    def of(cls, grid: Grid, cells: Iterable[Cell], complement: bool = False) -> "GridRegion":
        """Region over the given cells (or their complement)."""
        return cls(grid, frozenset(cells), complement)

    @classmethod
    def empty(cls, grid: Grid) -> "GridRegion":
        """The empty region."""
        return cls(grid, frozenset(), complement=False)

    @classmethod
    def whole_space(cls, grid: Grid) -> "GridRegion":
        """The region covering every cell of the grid."""
        return cls(grid, frozenset(), complement=True)

    def covers_cell(self, cell: Cell) -> bool:
        """Membership test at cell granularity."""
        if self.complement:
            return self.grid.in_bounds(cell) and cell not in self.cells
        return cell in self.cells

    def contains_point(self, p: Point) -> bool:
        """Membership test for a point (via its containing cell)."""
        return self.covers_cell(self.grid.cell_of(p))

    def is_empty(self) -> bool:
        """True when no cell is covered."""
        return self.area_cells() == 0

    def area_cells(self) -> int:
        """The number of covered cells."""
        total = self.grid.n * self.grid.n
        return total - len(self.cells) if self.complement else len(self.cells)

    def iter_cells(self) -> Iterator[Cell]:
        """All member cells; materialises the complement when needed."""
        if not self.complement:
            yield from self.cells
            return
        for cell in self.grid.all_cells():
            if cell not in self.cells:
                yield cell

    # ------------------------------------------------------------------
    # Repair (carving cells out of a region)
    # ------------------------------------------------------------------
    def subtract(self, cells: Iterable[Cell]) -> Tuple["GridRegion", FrozenSet[Cell]]:
        """Remove cells from the region; returns ``(smaller, removed)``.

        ``removed`` is the subset of ``cells`` the region actually covered
        — the membership delta a server ships to the client holding this
        region.  Representation is preserved: a complement region grows
        its excluded set, a direct region shrinks its cell set, and the
        result keeps the caller's class (so ``SafeRegion.subtract`` yields
        a ``SafeRegion``).  Removing nothing returns ``self`` unchanged.
        """
        removed = frozenset(cell for cell in cells if self.covers_cell(cell))
        if not removed:
            return self, removed
        if self.complement:
            return type(self)(self.grid, self.cells | removed, True), removed
        return type(self)(self.grid, self.cells - removed, False), removed

    # ------------------------------------------------------------------
    # Intersection (merging per-shard regions)
    # ------------------------------------------------------------------
    def intersected_with(self, other: "GridRegion") -> "GridRegion":
        """The cells covered by both regions, representation-aware.

        The sharding coordinator's merge: each shard computes a safe
        region against only its own events, so the region valid against
        *all* events is the intersection of the per-shard regions
        (Definition 1 is a conjunction over events).  Complement forms
        combine without materialising: two complements intersect by
        uniting their excluded sets; a mixed pair subtracts the
        complement's excluded cells from the direct side.  The result
        keeps the caller's class (so ``SafeRegion ∩ SafeRegion`` is a
        ``SafeRegion``).
        """
        mine, theirs = self.grid, other.grid
        if mine is not theirs and (mine.n, mine.space) != (theirs.n, theirs.space):
            raise ValueError("cannot intersect regions over different grids")
        if self.complement and other.complement:
            return type(self)(self.grid, self.cells | other.cells, True)
        if self.complement:
            return type(self)(self.grid, other.cells - self.cells, False)
        if other.complement:
            return type(self)(self.grid, self.cells - other.cells, False)
        return type(self)(self.grid, self.cells & other.cells, False)

    # ------------------------------------------------------------------
    # Wire encoding (Appendix B)
    # ------------------------------------------------------------------
    def to_bitmap(self) -> WAHBitmap:
        """The z-ordered WAH bitmap a server would ship to the client.

        Cells are laid out by Morton code so that spatially close cells get
        adjacent bit positions, which is what makes the run-length encoding
        effective (Appendix B).  A complement region encodes its *stored*
        (excluded) cells — the complement flag travels beside the bitmap in
        the wire protocol, so the client inverts the membership test rather
        than the server shipping a nearly-all-ones bitmap.

        Encoded once per region: the region and the bitmap are both
        immutable, and one ship asks twice (the byte counters, then the
        frame).
        """
        bitmap = self.__dict__.get("_bitmap")
        if bitmap is None:
            side = 1 << max(self.grid.n - 1, 1).bit_length()
            length = side * side
            if len(self.cells) >= _BITMAP_ARRAY_CUTOVER:
                pairs = np.array(tuple(self.cells), dtype=np.int64).reshape(-1, 2)
                codes = interleave_array(pairs[:, 0], pairs[:, 1]).astype(np.int64)
                bitmap = WAHBitmap.from_positions_array(codes, length)
            else:
                positions = (interleave(i, j) for (i, j) in self.cells)
                bitmap = WAHBitmap.from_positions(positions, length)
            # not a field: stays out of ==, hash and repr
            self.__dict__["_bitmap"] = bitmap
        return bitmap

    def __getstate__(self):
        # ... and out of pickles and copies: across a fleet worker's pipe a
        # region is this state with its grid by identity (DESIGN.md §15)
        state = dict(self.__dict__)
        state.pop("_bitmap", None)
        return state

    def encoded_bytes(self) -> int:
        """Bytes on the wire when shipping this region to a client."""
        return self.to_bitmap().compressed_bytes()


class SafeRegion(GridRegion):
    """Definition 1 rendered on the grid; the client-side object."""


class ImpactRegion(GridRegion):
    """Definition 2 rendered on the grid; stays on the server."""


@dataclass(frozen=True)
class RegionDelta:
    """The cells a repair removed from a subscriber's safe region.

    Event arrival can only *shrink* a safe region (safety is monotone in
    the event corpus, Definition 1), so the server never needs to ship
    additions: the whole region update is "these cells left your region".
    A delta is representation-agnostic — the client subtracts the removed
    cells from whatever region it holds (direct or complement), via
    :meth:`GridRegion.subtract`.
    """

    grid: Grid
    removed: FrozenSet[Cell]

    @classmethod
    def of(cls, grid: Grid, removed: Iterable[Cell]) -> "RegionDelta":
        """A delta over the given removed cells."""
        return cls(grid, frozenset(removed))

    def is_empty(self) -> bool:
        """True when the repair removed nothing (nothing to ship)."""
        return not self.removed

    def apply_to(self, region: GridRegion) -> GridRegion:
        """The region after this delta: membership minus the removed cells."""
        return region.subtract(self.removed)[0]

    def to_bitmap(self) -> WAHBitmap:
        """Removed cells as the same z-ordered WAH encoding regions use,
        so ``old.to_bitmap().difference(delta.to_bitmap())`` is exactly the
        repaired region's bitmap for direct-represented regions."""
        return GridRegion(self.grid, self.removed).to_bitmap()

    def encoded_bytes(self) -> int:
        """Bytes on the wire when shipping this delta to a client."""
        return self.to_bitmap().compressed_bytes()


def _structuring_element(grid: Grid, radius: float) -> np.ndarray:
    """The disk-offsets mask as a boolean array centred on the origin."""
    offsets = grid.disk(radius).offsets
    reach_i = max(abs(di) for (di, dj) in offsets)
    reach_j = max(abs(dj) for (di, dj) in offsets)
    mask = np.zeros((2 * reach_i + 1, 2 * reach_j + 1), dtype=bool)
    for (di, dj) in offsets:
        mask[di + reach_i, dj + reach_j] = True
    return mask


def impact_from_safe(safe: SafeRegion, radius: float) -> ImpactRegion:
    """Dilate a safe region by the notification radius (Definition 2).

    A complement-represented safe region (GM) covers most of the grid, so
    its dilation is computed as a vectorised morphological dilation of the
    full boolean mask; the result stays in complement form.
    """
    grid = safe.grid
    if safe.complement:
        mask = np.ones((grid.n, grid.n), dtype=bool)
        for (i, j) in safe.cells:
            mask[i, j] = False
        dilated = ndimage.binary_dilation(mask, structure=_structuring_element(grid, radius))
        excluded = frozenset(
            (int(i), int(j)) for i, j in zip(*np.nonzero(~dilated))
        )
        return ImpactRegion(grid, excluded, complement=True)
    return ImpactRegion(grid, frozenset(grid.dilate(safe.cells, radius)), complement=False)
