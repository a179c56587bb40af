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

A region stores its cells as their Morton codes (Appendix B's z-order
ids), ascending, in one int64 array: the bit positions its WAH bitmap
sets on the wire, and what membership, repair and the fleet's
intersection work on (binary search and sorted-array set operations).
The ``(i, j)`` form is for the scalar oracle and the tests, through
:func:`~repro.geometry.zorder.codes_of_cells` and :meth:`GridRegion.of`.

GM's safe region is usually "everything except a few cells", so regions
support a complement representation: the stored codes are then the
*excluded* cells.  The WAH bitmap codec (Appendix B) handles both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np
from scipy import ndimage

from ..bitmap import WAHBitmap
from ..geometry import Cell, Grid, Point, cells_of_codes, codes_of_cells
from ..geometry.zorder import deinterleave_array, interleave_array, sorted_membership

_NO_CODES = np.empty(0, dtype=np.int64)
_NO_CODES.flags.writeable = False


def _frozen(codes: np.ndarray) -> np.ndarray:
    """``codes`` as a read-only int64 array (no copy when it already is)."""
    codes = np.asarray(codes, dtype=np.int64)
    codes.flags.writeable = False
    return codes


@dataclass(frozen=True, eq=False)
class GridRegion:
    """An immutable set of grid cells, optionally stored as a complement.

    ``codes`` is the ascending, distinct int64 array of the stored cells'
    Morton codes (the member cells, or the excluded ones when
    ``complement``); the constructor takes it as given.  Two regions are
    equal when grid, representation and codes are.
    """

    grid: Grid
    codes: np.ndarray
    complement: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _frozen(self.codes))

    @classmethod
    def of(cls, grid: Grid, cells: Iterable[Cell], complement: bool = False) -> "GridRegion":
        """Region over the given ``(i, j)`` cells (or their complement)."""
        return cls(grid, codes_of_cells(cells), complement)

    @classmethod
    def empty(cls, grid: Grid) -> "GridRegion":
        """The empty region."""
        return cls(grid, _NO_CODES, complement=False)

    @classmethod
    def whole_space(cls, grid: Grid) -> "GridRegion":
        """The region covering every cell of the grid."""
        return cls(grid, _NO_CODES, complement=True)

    @property
    def cells(self) -> np.ndarray:
        """The stored cells as their Morton codes (hashable ints), so two
        regions' member sets compare as ``frozenset(region.cells)``."""
        return self.codes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.grid == other.grid
            and self.complement == other.complement
            and np.array_equal(self.codes, other.codes)
        )

    def __hash__(self) -> int:
        return hash((self.grid, self.complement, self.codes.tobytes()))

    def covers_code(self, code: int) -> bool:
        """Membership of the in-bounds cell whose Morton code is ``code``:
        one binary search."""
        codes = self.codes
        at = codes.searchsorted(code)
        if at < codes.size and codes[at] == code:
            return not self.complement
        return self.complement

    def covers_cell(self, cell: Cell) -> bool:
        """Membership test at cell granularity."""
        if not self.grid.in_bounds(cell):
            return False
        axes = self.grid.axes
        return self.covers_code(axes.morton_x[cell[0]] | axes.morton_y[cell[1]])

    def contains_point(self, p: Point) -> bool:
        """Membership test for a point (via its containing cell)."""
        return self.covers_code(self.grid.code_of(p))

    def is_empty(self) -> bool:
        """True when no cell is covered."""
        return self.area_cells() == 0

    def area_cells(self) -> int:
        """The number of covered cells."""
        total = self.grid.n * self.grid.n
        return total - self.codes.size if self.complement else self.codes.size

    def iter_cells(self) -> Iterator[Cell]:
        """All member cells as ``(i, j)``; materialises the complement
        when needed."""
        if not self.complement:
            yield from cells_of_codes(self.codes)
            return
        excluded = set(cells_of_codes(self.codes))
        for cell in self.grid.all_cells():
            if cell not in excluded:
                yield cell

    # ------------------------------------------------------------------
    # Repair (carving cells out of a region)
    # ------------------------------------------------------------------
    def subtract(self, codes: np.ndarray) -> Tuple["GridRegion", np.ndarray]:
        """Remove the cells with the given Morton codes (ascending,
        distinct, of in-bounds cells) from the region; returns
        ``(smaller, removed)``.

        ``removed`` is the ascending code array of the cells the region
        actually covered — the membership delta a server ships to the
        client holding this region.  Representation is preserved: a
        complement region grows its excluded codes, a direct region
        shrinks its own, and the result keeps the caller's class (so
        ``SafeRegion.subtract`` yields a ``SafeRegion``).  Removing
        nothing returns ``self`` unchanged.
        """
        asked = np.asarray(codes, dtype=np.int64)
        stored = sorted_membership(self.codes, asked)
        removed = asked[stored != self.complement]
        if not removed.size:
            return self, removed
        if self.complement:
            kept = np.union1d(self.codes, removed)
        else:
            kept = self.codes[~sorted_membership(removed, self.codes)]
        return type(self)(self.grid, kept, self.complement), removed

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
        uniting their excluded codes; a mixed pair drops the complement's
        excluded codes from the direct side.  The result keeps the
        caller's class (so ``SafeRegion ∩ SafeRegion`` is a
        ``SafeRegion``).
        """
        mine, theirs = self.grid, other.grid
        if mine is not theirs and (mine.n, mine.space) != (theirs.n, theirs.space):
            raise ValueError("cannot intersect regions over different grids")
        if self.complement and other.complement:
            return type(self)(self.grid, np.union1d(self.codes, other.codes), True)
        if self.complement:
            direct, excluded = other.codes, self.codes
            kept = direct[~sorted_membership(excluded, direct)]
        elif other.complement:
            direct, excluded = self.codes, other.codes
            kept = direct[~sorted_membership(excluded, direct)]
        else:
            kept = np.intersect1d(self.codes, other.codes, assume_unique=True)
        return type(self)(self.grid, kept, False)

    # ------------------------------------------------------------------
    # Wire encoding (Appendix B)
    # ------------------------------------------------------------------
    def to_bitmap(self) -> WAHBitmap:
        """The z-ordered WAH bitmap a server would ship to the client.

        The bit positions are the stored Morton codes, so spatially close
        cells get adjacent bit positions, which is what makes the
        run-length encoding effective (Appendix B).  A complement region
        encodes its *stored* (excluded) cells — the complement flag
        travels beside the bitmap in the wire protocol, so the client
        inverts the membership test rather than the server shipping a
        nearly-all-ones bitmap.

        Encoded once per region: the region and the bitmap are both
        immutable, and one ship asks twice (the byte counters, then the
        frame).
        """
        bitmap = self.__dict__.get("_bitmap")
        if bitmap is None:
            side = 1 << max(self.grid.n - 1, 1).bit_length()
            bitmap = WAHBitmap.from_sorted_array(self.codes, side * side)
            # not a field: stays out of ==, hash and repr
            self.__dict__["_bitmap"] = bitmap
        return bitmap

    def __getstate__(self):
        # ... and out of pickles and copies: across a fleet worker's pipe a
        # region is its grid by identity, its flag and its codes as bytes
        # (DESIGN.md §15)
        return (self.grid, self.codes.tobytes(), self.complement)

    def __setstate__(self, state) -> None:
        grid, codes, complement = state
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "codes", np.frombuffer(codes, dtype=np.int64))
        object.__setattr__(self, "complement", complement)

    def encoded_bytes(self) -> int:
        """Bytes on the wire when shipping this region to a client."""
        return self.to_bitmap().compressed_bytes()


class SafeRegion(GridRegion):
    """Definition 1 rendered on the grid; the client-side object."""


class ImpactRegion(GridRegion):
    """Definition 2 rendered on the grid; stays on the server."""


@dataclass(frozen=True, eq=False)
class RegionDelta:
    """The cells a repair removed from a subscriber's safe region.

    Event arrival can only *shrink* a safe region (safety is monotone in
    the event corpus, Definition 1), so the server never needs to ship
    additions: the whole region update is "these cells left your region".
    A delta is representation-agnostic — the client subtracts the removed
    codes (ascending, as :meth:`GridRegion.subtract` returns them) from
    whatever region it holds (direct or complement).
    """

    grid: Grid
    removed: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "removed", _frozen(self.removed))

    def is_empty(self) -> bool:
        """True when the repair removed nothing (nothing to ship)."""
        return not self.removed.size

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
        mask[deinterleave_array(safe.codes)] = False
        dilated = ndimage.binary_dilation(mask, structure=_structuring_element(grid, radius))
        excluded_i, excluded_j = np.nonzero(~dilated)
        excluded = np.sort(interleave_array(excluded_i, excluded_j).astype(np.int64))
        return ImpactRegion(grid, excluded, complement=True)
    return ImpactRegion(grid, grid.dilate_codes(safe.codes, radius), complement=False)
