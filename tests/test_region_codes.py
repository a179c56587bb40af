"""Differential suite: code-array regions vs a tuple-set reference.

A :class:`~repro.core.GridRegion` stores its cells as their ascending
Morton codes.  The reference here is the layout it replaced, kept brute
force: a ``frozenset`` of ``(i, j)`` tuples plus the complement flag,
with membership, repair and intersection as Python set algebra, the WAH
bitmap built position by position (:meth:`WAHBitmap.from_positions` over
``interleave``) and the snapshot region laid out as sorted ``(i, j)``
pairs.  Every operation must agree, for all four complement pairings, on
grids whose side is a power of two and on grids whose side pads the
Morton space (1, 3, 100, 120 and 200 cells a side).

Runs under the ``differential`` marker; ``DIFFERENTIAL_EXAMPLES``
controls the per-test example budget (default 25).
"""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import WAHBitmap
from repro.core import SafeRegion
from repro.geometry import Grid, Rect, cells_of_codes, codes_of_cells, interleave
from repro.system.journal import _encode_region
from repro.system.protocol import (
    cells_from_delta,
    decode_message,
    encode_message,
    region_delta_for,
    region_from_push,
    region_push_for,
)

pytestmark = pytest.mark.differential

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "25"))
DIFF_SETTINGS = settings(max_examples=EXAMPLES, deadline=None)

SIDES = (1, 2, 3, 100, 120, 200)
GRIDS = {n: Grid(n, Rect(0.0, 0.0, 10_000.0, 10_000.0)) for n in SIDES}


class TupleRegion:
    """The reference: a tuple set, optionally the complement."""

    def __init__(self, n: int, cells, complement: bool) -> None:
        self.n = n
        self.cells = frozenset(cells)
        self.complement = complement

    def all_cells(self):
        return frozenset((i, j) for i in range(self.n) for j in range(self.n))

    def members(self):
        return self.all_cells() - self.cells if self.complement else self.cells

    def covers(self, cell) -> bool:
        inside = 0 <= cell[0] < self.n and 0 <= cell[1] < self.n
        return inside and (cell in self.cells) != self.complement

    def subtract(self, cells):
        removed = frozenset(cell for cell in cells if self.covers(cell))
        if self.complement:
            return TupleRegion(self.n, self.cells | removed, True), removed
        return TupleRegion(self.n, self.cells - removed, False), removed

    def intersected_with(self, other):
        if self.complement and other.complement:
            return TupleRegion(self.n, self.cells | other.cells, True)
        if self.complement:
            return TupleRegion(self.n, other.cells - self.cells, False)
        if other.complement:
            return TupleRegion(self.n, self.cells - other.cells, False)
        return TupleRegion(self.n, self.cells & other.cells, False)

    def words(self):
        side = 1 << max(self.n - 1, 1).bit_length()
        positions = [interleave(i, j) for (i, j) in self.cells]
        return WAHBitmap.from_positions(positions, side * side).words

    def snapshot_bytes(self) -> bytes:
        flat = [index for cell in sorted(self.cells) for index in cell]
        return struct.pack(
            f">BBI{len(flat)}I", 1, int(self.complement), len(self.cells), *flat
        )


@st.composite
def region_pairs(draw):
    """A grid side, two regions over it (each direct or complement) and
    a cell list to carve, biased toward clusters as real regions are."""
    n = draw(st.sampled_from(SIDES))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))

    def cluster():
        i0, j0 = draw(cell)
        width = draw(st.integers(1, min(n, 12)))
        return {
            (i, j)
            for i in range(i0, min(n, i0 + width))
            for j in range(j0, min(n, j0 + width))
        }

    def cells():
        chosen = set(draw(st.lists(cell, max_size=30)))
        if draw(st.booleans()):
            chosen |= cluster()
        return chosen

    first = TupleRegion(n, cells(), draw(st.booleans()))
    second = TupleRegion(n, cells(), draw(st.booleans()))
    carve = draw(st.lists(cell, max_size=40)) + sorted(first.cells)[:5]
    return n, first, second, carve


def as_region(n: int, reference: TupleRegion) -> SafeRegion:
    return SafeRegion.of(GRIDS[n], reference.cells, reference.complement)


def assert_same(region: SafeRegion, reference: TupleRegion) -> None:
    assert region.complement == reference.complement
    assert set(cells_of_codes(region.codes)) == reference.cells
    assert region.codes.tolist() == sorted(region.codes.tolist())
    assert region.area_cells() == len(reference.members())


@DIFF_SETTINGS
@given(case=region_pairs())
def test_membership_area_and_cells_agree_with_the_tuple_set(case):
    n, first, _, carve = case
    region = as_region(n, first)
    assert_same(region, first)
    assert set(region.iter_cells()) == first.members()
    for cell in carve + sorted(first.cells) + [(-1, 0), (0, n), (n, n)]:
        assert region.covers_cell(cell) == first.covers(cell)
    grid = GRIDS[n]
    for cell in carve:
        assert region.contains_point(grid.cell_center(cell)) == first.covers(cell)


@DIFF_SETTINGS
@given(case=region_pairs())
def test_subtract_and_intersection_agree_for_every_complement_pairing(case):
    n, first, second, carve = case
    region = as_region(n, first)
    smaller, removed = region.subtract(codes_of_cells(carve))
    expected, expected_removed = first.subtract(carve)
    assert cells_of_codes(removed) == sorted(
        expected_removed, key=lambda cell: interleave(*cell)
    )
    assert_same(smaller, expected)
    if not removed.size:
        assert smaller is region
    merged = region.intersected_with(as_region(n, second))
    assert isinstance(merged, SafeRegion)
    assert_same(merged, first.intersected_with(second))


@DIFF_SETTINGS
@given(case=region_pairs())
def test_wire_and_snapshot_bytes_are_the_tuple_layouts(case):
    n, first, _, carve = case
    grid = GRIDS[n]
    region = as_region(n, first)
    assert region.to_bitmap().words == first.words()
    assert _encode_region((region.complement, region.codes)) == first.snapshot_bytes()
    push = decode_message(encode_message(region_push_for(7, region)))
    assert region_from_push(push, grid) == region
    removed = region.subtract(codes_of_cells(carve))[1]
    delta = decode_message(encode_message(region_delta_for(7, grid, removed)))
    assert cells_from_delta(delta, grid).tolist() == removed.tolist()
