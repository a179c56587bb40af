"""The cell-keyed impact-region index, including complement storage (GM).

A cell is addressed by its Morton code (``interleave(i, j)``), as regions
store it."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import ImpactRegion
from repro.geometry import Grid, Rect, codes_of_cells, interleave
from repro.index import ImpactRegionIndex


@pytest.fixture
def grid():
    return Grid(10, Rect(0, 0, 1000, 1000))


def codes(*cells):
    """The ascending code array ``replace`` takes."""
    return codes_of_cells(cells)


class TestDirectStorage:
    def test_replace_and_lookup(self):
        index = ImpactRegionIndex()
        index.replace(1, codes((0, 0), (0, 1)))
        index.replace(2, codes((0, 1), (5, 5)))
        assert index.subscribers_covering(interleave(0, 1)) == {1, 2}
        assert index.subscribers_covering(interleave(5, 5)) == {2}
        assert index.subscribers_covering(interleave(9, 9)) == frozenset()

    def test_covers(self):
        index = ImpactRegionIndex()
        index.replace(1, codes((3, 3)))
        assert index.covers(1, interleave(3, 3))
        assert not index.covers(1, interleave(4, 4))
        assert not index.covers(99, interleave(3, 3))

    def test_replace_overwrites(self):
        index = ImpactRegionIndex()
        index.replace(1, codes((0, 0)))
        index.replace(1, codes((1, 1)))
        assert not index.covers(1, interleave(0, 0))
        assert index.covers(1, interleave(1, 1))

    def test_remove(self):
        index = ImpactRegionIndex()
        index.replace(1, codes((0, 0)))
        index.remove(1)
        assert 1 not in index
        assert index.subscribers_covering(interleave(0, 0)) == frozenset()
        index.remove(1)  # idempotent

    def test_cells_of(self):
        index = ImpactRegionIndex()
        index.replace(1, codes((0, 0), (1, 1)))
        assert index.cells_of(1).tolist() == [interleave(0, 0), interleave(1, 1)]
        assert index.cells_of(2).size == 0


class TestComplementStorage:
    def test_complement_region_lookup(self, grid):
        index = ImpactRegionIndex()
        region = ImpactRegion.of(grid, [(0, 0)], complement=True)
        index.replace_region(7, region)
        assert index.covers(7, interleave(5, 5))
        assert not index.covers(7, interleave(0, 0))
        assert 7 in index

    def test_complement_in_subscribers_covering(self, grid):
        index = ImpactRegionIndex()
        index.replace(1, codes((5, 5)))
        index.replace_region(2, ImpactRegion.of(grid, [(5, 5)], complement=True))
        assert index.subscribers_covering(interleave(5, 5)) == {1}
        assert index.subscribers_covering(interleave(4, 4)) == {2}

    def test_replace_region_direct(self, grid):
        index = ImpactRegionIndex()
        index.replace_region(3, ImpactRegion.of(grid, [(2, 2)]))
        assert index.covers(3, interleave(2, 2))

    def test_switch_between_representations(self, grid):
        index = ImpactRegionIndex()
        index.replace_region(4, ImpactRegion.of(grid, [(2, 2)]))
        index.replace_region(4, ImpactRegion.of(grid, [(2, 2)], complement=True))
        assert not index.covers(4, interleave(2, 2))
        assert index.covers(4, interleave(3, 3))
        index.replace_region(4, ImpactRegion.of(grid, [(2, 2)]))
        assert index.covers(4, interleave(2, 2))
        assert not index.covers(4, interleave(3, 3))


class TestIncrementalInstall:
    """``replace`` installs only the symmetric difference against the
    stored region; the index must still be what a fresh build gives."""

    CELLS = st.tuples(st.integers(0, 5), st.integers(0, 5))
    OPS = st.lists(
        st.tuples(
            st.sampled_from(["direct", "complement", "remove"]),
            st.integers(1, 4),
            st.frozensets(CELLS, max_size=12),
        ),
        max_size=30,
    )

    @given(ops=OPS)
    def test_any_sequence_equals_a_fresh_build(self, ops):
        grid = Grid(6, Rect(0, 0, 600, 600))
        every_code = [interleave(i, j) for (i, j) in grid.all_cells()]
        index = ImpactRegionIndex()
        final = {}
        for op, sub_id, cells in ops:
            if op == "remove":
                index.remove(sub_id)
                final.pop(sub_id, None)
            else:
                region = ImpactRegion.of(grid, cells, complement=op == "complement")
                index.replace_region(sub_id, region)
                final[sub_id] = region
            index.match_batch(every_code)  # warm the covering memo
        fresh = ImpactRegionIndex()
        for sub_id, region in final.items():
            fresh.replace_region(sub_id, region)
        assert set(index._by_cell) == set(fresh._by_cell)
        assert all(index._by_cell.values())  # no empty posting left behind
        assert len(index._slot_of) == len(fresh._slot_of)  # a removal frees its slot
        assert {s: c.tolist() for s, c in index._by_subscriber.items()} == {
            s: c.tolist() for s, c in fresh._by_subscriber.items()
        }
        assert index._complement == fresh._complement
        assert len(index) == len(final)
        # and the memo never serves a pre-churn answer
        assert index.match_batch(every_code) == {
            code: fresh.subscribers_covering(code) for code in every_code
        }
