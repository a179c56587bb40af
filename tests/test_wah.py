"""WAH bitmap codec (Appendix B)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bitmap import WAHBitmap
from repro.bitmap.wah import _ALL_ONES, _FILL_BIT, _FILL_FLAG, _GROUP_BITS, _MAX_RUN


class TestRoundTrip:
    def test_empty_bitmap(self):
        bitmap = WAHBitmap.from_positions([], 100)
        assert bitmap.positions() == []

    def test_single_bit(self):
        bitmap = WAHBitmap.from_positions([37], 100)
        assert bitmap.positions() == [37]

    def test_all_ones(self):
        bitmap = WAHBitmap.from_positions(range(200), 200)
        assert bitmap.positions() == list(range(200))

    def test_duplicates_collapse(self):
        bitmap = WAHBitmap.from_positions([5, 5, 5], 10)
        assert bitmap.positions() == [5]

    def test_from_bits(self):
        bitmap = WAHBitmap.from_bits([True, False, True, True])
        assert bitmap.positions() == [0, 2, 3]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            WAHBitmap.from_positions([100], 100)
        with pytest.raises(ValueError):
            WAHBitmap.from_positions([-1], 100)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            WAHBitmap(-1, [])

    @given(
        length=st.integers(min_value=1, max_value=5000),
        data=st.data(),
    )
    def test_roundtrip_property(self, length, data):
        positions = data.draw(
            st.lists(st.integers(min_value=0, max_value=length - 1), max_size=200)
        )
        bitmap = WAHBitmap.from_positions(positions, length)
        assert bitmap.positions() == sorted(set(positions))


class TestCompression:
    def test_long_zero_runs_compress_well(self):
        # one dense cluster inside a huge empty bitmap
        positions = list(range(10_000, 10_100))
        bitmap = WAHBitmap.from_positions(positions, 1_000_000)
        assert bitmap.compressed_bytes() < 0.01 * bitmap.raw_bytes()

    def test_long_one_runs_compress_well(self):
        bitmap = WAHBitmap.from_positions(range(500_000), 1_000_000)
        assert bitmap.compressed_bytes() < 0.01 * bitmap.raw_bytes()

    def test_alternating_bits_do_not_compress(self):
        bitmap = WAHBitmap.from_positions(range(0, 310, 2), 310)
        # literals only: ~32/31 expansion over raw is expected
        assert bitmap.compressed_bytes() >= bitmap.raw_bytes()

    def test_compression_ratio_monotone_in_clustering(self):
        scattered = WAHBitmap.from_positions(range(0, 31 * 64, 31), 31 * 64)
        clustered = WAHBitmap.from_positions(range(64), 31 * 64)
        assert clustered.compressed_bytes() < scattered.compressed_bytes()

    def test_equality_and_hash(self):
        a = WAHBitmap.from_positions([1, 2, 3], 100)
        b = WAHBitmap.from_positions([3, 2, 1], 100)
        c = WAHBitmap.from_positions([1, 2], 100)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestSetAlgebra:
    """Compressed-domain difference/union (the delta-shipping identity)."""

    def test_difference_basic(self):
        a = WAHBitmap.from_positions([1, 5, 100, 2_000], 5_000)
        b = WAHBitmap.from_positions([5, 2_000, 3_000], 5_000)
        assert a.difference(b).positions() == [1, 100]

    def test_union_basic(self):
        a = WAHBitmap.from_positions([1, 5], 5_000)
        b = WAHBitmap.from_positions([5, 9], 5_000)
        assert a.union(b).positions() == [1, 5, 9]

    def test_length_mismatch_rejected(self):
        a = WAHBitmap.from_positions([1], 100)
        b = WAHBitmap.from_positions([1], 200)
        with pytest.raises(ValueError):
            a.difference(b)
        with pytest.raises(ValueError):
            a.union(b)

    def test_difference_with_fills(self):
        # long runs on both sides force the fill-vs-fill merge paths
        a = WAHBitmap.from_positions(range(100_000), 200_000)
        b = WAHBitmap.from_positions(range(50_000, 150_000), 200_000)
        assert a.difference(b) == WAHBitmap.from_positions(range(50_000), 200_000)
        assert a.union(b) == WAHBitmap.from_positions(range(150_000), 200_000)

    @given(
        length=st.integers(min_value=1, max_value=3_000),
        data=st.data(),
    )
    def test_results_are_canonical_encodings(self, length, data):
        """a - b and a | b equal from_positions of the set result.

        Canonical-form equality (not just equal position lists) is what
        lets a client verify ``old - delta == fresh_push`` bitmap against
        bitmap; it requires the merge to reproduce from_positions' fill
        absorption exactly, final partial group included.
        """
        universe = st.integers(min_value=0, max_value=length - 1)
        a_pos = set(data.draw(st.lists(universe, max_size=150)))
        b_pos = set(data.draw(st.lists(universe, max_size=150)))
        a = WAHBitmap.from_positions(a_pos, length)
        b = WAHBitmap.from_positions(b_pos, length)
        assert a.difference(b) == WAHBitmap.from_positions(a_pos - b_pos, length)
        assert a.union(b) == WAHBitmap.from_positions(a_pos | b_pos, length)

    @given(
        length=st.integers(min_value=31, max_value=2_000),
        data=st.data(),
    )
    def test_delta_identity(self, data, length):
        """old.difference(removed) == new: exactly the repair shipment."""
        universe = st.integers(min_value=0, max_value=length - 1)
        old_pos = set(data.draw(st.lists(universe, min_size=1, max_size=100)))
        removed_pos = set(data.draw(st.lists(st.sampled_from(sorted(old_pos)), max_size=50)))
        old = WAHBitmap.from_positions(old_pos, length)
        removed = WAHBitmap.from_positions(removed_pos, length)
        new = WAHBitmap.from_positions(old_pos - removed_pos, length)
        assert old.difference(removed) == new
        assert new.union(removed) == old


def reference_words(positions, length):
    """The codec spelled out naively: bit list -> 31-bit groups -> runs.

    Walks every group of the bitmap (what ``from_positions`` must *not*
    do), so it is the oracle for the sparse encoder on small lengths.
    """
    bits = [False] * length
    for position in positions:
        bits[position] = True
    words = []
    run_bit, run_length = None, 0
    for base in range(0, length, _GROUP_BITS):
        group = bits[base:base + _GROUP_BITS]
        literal = sum(1 << k for k, bit in enumerate(group) if bit)
        # only a *complete* all-ones group may join a fill: the final
        # partial group is zero-padded
        if literal == 0 or (literal == _ALL_ONES and len(group) == _GROUP_BITS):
            if run_length and run_bit == (literal != 0) and run_length < _MAX_RUN:
                run_length += 1
                continue
            if run_length:
                words.append(_FILL_FLAG | (_FILL_BIT if run_bit else 0) | run_length)
            run_bit, run_length = literal != 0, 1
        else:
            if run_length:
                words.append(_FILL_FLAG | (_FILL_BIT if run_bit else 0) | run_length)
            run_bit, run_length = None, 0
            words.append(literal)
    if run_length:
        words.append(_FILL_FLAG | (_FILL_BIT if run_bit else 0) | run_length)
    return tuple(words)


class TestSparseEncoder:
    """``from_positions`` costs O(set bits) and still emits the canonical
    words of the group-by-group definition."""

    @given(
        length=st.one_of(
            st.sampled_from([0, 1, 30, 31, 32, 62, 63]), st.integers(0, 400)
        ),
        data=st.data(),
    )
    def test_word_identical_to_the_naive_reference(self, length, data):
        positions = []
        if length:
            positions = data.draw(
                st.lists(st.integers(0, length - 1), max_size=80)
            )  # unsorted, duplicated
            complete = length // _GROUP_BITS
            for group in data.draw(
                st.lists(st.integers(0, complete - 1), max_size=4) if complete else st.just([])
            ):  # complete all-ones groups, adjacent ones included
                positions += range(group * _GROUP_BITS, (group + 1) * _GROUP_BITS)
            if length % _GROUP_BITS and data.draw(st.booleans()):
                positions += range(complete * _GROUP_BITS, length)  # full partial tail
            positions = data.draw(st.permutations(positions))
        expected = reference_words(positions, length)
        bitmap = WAHBitmap.from_positions(positions, length)
        assert bitmap.words == expected
        assert bitmap.positions() == sorted(set(positions))
        array = WAHBitmap.from_positions_array(
            np.array(positions, dtype=np.int64), length
        )
        assert array.words == expected

    def test_cost_follows_the_set_bits_not_the_length(self):
        """Two bits in a 2**40-bit bitmap: a group-by-group encoder would
        need 3.5e10 iterations, so merely returning is the guard."""
        length = 2 ** 40
        bitmap = WAHBitmap.from_positions([5, 2 ** 39], length)
        assert bitmap.positions() == [5, 2 ** 39]
        fills = [w for w in bitmap.words if w & _FILL_FLAG]
        literals = [w for w in bitmap.words if not w & _FILL_FLAG]
        assert literals == [1 << 5, 1 << (2 ** 39 % _GROUP_BITS)]
        assert not any(w & _FILL_BIT for w in fills)
        # the two zero gaps exceed _MAX_RUN groups, so each is split into
        # maximal fills plus one remainder
        counts = [w & _MAX_RUN for w in fills]
        assert all(0 < count <= _MAX_RUN for count in counts)
        assert counts.count(_MAX_RUN) == len(counts) - 2
        groups = (length + _GROUP_BITS - 1) // _GROUP_BITS
        assert sum(counts) + len(literals) == groups
