"""Word-Aligned Hybrid (WAH) bitmap compression.

Appendix B of the paper ships safe regions to clients as bitmaps over the
grid cells, compressed with run-length encoding (BBC/WAH) after assigning
z-order ids to the cells; the reported compressed size is 5-10% of the raw
bitmap.

This is a standard 32-bit WAH codec (Wu, Otoo, Shoshani, TODS 2006):

* a **literal word** has its MSB clear and carries 31 raw bits;
* a **fill word** has its MSB set, its second bit carrying the fill bit,
  and the remaining 30 bits counting how many consecutive 31-bit groups
  consist entirely of that bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

_GROUP_BITS = 31
_WORD_BYTES = 4
_FILL_FLAG = 1 << 31
_FILL_BIT = 1 << 30
_MAX_RUN = (1 << 30) - 1
_ALL_ONES = (1 << _GROUP_BITS) - 1


def _encode_runs(runs: Iterable[Sequence[int]]) -> List[int]:
    """WAH words for ``(literal, repeat)`` runs of 31-bit groups.

    An all-zeros or all-ones literal becomes fill words, split so no
    fill counts more than ``_MAX_RUN`` groups; any other literal is
    emitted ``repeat`` times.
    """
    words: List[int] = []
    for literal, repeat in runs:
        if literal == 0 or literal == _ALL_ONES:
            fill = _FILL_FLAG | (_FILL_BIT if literal else 0)
            while repeat:
                take = min(repeat, _MAX_RUN)
                words.append(fill | take)
                repeat -= take
        else:
            words.extend([literal] * repeat)
    return words


def _fold_groups(occupied: Iterable[Tuple[int, int]], groups: int) -> List[int]:
    """WAH words for a bitmap of ``groups`` 31-bit groups whose occupied
    groups are the ``(group, literal)`` pairs, in ascending group order.

    The gaps between occupied groups (and after the last) are zero runs
    sized from the group numbers, and adjacent all-ones groups (no gap
    between them) share one run.
    """
    runs: List[List[int]] = []
    next_group = 0  # first group not yet covered
    for group, literal in occupied:
        if group > next_group:
            runs.append([0, group - next_group])
        if literal == _ALL_ONES and runs and runs[-1][0] == _ALL_ONES:
            runs[-1][1] += 1
        else:
            runs.append([literal, 1])
        next_group = group + 1
    if groups > next_group:
        runs.append([0, groups - next_group])
    return _encode_runs(runs)


class WAHBitmap:
    """An immutable WAH-compressed bitmap of a fixed logical length."""

    __slots__ = ("length", "words")

    def __init__(self, length: int, words: Sequence[int]) -> None:
        if length < 0:
            raise ValueError(f"negative bitmap length: {length}")
        self.length = length
        self.words = tuple(words)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_positions(cls, positions: Iterable[int], length: int) -> "WAHBitmap":
        """Compress the bitmap with 1-bits at ``positions`` (0-based).

        O(set bits), whatever the logical length: the sorted positions are
        folded into one literal per *occupied* 31-bit group, and the empty
        groups between two occupied ones (and after the last) are emitted
        as zero fills computed from the group numbers.  A literal can only
        equal the all-ones pattern when its group is complete — the final
        partial group has no bit at or past ``length`` — so an all-ones
        fill never absorbs the zero-padded tail.
        """
        sorted_positions = sorted(set(positions))
        if sorted_positions and (sorted_positions[0] < 0 or sorted_positions[-1] >= length):
            raise ValueError("bit position out of range")
        groups = (length + _GROUP_BITS - 1) // _GROUP_BITS
        # One literal per occupied group, in group order (dicts keep the
        # insertion order, and the positions arrive sorted).
        occupied: Dict[int, int] = {}
        for position in sorted_positions:
            group, bit = divmod(position, _GROUP_BITS)
            occupied[group] = occupied.get(group, 0) | (1 << bit)
        return cls(length, _fold_groups(occupied.items(), groups))

    @classmethod
    def from_positions_array(cls, positions: "np.ndarray", length: int) -> "WAHBitmap":
        """Array form of :meth:`from_positions`: identical words."""
        return cls.from_sorted_array(np.unique(np.asarray(positions, dtype=np.int64)), length)

    @classmethod
    def from_sorted_array(cls, positions: "np.ndarray", length: int) -> "WAHBitmap":
        """Compress the bitmap with 1-bits at ``positions``, an ascending
        int64 array of distinct positions (a region's Morton codes).

        O(set bits), like :meth:`from_positions`, and word for word the
        same: each occupied group's literal is one ``bitwise_or.reduceat``
        over the bits that land in it, and only the occupied groups reach
        Python, folded into runs by the scalar encoder's own fold.
        """
        size = positions.size
        if size and (positions[0] < 0 or positions[-1] >= length):
            raise ValueError("bit position out of range")
        groups = (length + _GROUP_BITS - 1) // _GROUP_BITS
        if not size:
            return cls(length, _fold_groups((), groups))
        group_of, bit_of = np.divmod(positions, _GROUP_BITS)
        first = np.empty(size, dtype=bool)
        first[0] = True
        np.not_equal(group_of[1:], group_of[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        literals = np.bitwise_or.reduceat(np.left_shift(1, bit_of), starts)
        return cls(
            length, _fold_groups(zip(group_of[starts].tolist(), literals.tolist()), groups)
        )

    @classmethod
    def from_bits(cls, bits: Sequence[bool]) -> "WAHBitmap":
        """Compress a boolean sequence directly."""
        return cls.from_positions(
            (i for i, bit in enumerate(bits) if bit), len(bits)
        )

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def positions(self) -> List[int]:
        """The 0-based positions of all 1-bits."""
        return self.positions_array().tolist()

    def positions_array(self) -> "np.ndarray":
        """The 0-based positions of all 1-bits, ascending, as an int64
        array: one pass over the words, no Python step per bit (a client
        reads a pushed region's Morton codes straight from here)."""
        if all(word & _FILL_FLAG and not word & _FILL_BIT for word in self.words):
            # zero fills only (an empty region): no array work at all
            return np.empty(0, dtype=np.int64)
        words = np.array(self.words, dtype=np.int64)
        fill = (words & _FILL_FLAG) != 0
        span = np.where(fill, words & _MAX_RUN, 1)  # groups per word
        first_group = np.cumsum(span) - span
        literal = ~fill
        rows, bits = np.nonzero(
            (words[literal, None] >> np.arange(_GROUP_BITS)) & 1
        )
        found = [first_group[literal][rows] * _GROUP_BITS + bits]
        for word in np.flatnonzero(fill & ((words & _FILL_BIT) != 0)).tolist():
            start = int(first_group[word]) * _GROUP_BITS
            stop = min(start + int(span[word]) * _GROUP_BITS, self.length)
            found.append(np.arange(start, stop, dtype=np.int64))
        positions = np.sort(np.concatenate(found)) if len(found) > 1 else found[0]
        return positions[positions < self.length]

    def _group_runs(self) -> Iterable[tuple]:
        """The bitmap as ``(literal, repeat)`` runs of 31-bit groups.

        Fill words come out as one run (0 or the all-ones literal with
        their full repeat count); literal words come out with repeat 1.
        The compressed logical operations below consume these runs so a
        long fill never has to be expanded group by group.
        """
        for word in self.words:
            if word & _FILL_FLAG:
                yield (_ALL_ONES if word & _FILL_BIT else 0, word & _MAX_RUN)
            else:
                yield (word, 1)

    def _merge(self, other: "WAHBitmap", op) -> "WAHBitmap":
        """Group-aligned logical merge; ``op`` combines two 31-bit literals."""
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        groups = (self.length + _GROUP_BITS - 1) // _GROUP_BITS
        words: List[int] = []
        run_bit = None
        run_length = 0

        def flush_run() -> None:
            nonlocal run_bit, run_length
            if run_length == 0:
                return
            words.append(_FILL_FLAG | (_FILL_BIT if run_bit else 0) | run_length)
            run_bit, run_length = None, 0

        left = self._group_runs()
        right = other._group_runs()
        left_literal, left_repeat = next(left, (0, 0))
        right_literal, right_repeat = next(right, (0, 0))
        emitted = 0
        # The final partial group is zero-padded in canonical encodings
        # (from_positions never lets an all-ones fill absorb it), so AND-NOT
        # and OR both preserve zero pads and runs merge uniformly.
        while emitted < groups:
            take = min(left_repeat, right_repeat)
            if take == 0:  # codec invariant: both sides cover all groups
                raise ValueError("bitmap words do not cover the logical length")
            literal = op(left_literal, right_literal) & _ALL_ONES
            if literal == 0 or literal == _ALL_ONES:
                bit = literal != 0
                remaining = take
                while remaining:
                    if run_bit == bit and run_length < _MAX_RUN:
                        absorbed = min(remaining, _MAX_RUN - run_length)
                        run_length += absorbed
                        remaining -= absorbed
                    else:
                        flush_run()
                        run_bit, run_length = bit, 0
            else:
                flush_run()
                words.extend([literal] * take)
            emitted += take
            left_repeat -= take
            right_repeat -= take
            if left_repeat == 0:
                left_literal, left_repeat = next(left, (0, 0))
            if right_repeat == 0:
                right_literal, right_repeat = next(right, (0, 0))
        flush_run()
        return WAHBitmap(self.length, words)

    def difference(self, other: "WAHBitmap") -> "WAHBitmap":
        """Bits set here and not in ``other`` (compressed AND-NOT).

        The delta-shipping identity: with ``removed = old.difference(new)``
        on the wire, a client holding ``old`` recovers the repaired region
        as ``old.difference(removed)`` without decompressing either side
        beyond run granularity.
        """
        return self._merge(other, lambda a, b: a & ~b)

    def union(self, other: "WAHBitmap") -> "WAHBitmap":
        """Bits set in either bitmap (compressed OR); inverse check of
        :meth:`difference`: ``new.union(removed) == old`` whenever the
        removed bits all came from ``old``."""
        return self._merge(other, lambda a, b: a | b)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WAHBitmap):
            return NotImplemented
        return self.length == other.length and self.words == other.words

    def __hash__(self) -> int:
        return hash((self.length, self.words))

    # ------------------------------------------------------------------
    # Size accounting (the quantity Appendix B reports)
    # ------------------------------------------------------------------
    def compressed_bytes(self) -> int:
        """Wire size of the compressed bitmap."""
        return len(self.words) * _WORD_BYTES

    def raw_bytes(self) -> int:
        """Wire size of the uncompressed bitmap."""
        return (self.length + 7) // 8
