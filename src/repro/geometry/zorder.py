"""Z-order (Morton) encoding of grid cells.

Appendix B of the paper assigns each grid cell an id derived from the
z-ordering of the cells so that spatially adjacent cells receive similar
ids, which makes the run-length (WAH) compression of safe-region bitmaps
effective.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np


def _part1by1(value: int) -> int:
    """Spread the low 32 bits of ``value`` so each lands in an even position."""
    value &= 0xFFFFFFFF
    value = (value | (value << 16)) & 0x0000FFFF0000FFFF
    value = (value | (value << 8)) & 0x00FF00FF00FF00FF
    value = (value | (value << 4)) & 0x0F0F0F0F0F0F0F0F
    value = (value | (value << 2)) & 0x3333333333333333
    value = (value | (value << 1)) & 0x5555555555555555
    return value


def _compact1by1(value: int) -> int:
    """Inverse of :func:`_part1by1`."""
    value &= 0x5555555555555555
    value = (value | (value >> 1)) & 0x3333333333333333
    value = (value | (value >> 2)) & 0x0F0F0F0F0F0F0F0F
    value = (value | (value >> 4)) & 0x00FF00FF00FF00FF
    value = (value | (value >> 8)) & 0x0000FFFF0000FFFF
    value = (value | (value >> 16)) & 0x00000000FFFFFFFF
    return value


def interleave(i: int, j: int) -> int:
    """Morton code of the cell ``(i, j)``: bits of i and j interleaved."""
    if i < 0 or j < 0:
        raise ValueError(f"cell coordinates must be non-negative: ({i}, {j})")
    return _part1by1(i) | (_part1by1(j) << 1)


def deinterleave(code: int) -> Tuple[int, int]:
    """The cell ``(i, j)`` whose Morton code is ``code``."""
    if code < 0:
        raise ValueError(f"Morton code must be non-negative: {code}")
    return _compact1by1(code), _compact1by1(code >> 1)


def _part1by1_array(value: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_part1by1` over a uint64 array."""
    value = value & np.uint64(0xFFFFFFFF)
    value = (value | (value << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    value = (value | (value << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    value = (value | (value << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    value = (value | (value << np.uint64(2))) & np.uint64(0x3333333333333333)
    value = (value | (value << np.uint64(1))) & np.uint64(0x5555555555555555)
    return value


def interleave_array(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Vectorized :func:`interleave`: Morton codes of ``(i[k], j[k])`` pairs.

    Inputs must be non-negative; returns a uint64 array.
    """
    i = np.asarray(i)
    j = np.asarray(j)
    if i.size and (i.min() < 0 or j.min() < 0):
        raise ValueError("cell coordinates must be non-negative")
    return _part1by1_array(i.astype(np.uint64)) | (
        _part1by1_array(j.astype(np.uint64)) << np.uint64(1)
    )


def _compact1by1_array(value: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_compact1by1` over a uint64 array."""
    value = value & np.uint64(0x5555555555555555)
    value = (value | (value >> np.uint64(1))) & np.uint64(0x3333333333333333)
    value = (value | (value >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    value = (value | (value >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    value = (value | (value >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    value = (value | (value >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return value


def deinterleave_array(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`deinterleave`: the int64 arrays ``(i, j)`` of the
    cells whose Morton codes are ``codes`` (non-negative)."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and codes.min() < 0:
        raise ValueError("Morton codes must be non-negative")
    value = codes.astype(np.uint64)
    return (
        _compact1by1_array(value).astype(np.int64),
        _compact1by1_array(value >> np.uint64(1)).astype(np.int64),
    )


def codes_of_cells(cells: Iterable[Tuple[int, int]]) -> np.ndarray:
    """The sorted, distinct int64 Morton codes of ``(i, j)`` cells: the one
    way a cell set (the scalar oracle's, VM's, a test's) becomes the
    code array a region holds."""
    pairs = np.array(list(cells), dtype=np.int64).reshape(-1, 2)
    return np.unique(interleave_array(pairs[:, 0], pairs[:, 1]).astype(np.int64))


def cells_of_codes(codes: np.ndarray) -> List[Tuple[int, int]]:
    """The ``(i, j)`` cells of Morton codes, in the codes' order: the way
    back from :func:`codes_of_cells`."""
    i, j = deinterleave_array(codes)
    return list(zip(i.tolist(), j.tolist()))


def sorted_membership(codes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which of ``queries`` appear in ``codes`` (ascending): one binary
    search per query, as a boolean mask over ``queries``."""
    if not codes.size:
        return np.zeros(len(queries), dtype=bool)
    at = np.minimum(codes.searchsorted(queries), codes.size - 1)
    return codes[at] == queries
