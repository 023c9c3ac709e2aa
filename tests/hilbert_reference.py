"""The Hilbert key loops ``repro.geometry.hilbert`` is proven against.

Two references, sharing no code with the state table they check:

* the 2-D per-bit loop as it stood before the chunk-table lookup, kept
  verbatim together with the ``_normalise_to_grid`` it read from: one
  array pass per curve level over every point, the classic
  rotate-and-flip step made branch-free;
* :func:`hamilton_key`, Hamilton's algorithm ("Compact Hilbert Indices",
  Dalhousie CS-2006-07, Algorithm 2 at equal precision) for one cell in
  any dimensionality, one level at a time with Python ints and no table.

The differential tests require the table lookup to return the same key
for every cell at every order, and ``hilbert_sort`` and the partition's
radix ranking to return the permutations a stable argsort of these keys
gives.
"""

from __future__ import annotations

import numpy as np


def _normalise_to_grid(points: np.ndarray, order: int) -> np.ndarray:
    """Scale points into the integer grid ``[0, 2**order)`` per dimension."""
    low = points.min(axis=0)
    high = points.max(axis=0)
    span = np.where(high > low, high - low, 1.0)
    side = (1 << order) - 1
    scaled = np.floor((points - low) / span * side).astype(np.int64)
    return np.clip(scaled, 0, side)


def _hilbert_keys_2d(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """The classic rotate-and-flip curve over int64 columns (consumed as scratch).

    Branch-free form of the scalar loop.  Below bit ``s`` the flip
    ``s - 1 - x`` is the bit complement, i.e. ``x ^ (s - 1)``, and later
    levels only test those lower bits, so the keys are the same; the swap
    is the usual masked XOR exchange.
    """
    keys = np.zeros(x.shape[0], dtype=np.int64)
    for level in range(order - 1, -1, -1):
        s = 1 << level
        rx = (x >> level) & 1
        ry = (y >> level) & 1
        keys += (s * s) * ((3 * rx) ^ ry)
        # rotate the quadrant: flip where (rx, ry) == (1, 0), swap where ry == 0
        flip = (rx & (ry ^ 1)) * (s - 1)
        x ^= flip
        y ^= flip
        swap = (x ^ y) & (ry - 1)
        x ^= swap
        y ^= swap
    return keys


def reference_keys_2d(x, y, order: int) -> np.ndarray:
    """The per-bit loop's keys for grid columns ``x`` and ``y`` (left untouched)."""
    return _hilbert_keys_2d(
        np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), order
    )


def reference_grid(points, order: int = 16) -> np.ndarray:
    """The grid cells of real-coordinate points, as the parent computed them."""
    return _normalise_to_grid(np.asarray(points, dtype=np.float64), order)


def reference_hilbert_indices(points, order: int | None = None) -> np.ndarray:
    """Hilbert keys of 2-D points as the parent computed them."""
    order = 16 if order is None else order
    grid = reference_grid(points, order)
    return _hilbert_keys_2d(grid[:, 0].copy(), grid[:, 1].copy(), order)


def reference_hilbert_sort(points, order: int = 16) -> np.ndarray:
    """Stable argsort of 2-D points by the per-bit loop's keys."""
    return np.argsort(reference_hilbert_indices(points, order), kind="stable")


def _rotate_right(value: int, turn: int, dims: int) -> int:
    turn %= dims
    return ((value >> turn) | (value << (dims - turn))) & ((1 << dims) - 1)


def _rotate_left(value: int, turn: int, dims: int) -> int:
    return _rotate_right(value, dims - turn % dims, dims)


def _gray(value: int) -> int:
    return value ^ (value >> 1)


def _gray_inverse(code: int) -> int:
    value = 0
    while code:
        value ^= code
        code >>= 1
    return value


def _trailing_set_bits(value: int) -> int:
    count = 0
    while value & 1:
        count += 1
        value >>= 1
    return count


def _entry_corner(digit: int) -> int:
    """e(w): the entry corner of sub-cube ``w``."""
    return 0 if digit == 0 else _gray(2 * ((digit - 1) // 2))


def _intra_direction(digit: int, dims: int) -> int:
    """d(w): the axis along which sub-cube ``w`` is left."""
    if digit == 0:
        return 0
    return _trailing_set_bits(digit - 1 if digit % 2 == 0 else digit) % dims


def hamilton_key(cell, order: int) -> int:
    """Hamilton's Hilbert index of one grid cell (axis ``j``'s bit at bit ``j``)."""
    dims = len(cell)
    entry, direction, key = 0, 0, 0
    for level in range(order - 1, -1, -1):
        bits = sum(((int(value) >> level) & 1) << axis for axis, value in enumerate(cell))
        digit = _gray_inverse(_rotate_right(bits ^ entry, direction + 1, dims))
        entry ^= _rotate_left(_entry_corner(digit), direction + 1, dims)
        direction = (direction + _intra_direction(digit, dims) + 1) % dims
        key = (key << dims) | digit
    return key
