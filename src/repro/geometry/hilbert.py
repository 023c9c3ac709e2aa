"""Hilbert space-filling curve.

The paper sorts query points by their Hilbert value so that consecutive
incremental NN queries (MQM, Section 3.1) and consecutive query blocks
(F-MQM / F-MBM, Sections 4.2-4.3) exhibit spatial locality.  The curve is
also used for Hilbert-packing bulk loads of the R-tree.

The implementation follows the classic iterative bit-manipulation
formulation (Hamilton's compact Hilbert indices restricted to equal
per-dimension precision), supporting arbitrary dimensionality.

Two forms of the same curve live here.  The scalar functions
(:func:`hilbert_index_2d`, :func:`hilbert_index`) map one grid cell with
Python integers.  :func:`hilbert_indices` maps a whole collection: the
same rotate-and-flip step, run once per curve level over every point at
a time on int64 columns, so a bulk load, a query-group sort or a
federation (re)partition pays ``order`` array passes instead of one
interpreter loop per point.  The two agree key for key.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.point import as_points

DEFAULT_ORDER = 16


def hilbert_index_2d(x: int, y: int, order: int = DEFAULT_ORDER) -> int:
    """Map 2-D grid coordinates to their Hilbert curve index.

    ``x`` and ``y`` must lie in ``[0, 2**order)``.  The classic
    rotate-and-flip formulation is used; the result is an integer in
    ``[0, 4**order)``.
    """
    side = 1 << order
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"coordinates ({x}, {y}) outside the {side}x{side} Hilbert grid")
    rx = ry = 0
    d = 0
    s = side >> 1
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate the quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s >>= 1
    return d


def _normalise_to_grid(points: np.ndarray, order: int) -> np.ndarray:
    """Scale points into the integer grid ``[0, 2**order)`` per dimension."""
    low = points.min(axis=0)
    high = points.max(axis=0)
    span = np.where(high > low, high - low, 1.0)
    side = (1 << order) - 1
    scaled = np.floor((points - low) / span * side).astype(np.int64)
    return np.clip(scaled, 0, side)


def hilbert_index(point, order: int = DEFAULT_ORDER, grid: np.ndarray | None = None) -> int:
    """Hilbert index of a single (already grid-mapped) point.

    For 2-D input the exact Hilbert curve is used.  For other
    dimensionalities the function falls back to bit interleaving
    (Z-order), which preserves the locality property the algorithms need
    while keeping the code simple; the paper only evaluates 2-D data.
    """
    coords = np.asarray(point)
    if grid is None:
        coords = coords.astype(np.int64)
    if coords.size == 2:
        return hilbert_index_2d(int(coords[0]), int(coords[1]), order)
    return _zorder_index(coords.astype(np.int64), order)


def hilbert_indices(points: np.ndarray, order: int | None = None) -> np.ndarray:
    """Hilbert index of every point of a real-coordinate collection.

    The points are first normalised onto the ``2**order`` grid spanned by
    their own bounding box.  Keys are int64, so ``order * dims`` — the
    number of key bits — may not exceed 63.  ``order=None`` takes
    :data:`DEFAULT_ORDER`, lowered to ``63 // dims`` where the keys need
    it (4-D: 15, 5-D: 12, 6-D: 10).
    """
    pts = as_points(points)
    dims = pts.shape[1]
    if order is None:
        order = min(DEFAULT_ORDER, 63 // max(1, dims))
    if not 0 <= order * dims <= 63:
        raise ValueError(
            f"a Hilbert key of order {order} over {dims} dimensions needs "
            f"{order * dims} bits; int64 keys hold 63"
        )
    grid = _normalise_to_grid(pts, order)
    if dims == 2:
        return _hilbert_keys_2d(grid[:, 0].copy(), grid[:, 1].copy(), order)
    return _zorder_keys(grid, order)


def _hilbert_keys_2d(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """:func:`hilbert_index_2d` over int64 columns (consumed as scratch).

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


def _zorder_keys(grid: np.ndarray, order: int) -> np.ndarray:
    """:func:`_zorder_index` over the rows of an int64 grid."""
    dims = grid.shape[1]
    keys = np.zeros(grid.shape[0], dtype=np.int64)
    for bit in range(order):
        for dim in range(dims):
            keys |= ((grid[:, dim] >> bit) & 1) << (bit * dims + dim)
    return keys


def hilbert_sort(points: np.ndarray, order: int | None = None) -> np.ndarray:
    """Return the permutation that sorts ``points`` by Hilbert value.

    This is the "sort points in Q according to Hilbert value" step of
    MQM, F-MQM and F-MBM.
    """
    indices = hilbert_indices(points, order)
    return np.argsort(indices, kind="stable")


def _zorder_index(coords: np.ndarray, order: int) -> int:
    """Bit-interleaved (Morton) index for dimensionalities other than 2."""
    index = 0
    dims = coords.size
    for bit in range(order):
        for dim in range(dims):
            bit_value = (int(coords[dim]) >> bit) & 1
            index |= bit_value << (bit * dims + dim)
    return index
