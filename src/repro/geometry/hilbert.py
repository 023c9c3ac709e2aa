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
same rotate-and-flip step, tabulated for four curve levels at a time and
looked up over every point at once, so a bulk load, a query-group sort
or a federation (re)partition pays ``order / 4`` array passes instead of
one interpreter loop per point.  The two agree key for key.
:func:`rank_keys` is the stable rank of every bulk load, Hilbert sort
and federation partition: NumPy's default argsort with its ties repaired.
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
    """Scale points into the integer grid ``[0, 2**order)`` per dimension.

    One column at a time (a contiguous reduction and one float scratch
    column instead of strided ``axis=0`` passes over every coordinate);
    the result is column-major, so each grid column is contiguous too.
    """
    count, dims = points.shape
    side = (1 << order) - 1
    grid = np.empty((count, dims), dtype=np.int64, order="F")
    scratch = np.empty(count)
    for dim in range(dims):
        column = points[:, dim]
        low = column.min()
        high = column.max()
        np.subtract(column, low, out=scratch)
        scratch /= high - low if high > low else 1.0
        scratch *= side
        np.floor(scratch, out=scratch)
        cells = grid[:, dim]
        cells[...] = scratch
        np.clip(cells, 0, side, out=cells)
    return grid


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
        return _hilbert_keys_2d(grid[:, 0], grid[:, 1], order)
    return _zorder_keys(grid, order)


#: Curve levels one table lookup covers: a 4-bit chunk of x and of y.
_CHUNK_BITS = 4


def _chunk_table(bits: int) -> np.ndarray:
    """The rotate-and-flip step of :func:`hilbert_index_2d`, ``bits`` levels at a time.

    The transform the scalar loop applies to the bits below a level is
    one of four: identity, swap, flip (complement both) or both — the
    *state*, bit 0 the swap and bit 1 the flip.  Entry
    ``(state << 2 * bits) | (x_chunk << bits) | y_chunk`` holds the
    chunk's ``2 * bits`` key bits shifted left by 2, or'ed with the state
    the next chunk starts in.  Built with one array pass per level over
    all ``4 << 2 * bits`` entries (1024 ``uint16`` for 4-bit chunks).
    """
    cells = 1 << (2 * bits)
    entry = np.arange(4 * cells, dtype=np.int64)
    state = entry >> (2 * bits)
    x = (entry >> bits) & ((1 << bits) - 1)
    y = entry & ((1 << bits) - 1)
    digits = np.zeros_like(entry)
    for level in range(bits - 1, -1, -1):
        rx = (x >> level) & 1
        ry = (y >> level) & 1
        # read the chunk's bits through the transform: swap, then flip
        change = ((rx ^ ry) & state) ^ (state >> 1)
        rx ^= change
        ry ^= change
        digits = (digits << 2) | ((3 * rx) ^ ry)
        # ry == 0 swaps the quadrant; (rx, ry) == (1, 0) also flips it
        state ^= (ry ^ 1) | ((rx & (ry ^ 1)) << 1)
    return ((digits << 2) | state).astype(np.uint16)


_CHUNK_TABLE = _chunk_table(_CHUNK_BITS)


def _hilbert_keys_2d(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """:func:`hilbert_index_2d` over int64 grid columns (read only).

    One table lookup per chunk of :data:`_CHUNK_BITS` levels, top chunk
    first.  An order that is not a whole number of chunks is padded with
    leading zero levels; each zero level is a plain swap that adds no key
    bits, so the walk starts in the swap state when the padding is odd
    and reaches the first real level in the identity, as the scalar
    loop does.
    """
    bits = _CHUNK_BITS
    mask = (1 << bits) - 1
    padding = -order % bits
    state = np.full(x.shape[0], padding & 1, dtype=np.uint16)
    keys = np.zeros(x.shape[0], dtype=np.int64)
    for shift in range(order + padding - bits, -1, -bits):
        index = state << (2 * bits)
        index |= ((x >> shift) & mask).astype(np.uint16) << bits
        index |= ((y >> shift) & mask).astype(np.uint16)
        entry = _CHUNK_TABLE[index]
        keys <<= 2 * bits
        keys |= entry >> 2
        state = entry & 3
    return keys


def _zorder_keys(grid: np.ndarray, order: int) -> np.ndarray:
    """:func:`_zorder_index` over the rows of an int64 grid."""
    dims = grid.shape[1]
    keys = np.zeros(grid.shape[0], dtype=np.int64)
    for bit in range(order):
        for dim in range(dims):
            keys |= ((grid[:, dim] >> bit) & 1) << (bit * dims + dim)
    return keys


def rank_keys(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, axis=-1, kind="stable")`` of 1-D or row-wise 2-D keys without NaN.

    NumPy's stable argsort of floats is a timsort, several times slower
    than its default (SIMD) one.  So the default argsort runs, and then
    each run of equal keys gets its rows back in ascending order: all runs
    at once, by one int64 sort of ``run * width + row``.
    """
    table = np.atleast_2d(keys)
    rows, width = table.shape
    ranked = np.argsort(table, axis=-1)
    # The keys in ranked order by one flat take; the row offsets go on and
    # off ``ranked`` in place, so no index-sized temporary grows the heap.
    offsets = np.arange(rows)[:, None] * width
    ranked += offsets
    ordered = table.reshape(-1).take(ranked)
    ranked -= offsets
    edge = np.zeros((rows, 1), dtype=bool)
    tied = np.hstack((edge, ordered[:, 1:] == ordered[:, :-1]))  # equal to its left
    if tied.any():
        member = tied | np.hstack((tied[:, 1:], edge))  # or to its right
        runs = np.cumsum(~tied[member])  # a run starts at a member not tied to its left
        ranked[member] = np.sort(runs * width + ranked[member]) % width
    return ranked.reshape(np.shape(keys))


def hilbert_sort(points: np.ndarray, order: int | None = None) -> np.ndarray:
    """Return the permutation that sorts ``points`` by Hilbert value.

    This is the "sort points in Q according to Hilbert value" step of
    MQM, F-MQM and F-MBM.
    """
    return rank_keys(hilbert_indices(points, order))


def _zorder_index(coords: np.ndarray, order: int) -> int:
    """Bit-interleaved (Morton) index for dimensionalities other than 2."""
    index = 0
    dims = coords.size
    for bit in range(order):
        for dim in range(dims):
            bit_value = (int(coords[dim]) >> bit) & 1
            index |= bit_value << (bit * dims + dim)
    return index
