"""Hilbert space-filling curve.

The paper sorts query points by their Hilbert value so that consecutive
incremental NN queries (MQM, Section 3.1) and consecutive query blocks
(F-MQM / F-MBM, Sections 4.2-4.3) exhibit spatial locality.  The same
keys cut a point set into federation shards and page a write delta.

The curve is Hamilton's ("Compact Hilbert Indices", Dalhousie
CS-2006-07) at equal per-dimension precision, in any dimensionality:
each curve level reads one bit of every axis, maps it through the
current sub-cube's entry corner and direction, emits the inverse Gray
code as the level's key digit, and moves to the child's state.  In 2-D
it is the classic rotate-and-flip curve.  A ``d``-dimensional curve
reaches ``d * 2**(d - 1)`` states, so the step is tabulated once per
dimensionality for a chunk of levels and :func:`hilbert_indices` looks
it up over every point at once (``order / 4`` array passes in 2-D);
:func:`cell_key` walks the same table for one cell with Python ints.
Where the table would exceed :data:`_TABLE_ENTRIES` (seven dimensions
and up) the step runs one level at a time over the arrays instead.
:func:`rank_keys` is the stable rank of every bulk load, Hilbert sort
and federation partition: NumPy's default argsort with its ties repaired.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.geometry.point import as_points

DEFAULT_ORDER = 16

#: Largest state table built; a chunk covers at most :data:`_MAX_CHUNK` levels.
_TABLE_ENTRIES = 1 << 14
_MAX_CHUNK = 4


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


def _step(entry: np.ndarray, direction: np.ndarray, cell: np.ndarray, dims: int):
    """One curve level of Hamilton's walk over int64 arrays.

    ``cell`` holds the level's bit of axis ``j`` at bit ``j``; the state
    is the sub-cube's entry corner ``entry`` and its ``direction``.
    Returns the level's key digit and the child's ``(entry, direction)``.
    """
    mask = (1 << dims) - 1
    turn = (direction + 1) % dims
    digit = cell ^ entry  # into the sub-cube's frame: rotate right by d + 1
    digit = ((digit >> turn) | (digit << (dims - turn))) & mask
    shift = 1
    while shift < dims:  # then the inverse Gray code
        digit ^= digit >> shift
        shift <<= 1
    below = digit - 1
    corner = below & ~1  # the child's entry corner, gc(2 * floor((w - 1) / 2))
    corner ^= corner >> 1
    odd = below | 1  # its direction: trailing set bits of w - 1 (w even) or w (w odd)
    change = np.bitwise_count(odd & ~(odd + 1)).astype(np.int64) % dims
    first = digit == 0
    corner[first] = 0
    change[first] = 0
    entry = entry ^ (((corner << turn) | (corner >> (dims - turn))) & mask)
    return digit, entry, (direction + change + 1) % dims


@functools.cache
def _state_table(dims: int):
    """:func:`_step` over a chunk of levels from every reachable state, or ``None``.

    A state ``(entry, direction)`` is numbered by its rank among the
    reachable ``entry * dims + direction``, so ``(0, k)`` is state ``k``.
    Entry ``(state << dims * levels) | chunk_0 << (dims - 1) * levels |
    ... | chunk_{dims-1}`` of the table holds the chunk's
    ``dims * levels`` key digits shifted past ``state_bits``, or'ed with
    the state the next chunk starts in.  ``levels`` is the most (up to
    :data:`_MAX_CHUNK`) that keep the table within
    :data:`_TABLE_ENTRIES`; ``None`` when one level does not fit.
    Returns ``(table, table as a tuple of ints, levels, state_bits)``.
    """
    cells = 1 << dims
    if dims << (2 * dims - 1) > _TABLE_ENTRIES:  # dims * 2**(dims - 1) states
        return None
    flat = np.arange(cells * dims)
    _, entry, direction = _step(
        np.repeat(flat // dims, cells), np.repeat(flat % dims, cells), np.tile(np.arange(cells), flat.size), dims
    )
    successors = (entry * dims + direction).reshape(-1, cells)
    reached = flat < dims  # the walk starts in (0, k): see _walk_start
    while not reached[successors[reached]].all():
        reached[successors[reached]] = True
    states = np.flatnonzero(reached)
    levels = _MAX_CHUNK
    while states.size << (dims * levels) > _TABLE_ENTRIES:
        levels -= 1
    index = np.arange(states.size << (dims * levels))
    state = states[index >> (dims * levels)]
    entry, direction = state // dims, state % dims
    digits = np.zeros_like(index)
    for level in range(levels - 1, -1, -1):
        cell = np.zeros_like(index)
        for axis in range(dims):
            cell |= ((index >> ((dims - 1 - axis) * levels + level)) & 1) << axis
        digit, entry, direction = _step(entry, direction, cell, dims)
        digits = (digits << dims) | digit
    number = np.zeros(flat.size, dtype=np.int64)
    number[states] = np.arange(states.size)
    state_bits = (states.size - 1).bit_length()
    table = (digits << state_bits) | number[entry * dims + direction]
    table = table.astype(np.min_scalar_type(int(table.max())))
    table.flags.writeable = False  # one cached table serves every caller
    return table, tuple(table.tolist()), levels, state_bits


def _walk_start(order: int, levels: int, dims: int) -> tuple[int, range]:
    """The state a chunked walk of ``order`` levels starts in, and its chunks' shifts.

    An order that is not a whole number of chunks is padded with leading
    zero levels.  A zero level keeps the entry corner and turns the
    direction once, so starting in ``(0, -padding mod dims)`` reaches the
    first real level in the curve's initial state ``(0, 0)``.
    """
    padding = -order % levels
    return -padding % dims, range(order + padding - levels, -1, -levels)


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
    return _grid_keys(_normalise_to_grid(pts, order), order)


def _grid_keys(grid: np.ndarray, order: int) -> np.ndarray:
    """The keys of int64 grid cells (read only), one table lookup per chunk of levels.

    Top chunk first; each lookup is indexed by the state and the
    per-axis chunks laid side by side, as in the table.  Without a table
    the step runs once per level.
    """
    count, dims = grid.shape
    keys = np.zeros(count, dtype=np.int64)
    spec = _state_table(dims)
    if spec is None:
        entry, direction = np.zeros(count, dtype=np.int64), np.zeros(count, dtype=np.int64)
        for level in range(order - 1, -1, -1):
            cell = np.zeros(count, dtype=np.int64)
            for axis in range(dims):
                cell |= ((grid[:, axis] >> level) & 1) << axis
            digit, entry, direction = _step(entry, direction, cell, dims)
            keys <<= dims
            keys |= digit
        return keys
    table, _, levels, state_bits = spec
    mask, state_mask = (1 << levels) - 1, (1 << state_bits) - 1
    start, shifts = _walk_start(order, levels, dims)
    state = np.full(count, start, dtype=table.dtype)
    for shift in shifts:
        index = state  # the state, then each axis's chunk shifted in below it
        for axis in range(dims):
            index <<= levels
            index |= ((grid[:, axis] >> shift) & mask).astype(table.dtype)
        entry = table[index]
        keys <<= dims * levels
        keys |= entry >> state_bits
        state = entry & state_mask
    return keys


def cell_key(cell, order: int) -> int:
    """The Hilbert key of one grid cell of whole numbers in ``[0, 2**order)``.

    The table walk of :func:`hilbert_indices` with Python ints, for one
    row at a time (an appended write pays about a microsecond, where a
    one-row array walk pays tens).
    """
    if min(cell) < 0 or max(cell) >> order:
        raise ValueError(f"cell {tuple(cell)} outside the Hilbert grid of order {order}")
    dims = len(cell)
    spec = _state_table(dims)
    if spec is None:
        return int(_grid_keys(np.array([cell], dtype=np.int64), order)[0])
    _, entries, levels, state_bits = spec
    mask, state_mask = (1 << levels) - 1, (1 << state_bits) - 1
    state, shifts = _walk_start(order, levels, dims)
    key = 0
    for shift in shifts:
        index = state
        for value in cell:
            index = (index << levels) | ((value >> shift) & mask)
        entry = entries[index]
        key = (key << (dims * levels)) | (entry >> state_bits)
        state = entry & state_mask
    return key


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
