"""Bulk loading: the packed order of a static point set, level by level.

The experiments of the paper operate on static datasets (PP and TS), so
the natural way to build the R-tree is a packed bulk load.  Packing is
done on arrays: :func:`pack` returns the *leaf order* — the permutation
that lists the points leaf by leaf — and the row at which every leaf
starts, and :func:`tile` does the same for the nodes of one level,
grouping them into parents by their MBR centres.
:meth:`FlatRTree.bulk_load <repro.rtree.flat.FlatRTree.bulk_load>`
runs one, then the other per level until one root remains, and
assembles the snapshot arrays from the permutations (no node or entry
object per point or page).

The one packer is Sort-Tile-Recursive (Leutenegger, Lopez and
Edgington, ICDE 1997) over every axis and at every level: well-shaped,
low-overlap leaves for points in any dimensionality, and parents that
are tiles too rather than strips along the leaves' last axis.  Above
the leaves the slab widths are rounded up to whole parents, so every
internal level is packed full.  It ranks with
:func:`~repro.geometry.hilbert.rank_keys`, the stable permutation without
NumPy's timsort, every group of an axis in one call: STR orders
``pp_like(100000)`` at capacity 50 in ~9 ms, ~17 ms with stable argsorts
(best of 7, shared 2-core x86-64 box).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hilbert import rank_keys


def resolve_record_ids(count: int, record_ids) -> np.ndarray:
    """Validate caller-supplied record ids.

    Horizontal sharding is the motivating caller: a shard packs the rows
    ``points[global_rows]`` but must keep the *global* row numbers as
    record ids, so federated answers merge against the same identifier
    space as a single index over the whole dataset.  The id is the key
    of delete, tombstones and the federated merge, so supplied ids must
    be whole numbers and distinct.  An int64 vector is returned as it
    is, not copied (the snapshot stores ``ids[order]``).
    """
    given = np.asarray(record_ids)
    with np.errstate(invalid="ignore"):  # NaN ids are reported below, not warned about
        ids = given.astype(np.int64, copy=False)
    if ids.ndim != 1 or ids.shape[0] != count:
        raise ValueError(
            f"record_ids must be a flat vector with one id per point "
            f"({count}), got shape {ids.shape}"
        )
    if ids is not given:
        fractional = given != ids
        if fractional.any():
            raise ValueError(
                f"record ids must be integers, got {given[np.argmax(fractional)]}"
            )
    top = int(ids.max()) if count else 0
    if count and ids.min() >= 0 and top < 8 * count:
        # Dense ids (row numbers, a shard's global rows, an engine's
        # live ids): one mark per possible id, at most the 8 bytes per id
        # the sort below allocates.
        marks = np.zeros(top + 1, dtype=bool)
        marks[ids] = True
        if np.count_nonzero(marks) == count:
            return ids
    ranked = np.sort(ids)
    repeated = ranked[1:] == ranked[:-1]
    if repeated.any():
        raise ValueError(
            f"record ids must be unique, got {int(ranked[1:][np.argmax(repeated)])} twice"
        )
    return ids


def _cut(starts: np.ndarray, sizes: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """Cut consecutive runs of rows into pieces of ``width`` rows.

    ``width`` is one number or one per run; a run's last piece takes the
    remainder.  Returns the pieces' start rows and sizes.
    """
    width = np.broadcast_to(width, sizes.shape)
    pieces = -(-sizes // width)
    first = np.cumsum(pieces) - pieces
    within = np.arange(int(pieces.sum())) - np.repeat(first, pieces)
    width = np.repeat(width, pieces)
    piece_starts = np.repeat(starts, pieces) + within * width
    return piece_starts, np.minimum(width, np.repeat(starts + sizes, pieces) - piece_starts)


def _ceil_root(values: np.ndarray, degree: int) -> np.ndarray:
    """The least whole ``root`` with ``root ** degree >= value``, for every value."""
    root = np.ceil(values ** (1.0 / degree)).astype(np.int64)
    root -= (root - 1) ** degree >= values  # float error either way
    root += root**degree < values
    return root


def _rank_groups(column: np.ndarray, order: np.ndarray, starts, sizes) -> np.ndarray:
    """``order`` with each group of rows ranked on its own by ``column`` (stable).

    Group ``g`` is ``order[starts[g]:starts[g] + sizes[g]]``.  The groups
    are ranked at once, as the rows of one 2-D rank, each padded with
    +inf keys that rank after its points.
    """
    filled = np.arange(int(sizes.max())) < sizes[:, None]
    keys = np.full(filled.shape, np.inf)
    keys[filled] = column.take(order)
    ranked = rank_keys(keys)
    del keys  # so the heap holds one index-sized array fewer below
    ranked += starts[:, None]
    return order.take(ranked[filled])


def _str_order(points: np.ndarray, capacity: int, grain: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive order, tiled over every axis.

    The rows are ranked by the first coordinate, as one group.  Then per
    further axis ``j`` of ``dims``, each group is cut into
    ``ceil(nodes ** (1 / (dims - j + 1)))`` slabs of
    ``ceil(size / slabs)`` rows, rounded up to a multiple of ``grain``,
    ``nodes`` being the group's ``ceil(size / capacity)``, and each slab
    is ranked by its ``j``-th coordinate (ties keep the order of the
    axes before).  The groups of the last axis are chopped into nodes of
    ``capacity`` rows.  So in 2-D the rows are cut into
    ``ceil(sqrt(nodes))`` vertical slabs, each chopped into nodes along
    y; in 3-D no node spans a whole axis either.  With ``grain`` equal
    to ``capacity`` only the last node is short.
    """
    count, dims = points.shape
    order = rank_keys(points[:, 0])
    starts, sizes = np.zeros(1, dtype=np.int64), np.array([count])
    for axis in range(1, dims):
        slabs = _ceil_root(-(-sizes // capacity), dims - axis + 1)
        width = -(-sizes // slabs)
        starts, sizes = _cut(starts, sizes, -(-width // grain) * grain)
        order = _rank_groups(points[:, axis], order, starts, sizes)
    return order, _cut(starts, sizes, capacity)[0]


def pack(points: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """The STR leaf order of ``points``.

    Returns ``(order, leaf_starts)``: ``points[order]`` lists the points
    leaf by leaf, and leaf ``j`` holds the rows from ``leaf_starts[j]``
    up to the next start (the last leaf runs to the end).  ``points`` is
    a validated ``(count, dims)`` array; zero points pack into one empty
    leaf.
    """
    if capacity < 4:
        raise ValueError("node capacity must be at least 4")
    if points.shape[0] == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp)
    return _str_order(points, capacity)


def tile(lows: np.ndarray, highs: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """The STR order of one level's nodes, by MBR centre, packed full.

    Returns ``(order, parent_starts)`` as :func:`pack` does for points:
    parent ``j`` holds the nodes ``order[parent_starts[j]:]`` up to the
    next start, ``capacity`` of them for every parent but the last.
    """
    return _str_order((lows + highs) / 2, capacity, grain=capacity)


def run_rows(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The rows ``starts[j] : starts[j] + sizes[j]`` of every non-empty run ``j``, concatenated.

    One index-sized array: steps of 1, a jump to each run's start, summed.
    """
    rows = np.ones(int(sizes.sum()), dtype=np.int64)
    if rows.size:
        starts, sizes = starts[sizes > 0], sizes[sizes > 0]
        rows[np.cumsum(sizes[:-1])] = starts[1:] - starts[:-1] - sizes[:-1] + 1
        rows[0] = starts[0]
        np.cumsum(rows, out=rows)
    return rows
