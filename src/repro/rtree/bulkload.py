"""Bulk loading: the packed leaf order of a static point set.

The experiments of the paper operate on static datasets (PP and TS), so
the natural way to build the R-tree is a packed bulk load.  Packing is
done on arrays: :func:`pack` returns the *leaf order* — the permutation
that lists the points leaf by leaf — and the row at which every leaf
starts.  Nothing else is decided here; the levels above the leaves group
``capacity`` consecutive nodes per parent, which
:meth:`FlatRTree.bulk_load <repro.rtree.flat.FlatRTree.bulk_load>`
assembles straight into the snapshot arrays (no node or entry object
per point or page).  Both strategies rank with
:func:`~repro.geometry.hilbert.rank_keys`, the stable permutation without
NumPy's timsort: STR orders ``pp_like(100000)`` at capacity 50 in ~9 ms,
~17 ms with stable argsorts (best of 7, shared 2-core x86-64 box).

* ``"str"`` — Sort-Tile-Recursive (Leutenegger, Lopez and Edgington,
  ICDE 1997), the default: well-shaped, low-overlap leaves for points.
* ``"hilbert"`` — packing by Hilbert order, to test that tree quality
  (not a specific packing) drives the algorithms' behaviour.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.hilbert import hilbert_sort, rank_keys


def resolve_record_ids(count: int, record_ids) -> np.ndarray:
    """Validate caller-supplied record ids (default: the row indices).

    Horizontal sharding is the motivating caller: a shard packs the rows
    ``points[global_rows]`` but must keep the *global* row numbers as
    record ids, so federated answers merge against the same identifier
    space as a single index over the whole dataset.  The id is the key
    of delete, tombstones and the federated merge, so supplied ids must
    be whole numbers and distinct.  An int64 vector is returned as it
    is, not copied (the snapshot stores ``ids[order]``).
    """
    if record_ids is None:
        return np.arange(count, dtype=np.int64)
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


def _leaf_starts(run_starts: np.ndarray, run_sizes: np.ndarray, capacity: int) -> np.ndarray:
    """Start rows of the leaves cut from consecutive runs of points.

    Every run is chopped into leaves of ``capacity`` points; its last
    leaf takes the remainder.
    """
    leaves_per_run = -(-run_sizes // capacity)
    first_leaf = np.cumsum(leaves_per_run) - leaves_per_run
    within_run = np.arange(int(leaves_per_run.sum())) - np.repeat(first_leaf, leaves_per_run)
    return np.repeat(run_starts, leaves_per_run) + within_run * capacity


def _str_order(points: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive leaf order.

    Points are sorted by the first coordinate, cut into vertical slabs of
    roughly ``sqrt(leaf_count)`` leaves each, and each slab is sorted by
    the second coordinate before being chopped into leaves.  Higher
    dimensions reuse the first two coordinates for tiling, which is
    sufficient for the (2-D) evaluation of the paper while remaining
    correct for any dimensionality.
    """
    count = points.shape[0]
    leaf_count = math.ceil(count / capacity)
    slab_count = max(1, math.ceil(math.sqrt(leaf_count)))
    per_slab = math.ceil(count / slab_count)

    by_x = rank_keys(points[:, 0])
    slab_starts = np.arange(0, count, per_slab)
    # Each slab ranked on its own, ties kept in x order: the rows of one
    # 2-D rank, the last padded with +inf keys that rank after its points.
    keys = np.full((slab_starts.size, per_slab), np.inf)
    keys.flat[:count] = points[by_x, 1 if points.shape[1] > 1 else 0]
    within = (rank_keys(keys) + slab_starts[:, None]).ravel()
    slab_sizes = np.minimum(per_slab, count - slab_starts)
    return by_x[within[within < count]], _leaf_starts(slab_starts, slab_sizes, capacity)


def _hilbert_order(points: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Leaf order along the Hilbert curve: one run, chopped into leaves."""
    return hilbert_sort(points), np.arange(0, points.shape[0], capacity)


def pack(points: np.ndarray, capacity: int, method: str = "str") -> tuple[np.ndarray, np.ndarray]:
    """Leaf order of ``points`` under a named packing strategy.

    Returns ``(order, leaf_starts)``: ``points[order]`` lists the points
    leaf by leaf, and leaf ``j`` holds the rows from ``leaf_starts[j]``
    up to the next start (the last leaf runs to the end).  ``points`` is
    a validated ``(count, dims)`` array; zero points pack into one empty
    leaf.
    """
    if capacity < 4:
        raise ValueError("node capacity must be at least 4")
    if method not in PACKERS:
        raise ValueError(f"unknown bulk-load method {method!r}")
    if points.shape[0] == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(1, dtype=np.intp)
    return PACKERS[method](points, capacity)


#: Registered packing strategies by name (consulted by :func:`pack`).
PACKERS = {
    "str": _str_order,
    "hilbert": _hilbert_order,
}
