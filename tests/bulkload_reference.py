"""The object packers ``repro.rtree.bulkload`` is proven against.

This is the bulk loader as it stood before the array packer: one
``LeafEntry`` per record, one ``Node``/``ChildEntry`` per page, kept
verbatim — together with the per-point Hilbert key loop it sorted by
(:func:`reference_hilbert_indices`), so the reference shares no
vectorised code with what it checks.  :func:`reference_snapshot`
flattens the packed nodes with ``FlatRTree.from_tree``; the differential
tests require ``FlatRTree.bulk_load`` and ``RTree.bulk_load`` to
reproduce every array of it except the values of ``node_ids``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.hilbert import (
    DEFAULT_ORDER,
    _normalise_to_grid,
    _zorder_index,
    hilbert_index_2d,
)
from repro.geometry.point import as_points
from repro.rtree.entry import ChildEntry, LeafEntry
from repro.rtree.flat import FlatRTree
from repro.rtree.node import Node
from repro.rtree.tree import RTree


def reference_hilbert_indices(points: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    """One scalar curve evaluation per point (the parent's ``hilbert_indices``)."""
    pts = as_points(points)
    grid = _normalise_to_grid(pts, order)
    if pts.shape[1] == 2:
        return np.array(
            [hilbert_index_2d(int(x), int(y), order) for x, y in grid], dtype=np.int64
        )
    return np.array([_zorder_index(row, order) for row in grid], dtype=np.int64)


def hilbert_sort(points: np.ndarray, order: int = DEFAULT_ORDER) -> np.ndarray:
    return np.argsort(reference_hilbert_indices(points, order), kind="stable")


def _resolve_record_ids(count: int, record_ids) -> np.ndarray:
    """Validate caller-supplied record ids (default: the row indices).

    Horizontal sharding is the motivating caller: a shard packs the rows
    ``points[global_rows]`` but must keep the *global* row numbers as
    record ids, so federated answers merge against the same identifier
    space as a single index over the whole dataset.
    """
    if record_ids is None:
        return np.arange(count, dtype=np.int64)
    ids = np.asarray(record_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != count:
        raise ValueError(
            f"record_ids must be a flat vector with one id per point "
            f"({count}), got shape {ids.shape}"
        )
    return ids


def _pack_upwards(nodes: list[Node], capacity: int) -> Node:
    """Group ``nodes`` into parents level by level until one root remains."""
    level = nodes[0].level
    while len(nodes) > 1:
        level += 1
        parents: list[Node] = []
        for start in range(0, len(nodes), capacity):
            children = nodes[start : start + capacity]
            parent = Node(level)
            for child in children:
                parent.add(ChildEntry(child.compute_mbr(), child))
            parents.append(parent)
        nodes = parents
    return nodes[0]


def str_pack(points: np.ndarray, capacity: int, record_ids=None) -> Node:
    """Bulk load points with the Sort-Tile-Recursive strategy.

    Points are sorted by the first coordinate, cut into vertical slabs of
    roughly ``sqrt(leaf_count)`` leaves each, and each slab is sorted by
    the second coordinate before being chopped into leaves.  Higher
    dimensions reuse the first two coordinates for tiling, which is
    sufficient for the (2-D) evaluation of the paper while remaining
    correct for any dimensionality.
    """
    pts = as_points(points)
    count = pts.shape[0]
    ids = _resolve_record_ids(count, record_ids)
    leaf_count = math.ceil(count / capacity)
    slab_count = max(1, math.ceil(math.sqrt(leaf_count)))
    per_slab = math.ceil(count / slab_count)

    order_x = np.argsort(pts[:, 0], kind="stable")
    leaves: list[Node] = []
    for slab_start in range(0, count, per_slab):
        slab_ids = order_x[slab_start : slab_start + per_slab]
        sort_axis = 1 if pts.shape[1] > 1 else 0
        slab_ids = slab_ids[np.argsort(pts[slab_ids, sort_axis], kind="stable")]
        for leaf_start in range(0, slab_ids.size, capacity):
            chunk = slab_ids[leaf_start : leaf_start + capacity]
            leaf = Node(0)
            for row in chunk:
                leaf.add(LeafEntry(pts[row], int(ids[row])))
            leaves.append(leaf)
    return _pack_upwards(leaves, capacity)


def pack(points: np.ndarray, capacity: int, method: str = "str", record_ids=None) -> Node:
    """Bulk load with a named packing strategy (``"str"`` or ``"hilbert"``).

    The single entry point shared by ``RTree.bulk_load`` and
    ``FlatRTree.bulk_load``, so both index flavours accept exactly the
    same methods and fail with the same message on a typo.
    ``record_ids`` optionally replaces the default row-index ids (one id
    per point) — the sharding partitioner passes global row numbers.
    """
    if method not in PACKERS:
        raise ValueError(f"unknown bulk-load method {method!r}")
    return PACKERS[method](points, capacity, record_ids=record_ids)


def hilbert_pack(points: np.ndarray, capacity: int, record_ids=None) -> Node:
    """Bulk load points in Hilbert-curve order."""
    pts = as_points(points)
    ids = _resolve_record_ids(pts.shape[0], record_ids)
    order = hilbert_sort(pts)
    leaves: list[Node] = []
    for start in range(0, order.size, capacity):
        chunk = order[start : start + capacity]
        leaf = Node(0)
        for row in chunk:
            leaf.add(LeafEntry(pts[row], int(ids[row])))
        leaves.append(leaf)
    return _pack_upwards(leaves, capacity)


#: Registered packing strategies by name (consulted by :func:`pack`).
PACKERS = {
    "str": str_pack,
    "hilbert": hilbert_pack,
}


def reference_snapshot(points, capacity: int, method: str = "str", record_ids=None) -> FlatRTree:
    """What the parent's ``FlatRTree.bulk_load`` returned for these arguments."""
    pts = as_points(points)
    tree = RTree(dims=pts.shape[1], capacity=capacity)
    tree.root = pack(pts, capacity, method=method, record_ids=record_ids)
    tree.size = pts.shape[0]
    return FlatRTree.from_tree(tree)
