"""The object packer ``repro.rtree.bulkload`` is proven against.

This is the bulk loader as it stood before the array packer: one
``LeafEntry`` per record, one ``Node``/``ChildEntry`` per page — with
its Sort-Tile-Recursive split written as the recursion over every axis
that the array packer's per-axis loop flattens (in 2-D it is the
two-axis split it always was), so the reference shares no vectorised
code with what it checks.  The same recursion tiles every level above
the leaves, one ``Node`` at a time, over the centres of the MBRs it
stores for them, its slab widths rounded up to whole parents.
:func:`reference_hilbert_indices` is the curve evaluated point by point.
:func:`reference_snapshot` flattens the packed nodes breadth-first into
the snapshot arrays; the differential tests require
``FlatRTree.bulk_load`` to reproduce every array of it except the values
of ``node_ids``.  ``tile_levels=False`` keeps the tree shape the array
packer built before it tiled the upper levels — ``capacity`` consecutive
nodes per parent, so every level-1 node is a strip — for tests that hold
on either shape.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from hilbert_reference import hamilton_key

from repro.geometry.hilbert import DEFAULT_ORDER, _normalise_to_grid
from repro.geometry.mbr import MBR
from repro.geometry.point import as_point, as_points
from repro.rtree.flat import FlatRTree

_node_ids = itertools.count()


class LeafEntry:
    """A data point stored at the leaf level, with its record id."""

    __slots__ = ("point", "record_id")

    def __init__(self, point, record_id: int):
        self.point = as_point(point)
        self.record_id = int(record_id)


class ChildEntry:
    """An internal-node entry: a child node and the MBR stored for it."""

    __slots__ = ("mbr", "child")

    def __init__(self, mbr: MBR, child: "Node"):
        self.mbr = mbr
        self.child = child


class Node:
    """One page: ``LeafEntry`` objects at level 0, ``ChildEntry`` above."""

    __slots__ = ("level", "entries", "node_id")

    def __init__(self, level: int):
        self.level = int(level)
        self.entries: list = []
        self.node_id = next(_node_ids)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def add(self, entry) -> None:
        self.entries.append(entry)

    def compute_mbr(self) -> MBR:
        if self.is_leaf:
            return MBR.from_points(np.vstack([entry.point for entry in self.entries]))
        return union_of(entry.mbr for entry in self.entries)


def union_of(mbrs) -> MBR:
    """The tightest MBR covering every MBR in ``mbrs`` (at least one)."""
    mbrs = list(mbrs)
    low = np.min(np.vstack([m.low for m in mbrs]), axis=0)
    high = np.max(np.vstack([m.high for m in mbrs]), axis=0)
    return MBR(low, high)


def reference_hilbert_indices(points: np.ndarray, order: int | None = None) -> np.ndarray:
    """One scalar curve evaluation per point.

    The default order is 16, lowered so ``order * dims`` key bits fit int64.
    """
    pts = as_points(points)
    if order is None:
        order = min(DEFAULT_ORDER, 63 // pts.shape[1])
    grid = _normalise_to_grid(pts, order)
    return np.array([hamilton_key(cell, order) for cell in grid.tolist()], dtype=np.int64)


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


def _str_groups(keys: np.ndarray, capacity: int, grain: int = 1) -> list[np.ndarray]:
    """Sort-Tile-Recursive over the rows of ``keys``: groups of at most ``capacity`` rows.

    The rows are sorted by the first coordinate and cut into slabs of
    ``ceil(size / slabs)`` rows, rounded up to a multiple of ``grain``,
    ``slabs`` the least whole number whose ``dims``-th power reaches the
    group's ``ceil(size / capacity)``; each slab recurses on the next
    axis with one dimension fewer, and the slabs of the last axis are
    chopped into groups.  In 2-D: vertical slabs of about
    ``sqrt(groups)`` groups, each sorted by y.
    """
    dims = keys.shape[1]
    groups: list[np.ndarray] = []

    def tile(rows: np.ndarray, axis: int) -> None:
        rows = rows[np.argsort(keys[rows, axis], kind="stable")]
        if axis == dims - 1:
            for start in range(0, rows.size, capacity):
                groups.append(rows[start : start + capacity])
            return
        group_count = math.ceil(rows.size / capacity)
        slabs = 1
        while slabs ** (dims - axis) < group_count:
            slabs += 1
        per_slab = math.ceil(math.ceil(rows.size / slabs) / grain) * grain
        for slab_start in range(0, rows.size, per_slab):
            tile(rows[slab_start : slab_start + per_slab], axis + 1)

    tile(np.arange(keys.shape[0]), 0)
    return groups


def _pack_upwards(nodes: list[Node], capacity: int, tile_levels: bool = True) -> Node:
    """Group ``nodes`` into parents level by level until one root remains.

    Each level is tiled by :func:`_str_groups` over its nodes' MBR
    centres, whole parents per slab; ``tile_levels=False`` groups
    ``capacity`` consecutive nodes instead.
    """
    level = nodes[0].level
    while len(nodes) > 1:
        level += 1
        mbrs = [node.compute_mbr() for node in nodes]
        if tile_levels:
            centres = np.vstack([(mbr.low + mbr.high) / 2 for mbr in mbrs])
            groups = _str_groups(centres, capacity, grain=capacity)
        else:
            starts = range(0, len(nodes), capacity)
            groups = [range(start, min(start + capacity, len(nodes))) for start in starts]
        parents: list[Node] = []
        for group in groups:
            parent = Node(level)
            for child in group:
                parent.add(ChildEntry(mbrs[child], nodes[child]))
            parents.append(parent)
        nodes = parents
    return nodes[0]


def str_pack(points: np.ndarray, capacity: int, record_ids=None, tile_levels: bool = True) -> Node:
    """Bulk load points with the Sort-Tile-Recursive strategy over every axis and level.

    The leaves are :func:`_str_groups` of the points; the levels above
    are packed by :func:`_pack_upwards`.
    """
    pts = as_points(points)
    count = pts.shape[0]
    ids = _resolve_record_ids(count, record_ids)
    leaves: list[Node] = []
    for rows in _str_groups(pts, capacity):
        leaf = Node(0)
        for row in rows:
            leaf.add(LeafEntry(pts[row], int(ids[row])))
        leaves.append(leaf)
    return _pack_upwards(leaves, capacity, tile_levels)


def flatten(root: Node, dims: int, size: int, capacity: int) -> FlatRTree:
    """Number ``root``'s nodes breadth-first into the snapshot arrays.

    The walk keeps entry (storage) order, which is the order traversals
    push children and break ties in; the stored child MBRs become the
    node rows (the root's is computed).  An empty root is the single
    empty leaf.
    """
    if size == 0:
        arrays = {
            "lows": np.zeros((1, dims), dtype=np.float64),
            "highs": np.zeros((1, dims), dtype=np.float64),
            "child_start": np.zeros(1, dtype=np.int64),
            "child_count": np.zeros(1, dtype=np.int64),
            "levels": np.zeros(1, dtype=np.int16),
            "node_ids": np.array([root.node_id], dtype=np.int64),
            "points": np.zeros((0, dims), dtype=np.float64),
            "record_ids": np.zeros(0, dtype=np.int64),
        }
    else:
        lows, highs, child_start, child_count = [], [], [], []
        levels, node_ids, point_rows, record_ids = [], [], [], []
        queue = [root]
        queue_mbrs = [root.compute_mbr()]
        for node, mbr in zip(queue, queue_mbrs):  # the queue grows as it is walked
            lows.append(np.asarray(mbr.low, dtype=np.float64))
            highs.append(np.asarray(mbr.high, dtype=np.float64))
            levels.append(node.level)
            node_ids.append(node.node_id)
            child_count.append(len(node.entries))
            if node.is_leaf:
                child_start.append(len(point_rows))
                for entry in node.entries:
                    point_rows.append(entry.point)
                    record_ids.append(entry.record_id)
            else:
                child_start.append(len(queue))
                for entry in node.entries:
                    queue.append(entry.child)
                    queue_mbrs.append(entry.mbr)
        arrays = {
            "lows": np.ascontiguousarray(np.vstack(lows)),
            "highs": np.ascontiguousarray(np.vstack(highs)),
            "child_start": np.asarray(child_start, dtype=np.int64),
            "child_count": np.asarray(child_count, dtype=np.int64),
            "levels": np.asarray(levels, dtype=np.int16),
            "node_ids": np.asarray(node_ids, dtype=np.int64),
            "points": np.ascontiguousarray(np.vstack(point_rows)),
            "record_ids": np.asarray(record_ids, dtype=np.int64),
        }
    meta = {"dims": dims, "size": size, "capacity": capacity, "height": root.level + 1}
    return FlatRTree(arrays, meta)


def reference_snapshot(
    points, capacity: int, record_ids=None, tile_levels: bool = True
) -> FlatRTree:
    """What ``FlatRTree.bulk_load`` must return for these arguments.

    ``tile_levels=False`` gives the consecutive-parents shape instead.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 2 and pts.shape[0] == 0 and pts.shape[1] > 0:
        return flatten(Node(0), pts.shape[1], 0, capacity)
    pts = as_points(pts)
    if capacity < 4:
        raise ValueError("node capacity must be at least 4")
    root = str_pack(pts, capacity, record_ids=record_ids, tile_levels=tile_levels)
    return flatten(root, pts.shape[1], pts.shape[0], capacity)
