"""The dynamic R*-tree.

:class:`RTree` ties together the R* insertion policies and the splitting
strategies over linked :class:`~repro.rtree.node.Node` objects: insert
with forced reinsertion, delete with condensation, range search,
validation.  It is not on the engine's build path — a static dataset is
packed straight into a :class:`~repro.rtree.flat.FlatRTree`
(``FlatRTree.bulk_load``), and the engine's write path never mutates a
tree (writes land in :class:`~repro.rtree.overlay.DeltaOverlay`'s point
array).  It is kept for what only an object tree can show — the
insert/delete/split behaviour the tests exercise — and is queried by
snapshotting it (``FlatRTree.from_tree``): every GNN algorithm in
:mod:`repro.core` runs over the flat arrays, which is where the "NA"
metric of the paper's experiments is charged.  :meth:`RTree.bulk_load`
thaws a packed snapshot into nodes, so packing exists once.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geometry.mbr import MBR
from repro.geometry.point import as_point
from repro.rtree import rstar
from repro.rtree.entry import ChildEntry, LeafEntry
from repro.rtree.flat import FlatRTree
from repro.rtree.node import Node
from repro.rtree.split import quadratic_split, rstar_split
from repro.rtree.stats import TreeStats

#: Node capacity used throughout the paper's experiments (1 KByte pages).
DEFAULT_CAPACITY = 50
DEFAULT_MIN_FILL_RATIO = 0.4

_SPLIT_FUNCTIONS = {
    "rstar": rstar_split,
    "quadratic": quadratic_split,
}


class RTree:
    """An R*-tree over multidimensional points.

    Parameters
    ----------
    dims:
        Dimensionality of the indexed points (2 in all of the paper's
        experiments).
    capacity:
        Maximum number of entries per node; the paper's setup of 1 KByte
        pages corresponds to 50.
    min_fill_ratio:
        Minimum node occupancy as a fraction of ``capacity``.
    split:
        ``"rstar"`` (default) or ``"quadratic"``.
    buffer:
        Optional LRU buffer (see :mod:`repro.storage.buffer`); when
        present, :attr:`stats` additionally distinguishes buffer hits
        from page faults.
    """

    def __init__(
        self,
        dims: int = 2,
        capacity: int = DEFAULT_CAPACITY,
        min_fill_ratio: float = DEFAULT_MIN_FILL_RATIO,
        split: str = "rstar",
        buffer=None,
    ):
        if capacity < 4:
            raise ValueError("node capacity must be at least 4")
        if not 0.0 < min_fill_ratio <= 0.5:
            raise ValueError("min_fill_ratio must be in (0, 0.5]")
        if split not in _SPLIT_FUNCTIONS:
            raise ValueError(f"unknown split strategy {split!r}")
        self.dims = int(dims)
        self.capacity = int(capacity)
        self.min_fill = max(2, int(capacity * min_fill_ratio))
        self._split_entries = _SPLIT_FUNCTIONS[split]
        self.buffer = buffer
        self.stats = TreeStats()
        self.root = Node(0)
        self.size = 0
        # Bulk-loaded (packed) trees may legitimately contain trailing
        # nodes below the dynamic minimum fill; validation relaxes the
        # occupancy check for them.
        self._strict_fill = True

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        points: np.ndarray,
        capacity: int = DEFAULT_CAPACITY,
        method: str = "str",
        buffer=None,
        split: str = "rstar",
        record_ids=None,
    ) -> "RTree":
        """Build a packed tree over a static point set.

        ``method`` selects the packing strategy (``"str"`` or
        ``"hilbert"``).  Record ids default to the row indices of
        ``points``; ``record_ids`` overrides them (the sharding
        partitioner keeps each shard's *global* row numbers this way).

        The packing itself is :meth:`FlatRTree.bulk_load`'s; this thaws
        its arrays into nodes — one ``LeafEntry`` per point, one
        ``ChildEntry`` per page — for callers that go on to mutate or
        inspect the object tree.
        """
        flat = FlatRTree.bulk_load(points, capacity=capacity, method=method, record_ids=record_ids)
        tree = cls(dims=flat.dims, capacity=capacity, buffer=buffer, split=split)
        # Children follow their parents in the snapshot's breadth-first
        # numbering, so walking it backwards meets every child first.
        nodes: list[Node] = [None] * flat.num_nodes
        for index in range(flat.num_nodes - 1, -1, -1):
            start = int(flat.child_start[index])
            stop = start + int(flat.child_count[index])
            if flat.levels[index] == 0:
                entries = [
                    LeafEntry(point, record_id)
                    for point, record_id in zip(flat.points[start:stop], flat.record_ids[start:stop])
                ]
            else:
                entries = [
                    ChildEntry(MBR(flat.lows[child], flat.highs[child]), nodes[child])
                    for child in range(start, stop)
                ]
            nodes[index] = Node(int(flat.levels[index]), entries)
        tree.root = nodes[0]
        tree.size = flat.size
        tree._strict_fill = False
        return tree

    # ------------------------------------------------------------------
    # access accounting
    # ------------------------------------------------------------------
    def read_node(self, node: Node) -> Node:
        """Charge one node access and return the node.

        Traversal code must call this before inspecting a node's
        entries; it is the single point where the "NA" metric and the
        LRU buffer are updated.
        """
        hit = False
        if self.buffer is not None:
            hit = self.buffer.access(node.node_id)
        self.stats.record_node_access(node.is_leaf, buffer_hit=hit)
        return node

    def reset_stats(self) -> None:
        """Zero the access counters (the buffer contents are preserved)."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is a single leaf)."""
        return self.root.level + 1

    def root_mbr(self) -> MBR | None:
        """Tightest MBR of the whole dataset, or None when empty."""
        if self.size == 0:
            return None
        return self.root.compute_mbr()

    def node_count(self) -> int:
        """Total number of nodes in the tree."""
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self):
        """Yield every node (without charging node accesses)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children())

    def all_points(self):
        """Yield ``(record_id, point)`` for every indexed point (no access charges)."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield from node.points()

    def range_search(self, region: MBR) -> list[LeafEntry]:
        """Return every leaf entry whose point lies inside ``region``."""
        results: list[LeafEntry] = []
        if self.size == 0:
            return results
        stack = [self.root]
        while stack:
            node = self.read_node(stack.pop())
            if node.is_leaf:
                for entry in node.entries:
                    if region.contains_point(entry.point):
                        results.append(entry)
            else:
                for entry in node.entries:
                    if region.intersects(entry.mbr):
                        stack.append(entry.child)
        return results

    # ------------------------------------------------------------------
    # insertion (R* with forced reinsertion)
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[float], record_id: int | None = None) -> int:
        """Insert a point and return its record id."""
        p = as_point(point, dims=self.dims)
        if record_id is None:
            record_id = self.size
        self._insert_entry(LeafEntry(p, record_id), level=0, reinserted_levels=set())
        self.size += 1
        return int(record_id)

    def _insert_entry(self, entry, level: int, reinserted_levels: set[int]) -> None:
        path = self._choose_path(entry, level)
        node = path[-1][1] if path else self.root
        node.entries.append(entry)
        self._adjust_path(path)
        if len(node.entries) > self.capacity:
            self._overflow(node, path, reinserted_levels)

    def _choose_path(self, entry, level: int):
        """Descend from the root to the target level, returning [(parent, child), ...]."""
        target_mbr = entry.mbr if isinstance(entry, (LeafEntry, ChildEntry)) else None
        path = []
        node = self.root
        while node.level > level:
            child_entry = rstar.choose_subtree(node, target_mbr)
            path.append((node, child_entry.child))
            node = child_entry.child
        return path

    def _adjust_path(self, path) -> None:
        """Tighten every child MBR along the insertion path, bottom-up."""
        for parent, child in reversed(path):
            for child_entry in parent.entries:
                if child_entry.child is child:
                    child_entry.recompute_mbr()
                    break

    def _overflow(self, node: Node, path, reinserted_levels: set[int]) -> None:
        is_root = node is self.root
        if not is_root and node.level not in reinserted_levels:
            reinserted_levels.add(node.level)
            self._forced_reinsert(node, path, reinserted_levels)
        else:
            self._split_and_propagate(node, path, reinserted_levels)

    def _forced_reinsert(self, node: Node, path, reinserted_levels: set[int]) -> None:
        node_mbr = node.compute_mbr()
        kept, removed = rstar.reinsert_candidates(node, node_mbr)
        node.entries = list(kept)
        self._adjust_path(path)
        for entry in removed:
            self._insert_entry(entry, level=node.level, reinserted_levels=reinserted_levels)

    def _split_and_propagate(self, node: Node, path, reinserted_levels: set[int]) -> None:
        group_a, group_b = self._split_entries(node.entries, self.min_fill)
        node.entries = list(group_a)
        sibling = Node(node.level, group_b)

        if node is self.root:
            new_root = Node(node.level + 1)
            new_root.add(ChildEntry(node.compute_mbr(), node))
            new_root.add(ChildEntry(sibling.compute_mbr(), sibling))
            self.root = new_root
            return

        parent, _ = path[-1]
        for child_entry in parent.entries:
            if child_entry.child is node:
                child_entry.recompute_mbr()
                break
        parent.entries.append(ChildEntry(sibling.compute_mbr(), sibling))
        self._adjust_path(path[:-1])
        if len(parent.entries) > self.capacity:
            self._overflow(parent, path[:-1], reinserted_levels)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, point: Sequence[float], record_id: int) -> bool:
        """Remove the entry with the given point and record id.

        Returns True when an entry was removed.  Underfull nodes are
        condensed: they are removed from the tree and their surviving
        entries re-inserted, as in Guttman's original algorithm.
        """
        p = as_point(point, dims=self.dims)
        found = self._find_leaf(self.root, [], p, record_id)
        if found is None:
            return False
        path, leaf, entry = found
        leaf.entries.remove(entry)
        self.size -= 1
        self._condense(path, leaf)
        # Shrink the root when it is an internal node with one child.
        while not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child
        return True

    def _find_leaf(self, node: Node, path, point: np.ndarray, record_id: int):
        if node.is_leaf:
            for entry in node.entries:
                if entry.record_id == record_id and np.array_equal(entry.point, point):
                    return path, node, entry
            return None
        for child_entry in node.entries:
            if child_entry.mbr.contains_point(point):
                found = self._find_leaf(
                    child_entry.child, path + [(node, child_entry.child)], point, record_id
                )
                if found is not None:
                    return found
        return None

    def _condense(self, path, node: Node) -> None:
        orphans: list[tuple[int, object]] = []
        current = node
        for parent, child in reversed(path):
            if len(current.entries) < self.min_fill:
                parent.entries = [e for e in parent.entries if e.child is not current]
                orphans.extend((current.level, entry) for entry in current.entries)
            else:
                for child_entry in parent.entries:
                    if child_entry.child is current:
                        child_entry.recompute_mbr()
                        break
            current = parent
        for level, entry in orphans:
            self._insert_entry(entry, level=level, reinserted_levels=set())

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants of the tree; raise AssertionError on violation."""
        if self.size == 0:
            return
        leaf_levels: set[int] = set()
        point_count = self._validate_node(self.root, None, leaf_levels, is_root=True)
        assert point_count == self.size, (
            f"tree holds {point_count} points but size says {self.size}"
        )
        assert leaf_levels == {0}, f"leaves found at levels {leaf_levels}, expected only level 0"

    def _validate_node(self, node: Node, bounding: MBR | None, leaf_levels: set[int], is_root: bool) -> int:
        if not is_root:
            minimum = self.min_fill if self._strict_fill else 1
            assert len(node.entries) >= minimum, (
                f"node {node.node_id} underfull: {len(node.entries)} < {minimum}"
            )
        assert len(node.entries) <= self.capacity, (
            f"node {node.node_id} overfull: {len(node.entries)} > {self.capacity}"
        )
        node_mbr = node.compute_mbr()
        if bounding is not None:
            assert bounding.contains(node_mbr), (
                f"child MBR {node_mbr} escapes its parent entry {bounding}"
            )
        if node.is_leaf:
            leaf_levels.add(node.level)
            return len(node.entries)
        count = 0
        for entry in node.entries:
            assert entry.child.level == node.level - 1, "child level mismatch"
            assert entry.mbr.contains(entry.child.compute_mbr()), "stale child MBR"
            count += self._validate_node(entry.child, entry.mbr, leaf_levels, is_root=False)
        return count

    def __repr__(self) -> str:
        return (
            f"RTree(size={self.size}, dims={self.dims}, height={self.height}, "
            f"capacity={self.capacity})"
        )
