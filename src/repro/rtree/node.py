"""R-tree nodes.

Nodes are kept in memory (the disk is simulated by the access counters
and the optional LRU buffer); a node corresponds to one disk page of the
paper's setup, with a configurable entry capacity (the paper uses 1 KByte
pages holding 50 entries).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.geometry.mbr import MBR
from repro.rtree.entry import ChildEntry, LeafEntry, entries_mbr

_node_id_counter = itertools.count()


def reserve_node_ids(count: int) -> np.ndarray:
    """Draw ``count`` page ids from the counter every :class:`Node` draws from.

    The array packer numbers a whole snapshot this way, so its pages
    never collide with another snapshot's or a dynamic tree's in a
    shared LRU buffer.
    """
    return np.fromiter(
        itertools.islice(_node_id_counter, count), dtype=np.int64, count=count
    )


class Node:
    """A single R-tree node (one simulated disk page).

    Attributes
    ----------
    level:
        0 for leaves, increasing towards the root.
    entries:
        ``LeafEntry`` objects when ``level == 0``; ``ChildEntry``
        objects otherwise.
    node_id:
        A process-unique identifier used as the page id by the buffer
        manager.
    """

    __slots__ = ("level", "entries", "node_id")

    def __init__(self, level: int, entries=None):
        self.level = int(level)
        self.entries: list = list(entries) if entries is not None else []
        self.node_id = next(_node_id_counter)

    @property
    def is_leaf(self) -> bool:
        """True for level-0 nodes, which hold data points."""
        return self.level == 0

    def __len__(self) -> int:
        return len(self.entries)

    def compute_mbr(self) -> MBR:
        """Tightest MBR covering every entry of the node."""
        return entries_mbr(self.entries)

    def add(self, entry) -> None:
        """Append an entry, verifying it matches the node's level."""
        if self.is_leaf and not isinstance(entry, LeafEntry):
            raise TypeError("leaf nodes only accept LeafEntry objects")
        if not self.is_leaf and not isinstance(entry, ChildEntry):
            raise TypeError("internal nodes only accept ChildEntry objects")
        self.entries.append(entry)

    def children(self):
        """Iterate over child nodes (internal nodes only)."""
        if self.is_leaf:
            raise TypeError("leaf nodes have no children")
        return (entry.child for entry in self.entries)

    def points(self):
        """Iterate over (record_id, point) pairs (leaf nodes only)."""
        if not self.is_leaf:
            raise TypeError("internal nodes hold no points")
        return ((entry.record_id, entry.point) for entry in self.entries)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"level-{self.level}"
        return f"Node(id={self.node_id}, {kind}, entries={len(self.entries)})"
