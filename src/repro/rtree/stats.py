"""Node-access and computation accounting.

The paper's experiments report two cost metrics per query: the number of
R-tree node accesses ("NA") and CPU time.  A query charges its node
reads (logical accesses and, with an LRU buffer, page faults) and
distance computations to its own :class:`~repro.core.types.QueryCost`,
which extends :class:`TreeStats`; an index's ``stats`` is the sum of
its finished queries (``FlatRTree.record_query``), plus whatever raw
streams run without a record charge to it directly.  ``snapshot()``,
``reset()`` and ``merge()`` come from
:class:`~repro.storage.counters.CounterSet`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.counters import CounterSet


@dataclass
class TreeStats(CounterSet):
    """Node-access and distance counters: an index's running total, or one query's.

    Attributes
    ----------
    node_accesses:
        Logical node reads (every time a traversal inspects the entries
        of a node).  This is the "NA" metric of the paper's figures.
    leaf_accesses:
        Subset of ``node_accesses`` that touched leaf nodes.
    page_faults:
        Node reads that missed the LRU buffer (equals ``node_accesses``
        when no buffer is configured).
    distance_computations:
        Point-to-point or point-to-MBR distance evaluations charged by
        the GNN algorithms; a proxy for CPU cost that is independent of
        the host machine.
    """

    node_accesses: int = 0
    leaf_accesses: int = 0
    page_faults: int = 0
    distance_computations: int = 0

    def record_node_access(self, is_leaf: bool, buffer_hit: bool = False) -> None:
        """Charge one node read (leaf or internal), noting whether the buffer hit."""
        self.node_accesses += 1
        if is_leaf:
            self.leaf_accesses += 1
        if not buffer_hit:
            self.page_faults += 1

    def record_distance_computations(self, count: int = 1) -> None:
        """Charge ``count`` distance evaluations."""
        self.distance_computations += count
