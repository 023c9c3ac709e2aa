"""The R-tree the GNN algorithms run over, and its search primitives.

The package provides:

* :class:`~repro.rtree.flat.FlatRTree` — the array-backed R-tree
  snapshot, the one index every query traverses; ``bulk_load`` packs a
  static point set straight into its arrays, and ``read_node`` charges
  each node read to the reading query's
  :class:`~repro.core.types.QueryCost` (the "NA" of the paper's
  experiments),
* :mod:`repro.rtree.bulkload` — the STR leaf order behind that packing,
  tiled over every axis (array sorts, no object per point),
* the best-first (incremental) nearest-neighbor stream F-MQM consumes,
  and the multi-stream frontier MQM drives, in
  :mod:`repro.rtree.traversal`,
* an incremental closest-pair join over two snapshots in
  :mod:`repro.rtree.closest_pairs` (needed by the GCP algorithm of
  Section 4.1 of the paper),
* a mutable view over a frozen snapshot — an append-only point array
  of inserts plus tombstones — in :mod:`repro.rtree.overlay` (the
  engine's LSM-style write path).
"""

from repro.rtree.closest_pairs import incremental_closest_pairs
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.rtree.traversal import flat_incremental_nearest_generic

__all__ = [
    "DeltaOverlay",
    "FlatRTree",
    "flat_incremental_nearest_generic",
    "incremental_closest_pairs",
]
