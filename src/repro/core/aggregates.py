"""Aggregate-generalised group nearest neighbor search (extension feature).

Section 6 of the paper lists "other distance metrics" and aggregate
variations of GNN search as future work; this module provides the
natural generalisation (Papadias et al., "Aggregate Nearest Neighbor
Queries in Spatial Databases", TODS 2005): best-first search ordered by
the aggregate lower bound of the group distance, for sum, max and min
aggregates (including weighted variants).

:func:`aggregate_gnn` (``algorithm="best-first"``) is MBM's loop keyed
by the paper's Heuristic 3 bound alone.  Because a node's key
lower-bounds the aggregate distance of every point under it, stopping
when the smallest key left reaches the k-th best is exact.  For ``max``
and ``min`` this is the traversal :func:`repro.core.mbm.mbm` runs; for
the sum aggregate it is MBM without the tangent plane, the paper-key
ablation.

:func:`group_nn_stream` is the same bound as an incremental stream, the
group-NN stream F-MQM consumes block by block.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.core.mbm import _PAPER, _delta, _mbm_best_first
from repro.core.types import BestList, GNNResult, GroupQuery, QueryCost
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.rtree.traversal import Neighbor, flat_incremental_nearest_generic


def group_nn_stream(tree: FlatRTree, query: GroupQuery, cost: QueryCost) -> Iterator[Neighbor]:
    """Yield data points in ascending aggregate distance to the query group.

    The stream is incremental: consuming it lazily retrieves additional
    group neighbors without restarting the search, which is exactly the
    capability F-MQM needs from its per-block searches.  Every node read
    and distance computation is charged to ``cost``.
    """

    def points_key(points):
        cost.record_distance_computations(query.cardinality * points.shape[0])
        return query.distances_to(points)

    def mbrs_key(lows, highs):
        cost.record_distance_computations(query.cardinality * lows.shape[0])
        return query.mindist_lower_bounds(lows, highs)

    return flat_incremental_nearest_generic(tree, points_key, mbrs_key, cost=cost)


def aggregate_gnn(
    tree: FlatRTree,
    query: GroupQuery,
    overlay: DeltaOverlay | None = None,
    within: float = math.inf,
) -> GNNResult:
    """Exact k-GNN retrieval for any supported aggregate via best-first search.

    This is MBM's loop (:func:`repro.core.mbm._mbm_best_first`) in its
    paper-key mode, the one ``mbm`` runs for ``max``/``min``: reading a
    node keys each child by ``query.mindist_lower_bounds`` (``n``
    distance computations), with no tangent plane and no deferral, and a
    read leaf's rows are all offered at once under the leaf's own key.  Nodes are read in
    ascending bound until it reaches ``best_dist``.  ``overlay`` carries
    pending writes over ``tree`` (its ``base``): the delta's pages join
    the run heap under Heuristic 2's key, as MBM's do, and tombstoned
    records are skipped at the leaves.  Only records with aggregate
    distance ``<= within`` are returned.
    """
    cost = QueryCost(algorithm=f"best-first-{query.aggregate}")
    best = BestList(query.k, within)
    pages, exclude = _delta(tree, overlay)
    _mbm_best_first(tree, query, best, _PAPER, cost, exclude, pages=pages)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())
