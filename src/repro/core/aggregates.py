"""Aggregate-generalised group nearest neighbor search (extension feature).

Section 6 of the paper lists "other distance metrics" and aggregate
variations of GNN search as future work; this module provides the
natural generalisation: an optimal best-first traversal whose priority
is the aggregate lower bound of the group distance.  Because the per
point key is the *exact* aggregate distance and the node key is a lower
bound of it, the stream yields data points in ascending aggregate
distance — taking the first ``k`` items is therefore an exact algorithm
for sum, max and min aggregates (including weighted variants).

For the sum aggregate the traversal degenerates into an MBM-like search
with Heuristic 3 as the priority, which is also handy in tests as an
independent exact method to cross-check the paper's algorithms.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.core.mbm import seed_from_delta
from repro.core.types import BestList, GNNResult, GroupQuery, QueryCost
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.rtree.traversal import Neighbor, flat_incremental_nearest_generic


def group_nn_stream(tree: FlatRTree, query: GroupQuery, cost=None) -> Iterator[Neighbor]:
    """Yield data points in ascending aggregate distance to the query group.

    The stream is incremental: consuming it lazily retrieves additional
    group neighbors without restarting the search, which is exactly the
    capability F-MQM needs from its per-block searches.  Every node read
    and distance computation is charged to ``cost`` (not counted when
    ``None``).
    """
    if cost is None:
        cost = QueryCost()  # a record nobody reads: the stream is not counted

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

    ``overlay`` carries pending writes over ``tree`` (its ``base``).
    The delta seeds the best list (:func:`~repro.core.mbm.seed_from_delta`)
    and the stream is consumed until it emits a distance that cannot
    beat the k-th best, which the ascending emission order makes final.
    Tombstoned records are still emitted — they are real index entries —
    but never offered.  Only records with aggregate distance
    ``<= within`` are returned; the stream stops at the first emission
    past it.
    """
    cost = QueryCost(algorithm=f"best-first-{query.aggregate}")
    best = BestList(query.k, within)
    exclude = seed_from_delta(tree, query, best, overlay, cost)
    for neighbor in group_nn_stream(tree, query, cost):
        if exclude is None or neighbor.record_id not in exclude:
            best.offer(neighbor.record_id, neighbor.point, neighbor.distance)
        if neighbor.distance >= best.best_dist:
            break
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())
