"""Generator-per-stream MQM: the reference ``repro.core.mqm`` is proven against.

This is the paper's Figure 3.2 written the obvious way — ``n``
independent :func:`~traversal_reference.incremental_nearest`
generators (each a ``flat_incremental_nearest_generic`` stream)
combined round-robin with the threshold rule, one per-point aggregate
distance (:func:`_distance_to`) and one ``n``-sized distance charge per
newly seen record.  The production driver replaces the generators with
one :class:`~repro.rtree.traversal.MultiStreamFrontier`; the conformance
tests require it to be indistinguishable from this driver: same
neighbors, same node/leaf/distance counters, same LRU hit/miss sequence.
"""

from traversal_reference import incremental_nearest

from repro.core.types import BestList, GNNResult, GroupQuery, QueryCost
from repro.geometry import kernels
from repro.geometry.hilbert import hilbert_sort
from repro.rtree.flat import FlatRTree


def mqm_reference(flat: FlatRTree, query: GroupQuery, exclude=None) -> GNNResult:
    cost = QueryCost(algorithm="MQM")
    best = BestList(query.k)
    if len(flat) == 0:
        return GNNResult(neighbors=[], cost=cost.finish())

    # Sort query points by Hilbert value for locality of node accesses.
    order = hilbert_sort(query.points)
    query_points = query.points[order]
    n = query.cardinality

    streams = [incremental_nearest(flat, q, cost) for q in query_points]
    thresholds = [0.0] * n
    exhausted = [False] * n
    seen_distances: dict[int, float] = {}

    while True:
        if best.is_full() and sum(thresholds) >= best.best_dist:
            break
        if all(exhausted):
            break
        progressed = False
        for i in range(n):
            if exhausted[i]:
                continue
            neighbor = next(streams[i], None)
            if neighbor is None:
                exhausted[i] = True
                continue
            progressed = True
            thresholds[i] = neighbor.distance
            record_id = neighbor.record_id
            # Tombstoned records advance the stream's threshold but are
            # barred from the best list (and not charged a distance).
            if exclude is None or record_id not in exclude:
                if record_id in seen_distances:
                    distance = seen_distances[record_id]
                else:
                    distance = _distance_to(query, neighbor.point)
                    cost.record_distance_computations(n)
                    seen_distances[record_id] = distance
                best.offer(record_id, neighbor.point, distance)
            # Re-check the termination condition after every retrieval,
            # exactly as in the paper's pseudo-code (Figure 3.2).
            if best.is_full() and sum(thresholds) >= best.best_dist:
                break
        if not progressed:
            break
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _distance_to(query: GroupQuery, point) -> float:
    """``dist(p, Q)`` of one leaf point: its distances to the group, reduced."""
    distances = kernels.point_distances(query.points, point)
    return float(kernels.reduce_aggregate(distances, query.aggregate, query.weights))
