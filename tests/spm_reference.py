"""SPM as a consumer of the centroid's incremental NN stream: the reference ``repro.core.spm`` is proven against.

This is the traversal SPM ran before it became MBM's loop under
Heuristic 1's key.  Over a dirty overlay the delta is scanned first
(:func:`repro.core.mbm.seed_from_delta`, in ascending Heuristic-2 page
key), then an incremental nearest-neighbor stream around the centroid
``c`` is consumed — ``flat_incremental_nearest_generic`` as it was with
its ``points_aux`` channel: nodes and points in one heap, in ascending
``mindist(., c)``, each leaf's exact aggregate distances computed in one
kernel call and carried beside its points — until the first point
failing Heuristic 1, ``|p c| >= (best_dist + dist(c, Q)) / n``.  The
stream tests Heuristic 1 on points only, so it reads every node that
reaches its head before the next point does, including nodes the
heuristic already excludes.

The production SPM stops at the key instead: the differential test
requires its neighbours and distances, and never more node accesses;
the CPU smoke guard times it against this.
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.core.centroid import compute_centroid
from repro.core.mbm import seed_from_delta
from repro.core.types import BestList, GNNResult, QueryCost
from repro.geometry import kernels
from repro.geometry.distance import group_distance


def spm_reference(tree, query, centroid_method="gradient", overlay=None, within=math.inf):
    cost = QueryCost(algorithm="SPM-best_first")
    best = BestList(query.k, within)
    exclude = seed_from_delta(tree, query, best, overlay, cost)
    if len(tree) > 0:
        centroid = compute_centroid(query.points, method=centroid_method)
        centroid_distance = group_distance(centroid, query.points)
        _consume(tree, query, centroid, centroid_distance, best, cost, exclude)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _consume(flat, query, centroid, centroid_distance, best, cost, exclude) -> None:
    """Consume the centroid's stream until Heuristic 1 fires, charging ``n`` per point consumed."""
    n = query.cardinality

    def points_key(points):
        return kernels.point_distances(points, centroid)

    def mbrs_key(lows, highs):
        return kernels.boxes_mindist_point(lows, highs, centroid)

    stream = _stream_with_aux(flat, points_key, mbrs_key, query.distances_to, cost)
    offer = best.offer
    consumed = 0
    best_dist = best.best_dist
    for neighbor in stream:
        # neighbor.distance is |p c|; the stream is ascending in it, so the
        # first point failing Heuristic 1 terminates the whole search.
        if neighbor.distance >= (best_dist + centroid_distance) / n:
            break
        if exclude is not None and neighbor.record_id in exclude:
            continue
        consumed += 1
        distance = neighbor.aux
        if distance < best_dist:
            offer(neighbor.record_id, neighbor.point, distance)
            best_dist = best.best_dist
    cost.record_distance_computations(n * consumed)


class _Neighbor:
    """A streamed point: its key, and ``aux``, its exact aggregate distance."""

    __slots__ = ("record_id", "point", "distance", "aux")

    def __init__(self, record_id, point, distance, aux):
        self.record_id = int(record_id)
        self.point = point
        self.distance = float(distance)
        self.aux = aux


def _stream_with_aux(flat, points_key, mbrs_key, points_aux, cost):
    """``flat_incremental_nearest_generic`` with one extra value per point, ``points_aux``.

    Nodes are ``(bound, tie, node)`` heap entries and leaf points
    ``(key, tie, row, record_id, aux)``, pushed in storage order; a
    leaf's keys and ``aux`` values come from one kernel call each, and
    node reads are charged to ``cost``.
    """
    counter = itertools.count()
    heap = [(float(mbrs_key(flat.lows[0:1], flat.highs[0:1])[0]), next(counter), 0)]
    while heap:
        item = heapq.heappop(heap)
        if len(item) != 3:
            yield _Neighbor(item[3], flat.points[item[2]], item[0], item[4])
            continue
        index = flat.read_node(item[2], cost)
        start = int(flat.child_start[index])
        stop = start + int(flat.child_count[index])
        if flat.levels[index] == 0:
            points = flat.points[start:stop]
            values = points_key(points).tolist()
            aux_values = points_aux(points).tolist()
            ids = flat.record_ids[start:stop].tolist()
            row = start
            for value, record_id, aux in zip(values, ids, aux_values):
                heapq.heappush(heap, (value, next(counter), row, record_id, aux))
                row += 1
        else:
            bounds = mbrs_key(flat.lows[start:stop], flat.highs[start:stop]).tolist()
            for offset, bound in enumerate(bounds):
                heapq.heappush(heap, (bound, next(counter), start + offset))
