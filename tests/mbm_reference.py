"""Eager-key MBM: the reference ``repro.core.mbm`` is proven against.

This is the traversal MBM ran before its keys were deferred: every child
that survives Heuristic 2 pays its full lower bound when its parent is
read — the tangent bound plus, for internal children, the paper's
``sum_i mindist(N, q_i)`` (``2n`` distances), or the aggregate mindist
for ``max``/``min`` — and is pushed under it.  Leaf points are visited in
ascending ``mindist(p, M)`` (Heuristic 2's order).  The production
driver computes a child's own bound only once it reaches the heap head;
the differential tests require the same neighbours and distances from
it, and never more node accesses.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from repro.core.heuristics import (
    heuristic2_prunes,
    heuristic2_prunes_batch,
    heuristic3_prunes_batch,
    heuristic3_prunes_precomputed,
)
from repro.core.instrumentation import CostTracker
from repro.core.mbm import _divisor, _tangent_anchor
from repro.core.types import BestList, GNNResult
from repro.geometry import kernels


def mbm_reference(flat, query, use_heuristic3=True, overlay=None, within=math.inf) -> GNNResult:
    tracker = CostTracker("MBM-best_first", trees=[flat])
    best = BestList(query.k, within)
    exclude = None
    if overlay is not None:
        points, record_ids = overlay.delta_points()
        if len(record_ids):
            _process_leaf(flat, points, record_ids, query, best, _divisor(query))
        exclude = overlay.tombstones or None
    if len(flat) > 0:
        _mbm_best_first(flat, query, best, use_heuristic3, exclude)
    return GNNResult(neighbors=best.neighbors(), cost=tracker.finish())


def _mbm_best_first(flat, query, best, use_heuristic3, exclude=None) -> None:
    query_mbr = query.mbr
    divisor = _divisor(query)
    counter = itertools.count()
    heap: list[tuple[float, int, int]] = [(0.0, next(counter), 0)]
    tangent = use_heuristic3 and query.aggregate == kernels.SUM
    if tangent:
        anchor = _tangent_anchor(flat.stats, query.points, query.weights)

    while heap:
        key, _, node_id = heapq.heappop(heap)
        if use_heuristic3:
            if heuristic3_prunes_precomputed(key, best.best_dist):
                break
        elif heuristic2_prunes(key, best.best_dist, divisor):
            break
        index = flat.read_node(node_id)
        start = int(flat.child_start[index])
        stop = start + int(flat.child_count[index])
        if flat.levels[index] == 0:
            _process_leaf(
                flat, flat.points[start:stop], flat.record_ids[start:stop],
                query, best, divisor, exclude,
            )
            continue
        lows = flat.lows[start:stop]
        highs = flat.highs[start:stop]
        keys = kernels.boxes_mindist_box(lows, highs, query_mbr.low, query_mbr.high)
        flat.stats.record_distance_computations(stop - start)
        survivors = np.flatnonzero(~heuristic2_prunes_batch(keys, best.best_dist, divisor))
        if use_heuristic3 and survivors.size:
            lows, highs = lows[survivors], highs[survivors]
            wide = tangent and bool(flat.levels[index] > 1)  # the children are internal nodes
            if tangent:
                bounds = kernels.boxes_group_tangent_bound(
                    lows, highs, query.points, anchor, query.weights
                )
            else:
                bounds = query.mindist_lower_bounds(lows, highs)
            if wide:
                bounds = np.maximum(bounds, query.mindist_lower_bounds(lows, highs))
            if tangent:
                bounds = np.maximum(np.maximum(bounds, divisor * keys[survivors]), key)
            flat.stats.record_distance_computations((1 + wide) * query.cardinality * survivors.size)
            kept = ~heuristic3_prunes_batch(bounds, best.best_dist)
            survivors, keys = survivors[kept], bounds[kept]
        else:
            keys = keys[survivors]
        for child_key, offset in zip(keys.tolist(), survivors.tolist()):
            heapq.heappush(heap, (child_key, next(counter), start + offset))


def _process_leaf(flat, points, record_ids, query, best, divisor, exclude=None) -> None:
    query_mbr = query.mbr
    mindists = kernels.points_mindist_box(points, query_mbr.low, query_mbr.high)
    flat.stats.record_distance_computations(len(points))
    order = np.argsort(mindists, kind="stable")
    if best.best_dist < math.inf:
        candidates = order[~heuristic2_prunes_batch(mindists[order], best.best_dist, divisor)]
    else:
        candidates = order
    if candidates.size == 0:
        return
    candidate_mindists = mindists[candidates].tolist()
    chunk = flat.capacity
    candidate_distances: list[float] = []
    offer = best.offer
    best_dist = best.best_dist
    bounded = best_dist < math.inf
    consumed = 0
    for position, offset in enumerate(candidates.tolist()):
        if bounded and candidate_mindists[position] >= best_dist / divisor:
            break
        if position == len(candidate_distances):
            part = candidates[position : position + chunk]
            candidate_distances += query.distances_to(points[part]).tolist()
        if exclude is not None and int(record_ids[offset]) in exclude:
            continue
        consumed += 1
        distance = candidate_distances[position]
        if distance < best_dist:
            offer(int(record_ids[offset]), points[offset], distance)
            best_dist = best.best_dist
            bounded = best_dist < math.inf
    flat.stats.record_distance_computations(query.cardinality * consumed)
