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

:func:`mbm_batch_reference` is the shared traversal under the same eager
keys: one heap entry per node carries every member's key as a ``(B,)``
vector, every child and every leaf point is scored for every active
member, and the top-k lists are ``(B, k)`` arrays whose k-th-distance
ties go to the smallest record ids.  A production batch — solo ``mbm``
per member inside one ``flat.read_scope()`` — must return the same
distances, and the CPU smoke guard times it against this.

:func:`mbm_seed_first` is MBM over a dirty overlay as it ran before the
delta was paged into the heap: the whole delta is scanned first, as one
leaf keyed by Heuristic 2 (:func:`_process_leaf`: a mindist per row,
``n`` distances per row it cannot prune), then the base is traversed by
the production loop, in the mode ``mbm`` picks, with no delta.  Paged
MBM must return its neighbours and distances, read exactly its nodes
and charge no more distance computations (the differential test and the
CPU smoke guard).
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from heuristics_reference import (
    heuristic2_prunes,
    heuristic2_prunes_batch,
    heuristic3_prunes_batch,
    heuristic3_prunes_precomputed,
)

from repro.core.mbm import _divisor, _mbm_best_first as _mbm_base_traversal, _mode, _tangent_anchor
from repro.core.types import BestList, GNNResult, GroupNeighbor, QueryCost
from repro.geometry import kernels
from repro.rtree.flat import FlatRTree


def mbm_reference(flat, query, use_heuristic3=True, overlay=None, within=math.inf) -> GNNResult:
    cost = QueryCost(algorithm="MBM-best_first")
    best = BestList(query.k, within)
    exclude = None
    if overlay is not None:
        points, record_ids = overlay.delta_points()
        if len(record_ids):
            _process_leaf(flat, points, record_ids, query, best, _divisor(query), cost)
        exclude = overlay.tombstones or None
    if len(flat) > 0:
        _mbm_best_first(flat, query, best, use_heuristic3, cost, exclude)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def mbm_seed_first(tree, query, use_heuristic3=True, overlay=None, within=math.inf) -> GNNResult:
    cost = QueryCost(algorithm="MBM-best_first")
    best = BestList(query.k, within)
    exclude = None
    if overlay is not None:
        if overlay.base is not tree:
            raise ValueError("the overlay must shadow the tree being traversed")
        points, record_ids = overlay.delta_points()
        if len(record_ids):
            _process_leaf(tree, points, record_ids, query, best, _divisor(query), cost)
        exclude = overlay.tombstones or None
    if len(tree) > 0:
        mode = _mode(query, use_heuristic3)
        _mbm_base_traversal(tree, query, best, mode, cost, exclude)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _mbm_best_first(flat, query, best, use_heuristic3, cost, exclude=None) -> None:
    query_mbr = query.mbr
    divisor = _divisor(query)
    counter = itertools.count()
    heap: list[tuple[float, int, int]] = [(0.0, next(counter), 0)]
    tangent = use_heuristic3 and query.aggregate == kernels.SUM
    if tangent:
        anchor = _tangent_anchor(cost, query.points, query.weights)

    while heap:
        key, _, node_id = heapq.heappop(heap)
        if use_heuristic3:
            if heuristic3_prunes_precomputed(key, best.best_dist):
                break
        elif heuristic2_prunes(key, best.best_dist, divisor):
            break
        index = flat.read_node(node_id, cost)
        start = int(flat.child_start[index])
        stop = start + int(flat.child_count[index])
        if flat.levels[index] == 0:
            _process_leaf(
                flat, flat.points[start:stop], flat.record_ids[start:stop],
                query, best, divisor, cost, exclude,
            )
            continue
        lows = flat.lows[start:stop]
        highs = flat.highs[start:stop]
        keys = kernels.boxes_mindist_box(lows, highs, query_mbr.low, query_mbr.high)
        cost.record_distance_computations(stop - start)
        survivors = np.flatnonzero(~heuristic2_prunes_batch(keys, best.best_dist, divisor))
        if use_heuristic3 and survivors.size:
            lows, highs = lows[survivors], highs[survivors]
            wide = tangent and bool(flat.levels[index] > 1)  # the children are internal nodes
            if tangent:
                bounds = boxes_group_tangent_bound(
                    lows, highs, query.points, anchor, query.weights
                )
            else:
                bounds = query.mindist_lower_bounds(lows, highs)
            if wide:
                bounds = np.maximum(bounds, query.mindist_lower_bounds(lows, highs))
            if tangent:
                bounds = np.maximum(np.maximum(bounds, divisor * keys[survivors]), key)
            cost.record_distance_computations((1 + wide) * query.cardinality * survivors.size)
            kept = ~heuristic3_prunes_batch(bounds, best.best_dist)
            survivors, keys = survivors[kept], bounds[kept]
        else:
            keys = keys[survivors]
        for child_key, offset in zip(keys.tolist(), survivors.tolist()):
            heapq.heappush(heap, (child_key, next(counter), start + offset))


def _process_leaf(flat, points, record_ids, query, best, divisor, cost, exclude=None) -> None:
    query_mbr = query.mbr
    mindists = kernels.points_mindist_box(points, query_mbr.low, query_mbr.high)
    cost.record_distance_computations(len(points))
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
        if bounded and divisor * candidate_mindists[position] >= best_dist:
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
    cost.record_distance_computations(query.cardinality * consumed)


def boxes_group_tangent_bound(lows, highs, group, anchor, weights=None) -> np.ndarray:
    """Convexity lower bound of ``sum_i w_i |p - q_i|`` over each of ``m`` boxes.

    Each box's own plane (``kernels.group_tangent_planes``) minimised
    over it (``kernels.plane_lower_bounds``): ``n`` distance evaluations
    per box.  Shapes as ``group_tangent_planes``; the result is ``(m,)``.
    """
    planes = kernels.group_tangent_planes(lows, highs, group, anchor, weights)
    return kernels.plane_lower_bounds(*planes, lows, highs)


def stacked_tangent_bounds(lows, highs, groups, anchors) -> np.ndarray:
    """:func:`boxes_group_tangent_bound` of ``(m, dims)`` boxes for ``B`` unweighted groups at once.

    ``groups`` is ``(B, n, dims)`` and ``anchors`` ``(B, dims)``; the
    result is ``(B, m)``, row ``b`` bit-identical to the per-group call:
    ``kernels.group_tangent_planes``' arithmetic with a leading member
    axis, so :func:`mbm_batch_reference` keys a child slice for all its
    members in one call.
    """
    origins = np.minimum(np.maximum(anchors[:, None, :], lows), highs)  # (B, m, dims)
    deltas = np.subtract(
        origins.transpose(2, 0, 1)[..., None], groups.transpose(2, 0, 1)[:, :, None, :], order="C"
    )  # (dims, B, m, n)
    dist = np.add.reduce(deltas * deltas, axis=0)
    np.sqrt(dist, out=dist)
    values = np.add.reduce(dist, axis=-1)
    np.putmask(dist, dist == 0.0, np.inf)
    deltas /= dist
    gradients = np.add.reduce(deltas, axis=-1).transpose(1, 2, 0)  # (B, m, dims)
    values *= 1.0 - kernels.TANGENT_MARGIN
    values -= (kernels.TANGENT_MARGIN * groups.shape[1]) * np.add.reduce(highs - lows, axis=-1)
    return kernels.plane_lower_bounds(values, gradients, origins, lows, highs)


def batched_aggregate_distances(points, groups, aggregate=kernels.SUM) -> np.ndarray:
    """Aggregate distances of ``(N, d)`` points against ``(B, n, d)`` stacked groups.

    Returns a ``(B, N)`` array whose row ``b`` equals
    ``kernels.aggregate_distances`` against ``groups[b]``, bit for bit:
    the same axis-major ``(dims, B, N, n)`` stack of differences, squared
    and added axis by axis, then rooted and reduced over the contiguous
    query axis.  :func:`mbm_batch_reference` scores a leaf for every
    member in one call with it.
    """
    columns = groups.transpose(2, 0, 1)[:, :, None, :]
    terms = np.subtract(points.T[:, None, :, None], columns, order="C")
    return kernels.reduce_aggregate(np.sqrt(np.add.reduce(terms * terms, axis=0)), aggregate)


def mbm_batch_reference(
    flat: FlatRTree, groups: np.ndarray, k: int, use_heuristic3: bool = True
) -> list[GNNResult]:
    """Answer ``B`` unweighted sum-MBM queries with one shared traversal.

    ``groups`` is a ``(B, n, dims)`` stack of query groups (equal
    cardinality is the stacking requirement).  The snapshot is traversed *once* for the whole
    batch: every node is read at most one time, its child slice (or leaf
    slice) is scored against all still-active queries in a single
    ``(B, m)`` / ``(B, fanout)`` kernel call, and per-query top-``k``
    state is maintained as ``(B, k)`` arrays.  Heuristics 2 and 3 prune
    per query exactly as in :func:`mbm` (same keys, bit for bit), and an
    entry is keyed on the smallest key among the queries that still need
    it, so every answer is exact and the nodes read are the union of the
    nodes the ``B`` solo traversals read.  The traversal stops once the
    heap head reaches the largest per-query threshold: every entry left
    is inactive for every query.

    Aggregate distances come from the same bit-identical kernels the
    per-query path uses, so returned distances equal per-query
    :func:`mbm` distances float for float.  Exact *ties* in the k-th
    distance at the selection boundary are resolved canonically — the
    tied slots go to the smallest record ids — whereas the per-query
    path keeps the first record its traversal encountered; on such ties
    (and only there) the two paths may return different, equally
    distant records.
    Record ids are assumed unique (engine snapshots index by row).

    Cost reporting follows the shared execution: every result carries
    the *bucket-level* node-access and distance-computation counters of
    the one traversal (``algorithm="MBM-batch"``), with the CPU time
    split evenly — per-query counters would be fiction here, since the
    whole point is that the batch does not pay per-query traversal
    costs.
    """
    groups = np.ascontiguousarray(np.asarray(groups, dtype=np.float64))
    if groups.ndim != 3:
        raise ValueError(f"expected stacked (B, n, dims) groups, got shape {groups.shape}")
    batch, cardinality, dims = groups.shape
    if dims != flat.dims:
        raise ValueError(f"groups have dimensionality {dims}, the snapshot {flat.dims}")
    if k < 1:
        raise ValueError("k must be at least 1")
    cost = QueryCost(algorithm="MBM-batch")
    if len(flat) == 0:
        cost.finish()
        # One QueryCost per result — results must never share a
        # mutable cost object.
        return [
            GNNResult(neighbors=[], cost=QueryCost(**cost.as_dict())) for _ in range(batch)
        ]

    # Bit-identical to MBR.from_points on each group (same min/max).
    query_lows = groups.min(axis=1)
    query_highs = groups.max(axis=1)
    divisor = float(cardinality)
    if use_heuristic3:
        anchors = np.stack([_tangent_anchor(cost, group) for group in groups])
    points = flat.points
    record_ids = flat.record_ids

    top_dists = np.full((batch, k), np.inf)
    top_rows = np.full((batch, k), -1, dtype=np.int64)
    best_dist = np.full(batch, np.inf)

    counter = itertools.count()
    heap: list[tuple] = [(0.0, next(counter), 0, np.zeros(batch))]
    # The largest per-query threshold: an entry keyed at or past it is
    # inactive for every query, and so is everything behind it.
    limit = np.inf

    while heap and heap[0][0] < limit:
        _, _, node_id, key_vec = heapq.heappop(heap)
        # Per query, the heuristic the entry is keyed on (thresholds only
        # shrink, so a query pruned at push time stays pruned here).
        active = key_vec < (best_dist if use_heuristic3 else best_dist / divisor)
        if not active.any():
            continue
        # The query that ranked this entry first may be done with it:
        # requeue under the smallest key of the queries still active.
        live_key = float(key_vec[active].min())
        if heap and live_key > heap[0][0]:
            heapq.heappush(heap, (live_key, next(counter), node_id, key_vec))
            continue
        index = flat.read_node(node_id, cost)
        start = int(flat.child_start[index])
        count = int(flat.child_count[index])
        stop = start + count
        if flat.levels[index] == 0:
            members = np.flatnonzero(active)
            coords = points[start:stop]
            distances = batched_aggregate_distances(coords, groups[members])
            cost.record_distance_computations(cardinality * count * members.size)
            rows = np.arange(start, stop, dtype=np.int64)
            merged_dists = np.concatenate((top_dists[members], distances), axis=1)
            merged_rows = np.concatenate(
                (top_rows[members], np.broadcast_to(rows, (members.size, count))), axis=1
            )
            keep = np.argpartition(merged_dists, k - 1, axis=1)[:, :k]
            gather = np.arange(members.size)[:, None]
            kept_dists = merged_dists[gather, keep]
            kept_rows = merged_rows[gather, keep]
            kth = kept_dists.max(axis=1)
            # Boundary-tie canonicalisation: argpartition picks an
            # arbitrary subset of candidates tied at the k-th distance;
            # re-resolve those (rare) members so the tied slots go to
            # the smallest record ids — a deterministic, canonical rule.
            finite = np.isfinite(kth)
            tied_members = np.flatnonzero(
                finite
                & (
                    (merged_dists == kth[:, None]).sum(axis=1)
                    > (kept_dists == kth[:, None]).sum(axis=1)
                )
            )
            for member in tied_members.tolist():
                threshold = kth[member]
                below = merged_dists[member] < threshold
                tied = np.flatnonzero(merged_dists[member] == threshold)
                needed = k - int(below.sum())
                order = np.argsort(record_ids[merged_rows[member][tied]], kind="stable")
                chosen = tied[order[:needed]]
                kept_dists[member] = np.concatenate(
                    (merged_dists[member][below], merged_dists[member][chosen])
                )
                kept_rows[member] = np.concatenate(
                    (merged_rows[member][below], merged_rows[member][chosen])
                )
            top_dists[members] = kept_dists
            top_rows[members] = kept_rows
            best_dist[members] = kth
            limit = float(best_dist.max() if use_heuristic3 else (best_dist / divisor).max())
            continue
        lows = flat.lows[start:stop]
        highs = flat.highs[start:stop]
        child_keys = kernels.boxes_mindist_boxes(lows, highs, query_lows, query_highs)
        cost.record_distance_computations(count * batch)
        # A query only continues below this node if it reached it
        # (``active``) and the child survives its Heuristics 2/3 — the
        # same per-query pruning the solo traversal applies.
        survives = child_keys < (best_dist / divisor)[:, None]
        survives &= active[:, None]
        if use_heuristic3:
            members = np.flatnonzero(survives.any(axis=1))
            if members.size:
                stacked = groups[members]
                bounds = stacked_tangent_bounds(lows, highs, stacked, anchors[members])
                wide = bool(flat.levels[index] > 1)  # the children are internal nodes
                if wide:
                    bounds = np.maximum(
                        bounds, kernels.boxes_group_mindist(lows[None], highs[None], stacked)
                    )
                bounds = np.maximum(bounds, divisor * child_keys[members])
                bounds = np.maximum(bounds, key_vec[members][:, None])
                cost.record_distance_computations((1 + wide) * cardinality * count * members.size)
                survives[members] &= bounds < best_dist[members][:, None]
                child_keys[members] = bounds
        # Children carry their per-query keys, +inf for the queries pruned
        # here, so every later ``active`` check inherits these decisions.
        for offset in np.flatnonzero(survives.any(axis=0)).tolist():
            child_vec = np.where(survives[:, offset], child_keys[:, offset], np.inf)
            heapq.heappush(
                heap, (float(child_vec.min()), next(counter), start + offset, child_vec)
            )

    cost.finish()
    cost.cpu_time /= batch
    results = []
    for member in range(batch):
        valid = np.flatnonzero(top_rows[member] >= 0)
        rows = top_rows[member][valid]
        dists = top_dists[member][valid]
        # Ascending (distance, record id) — BestList.neighbors() order.
        order = np.lexsort((record_ids[rows], dists))
        neighbors = [
            GroupNeighbor(int(record_ids[row]), points[row], float(dist))
            for row, dist in zip(rows[order].tolist(), dists[order].tolist())
        ]
        member_cost = QueryCost(**cost.as_dict())
        results.append(GNNResult(neighbors=neighbors, cost=member_cost))
    return results
