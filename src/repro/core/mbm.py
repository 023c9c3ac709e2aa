"""MBM — the minimum bounding method (Section 3.3 of the paper).

MBM performs a single traversal of the R-tree of ``P`` pruned by the MBR
``M`` of the query group:

* **Heuristic 2** — a node (or point) whose ``mindist`` to ``M`` reaches
  ``best_dist / n`` cannot qualify.  One distance computation per node.
* **Heuristic 3** — a node whose summed per-query-point ``mindist``
  reaches ``best_dist`` cannot qualify.  Tighter, but needs ``n``
  distance computations, so it is only evaluated for nodes that survive
  Heuristic 2 (the paper's footnote 3 reports the same trade-off and the
  ablation benchmark reproduces it).

The traversal is best-first, as in the paper's experiments.  The weighted and max/min-aggregate extensions reuse the same traversal
with generalised bounds (see :mod:`repro.core.aggregates`).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.core.heuristics import (
    heuristic2_prunes,
    heuristic2_prunes_batch,
    heuristic3_prunes_batch,
)
from repro.core.instrumentation import CostTracker
from repro.core.types import BestList, GNNResult, GroupNeighbor, GroupQuery, QueryCost
from repro.geometry import kernels
from repro.rtree.flat import FlatRTree


def mbm(
    tree: FlatRTree,
    query: GroupQuery,
    use_heuristic3: bool = True,
    exclude: frozenset | set | None = None,
) -> GNNResult:
    """Run the minimum bounding method.

    Parameters
    ----------
    tree:
        Flat R-tree snapshot over the dataset ``P``.
    query:
        The query group; the sum aggregate matches the paper, and the
        weighted / max / min generalisations are accepted as well (the
        bounds degrade gracefully: Heuristic 2 uses the total weight,
        Heuristic 3 uses the aggregate lower bound).
    use_heuristic3:
        Disable to reproduce the paper's ablation ("MBM with only
        heuristic 2 ... inferior to SPM").
    exclude:
        Optional record ids barred from the result (delta-overlay
        tombstones).  Excluded points are skipped at the leaves before
        any per-point aggregate distance is charged; node-level pruning
        is untouched (Heuristics 2/3 stay safe bounds for the live
        records the traversal is actually after).
    """
    tracker = CostTracker("MBM-best_first", trees=[tree])
    best = BestList(query.k)
    if len(tree) > 0:
        _mbm_best_first(tree, query, best, use_heuristic3, exclude)
    return GNNResult(neighbors=best.neighbors(), cost=tracker.finish())


def _divisor(query: GroupQuery) -> float:
    """The denominator of Heuristic 2, generalised to weights and aggregates.

    Pruning is safe whenever ``divisor * mindist(N, M) <= dist(p, Q)`` for
    every point ``p`` inside ``N``.  Because each ``|p q_i|`` is at least
    ``mindist(p, M)``:

    * sum aggregate: ``dist(p, Q) >= (sum_i w_i) * mindist`` — divisor is
      ``n`` for unweighted queries (the paper's Heuristic 2);
    * max aggregate: ``dist(p, Q) >= (max_i w_i) * mindist``;
    * min aggregate: ``dist(p, Q) >= (min_i w_i) * mindist``.
    """
    if query.aggregate == "sum":
        return query.total_weight()
    weights = query.weights
    if weights is None:
        return 1.0
    if query.aggregate == "max":
        return float(weights.max())
    return float(weights.min())


def _mbm_best_first(flat, query, best, use_heuristic3, exclude=None) -> None:
    """Best-first MBM: the heap is ordered by mindist to the query MBR.

    Each popped node is scored with batched kernels: one call computes
    the mindist of the whole child slice to the query MBR (Heuristic 2)
    and one more computes the aggregate lower bounds of the survivors
    (Heuristic 3).  ``best`` cannot change while a child slice is being
    scored (offers only happen at leaves), so the batched checks decide
    exactly what an entry-at-a-time loop would.
    """
    query_mbr = query.mbr
    divisor = _divisor(query)
    counter = itertools.count()
    heap: list[tuple[float, int, int]] = [(0.0, next(counter), 0)]
    stats = flat.stats
    child_start = flat.child_start
    child_count = flat.child_count
    levels = flat.levels
    all_lows = flat.lows
    all_highs = flat.highs
    scorer = kernels.scorer_for(query.points, query.weights, query.aggregate, flat.capacity)

    while heap:
        mindist_to_m, _, node_id = heapq.heappop(heap)
        # The heap is ordered by mindist(N, M): once the head fails
        # Heuristic 2 every remaining entry fails it too.
        if best.is_full() and heuristic2_prunes(mindist_to_m, best.best_dist, divisor):
            break
        index = flat.read_node(node_id)
        start = int(child_start[index])
        stop = start + int(child_count[index])
        if levels[index] == 0:
            _process_leaf(flat, start, stop, query, best, divisor, scorer, exclude)
            continue
        lows = all_lows[start:stop]
        highs = all_highs[start:stop]
        if scorer is not None:
            child_mindists = scorer.boxes_mindist_box(lows, highs, query_mbr.low, query_mbr.high)
        else:
            child_mindists = kernels.boxes_mindist_box(lows, highs, query_mbr.low, query_mbr.high)
        stats.record_distance_computations(stop - start)
        if best.is_full():
            survives = ~heuristic2_prunes_batch(child_mindists, best.best_dist, divisor)
        else:
            survives = np.ones(stop - start, dtype=bool)
        if use_heuristic3 and best.is_full() and survives.any():
            indices = np.flatnonzero(survives)
            if scorer is not None:
                # boxes_group_sum_mindist shares no state with the box
                # buffer holding child_mindists, so the bounds can be
                # computed before the surviving children are pushed.
                lower_bounds = scorer.boxes_group_sum_mindist(lows[indices], highs[indices])
            else:
                lower_bounds = query.mindist_lower_bounds(lows[indices], highs[indices])
            stats.record_distance_computations(query.cardinality * indices.size)
            survives[indices[heuristic3_prunes_batch(lower_bounds, best.best_dist)]] = False
        for offset in np.flatnonzero(survives):
            heapq.heappush(
                heap, (float(child_mindists[offset]), next(counter), start + int(offset))
            )


def _process_leaf(
    flat, start, stop, query, best, divisor, scorer=None, exclude=None
) -> None:
    """Apply Heuristic 2 to leaf points before paying the full distance computation.

    The leaf's points are scored in two kernel calls: mindists to the
    query MBR for the Heuristic-2 ordering, then aggregate distances for
    the candidates that can possibly survive.  ``best_dist`` only shrinks
    while the ordered candidates are consumed, so the sequential pruning
    loop visits a prefix of that candidate set.  The loop is pure-float:
    it inlines the Heuristic-2 inequality, skips ``offer`` calls that
    provably return False (a full best-list and ``distance >=
    best_dist``), and records the per-candidate distance charges — ``n``
    for every candidate consumed before the break — as one batched
    charge.
    """
    query_mbr = query.mbr
    coords = flat.points[start:stop]
    if scorer is not None:
        mindists = scorer.points_mindist_box(coords, query_mbr.low, query_mbr.high)
    else:
        mindists = kernels.points_mindist_box(coords, query_mbr.low, query_mbr.high)
    flat.stats.record_distance_computations(stop - start)
    order = np.argsort(mindists, kind="stable")
    if best.is_full():
        candidates = order[~heuristic2_prunes_batch(mindists[order], best.best_dist, divisor)]
    else:
        candidates = order
    if candidates.size == 0:
        return
    if scorer is not None:
        # mindists lives in the scorer's box buffer, which the group
        # kernel below does not touch; both are consumed via tolist()
        # before any further scorer call.
        distances = scorer.group_sum_distances(coords[candidates])
    else:
        distances = query.distances_to(coords[candidates])

    candidate_mindists = mindists[candidates].tolist()
    candidate_distances = distances.tolist()
    record_ids = flat.record_ids
    points = flat.points
    offer = best.offer
    best_dist = best.best_dist
    full = best.is_full()
    consumed = 0
    for position, offset in enumerate(candidates.tolist()):
        if full and candidate_mindists[position] >= best_dist / divisor:
            break
        row = start + offset
        if exclude is not None and int(record_ids[row]) in exclude:
            continue
        consumed += 1
        distance = candidate_distances[position]
        if not full or distance < best_dist:
            offer(int(record_ids[row]), points[row], distance)
            best_dist = best.best_dist
            full = best.is_full()
    flat.stats.record_distance_computations(query.cardinality * consumed)


# ----------------------------------------------------------------------
# shared-traversal batches
# ----------------------------------------------------------------------
def mbm_batch(
    flat: FlatRTree, groups: np.ndarray, k: int, use_heuristic3: bool = True
) -> list[GNNResult]:
    """Answer ``B`` unweighted sum-MBM queries with one shared traversal.

    ``groups`` is a ``(B, n, dims)`` stack of query groups (equal
    cardinality is the stacking requirement; the batch executor buckets
    specs accordingly).  The snapshot is traversed *once* for the whole
    batch: every node is read at most one time, its child slice (or leaf
    slice) is scored against all still-active queries in a single
    ``(B, m)`` / ``(B, fanout)`` kernel call, and per-query top-``k``
    state is maintained as ``(B, k)`` arrays.  Heuristics 2 and 3 prune
    per query exactly as in :func:`mbm` — a node is expanded while *any*
    query still needs it — so every returned answer is exact.

    Aggregate distances come from the same bit-identical kernels the
    per-query path uses, so returned distances equal per-query
    :func:`mbm` distances float for float.  Exact *ties* in the k-th
    distance at the selection boundary are resolved canonically — the
    tied slots go to the smallest record ids — whereas the per-query
    path keeps the first record its traversal encountered; on such ties
    (and only there, as with the executor's batched brute-force scan)
    the two paths may return different, equally distant records.
    Record ids are assumed unique (engine snapshots index by row).

    Cost reporting follows the shared execution: every result carries
    the *bucket-level* node-access and distance-computation counters of
    the one traversal (``algorithm="MBM-batch"``), with the wall-clock
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
    tracker = CostTracker("MBM-batch", trees=[flat])
    if len(flat) == 0:
        cost = tracker.finish()
        # One QueryCost per result — results must never share a
        # mutable cost object.
        return [
            GNNResult(neighbors=[], cost=QueryCost(**cost.as_dict())) for _ in range(batch)
        ]

    # Bit-identical to MBR.from_points on each group (same min/max).
    query_lows = groups.min(axis=1)
    query_highs = groups.max(axis=1)
    divisor = float(cardinality)
    use_2d = dims == 2
    stats = flat.stats
    points = flat.points
    record_ids = flat.record_ids

    top_dists = np.full((batch, k), np.inf)
    top_rows = np.full((batch, k), -1, dtype=np.int64)
    best_dist = np.full(batch, np.inf)

    counter = itertools.count()
    root_vec = kernels.boxes_mindist_boxes(
        flat.lows[0:1], flat.highs[0:1], query_lows, query_highs
    )[:, 0]
    heap: list[tuple] = [(float(root_vec.min()), next(counter), 0, root_vec)]

    while heap:
        _, _, node_id, mindist_vec = heapq.heappop(heap)
        # Heuristic 2 per query; thresholds only shrink, so a query
        # pruned at push time stays pruned here.
        active = mindist_vec < best_dist / divisor
        if not active.any():
            continue
        index = flat.read_node(node_id)
        start = int(flat.child_start[index])
        count = int(flat.child_count[index])
        stop = start + count
        if flat.levels[index] == 0:
            members = np.flatnonzero(active)
            coords = points[start:stop]
            subset = groups[members]
            if use_2d:
                distances = kernels.groups_aggregate_distances_2d(coords, subset)
            else:
                distances = kernels.batched_aggregate_distances(coords, subset)
            stats.record_distance_computations(cardinality * count * members.size)
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
            continue
        lows = flat.lows[start:stop]
        highs = flat.highs[start:stop]
        child_mindists = kernels.boxes_mindist_boxes(lows, highs, query_lows, query_highs)
        stats.record_distance_computations(count * batch)
        # A query only continues below this node if it reached it
        # (``active``) and the child survives its Heuristics 2/3 — the
        # same per-query pruning the solo traversal applies.
        survives = child_mindists < (best_dist / divisor)[:, None]
        survives &= active[:, None]
        if use_heuristic3:
            members = np.flatnonzero(survives.any(axis=1))
            if members.size:
                if use_2d:
                    bounds = kernels.boxes_groups_mindist_2d(lows, highs, groups[members])
                else:
                    bounds = kernels.boxes_groups_mindist(lows, highs, groups[members])
                stats.record_distance_computations(cardinality * count * members.size)
                survives[members] &= bounds < best_dist[members][:, None]
        # Children are pushed with per-query mindists masked to +inf for
        # the queries pruned here, so every later ``active`` check
        # inherits the upstream Heuristic-2/3 decisions per query.
        for offset in np.flatnonzero(survives.any(axis=0)).tolist():
            child_vec = np.where(survives[:, offset], child_mindists[:, offset], np.inf)
            heapq.heappush(
                heap, (float(child_vec.min()), next(counter), start + offset, child_vec)
            )

    cost = tracker.finish()
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
