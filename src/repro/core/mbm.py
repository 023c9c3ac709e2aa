"""MBM — the minimum bounding method (Section 3.3 of the paper).

MBM performs a single traversal of the R-tree of ``P`` pruned by the MBR
``M`` of the query group:

* **Heuristic 2** — a node (or point) whose ``mindist`` to ``M`` reaches
  ``best_dist / n`` cannot qualify.  One distance computation per node.
* **Heuristic 3** — a node whose lower bound on ``dist(p, Q)`` over its
  MBR reaches ``best_dist`` cannot qualify.  ``n`` distance computations
  per node, so Heuristic 2 stays in front as the cheap pre-filter and
  only its survivors pay for the bound (the paper's footnote 3 reports
  the same trade-off and the ablation benchmark reproduces it).

The traversal is best-first with the heap keyed on that bound and stops
when the head reaches ``best_dist``, so the nodes read are exactly those
whose key is below the k-th distance.  The paper's bound,
``sum_i mindist(N, q_i)``, is loose because every ``q_i`` picks its own
nearest point of ``N``.  For the sum aggregate the key is the *tangent
bound* instead (not from the paper): ``f = dist(., Q)`` is convex, so
``f(p) >= f(a) + g . (p - a)`` for a subgradient ``g`` at any anchor
``a``, and the right-hand side has a closed-form minimum over a box.
Anchored at the point of ``N`` nearest the group's approximate geometric
median it is near-exact on leaf-sized boxes, for the same ``n``
distances.  One plane is loose over a wide box and not monotone parent
to child, so a child is pushed under the largest of its parent's key,
its tangent bound, ``W * mindist(N, M)`` and — internal nodes only,
``2n`` distances each — the paper's bound.  ``min`` of distances is not
convex, so ``max``/``min`` keep the paper's bound; for sums it stays
runnable as ``algorithm="best-first"``.  (The paper's text orders by
``mindist(N, M)``, 0 wherever ``N`` meets ``M``; only the
Heuristic-2-only ablation, having no tighter key, keeps that.)

The weighted and max/min-aggregate extensions reuse the same traversal
with generalised bounds (see :mod:`repro.core.aggregates`).

Over a dirty delta overlay the delta is the traversal's first leaf
(:func:`seed_from_delta`): its live rows go through the same
Heuristic-2 leaf scan before the base is traversed, so ``best_dist`` is
finite from the first pop and the base reads only the nodes whose key
is below the k-th distance of the *merged* view.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from repro.core.centroid import weiszfeld_centroid
from repro.core.heuristics import (
    heuristic2_prunes,
    heuristic2_prunes_batch,
    heuristic3_prunes_batch,
    heuristic3_prunes_precomputed,
)
from repro.core.instrumentation import CostTracker
from repro.core.types import BestList, GNNResult, GroupNeighbor, GroupQuery, QueryCost
from repro.geometry import kernels
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay

ANCHOR_STEPS = 3  #: Weiszfeld steps; any anchor is sound, more read no fewer nodes


def mbm(
    tree: FlatRTree,
    query: GroupQuery,
    use_heuristic3: bool = True,
    overlay: DeltaOverlay | None = None,
    within: float = math.inf,
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
    overlay:
        Optional pending writes over ``tree`` (its ``base``), answered
        as one merged view: the delta seeds the best list
        (:func:`seed_from_delta`), and tombstoned records are skipped at
        the leaves before any per-point aggregate distance is charged;
        node-level pruning is untouched (Heuristics 2/3 stay safe bounds
        for the live records the traversal is actually after).
    within:
        Only records with aggregate distance ``<= within`` are returned
        (fewer than ``k`` when fewer qualify).  A finite bound prunes
        from the first pop instead of once ``k`` answers exist; the
        shard coordinator sends its sampled upper bound on the
        federation's k-th distance here.
    """
    tracker = CostTracker("MBM-best_first", trees=[tree])
    best = BestList(query.k, within)
    exclude = seed_from_delta(tree, query, best, overlay)
    if len(tree) > 0:
        _mbm_best_first(tree, query, best, use_heuristic3, exclude)
    return GNNResult(neighbors=best.neighbors(), cost=tracker.finish())


def seed_from_delta(
    tree: FlatRTree, query: GroupQuery, best: BestList, overlay: DeltaOverlay | None
) -> set | None:
    """Offer the overlay's delta to ``best``; return the tombstones to skip.

    The delta is scanned as the traversal's first leaf, through
    :func:`_process_leaf` (Heuristic 2 on every row, aggregate distances
    only for the ascending-mindist prefix it cannot prune) and charged
    to ``tree.stats`` like any leaf.  Every tombstone-aware driver
    (MBM, SPM, MQM, best-first) calls this before touching the base, so
    its own pruning bound starts from the delta's k-th distance instead
    of infinity.  Returns ``None`` when nothing is tombstoned.
    """
    if overlay is None:
        return None
    if overlay.base is not tree:
        raise ValueError("the overlay must shadow the tree being traversed")
    points, record_ids = overlay.delta_points()
    if len(record_ids):
        _process_leaf(tree, points, record_ids, query, best, _divisor(query))
    return overlay.tombstones or None


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


def _tangent_anchor(stats, group: np.ndarray, weights=None) -> np.ndarray:
    """The tangent key's anchor: a few Weiszfeld steps off the mean, charged ``n`` each."""
    stats.record_distance_computations(ANCHOR_STEPS * group.shape[0])
    return weiszfeld_centroid(group, max_iterations=ANCHOR_STEPS, weights=weights)


def _mbm_best_first(flat, query, best, use_heuristic3, exclude=None) -> None:
    """Best-first MBM over the flat snapshot (heap order: module docstring).

    Each popped node is scored with batched kernels: one call computes
    the mindist of the whole child slice to the query MBR (Heuristic 2)
    and one more (two for internal children) the survivors' lower
    bounds, the keys they are pushed under (else the mindists are).
    ``best`` cannot change while a child slice is being scored (offers
    only happen at leaves), so the batched checks decide exactly what an
    entry-at-a-time loop would.
    """
    query_mbr = query.mbr
    divisor = _divisor(query)
    counter = itertools.count()
    heap: list[tuple[float, int, int]] = [(0.0, next(counter), 0)]
    scorer = kernels.scorer_for(query.points, query.weights, query.aggregate, flat.capacity)
    mindists_to_mbr = kernels.boxes_mindist_box if scorer is None else scorer.boxes_mindist_box
    lower_bounds = query.mindist_lower_bounds if scorer is None else scorer.boxes_group_sum_mindist
    tangent = use_heuristic3 and query.aggregate == kernels.SUM
    if tangent:
        anchor = _tangent_anchor(flat.stats, query.points, query.weights)
        tangent_bounds = (
            query.tangent_lower_bounds if scorer is None else scorer.boxes_group_tangent_bound
        )

    while heap:
        key, _, node_id = heapq.heappop(heap)
        # Once the head fails the heuristic it is keyed on, every entry
        # does (``best_dist`` is infinite until ``best`` is full).
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
                query, best, divisor, scorer, exclude,
            )
            continue
        lows = flat.lows[start:stop]
        highs = flat.highs[start:stop]
        keys = mindists_to_mbr(lows, highs, query_mbr.low, query_mbr.high)
        flat.stats.record_distance_computations(stop - start)
        survivors = np.flatnonzero(~heuristic2_prunes_batch(keys, best.best_dist, divisor))
        if use_heuristic3 and survivors.size:
            lows, highs = lows[survivors], highs[survivors]
            wide = tangent and bool(flat.levels[index] > 1)  # the children are internal nodes
            bounds = tangent_bounds(lows, highs, anchor) if tangent else lower_bounds(lows, highs)
            if wide:
                bounds = np.maximum(bounds, lower_bounds(lows, highs))
            if tangent:
                bounds = np.maximum(np.maximum(bounds, divisor * keys[survivors]), key)
            flat.stats.record_distance_computations((1 + wide) * query.cardinality * survivors.size)
            kept = ~heuristic3_prunes_batch(bounds, best.best_dist)
            survivors, keys = survivors[kept], bounds[kept]
        else:
            keys = keys[survivors]
        for child_key, offset in zip(keys.tolist(), survivors.tolist()):
            heapq.heappush(heap, (child_key, next(counter), start + offset))


def _process_leaf(
    flat, points, record_ids, query, best, divisor, scorer=None, exclude=None
) -> None:
    """Apply Heuristic 2 to leaf points before paying the full distance computation.

    ``(points, record_ids)`` is a leaf slice of ``flat`` or — through
    :func:`seed_from_delta` — the overlay's delta; either way the
    charges go to ``flat.stats``.  Every point's mindist to the query
    MBR is computed in one kernel call for the Heuristic-2 ordering;
    aggregate distances are computed for the candidates that can
    possibly survive, ``flat.capacity`` of them per call, fetched as the
    loop reaches them — one call for a leaf, and for a delta only the
    chunks before the break, so the computed distances match the charged
    ones to within a chunk.  ``best_dist`` only shrinks while the
    ordered candidates are consumed, so the sequential pruning loop
    visits a prefix of that candidate set.  The loop is pure-float: it
    inlines the Heuristic-2 inequality, skips ``offer`` calls that
    provably return False (``distance >= best_dist``), and records the
    per-candidate distance charges — ``n`` for every candidate consumed
    before the break — as one batched charge.
    """
    query_mbr = query.mbr
    if scorer is not None:
        mindists = scorer.points_mindist_box(points, query_mbr.low, query_mbr.high)
    else:
        mindists = kernels.points_mindist_box(points, query_mbr.low, query_mbr.high)
    flat.stats.record_distance_computations(len(points))
    order = np.argsort(mindists, kind="stable")
    if best.best_dist < math.inf:
        candidates = order[~heuristic2_prunes_batch(mindists[order], best.best_dist, divisor)]
    else:
        candidates = order
    if candidates.size == 0:
        return
    # mindists may alias a scorer buffer: consume it before any group-kernel call.
    candidate_mindists = mindists[candidates].tolist()
    group_distances = query.distances_to if scorer is None else scorer.group_sum_distances
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
            candidate_distances += group_distances(points[part]).tolist()
        if exclude is not None and int(record_ids[offset]) in exclude:
            continue
        consumed += 1
        distance = candidate_distances[position]
        if distance < best_dist:
            offer(int(record_ids[offset]), points[offset], distance)
            best_dist = best.best_dist
            bounded = best_dist < math.inf
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
    if dims == 2:
        aggregate_distances = kernels.groups_aggregate_distances_2d
        group_bounds = kernels.boxes_groups_mindist_2d
    else:
        aggregate_distances = kernels.batched_aggregate_distances
        group_bounds = kernels.boxes_groups_mindist
    stats = flat.stats
    if use_heuristic3:
        anchors = np.stack([_tangent_anchor(stats, group) for group in groups])
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
        index = flat.read_node(node_id)
        start = int(flat.child_start[index])
        count = int(flat.child_count[index])
        stop = start + count
        if flat.levels[index] == 0:
            members = np.flatnonzero(active)
            coords = points[start:stop]
            distances = aggregate_distances(coords, groups[members])
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
            limit = float(best_dist.max() if use_heuristic3 else (best_dist / divisor).max())
            continue
        lows = flat.lows[start:stop]
        highs = flat.highs[start:stop]
        child_keys = kernels.boxes_mindist_boxes(lows, highs, query_lows, query_highs)
        stats.record_distance_computations(count * batch)
        # A query only continues below this node if it reached it
        # (``active``) and the child survives its Heuristics 2/3 — the
        # same per-query pruning the solo traversal applies.
        survives = child_keys < (best_dist / divisor)[:, None]
        survives &= active[:, None]
        if use_heuristic3:
            members = np.flatnonzero(survives.any(axis=1))
            if members.size:
                stacked = groups[members]
                bounds = kernels.boxes_group_tangent_bound(lows, highs, stacked, anchors[members])
                wide = bool(flat.levels[index] > 1)  # the children are internal nodes
                if wide:
                    bounds = np.maximum(bounds, group_bounds(lows, highs, stacked))
                bounds = np.maximum(bounds, divisor * child_keys[members])
                bounds = np.maximum(bounds, key_vec[members][:, None])
                stats.record_distance_computations((1 + wide) * cardinality * count * members.size)
                survives[members] &= bounds < best_dist[members][:, None]
                child_keys[members] = bounds
        # Children carry their per-query keys, +inf for the queries pruned
        # here, so every later ``active`` check inherits these decisions.
        for offset in np.flatnonzero(survives.any(axis=0)).tolist():
            child_vec = np.where(survives[:, offset], child_keys[:, offset], np.inf)
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
