"""MBM — the minimum bounding method (Section 3.3 of the paper).

MBM performs a single traversal of the R-tree of ``P`` pruned by the MBR
``M`` of the query group:

* **Heuristic 2** — a node (or point) whose ``mindist`` to ``M`` reaches
  ``best_dist / n`` cannot qualify.  One distance computation per node.
* **Heuristic 3** — a node whose lower bound on ``dist(p, Q)`` over its
  MBR reaches ``best_dist`` cannot qualify.  The bound costs ``n``
  distance computations, so Heuristic 2 stays in front as the cheap
  pre-filter (the paper's footnote 3 reports the same trade-off and the
  ablation benchmark reproduces it), and MBM pays it only for the nodes
  that reach the heap head.

The traversal is best-first and stops when the heap head reaches
``best_dist``, so the nodes read are exactly those whose key is below
the k-th distance.  The paper's bound, ``sum_i mindist(N, q_i)``, is
loose because every ``q_i`` picks its own nearest point of ``N``.  For
the sum aggregate MBM adds a *tangent plane* (not from the paper):
``f = dist(., Q)`` is convex, so ``f(p) >= f(a) + g . (p - a)`` for a
subgradient ``g`` at any ``a``, and the right-hand side has a
closed-form minimum over a box.  Taken at the point of ``N`` nearest the
group's approximate geometric median (the *anchor*) it is near-exact on
leaf-sized boxes, for the same ``n`` distances.

Those ``n`` distances are paid only by entries that reach the heap head
(or, a few at a time, come next to it): the paper's footnote-3
trade-off, applied to the key itself.  Reading a node keys its children
under a *cheap key*, ``O(dims)`` each and no group distance: the
largest of the node's key, ``W * mindist(N, M)`` and — sums only — the
node's own tangent plane minimised over the child's box; they go into
the heap together, as one entry, in ascending cheap key.  When that
entry reaches the head, its children that would come off
the heap first (up to :data:`EVALUATION_BATCH`, at least
:data:`EVALUATION_MIN`) are keyed in one kernel call by their own bound —
their plane's minimum plus, internal nodes only, the paper's bound — and
each goes back under the largest of that and its cheap key, or is
dropped once that reaches ``best_dist``.  A node is read when it reaches
the head keyed; its plane then pre-keys its children, and a leaf's plane
bounds each point by ``f0 + g . (p - x0)``, so points are visited in
ascending ``max(plane, W * mindist(p, M))`` until ``best_dist``.  The
root is read first, without a plane.  ``min`` of distances is not
convex, so ``max``/``min`` defer the paper's bound instead; for sums the
paper's key stays runnable as ``algorithm="best-first"``.  (The paper's
text orders by ``mindist(N, M)``, 0 wherever ``N`` meets ``M``; only the
Heuristic-2-only ablation, having no tighter key, keeps that.)

The weighted and max/min-aggregate extensions reuse the same traversal
with generalised bounds (see :mod:`repro.core.aggregates`).

Over a dirty delta overlay the delta is the traversal's first leaf
(:func:`seed_from_delta`): its live rows go through the same leaf scan,
keyed by Heuristic 2, before the base is traversed, so ``best_dist`` is
finite from the first pop and the base reads only the nodes whose key
is below the k-th distance of the *merged* view.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math

import numpy as np

from repro.core.centroid import weiszfeld_centroid
from repro.core.instrumentation import CostTracker
from repro.core.types import BestList, GNNResult, GroupNeighbor, GroupQuery, QueryCost
from repro.geometry import kernels
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay

ANCHOR_STEPS = 3  #: Weiszfeld steps; any anchor is sound, more read no fewer nodes
EVALUATION_BATCH = 16  #: children keyed per kernel call, at most
#: Children of a popped entry keyed together even when the next heap
#: entry comes first: a few speculative keys cost fewer kernel calls.
EVALUATION_MIN = 4

#: The plane slot of a keyed entry without a plane: the root, every
#: ``max``/``min`` entry once evaluated and every Heuristic-2-only entry.
_KEYED = ()


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
    :func:`_scan_leaf` keyed by Heuristic 2 (``W * mindist(p, M)``, one
    distance computation per row; aggregate distances only for the
    ascending prefix it cannot prune) and charged to ``tree.stats`` like
    any leaf.  Every tombstone-aware driver (MBM, SPM, MQM, best-first)
    calls this before touching the base, so its own pruning bound starts
    from the delta's k-th distance instead of infinity.  Returns
    ``None`` when nothing is tombstoned.
    """
    if overlay is None:
        return None
    if overlay.base is not tree:
        raise ValueError("the overlay must shadow the tree being traversed")
    points, record_ids = overlay.delta_points()
    if len(record_ids):
        mbr = query.mbr
        bounds = _divisor(query) * kernels.points_mindist_box(points, mbr.low, mbr.high)
        tree.stats.record_distance_computations(len(points))
        _scan_leaf(tree, points, record_ids, bounds, query, best)
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
    """Best-first MBM over the flat snapshot, its keys deferred (module docstring).

    A heap entry is ``(key, tie, node, plane)``.  A keyed entry carries
    its tangent plane (sums) or :data:`_KEYED` and is read when it
    reaches the head; an entry whose ``plane`` slot holds
    :class:`_Children` stands for a read node's children still under
    their cheap keys and is handed to :func:`_evaluate`.  Reading a node
    scores its whole child or leaf slice with one or two kernel calls:
    ``mindist`` to the query MBR (one distance computation per box or
    point) and the node's plane over each box or point (one more).
    ``best`` only changes at leaves, so each batched check decides
    exactly what an entry-at-a-time loop would.
    """
    stats = flat.stats
    divisor = _divisor(query)
    low, high = query.mbr.low, query.mbr.high
    tangent = use_heuristic3 and query.aggregate == kernels.SUM
    anchor = _tangent_anchor(stats, query.points, query.weights) if tangent else None
    counter = itertools.count()
    heap = [(0.0, next(counter), 0, _KEYED)]

    # Once the head's key reaches ``best_dist`` every entry's does
    # (``best_dist`` is the ceiling until ``best`` is full).
    while heap and heap[0][0] < best.best_dist:
        key, _, node, plane = heapq.heappop(heap)
        if type(plane) is _Children:
            _evaluate(flat, query, best, heap, counter, node, plane, anchor)
            continue
        index = flat.read_node(node)
        start = int(flat.child_start[index])
        stop = start + int(flat.child_count[index])
        level = flat.levels[index]
        if level == 0:
            points = flat.points[start:stop]
            bounds = divisor * kernels.points_mindist_box(points, low, high)
            if plane:
                np.maximum(bounds, _plane_minimum(plane, points, points), out=bounds)
            stats.record_distance_computations((1 + bool(plane)) * (stop - start))
            _scan_leaf(flat, points, flat.record_ids[start:stop], bounds, query, best, exclude)
            continue
        lows, highs = flat.lows[start:stop], flat.highs[start:stop]
        keys = divisor * kernels.boxes_mindist_box(lows, highs, low, high)
        if plane:
            np.maximum(keys, _plane_minimum(plane, lows, highs), out=keys)
        stats.record_distance_computations((1 + bool(plane)) * (stop - start))
        np.maximum(keys, key, out=keys)
        order = keys.argsort(kind="stable")
        ordered = keys.take(order).tolist()
        survivors = bisect.bisect_left(ordered, best.best_dist)
        order += start  # the children's node ids, in ascending cheap key
        if not use_heuristic3:  # the ablation's cheap key is its only key
            for child_key, child in zip(ordered[:survivors], order[:survivors].tolist()):
                heapq.heappush(heap, (child_key, next(counter), child, _KEYED))
        elif survivors:
            children = _Children(order[:survivors], ordered[:survivors], level > 1)
            heapq.heappush(heap, (ordered[0], next(counter), node, children))


class _Children:
    """The children of a read node still under their cheap keys, ascending.

    Siblings share a level: ``internal`` holds for all of them or none.
    """

    __slots__ = ("nodes", "keys", "internal", "next")

    def __init__(self, nodes: np.ndarray, keys: list[float], internal: bool):
        self.nodes = nodes
        self.keys = keys
        self.internal = bool(internal)
        self.next = 0


def _evaluate(flat, query, best, heap, counter, parent, children, anchor) -> None:
    """Key the unevaluated children at the heap head by their own bounds.

    ``children`` was just popped; the batch takes its next children, in
    ascending cheap key, while they stay below the next heap entry (and
    at least :data:`EVALUATION_MIN` of them), then continues with that
    entry while it is another :class:`_Children`.  It stops at a keyed
    entry, at ``best_dist`` or after :data:`EVALUATION_BATCH` children,
    so all but the speculative few would have reached the head one by
    one before the next read.  One kernel call scores them: for
    sums each node's tangent plane at ``clip(anchor, N)`` (``n``
    distance computations) and its minimum over ``N`` (one), plus the
    paper's ``sum_i mindist(N, q_i)`` for internal nodes (``n``; they
    are put first); for ``max``/``min`` (``anchor`` is ``None``) the
    paper's bound alone.  Each goes back under the largest of that and
    its cheap key, carrying its plane, or is dropped once that reaches
    ``best_dist``.
    """
    best_dist = best.best_dist
    taken = {True: ([], []), False: ([], [])}  # internal? -> (node slices, cheap keys)
    count = 0
    while True:
        keys, first = children.keys, children.next
        limit = min(heap[0][0], best_dist) if heap else best_dist
        stop = min(len(keys), first + EVALUATION_BATCH - count)
        below = bisect.bisect_left(keys, best_dist, first + 1, stop)
        last = max(
            first + 1,
            min(first + EVALUATION_MIN, below),
            bisect.bisect_left(keys, limit, first + 1, below),
        )
        runs, cheap = taken[children.internal]
        runs.append(children.nodes[first:last])
        cheap += keys[first:last]
        count += last - first
        children.next = last
        if last < len(keys) and keys[last] < best_dist:
            heapq.heappush(heap, (keys[last], next(counter), parent, children))
        if (
            count == EVALUATION_BATCH
            or not heap
            or heap[0][0] >= best_dist
            or type(heap[0][3]) is not _Children
        ):
            break
        _, _, parent, children = heapq.heappop(heap)
    (inner, inner_keys), (outer, outer_keys) = taken[True], taken[False]
    runs = inner + outer
    nodes = runs[0] if len(runs) == 1 else np.concatenate(runs)
    internal = len(inner_keys)
    lows, highs = flat.lows.take(nodes, axis=0), flat.highs.take(nodes, axis=0)
    cardinality = query.cardinality
    if anchor is None:
        bounds = query.mindist_lower_bounds(lows, highs)
        flat.stats.record_distance_computations(cardinality * count)
        planes = None
    else:
        planes = kernels.group_tangent_planes(lows, highs, query.points, anchor, query.weights)
        bounds = kernels.plane_lower_bounds(*planes, lows, highs)
        if internal:
            head = bounds[:internal]
            np.maximum(head, query.mindist_lower_bounds(lows[:internal], highs[:internal]), out=head)
        flat.stats.record_distance_computations((cardinality + 1) * count + cardinality * internal)
    rows = zip(bounds.tolist(), inner_keys + outer_keys, nodes.tolist())
    for row, (bound, cheap, node) in enumerate(rows):
        key = bound if bound > cheap else cheap
        if key < best_dist:
            plane = _KEYED if planes is None else (planes, row)
            heapq.heappush(heap, (key, next(counter), node, plane))


def _plane_minimum(plane, lows, highs) -> np.ndarray:
    """A keyed node's tangent plane minimised over each box (or at each point) given."""
    (values, gradients, origins), row = plane
    return kernels.plane_lower_bounds(values[row], gradients[row], origins[row], lows, highs)


def _scan_leaf(flat, points, record_ids, bounds, query, best, exclude=None) -> None:
    """Offer leaf points to ``best`` in ascending lower bound until one reaches ``best_dist``.

    ``(points, record_ids)`` is a leaf slice of ``flat`` or — through
    :func:`seed_from_delta` — the overlay's delta, ``bounds`` a lower
    bound of each point's aggregate distance, charged by the caller;
    every charge goes to ``flat.stats``.  Aggregate distances are
    computed for the points whose bound is below ``best_dist``,
    ``flat.capacity`` of them per call, fetched as the loop reaches them
    — one call for a leaf, and for a delta only the chunks before the
    break, so the computed distances match the charged ones to within a
    chunk.  ``best_dist`` only shrinks while the ordered candidates are
    consumed, so the loop visits a prefix of them.  The loop is
    pure-float: it skips ``offer`` calls that provably return False
    (``distance >= best_dist``) and records the per-candidate distance
    charges — ``n`` for every candidate consumed before the break — as
    one batched charge.
    """
    order = bounds.argsort(kind="stable")
    candidate_bounds = bounds.take(order).tolist()
    best_dist = best.best_dist
    candidates = order[: bisect.bisect_left(candidate_bounds, best_dist)]
    if candidates.size == 0:
        return
    ids = record_ids.take(candidates).tolist()
    chunk = flat.capacity
    candidate_distances: list[float] = []
    offer = best.offer
    consumed = 0
    for position, (offset, record_id) in enumerate(zip(candidates.tolist(), ids)):
        if candidate_bounds[position] >= best_dist:
            break
        if position == len(candidate_distances):
            part = candidates[position : position + chunk]
            candidate_distances += query.distances_to(points.take(part, axis=0)).tolist()
        if exclude is not None and record_id in exclude:
            continue
        consumed += 1
        distance = candidate_distances[position]
        if distance < best_dist:
            offer(record_id, points[offset], distance)
            best_dist = best.best_dist
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
            distances = kernels.batched_aggregate_distances(coords, groups[members])
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
                    bounds = np.maximum(bounds, kernels.boxes_groups_mindist(lows, highs, stacked))
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
