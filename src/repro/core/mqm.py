"""MQM — the multiple query method (Section 3.1 of the paper).

MQM adapts the threshold algorithm of [FLN01] to GNN search: it runs an
*incremental* conventional NN query for every point ``q_i`` of ``Q`` and
combines the per-query streams.  Each stream ``i`` maintains a threshold
``t_i`` equal to the distance of its last retrieved neighbor; the global
threshold ``T = sum_i t_i`` lower-bounds the aggregate distance of every
point not yet encountered, so the algorithm can stop as soon as
``T >= best_dist``.

Query points are visited round-robin after being sorted by Hilbert value
so that consecutive NN searches touch nearby R-tree nodes (improving
buffer locality, as discussed in the paper's experiments).

All ``n`` frontiers are driven through one
:class:`~repro.rtree.traversal.MultiStreamFrontier`: per-query-point
state lives in struct-of-arrays form, each visited node is scored for
*all* streams in a single ``(n, fanout)`` kernel call, and the exact
aggregate distance of every emitted neighbor falls out of the same
shared matrix.  Results, node-access and distance-computation counters,
and any attached LRU buffer's hit/miss sequence are bit-identical to
``n`` independent point-NN generators (``tests/mqm_reference.py``
keeps that driver); only the Python overhead per retrieval changes.
"""

from __future__ import annotations

import math

from repro.geometry.hilbert import hilbert_sort
from repro.core.mbm import seed_from_delta
from repro.core.types import BestList, GNNResult, GroupQuery, QueryCost
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.rtree.traversal import MultiStreamFrontier

#: One unit in the last place of a float64 near 1.0, doubled for slack.
#: Used by the driver's threshold-sum screen (see ``_mqm_round_robin``).
_TWO_ULP = 4.5e-16


def mqm(
    tree: FlatRTree,
    query: GroupQuery,
    overlay: DeltaOverlay | None = None,
    within: float = math.inf,
) -> GNNResult:
    """Run the multiple query method and return the k group nearest neighbors.

    Parameters
    ----------
    tree:
        Flat R-tree snapshot over the dataset ``P``.
    query:
        The query group; ``query.aggregate`` must be ``"sum"`` — the
        threshold argument relies on the additivity of the aggregate
        (the paper only defines MQM for the sum).
    overlay:
        Optional pending writes over ``tree`` (its ``base``).  The delta
        seeds the best list (:func:`~repro.core.mbm.seed_from_delta`),
        so the threshold test can fire from the first round.  Tombstoned
        records still advance the per-stream thresholds (they are real
        points of the index), they are only barred from the best list,
        so the threshold termination argument is unchanged.
    within:
        Only records with aggregate distance ``<= within`` are returned;
        a finite bound lets the threshold test fire before ``k`` answers
        exist (see :func:`~repro.core.mbm.mbm`).
    """
    if query.aggregate != "sum":
        raise ValueError("MQM is only defined for the sum aggregate")
    if query.weights is not None:
        raise ValueError("MQM does not support weighted queries; use MBM instead")
    cost = QueryCost(algorithm="MQM")
    best = BestList(query.k, within)
    exclude = seed_from_delta(tree, query, best, overlay, cost)
    if len(tree) > 0:
        _mqm_round_robin(tree, query, best, cost, exclude)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _mqm_round_robin(
    flat: FlatRTree, query: GroupQuery, best: BestList, cost: QueryCost, exclude=None
) -> None:
    """The round-robin threshold driver over one multi-stream frontier.

    One :class:`MultiStreamFrontier` replaces ``n`` generators; the
    driver otherwise replays the generator-per-stream reference (kept in
    the test suite) decision for decision: after every retrieval the
    stream's threshold is updated, a first-seen live record is offered,
    and the termination condition of Figure 3.2 is re-checked.
    Tombstoned (``exclude``) records advance the stream's threshold but
    are barred from the best list and not charged a distance.  Two
    reference operations are elided because they are provably without
    effect and their cost is exactly what this driver removes:

    * re-``offer``\\ ing an already-seen record id never changes the
      best list (``BestList.offer`` rejects members, and an evicted
      member's distance can never beat the shrunken ``best_dist``), so
      only first-seen records are offered;
    * the per-record aggregate distance call is replaced by the
      frontier's shared per-leaf aggregate (bit-identical floats), and
      the ``n``-per-new-record distance-computation charges are summed
      into one batched charge with the same total.

    The termination decision is bit-identical to the reference path's
    ``sum(thresholds) >= best_dist`` after every retrieval, but the
    left-to-right sum itself is usually *screened away*: the driver
    maintains an incremental total whose distance from the exact sum is
    provably below ``slack * (total + best_dist + 1)`` (the incremental
    float drifts at most two ulp per update and the exact sum at most
    one ulp per element, so ``slack`` grows by ``2 ulp`` per retrieval
    from an initial ``(n + 4) ulp``).  While the screened total plus
    that error bound stays below ``best_dist``, the exact sum cannot
    reach it either and is skipped; inside the guard band the exact sum
    is computed and compared, so the break happens at the identical
    retrieval.
    """
    order = hilbert_sort(query.points)
    n = query.cardinality
    frontier = MultiStreamFrontier(flat, query.points, cost)
    # Stream s of the round-robin is the frontier of original query
    # point order[s]; the frontier indexes by original position so the
    # shared aggregate sums query points in canonical order.
    stream_of = order.tolist()
    advance = frontier.advance
    segs = frontier.segs
    agg_by_row = frontier.agg_by_row
    points = flat.points
    offer = best.offer

    thresholds = [0.0] * n
    exhausted = [False] * n
    seen: set[int] = set()
    new_records = 0
    best_dist = best.best_dist
    bounded = best_dist < math.inf
    total = 0.0                       # incremental sum(thresholds)
    slack = (n + 4.0) * _TWO_ULP      # relative error budget of the screen

    while True:
        threshold_total = sum(thresholds)
        if bounded and threshold_total >= best_dist:
            break
        if all(exhausted):
            break
        progressed = False
        for i in range(n):
            if exhausted[i]:
                continue
            stream = stream_of[i]
            seg = segs[stream]
            pos = seg[0]
            if pos < seg[1]:
                # Inline emission: the active segment strictly precedes
                # every node bound left in the stream's frontier.
                seg[0] = pos + 1
                key = seg[2][pos]
                row = seg[3][pos]
                record_id = seg[4][pos]
            else:
                emitted = advance(stream)
                if emitted is None:
                    exhausted[i] = True
                    continue
                key, row, record_id = emitted
            progressed = True
            total += key - thresholds[i]
            thresholds[i] = key
            slack += _TWO_ULP
            if record_id not in seen:
                seen.add(record_id)
                if exclude is None or record_id not in exclude:
                    new_records += 1
                    offer(record_id, points[row], float(agg_by_row[row]))
                    best_dist = best.best_dist
                    bounded = best_dist < math.inf
            if (
                bounded
                and total + slack * (total + best_dist + 1.0) >= best_dist
                and sum(thresholds) >= best_dist
            ):
                break
        if not progressed:
            break
    cost.record_distance_computations(n * new_records)
