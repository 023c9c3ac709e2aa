"""SPM — the single point method (Section 3.2 of the paper).

SPM performs a single traversal of the R-tree of ``P`` guided by the
(approximate) centroid ``q`` of the query group.  Lemma 1 gives the
pruning bound: for any point ``p``,

    ``dist(p, Q) >= n * |p q| - dist(q, Q)``

so a node or point whose distance from ``q`` reaches
``(best_dist + dist(q, Q)) / n`` cannot contain/cannot be a better
neighbor (Heuristic 1).  The traversal is best-first, as in the paper's
experiments.
"""

from __future__ import annotations

import math

from repro.core.centroid import compute_centroid
from repro.core.instrumentation import CostTracker
from repro.core.mbm import seed_from_delta
from repro.core.types import BestList, GNNResult, GroupQuery
from repro.geometry import kernels
from repro.geometry.distance import group_distance
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.rtree.traversal import flat_incremental_nearest_generic


def spm(
    tree: FlatRTree,
    query: GroupQuery,
    centroid_method: str = "gradient",
    overlay: DeltaOverlay | None = None,
    within: float = math.inf,
) -> GNNResult:
    """Run the single point method.

    Parameters
    ----------
    tree:
        Flat R-tree snapshot over the dataset ``P``.
    query:
        The query group (sum aggregate, unweighted — as defined in the paper).
    centroid_method:
        Passed to :func:`repro.core.centroid.compute_centroid`; the paper
        uses gradient descent.
    overlay:
        Optional pending writes over ``tree`` (its ``base``): the delta
        seeds the best list (:func:`~repro.core.mbm.seed_from_delta`),
        so Heuristic 1 prunes from the first emission, and tombstoned
        points are skipped before any aggregate distance is charged;
        Heuristic 1's bound is unaffected because it only depends on
        the centroid stream's emission order.
    within:
        Only records with aggregate distance ``<= within`` are returned;
        a finite bound makes Heuristic 1 fire before ``k`` answers exist
        (see :func:`~repro.core.mbm.mbm`).
    """
    if query.aggregate != "sum":
        raise ValueError("SPM is only defined for the sum aggregate")
    if query.weights is not None:
        raise ValueError("SPM does not support weighted queries; use MBM instead")

    tracker = CostTracker("SPM-best_first", trees=[tree])
    best = BestList(query.k, within)
    exclude = seed_from_delta(tree, query, best, overlay)
    if len(tree) > 0:
        centroid = compute_centroid(query.points, method=centroid_method)
        centroid_distance = group_distance(centroid, query.points)
        _spm_best_first(tree, query, centroid, centroid_distance, best, exclude)
    return GNNResult(neighbors=best.neighbors(), cost=tracker.finish())


def _spm_best_first(flat, query, centroid, centroid_distance, best, exclude=None) -> None:
    """Consume an incremental NN stream around the centroid until Heuristic 1 fires.

    The stream scores whole leaf slices per pop and carries the exact
    ``dist(p, Q)`` of every emitted point (computed per leaf in one
    kernel call, bit-identical to the scalar evaluation — the kernel
    conformance suite pins this), so the consumer below is a pure-float
    loop: Heuristic 1 is inlined with the same arithmetic as
    :func:`~repro.core.heuristics.heuristic1_prunes_point`, offers are
    skipped only when they provably cannot enter the top-k (``offer``
    would return False), and the distance-computation charge — ``n`` per
    consumed neighbor — is accumulated and recorded once.
    """
    n = query.cardinality

    def points_key(points):
        return kernels.point_distances(points, centroid)

    def mbrs_key(lows, highs):
        return kernels.boxes_mindist_point(lows, highs, centroid)

    stream = flat_incremental_nearest_generic(
        flat, points_key, mbrs_key, points_aux=query.distances_to
    )
    offer = best.offer
    consumed = 0
    best_dist = best.best_dist
    for neighbor in stream:
        # neighbor.distance is |p q|; the stream is ascending in it, so the
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
    flat.stats.record_distance_computations(n * consumed)
