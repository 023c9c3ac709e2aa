"""The paper's pruning heuristics as standalone, unit-testable predicates.

Each function returns ``True`` when the candidate (node or point) can be
*pruned*, i.e. it provably cannot improve on the current ``best_dist``.
The algorithms in this package call these predicates rather than
inlining the inequalities, so the exact conditions of the paper are
visible in one place and covered by dedicated tests (including the
property-based ones that check they never prune the true answer).

Two deliberate exceptions.  ``repro.core.spm._spm_best_first``
(Heuristic 1) replicates the inequality inline because a predicate call
per candidate is exactly the per-item overhead that loop exists to
remove; **any change to the comparison in**
:func:`heuristic1_prunes_point` **must be mirrored there**.
``repro.core.mbm`` compares *keys* instead: Heuristic 2 enters as
``W * mindist(N, M)``, Heuristic 3 as the paper's bound, each maxed into
an entry's key and checked against ``best_dist`` once, at the heap head
or the leaf scan (``tests/mbm_reference.py`` keeps the predicate-by-
predicate MBM these keys are proven against).  The pinned answers and
counters of ``TestPinnedAccessCounters``
(``tests/test_algorithm_conformance.py``) and ``TestTraversalPins``
(``tests/test_rtree_flat.py``) are the backstop that catches a divergence.

Numbering follows the paper:

* Heuristic 1 — SPM, centroid-based node pruning (Section 3.2)
* Heuristic 2 — MBM, query-MBR node pruning (Section 3.3)
* Heuristic 3 — MBM, per-query-point mindist pruning (Section 3.3)
* Heuristic 4 — GCP, partial-distance pruning (Section 4.1)
* Heuristic 5 — F-MBM, weighted-mindist node pruning (Section 4.3)
* Heuristic 6 — F-MBM, per-point remaining-group pruning (Section 4.3)
* *not from the paper* — MBM's tangent planes for the sum aggregate
  (``geometry.kernels.group_tangent_planes``): ``dist(., Q)`` is convex,
  so its tangent plane at a point of ``N`` bounds it over ``N`` and over
  everything inside ``N``.  Its minimum joins Heuristic 3 in
  :mod:`repro.core.mbm`'s keys; Heuristic 3 as printed is what
  ``algorithm="best-first"`` runs.

Lemma 1 (the triangle-inequality bound behind Heuristic 1) is also
exposed for direct testing.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geometry import kernels
from repro.geometry.distance import euclidean, group_distance
from repro.geometry.mbr import MBR


def lemma1_lower_bound(point, reference, group, reference_distance: float | None = None) -> float:
    """Lower bound on ``dist(p, Q)`` from Lemma 1: ``n*|pq| - dist(q, Q)``.

    ``reference`` is the arbitrary point ``q`` (SPM uses the approximate
    centroid); ``reference_distance`` caches ``dist(q, Q)`` when the
    caller already knows it.
    """
    group = np.asarray(group, dtype=np.float64)
    n = group.shape[0]
    if reference_distance is None:
        reference_distance = group_distance(reference, group)
    return n * euclidean(point, reference) - reference_distance


def heuristic1_prunes_node(
    mindist_node_centroid: float,
    best_dist: float,
    centroid_group_distance: float,
    group_cardinality: int,
) -> bool:
    """Heuristic 1: prune node N when ``mindist(N, q) >= (best_dist + dist(q, Q)) / n``."""
    if group_cardinality < 1:
        raise ValueError("the query group must contain at least one point")
    bound = (best_dist + centroid_group_distance) / group_cardinality
    return mindist_node_centroid >= bound


def heuristic1_prunes_point(
    distance_point_centroid: float,
    best_dist: float,
    centroid_group_distance: float,
    group_cardinality: int,
) -> bool:
    """Heuristic 1 applied at the leaf level: prune point p when ``|pq| >= (best_dist + dist(q, Q)) / n``."""
    return heuristic1_prunes_node(
        distance_point_centroid, best_dist, centroid_group_distance, group_cardinality
    )


def heuristic2_prunes(mindist_to_query_mbr: float, best_dist: float, group_cardinality: float) -> bool:
    """Heuristic 2: prune node (or point) when ``mindist(N, M) >= best_dist / n``.

    ``group_cardinality`` generalises to the total weight for weighted
    queries, so any positive value is accepted.
    """
    if group_cardinality <= 0:
        raise ValueError("the query group must have positive cardinality/weight")
    return mindist_to_query_mbr >= best_dist / group_cardinality


def heuristic2_prunes_batch(
    mindists_to_query_mbr: np.ndarray, best_dist: float, group_cardinality: float
) -> np.ndarray:
    """Vectorised :func:`heuristic2_prunes` for an array of mindists."""
    if group_cardinality <= 0:
        raise ValueError("the query group must have positive cardinality/weight")
    return mindists_to_query_mbr >= best_dist / group_cardinality


def heuristic3_prunes(mbr: MBR, query_points: np.ndarray, best_dist: float) -> bool:
    """Heuristic 3: prune node N when ``sum_i mindist(N, q_i) >= best_dist``."""
    total = float(mbr.mindist_points(query_points).sum())
    return total >= best_dist


def heuristic3_prunes_precomputed(summed_mindist: float, best_dist: float) -> bool:
    """Heuristic 3 when the caller already summed the per-query mindists."""
    return summed_mindist >= best_dist


def heuristic3_prunes_batch(summed_mindists: np.ndarray, best_dist: float) -> np.ndarray:
    """Vectorised :func:`heuristic3_prunes_precomputed` for an array of bounds."""
    return summed_mindists >= best_dist


def heuristic4_prunes(
    group_cardinality: int,
    pair_count: int,
    current_pair_distance: float,
    accumulated_distance: float,
    best_dist: float,
) -> bool:
    """Heuristic 4 (GCP): prune candidate p when

    ``(n - counter(p)) * dist(p_i, q_j) + curr_dist(p) >= best_dist``.

    ``current_pair_distance`` is the distance of the closest pair just
    emitted; every not-yet-seen distance of ``p`` is at least that large
    because the stream is non-decreasing.
    """
    remaining = group_cardinality - pair_count
    if remaining < 0:
        raise ValueError("pair_count cannot exceed the group cardinality")
    return remaining * current_pair_distance + accumulated_distance >= best_dist


def gcp_candidate_threshold(
    group_cardinality: int,
    pair_count: int,
    accumulated_distance: float,
    best_dist: float,
) -> float:
    """Per-candidate threshold ``t_i = (best_dist - curr_dist) / (n - counter)`` of GCP.

    The global threshold T is the maximum of these values over the
    qualifying list; GCP stops once the emitted pair distance reaches T.
    """
    remaining = group_cardinality - pair_count
    if remaining <= 0:
        raise ValueError("the candidate already has a complete distance")
    return (best_dist - accumulated_distance) / remaining


def stack_summaries(block_summaries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack block summaries into (lows, highs, cardinalities) kernel inputs."""
    lows = np.array([summary.mbr.low for summary in block_summaries], dtype=np.float64)
    highs = np.array([summary.mbr.high for summary in block_summaries], dtype=np.float64)
    cards = np.array([summary.cardinality for summary in block_summaries], dtype=np.float64)
    return lows, highs, cards


def weighted_mindist(mbr_or_point, block_summaries) -> float:
    """The weighted mindist of Heuristic 5: ``sum_i n_i * mindist(N, M_i)``.

    Accepts either an :class:`~repro.geometry.mbr.MBR` (node pruning) or
    a point (leaf-level ordering in F-MBM).  The batched form used on the
    hot path is :func:`weighted_mindist_batch`.
    """
    lows, highs, cards = stack_summaries(block_summaries)
    if isinstance(mbr_or_point, MBR):
        values = kernels.boxes_weighted_group_mindist(
            mbr_or_point.low[None, :], mbr_or_point.high[None, :], lows, highs, cards
        )
    else:
        point = np.asarray(mbr_or_point, dtype=np.float64)
        values = kernels.points_weighted_group_mindist(point[None, :], lows, highs, cards)
    return float(values[0])


def weighted_mindist_batch(
    lows: np.ndarray,
    highs: np.ndarray,
    summary_lows: np.ndarray,
    summary_highs: np.ndarray,
    cardinalities: np.ndarray,
) -> np.ndarray:
    """Heuristic-5 weighted mindist for a whole child list in one kernel call."""
    return kernels.boxes_weighted_group_mindist(
        lows, highs, summary_lows, summary_highs, cardinalities
    )


def heuristic5_prunes(weighted_mindist_value: float, best_dist: float) -> bool:
    """Heuristic 5 (F-MBM): prune node N when its weighted mindist reaches ``best_dist``."""
    return weighted_mindist_value >= best_dist


def heuristic5_prunes_batch(weighted_mindists: np.ndarray, best_dist: float) -> np.ndarray:
    """Vectorised :func:`heuristic5_prunes` for an array of weighted mindists."""
    return weighted_mindists >= best_dist


def heuristic6_prunes(
    point,
    accumulated_distance: float,
    remaining_summaries: Sequence,
    best_dist: float,
) -> bool:
    """Heuristic 6 (F-MBM): prune point p when

    ``curr_dist(p) + sum_{remaining i} n_i * mindist(p, M_i) >= best_dist``.

    ``remaining_summaries`` are the blocks whose exact distances have not
    been accumulated into ``accumulated_distance`` yet.
    """
    bound = accumulated_distance
    for summary in remaining_summaries:
        bound += summary.cardinality * summary.mbr.mindist_point(point)
        if bound >= best_dist:
            return True
    return bound >= best_dist
