"""The paper's pruning heuristics as standalone, unit-testable predicates.

Each function returns ``True`` when the candidate (node or point) can be
*pruned*, i.e. it provably cannot improve on the current ``best_dist``.
The algorithms in this package call these predicates rather than
inlining the inequalities, so the exact conditions of the paper are
visible in one place and covered by dedicated tests (including the
property-based ones that check they never prune the true answer).

One deliberate exception: ``repro.core.mbm`` (and SPM, which runs its
loop) compares *keys* instead.  Heuristic 1 enters as ``n * mindist(N,
c) - dist(c, Q)``, its rearrangement (:func:`heuristic1_prunes_point`
compares ``mindist(N, c)`` with ``(best_dist + dist(c, Q)) / n``),
Heuristic 2 as ``W * mindist(N, M)``, Heuristic 3 as the paper's bound,
each maxed into an entry's key and checked against ``best_dist`` once,
at the heap head or the leaf scan (``tests/mbm_reference.py`` and
``tests/spm_reference.py`` keep the predicate-by-predicate traversals
these keys are proven against).  The pinned answers and
counters of ``TestPinnedAccessCounters``
(``tests/test_algorithm_conformance.py``) and ``TestTraversalPins``
(``tests/test_rtree_flat.py``) are the backstop that catches a divergence.

F-MBM's weighted mindists come from two kernels:
``kernels.boxes_weighted_group_mindist`` for nodes and
``kernels.points_weighted_mindists``, a leaf's ``(points x blocks)``
matrix of ``n_i * mindist(p, M_i)``.  Heuristic 5 reads the matrix's row
sums; Heuristic 6 reads the columns of the blocks not read yet.
``tests/fmbm_reference.py`` keeps the per-point leaf loop the array form
is proven against.

Numbering follows the paper:

* Heuristic 1 — SPM, centroid-based node pruning (Section 3.2)
* Heuristic 2 — MBM, query-MBR node pruning (Section 3.3)
* Heuristic 3 — MBM, per-query-point mindist pruning (Section 3.3)
* Heuristic 4 — GCP, partial-distance pruning (Section 4.1)
* Heuristic 5 — F-MBM, weighted-mindist node pruning (Section 4.3)
* Heuristic 6 — F-MBM, per-point remaining-group pruning (Section 4.3),
  over every surviving point of a leaf at once
* *not from the paper* — MBM's tangent planes for the sum aggregate
  (``geometry.kernels.group_tangent_planes``): ``dist(., Q)`` is convex,
  so its tangent plane at a point of ``N`` bounds it over ``N`` and over
  everything inside ``N``.  Its minimum joins Heuristic 3 in
  :mod:`repro.core.mbm`'s keys; Heuristic 3 as printed is what
  ``algorithm="best-first"`` runs.
"""

from __future__ import annotations

import numpy as np


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

    Compared multiplied out, ``n * mindist(N, M) >= best_dist``: that is
    the bound the MBM driver keys on, and a quotient can round
    ``best_dist / n`` down onto the mindist of a point whose distance is
    exactly a ``within`` ceiling, pruning it.  ``group_cardinality``
    generalises to the total weight for weighted queries, so any
    positive value is accepted.
    """
    if group_cardinality <= 0:
        raise ValueError("the query group must have positive cardinality/weight")
    return group_cardinality * mindist_to_query_mbr >= best_dist


def heuristic2_prunes_batch(
    mindists_to_query_mbr: np.ndarray, best_dist: float, group_cardinality: float
) -> np.ndarray:
    """Vectorised :func:`heuristic2_prunes` for an array of mindists."""
    if group_cardinality <= 0:
        raise ValueError("the query group must have positive cardinality/weight")
    return group_cardinality * mindists_to_query_mbr >= best_dist


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


def heuristic5_prunes(weighted_mindist_value: float, best_dist: float) -> bool:
    """Heuristic 5 (F-MBM): prune node N when its weighted mindist reaches ``best_dist``."""
    return weighted_mindist_value >= best_dist


def heuristic5_prunes_batch(weighted_mindists: np.ndarray, best_dist: float) -> np.ndarray:
    """Vectorised :func:`heuristic5_prunes` for an array of weighted mindists."""
    return weighted_mindists >= best_dist


def heuristic6_prunes(
    accumulated: np.ndarray, remaining: np.ndarray, best_dist: float
) -> np.ndarray:
    """Heuristic 6 (F-MBM): prune point p when

    ``curr_dist(p) + sum_{remaining i} n_i * mindist(p, M_i) >= best_dist``.

    Vectorised over points: ``accumulated`` holds each point's
    ``curr_dist``, the exact distance to the blocks read so far, and row
    ``j`` of ``remaining`` its ``n_i * mindist(p, M_i)`` for the blocks
    not read yet, in read order.  The terms are added to
    ``curr_dist`` left to right, so each bound is the one a per-point
    running sum reaches.
    """
    stacked = np.column_stack((accumulated, remaining))
    return np.add.accumulate(stacked, axis=1)[:, -1] >= best_dist
