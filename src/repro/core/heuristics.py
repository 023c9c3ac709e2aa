"""The paper's pruning heuristics, and where each one lives.

Numbering follows the paper:

* Heuristic 1 — SPM, centroid-based node pruning (Section 3.2): the key
  ``n * mindist(N, c) - dist(c, Q)`` that :mod:`repro.core.spm` hands
  to MBM's loop;
* Heuristic 2 — MBM, query-MBR node pruning (Section 3.3): MBM's cheap
  key ``W * mindist(N, M)`` (``repro.core.mbm._heuristic2``);
* Heuristic 3 — MBM, per-query-point mindist pruning (Section 3.3):
  ``kernels.boxes_group_mindist``, the key of ``algorithm="best-first"``
  and of MBM's ``max``/``min``;
* Heuristic 4 — GCP, partial-distance pruning (Section 4.1):
  :func:`heuristic4_prunes` and :func:`gcp_candidate_threshold` below,
  called by :mod:`repro.core.gcp`;
* Heuristic 5 — F-MBM, weighted-mindist node pruning (Section 4.3):
  :func:`heuristic5_prunes` below, over
  ``kernels.boxes_weighted_group_mindist`` for nodes and the row sums
  of ``kernels.points_weighted_mindists``, a leaf's ``(points x
  blocks)`` matrix of ``n_i * mindist(p, M_i)``;
* Heuristic 6 — F-MBM, per-point remaining-group pruning (Section 4.3):
  :func:`heuristic6_prunes` below, over the columns of that matrix for
  the blocks not read yet, every surviving point of a leaf at once;
* *not from the paper* — MBM's tangent planes for the sum aggregate
  (``geometry.kernels.group_tangent_planes``): ``dist(., Q)`` is convex,
  so its tangent plane at a point of ``N`` bounds it over ``N`` and over
  everything inside ``N``.  Its minimum joins Heuristic 3 in
  :mod:`repro.core.mbm`'s keys.

Heuristics 1-3 are no predicates: MBM's loop, which also runs SPM and
best-first, maxes each into an entry's key and checks the key against
``best_dist`` once, at the heap head or the leaf scan.
``tests/heuristics_reference.py`` keeps them as predicates, and
``tests/mbm_reference.py`` and ``tests/spm_reference.py`` the
predicate-by-predicate traversals the keys are proven against
(``tests/fmbm_reference.py`` is F-MBM's per-point leaf loop).  The
pinned answers and counters of ``TestPinnedAccessCounters``
(``tests/test_algorithm_conformance.py``) and ``TestTraversalPins``
(``tests/test_rtree_flat.py``) are the backstop that catches a
divergence.
"""

from __future__ import annotations

import numpy as np


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
