"""The paper's Heuristics 1-3 as standalone predicates: the oracle MBM's keys are proven against.

Each function returns ``True`` when the candidate (node or point) can be
*pruned*, i.e. it provably cannot improve on the current ``best_dist``.
:mod:`repro.core.mbm`'s loop, which runs MBM, SPM and best-first, does
not call them: it carries each rule as key data (Heuristic 1 as ``n *
mindist(., c) - dist(c, Q)``, Heuristic 2 as ``W * mindist(., M)``,
Heuristic 3 as the paper's bound) and compares one key with
``best_dist``.  ``mbm_reference`` prunes predicate by predicate with
these, and ``test_core_heuristics`` checks them on the paper's figures
and for soundness.
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
