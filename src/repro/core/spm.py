"""SPM — the single point method (Section 3.2 of the paper).

SPM performs a single traversal of the R-tree of ``P`` guided by the
(approximate) centroid ``c`` of the query group.  Lemma 1 gives the
pruning bound: for any point ``p``,

    ``dist(p, Q) >= n * |p c| - dist(c, Q)``

so a node or point whose key ``n * mindist(., c) - dist(c, Q)`` reaches
``best_dist`` cannot contain/cannot be a better neighbor (Heuristic 1).
That key has the shape of MBM's Heuristic 2, ``W * mindist(., M)``, with
the box ``M`` shrunk to the point ``c`` and an offset, so SPM is MBM's
best-first loop (:func:`repro.core.mbm._mbm_best_first`) under this key
in its cheap-key mode (no Heuristic 3): nodes are read in ascending key
and the search stops when the smallest key left reaches ``best_dist``,
so Heuristic 1 prunes nodes as well as points.  The key is monotone in ``mindist(., c)``,
so the visiting order is the paper's, nearest to the centroid first.
"""

from __future__ import annotations

import math

from repro.core.centroid import compute_centroid
from repro.core.mbm import _CHEAP, _delta, _mbm_best_first
from repro.core.types import BestList, GNNResult, GroupQuery, QueryCost
from repro.geometry.distance import group_distance
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay


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
        Optional pending writes over ``tree`` (its ``base``): the delta's
        pages join MBM's run heap under Heuristic 1's key, and tombstoned
        points are skipped before any aggregate distance is charged.
    within:
        Only records with aggregate distance ``<= within`` are returned;
        a finite bound makes Heuristic 1 fire before ``k`` answers exist
        (see :func:`~repro.core.mbm.mbm`).

    Each point whose key is below ``best_dist`` is charged ``n``
    distance computations; the keys themselves, like the centroid, are
    not charged.
    """
    if query.aggregate != "sum":
        raise ValueError("SPM is only defined for the sum aggregate")
    if query.weights is not None:
        raise ValueError("SPM does not support weighted queries; use MBM instead")

    cost = QueryCost(algorithm="SPM-best_first")
    best = BestList(query.k, within)
    pages, exclude = _delta(tree, overlay)
    centroid = compute_centroid(query.points, method=centroid_method)
    key = (query.cardinality, centroid, centroid, group_distance(centroid, query.points), 0)
    _mbm_best_first(tree, query, best, _CHEAP, cost, exclude, pages=pages, key=key)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())
