"""Brute-force GNN baseline.

Scans the entire dataset and evaluates the aggregate distance of every
point.  It is used (i) as the ground truth that every algorithm is
checked against in the test suite, and (ii) as a sanity baseline in the
benchmark harness (the paper does not plot it, but it makes the wins of
the indexed algorithms tangible).
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.geometry import kernels
from repro.geometry.point import as_points
from repro.core.types import GNNResult, GroupNeighbor, GroupQuery, QueryCost


def brute_force_gnn(
    points, query: GroupQuery, record_ids=None, within: float = math.inf
) -> GNNResult:
    """Return the exact top-k group neighbors by exhaustive scan.

    ``points`` is the full dataset ``P`` as an ``(N, dims)`` array whose
    row indices serve as record ids — unless ``record_ids`` supplies the
    id of each row explicitly (the write path hands live views whose
    rows no longer coincide with record ids after deletions).  The whole
    scan is a single call of the aggregate-distance kernel (weights were
    validated by the query).  The answer is the first ``k`` records in
    ``(distance, record id)`` order, so a tie at the k-th distance keeps
    the smallest ids.  Only records with aggregate distance ``<= within``
    are returned.
    """
    started = time.thread_time()
    pts = as_points(points)
    distances = kernels.aggregate_distances(
        pts, query.points, weights=query.weights, aggregate=query.aggregate
    )
    k = min(query.k, pts.shape[0])
    if record_ids is None:
        ids = np.arange(pts.shape[0], dtype=np.int64)
    else:
        ids = np.asarray(record_ids, dtype=np.int64)
    # The k-th distance in O(N); every record at or under it is a
    # candidate, so the ids, not argpartition, decide a tie.
    kth = np.partition(distances, k - 1)[k - 1]
    candidates = np.flatnonzero(distances <= kth)
    order = candidates[np.lexsort((ids[candidates], distances[candidates]))][:k]
    order = order[distances[order] <= within]
    neighbors = [GroupNeighbor(int(ids[i]), pts[i], float(distances[i])) for i in order]
    cost = QueryCost(
        algorithm="brute-force",
        distance_computations=int(pts.shape[0] * query.cardinality),
        cpu_time=time.thread_time() - started,
    )
    return GNNResult(neighbors=neighbors, cost=cost)
