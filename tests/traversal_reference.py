"""The conventional point-NN stream: the oracle the traversal tests and MQM's reference run.

:func:`incremental_nearest` is :func:`~repro.rtree.traversal.flat_incremental_nearest_generic`
keyed by the distance to one point, the best-first "distance browsing"
search of [HS99]; :func:`best_first_nearest` is its ``k``-prefix.  No
query path runs them: MQM drives all ``n`` streams of a group as one
:class:`~repro.rtree.traversal.MultiStreamFrontier`, which
``mqm_reference`` checks against ``n`` of these generators.  The tests
of the generic stream's order, laziness and per-query charging use
them, and the stream-throughput smoke guard times one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.geometry import kernels
from repro.geometry.point import as_point
from repro.rtree.flat import FlatRTree
from repro.rtree.traversal import Neighbor, flat_incremental_nearest_generic


def as_tuple(neighbor: Neighbor) -> tuple[int, float]:
    """``(record_id, distance)`` of a stream item, for compact comparisons."""
    return (neighbor.record_id, neighbor.distance)


def incremental_nearest(flat: FlatRTree, query: Sequence[float], cost=None) -> Iterator[Neighbor]:
    """Yield indexed points in ascending distance from ``query``, reads charged to ``cost``."""
    q = as_point(query, dims=flat.dims)

    def points_key(points: np.ndarray) -> np.ndarray:
        return kernels.point_distances(points, q)

    def mbrs_key(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return kernels.boxes_mindist_point(lows, highs, q)

    return flat_incremental_nearest_generic(flat, points_key, mbrs_key, cost=cost)


def best_first_nearest(flat: FlatRTree, query: Sequence[float], k: int = 1) -> list[Neighbor]:
    """Return the ``k`` nearest neighbors of ``query`` using best-first search."""
    if k < 1:
        raise ValueError("k must be at least 1")
    results: list[Neighbor] = []
    for neighbor in incremental_nearest(flat, query):
        results.append(neighbor)
        if len(results) == k:
            break
    return results
