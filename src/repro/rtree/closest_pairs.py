"""Incremental closest-pair join between two flat R-tree snapshots.

The GCP algorithm of Section 4.1 of the paper consumes an *incremental*
closest-pair stream: pairs ``(p, q)`` with ``p`` from the data index and
``q`` from the query index, reported in ascending order of their
Euclidean distance.  The implementation below follows the heap-based
approach of [HS98] / [CMTV00]: a priority queue holds node/node,
node/point and point/point pairs keyed by ``mindist``; popping a
point/point pair emits it, popping anything else expands one side.

Node reads on both indexes are charged to the one record given, so GCP
reports the combined NA of the data and the query tree, as the paper does.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator

from repro.geometry import kernels
from repro.rtree.flat import FlatRTree


class PairResult:
    """One emitted closest pair."""

    __slots__ = ("data_id", "data_point", "query_id", "query_point", "distance")

    def __init__(self, data_id, data_point, query_id, query_point, distance):
        self.data_id = int(data_id)
        self.data_point = data_point
        self.query_id = int(query_id)
        self.query_point = query_point
        self.distance = float(distance)

    def __repr__(self) -> str:
        return (
            f"PairResult(data_id={self.data_id}, query_id={self.query_id}, "
            f"distance={self.distance:.6g})"
        )


def _bounds(flat: FlatRTree, item: int):
    """The ``(low, high)`` corners of one side of a candidate pair.

    A side is a plain int: a node id when non-negative, the point in row
    ``~item`` of ``flat.points`` when negative (a degenerate box).
    """
    if item < 0:
        point = flat.points[~item]
        return point, point
    return flat.lows[item], flat.highs[item]


def _expand(flat: FlatRTree, cost, node_id: int, other_low, other_high):
    """Read one node; return its children as side ints plus their mindists.

    The mindists of the whole child slice against the other side's box
    are computed in one batched kernel call (the children of a leaf are
    degenerate boxes, so their point slice serves as both corners).
    """
    index = flat.read_node(node_id, cost)
    start = int(flat.child_start[index])
    stop = start + int(flat.child_count[index])
    if flat.levels[index] == 0:
        coords = flat.points[start:stop]
        mindists = kernels.boxes_mindist_box(coords, coords, other_low, other_high)
        return range(~start, ~stop, -1), mindists.tolist()
    mindists = kernels.boxes_mindist_box(
        flat.lows[start:stop], flat.highs[start:stop], other_low, other_high
    )
    return range(start, stop), mindists.tolist()


def incremental_closest_pairs(
    data_tree: FlatRTree, query_tree: FlatRTree, cost=None
) -> Iterator[PairResult]:
    """Yield ``(p, q)`` pairs in non-decreasing distance order.

    Reads of both trees are charged to ``cost`` (not counted when ``None``).

    The stream, when exhausted, enumerates the full Cartesian product of
    the two datasets; GCP normally stops consuming it long before that.
    """
    if len(data_tree) == 0 or len(query_tree) == 0:
        return
    counter = itertools.count()
    data_levels = data_tree.levels
    query_levels = query_tree.levels
    # The root pair is alone in the heap and popped first whatever its key.
    heap: list[tuple[float, int, int, int]] = [(0.0, next(counter), 0, 0)]

    while heap:
        distance, _, item_p, item_q = heapq.heappop(heap)

        if item_p < 0 and item_q < 0:
            row_p, row_q = ~item_p, ~item_q
            yield PairResult(
                data_tree.record_ids[row_p],
                data_tree.points[row_p],
                query_tree.record_ids[row_q],
                query_tree.points[row_q],
                distance,
            )
            continue

        # Expand one side: prefer the higher node (keeps the heap shallow
        # and mirrors the "expand the larger node" policy of [CMTV00]).
        if item_p >= 0 and (item_q < 0 or data_levels[item_p] >= query_levels[item_q]):
            children, mindists = _expand(data_tree, cost, item_p, *_bounds(query_tree, item_q))
            for child, mindist in zip(children, mindists):
                heapq.heappush(heap, (mindist, next(counter), child, item_q))
        else:
            children, mindists = _expand(query_tree, cost, item_q, *_bounds(data_tree, item_p))
            for child, mindist in zip(children, mindists):
                heapq.heappush(heap, (mindist, next(counter), item_p, child))
