"""F-MBM — the file minimum bounding method (Section 4.3 of the paper).

F-MBM handles a disk-resident, non-indexed query set without performing
one query per block.  After the Hilbert sort, only the *summary* of each
block — its MBR ``M_i`` and cardinality ``n_i`` — is kept in memory.
The R-tree of ``P`` is traversed once:

* **Heuristic 5** prunes a node ``N`` when its *weighted mindist*
  ``sum_i n_i * mindist(N, M_i)`` reaches ``best_dist``.
* At a leaf, the surviving points accumulate their exact distances block
  by block; blocks are read in **descending** ``mindist(N, M_i)`` order
  so that far-away blocks get the chance to discard points early.
* **Heuristic 6** drops a point as soon as its accumulated distance plus
  the weighted mindist to the not-yet-read blocks reaches ``best_dist``.

The traversal is best-first, as in the paper's experiments.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.core.heuristics import heuristic5_prunes, heuristic5_prunes_batch, heuristic6_prunes
from repro.core.types import BestList, GNNResult, QueryCost
from repro.geometry import kernels
from repro.rtree.flat import FlatRTree
from repro.storage.pointfile import PointFile


def fmbm(tree: FlatRTree, query_file: PointFile, k: int = 1) -> GNNResult:
    """Run F-MBM over a disk-resident query file.

    Parameters
    ----------
    tree:
        Flat R-tree snapshot over the dataset ``P``.
    query_file:
        The (Hilbert-sorted) query file.  Its block summaries come free
        with the external sort, as in the paper; only the blocks the
        leaves read are charged.
    k:
        Number of group nearest neighbors to return.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cost = QueryCost(algorithm="F-MBM")
    best = BestList(k)
    if len(tree) == 0 or len(query_file) == 0:
        return GNNResult(neighbors=[], cost=cost.finish())

    _fmbm_best_first(tree, query_file, query_file.block_summaries(), best, cost)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _fmbm_best_first(flat, query_file, summaries, best, cost) -> None:
    """Best-first traversal ordered by the weighted mindist of Heuristic 5.

    ``summaries`` holds the blocks' (lows, highs, cardinalities) arrays
    so each popped node scores its whole child slice in one kernel call.
    Every read and distance computation is charged to ``cost``.
    """
    summary_lows, summary_highs, cardinalities = summaries
    counter = itertools.count()
    heap: list[tuple[float, int, int]] = [(0.0, next(counter), 0)]
    while heap:
        bound, _, node_id = heapq.heappop(heap)
        if heuristic5_prunes(bound, best.best_dist):
            break
        index = flat.read_node(node_id, cost)
        start = int(flat.child_start[index])
        stop = start + int(flat.child_count[index])
        if flat.levels[index] == 0:
            _process_leaf(flat, index, start, stop, query_file, summaries, best, cost)
            continue
        child_bounds = kernels.boxes_weighted_group_mindist(
            flat.lows[start:stop], flat.highs[start:stop], summary_lows, summary_highs, cardinalities
        )
        cost.record_distance_computations(child_bounds.size * len(cardinalities))
        survives = ~heuristic5_prunes_batch(child_bounds, best.best_dist)
        for offset in np.flatnonzero(survives):
            heapq.heappush(
                heap, (float(child_bounds[offset]), next(counter), start + int(offset))
            )


def _process_leaf(flat, index, start, stop, query_file, summaries, best, cost) -> None:
    """Accumulate exact block distances for the points of one leaf node.

    Implements the leaf-level loop of Figure 4.7 over one ``(points x
    blocks)`` matrix of weighted mindists: its row sums are Heuristic 5,
    blocks are read in descending ``mindist(N, M_i)`` order, Heuristic 6
    drops points as soon as their optimistic completion can no longer
    beat ``best_dist``, and each block's exact distances are accumulated
    for all still-alive points in one kernel call.
    """
    summary_lows, summary_highs, cardinalities = summaries
    points = flat.points[start:stop]
    terms = kernels.points_weighted_mindists(points, summary_lows, summary_highs, cardinalities)
    cost.record_distance_computations(terms.size)
    rows = np.flatnonzero(~heuristic5_prunes_batch(np.add.reduce(terms, axis=1), best.best_dist))
    if not rows.size:
        return

    # Blocks far from the leaf are processed first: they contribute large
    # distances and therefore prune points before the expensive
    # computations against the remaining blocks.
    node_mindists = kernels.boxes_mindist_boxes(
        flat.lows[index : index + 1], flat.highs[index : index + 1], summary_lows, summary_highs
    )
    order = np.argsort(-node_mindists[:, 0], kind="stable")
    terms = terms[:, order]
    accumulated = np.zeros(rows.size)
    for position, block_index in enumerate(order.tolist()):
        block = query_file.read_block(block_index, cost)
        alive = ~heuristic6_prunes(accumulated, terms[rows, position:], best.best_dist)
        rows, accumulated = rows[alive], accumulated[alive]
        if not rows.size:
            return
        accumulated += kernels.aggregate_distances(points[rows], block.points)
        cost.record_distance_computations(block.cardinality * rows.size)

    record_ids = flat.record_ids[start:stop]
    for row, distance in zip(rows.tolist(), accumulated.tolist()):
        best.offer(int(record_ids[row]), points[row], distance)
