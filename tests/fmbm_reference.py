"""Per-point F-MBM: the reference ``repro.core.fmbm`` is proven against.

This is the leaf loop F-MBM ran before it became one ``(points x
blocks)`` matrix per leaf: surviving points are ``[row, accumulated]``
lists, blocks are sorted by the scalar ``mindist_mbr`` one summary at a time,
and the scalar Heuristic 6 below walks each point's remaining blocks
before every block read.  The production driver must return the same
neighbours and charge the same node accesses, page reads, block reads
and distance computations; the F-MBM CPU smoke guard times it against
this.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np
from geometry_reference import mindist_mbr, mindist_point

from repro.core.heuristics import heuristic5_prunes, heuristic5_prunes_batch
from repro.core.types import BestList, GNNResult, QueryCost
from repro.geometry import kernels
from repro.geometry.mbr import MBR


class BlockSummary:
    """The in-memory summary of one block: its MBR and cardinality."""

    __slots__ = ("index", "mbr", "cardinality")

    def __init__(self, index, mbr, cardinality):
        self.index = index
        self.mbr = mbr
        self.cardinality = cardinality


def heuristic6_prunes_point(point, accumulated_distance, remaining_summaries, best_dist) -> bool:
    """Heuristic 6 for one point, one remaining block at a time.

    ``curr_dist(p) + sum_{remaining i} n_i * mindist(p, M_i) >= best_dist``.
    """
    bound = accumulated_distance
    for summary in remaining_summaries:
        bound += summary.cardinality * mindist_point(summary.mbr, point)
        if bound >= best_dist:
            return True
    return bound >= best_dist


def fmbm_reference(tree, query_file, k=1) -> GNNResult:
    cost = QueryCost(algorithm="F-MBM")
    best = BestList(k)
    if len(tree) == 0 or len(query_file) == 0:
        return GNNResult(neighbors=[], cost=cost.finish())
    stacked = query_file.block_summaries()
    summaries = [
        BlockSummary(index, MBR(low, high), int(cardinality))
        for index, (low, high, cardinality) in enumerate(zip(*stacked))
    ]
    _fmbm_best_first(tree, query_file, summaries, stacked, best, cost)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _fmbm_best_first(flat, query_file, summaries, stacked, best, cost) -> None:
    summary_lows, summary_highs, cardinalities = stacked
    counter = itertools.count()
    heap: list[tuple[float, int, int]] = [(0.0, next(counter), 0)]
    while heap:
        bound, _, node_id = heapq.heappop(heap)
        if best.is_full() and heuristic5_prunes(bound, best.best_dist):
            break
        index = flat.read_node(node_id, cost)
        start = int(flat.child_start[index])
        stop = start + int(flat.child_count[index])
        if flat.levels[index] == 0:
            _process_leaf(flat, index, start, stop, query_file, summaries, stacked, best, cost)
            continue
        child_bounds = kernels.boxes_weighted_group_mindist(
            flat.lows[start:stop], flat.highs[start:stop], summary_lows, summary_highs, cardinalities
        )
        cost.record_distance_computations(len(summaries) * (stop - start))
        if best.is_full():
            survives = ~heuristic5_prunes_batch(child_bounds, best.best_dist)
        else:
            survives = np.ones(stop - start, dtype=bool)
        for offset in np.flatnonzero(survives):
            heapq.heappush(
                heap, (float(child_bounds[offset]), next(counter), start + int(offset))
            )


def _process_leaf(flat, index, start, stop, query_file, summaries, stacked, best, cost) -> None:
    summary_lows, summary_highs, cardinalities = stacked
    node_mbr = MBR(flat.lows[index], flat.highs[index])
    points = flat.points
    bounds = np.add.reduce(
        kernels.points_weighted_mindists(
            points[start:stop], summary_lows, summary_highs, cardinalities
        ),
        axis=1,
    )
    cost.record_distance_computations(len(summaries) * (stop - start))
    survivors = []
    for offset, bound in enumerate(bounds.tolist()):
        if best.is_full() and heuristic5_prunes(bound, best.best_dist):
            continue
        survivors.append([start + offset, 0.0])
    if not survivors:
        return

    ordered_blocks = sorted(
        summaries, key=lambda summary: mindist_mbr(node_mbr, summary.mbr), reverse=True
    )
    for position, summary in enumerate(ordered_blocks):
        if not survivors:
            return
        remaining = ordered_blocks[position + 1 :]
        block = query_file.read_block(summary.index, cost)
        still_alive = [
            item
            for item in survivors
            if not (
                best.is_full()
                and heuristic6_prunes_point(
                    points[item[0]], item[1], [summary] + remaining, best.best_dist
                )
            )
        ]
        if still_alive:
            stacked_points = points[[item[0] for item in still_alive]]
            contributions = kernels.aggregate_distances(stacked_points, block.points)
            cost.record_distance_computations(block.cardinality * len(still_alive))
            for item, contribution in zip(still_alive, contributions):
                item[1] += float(contribution)
        survivors = still_alive

    record_ids = flat.record_ids
    for row, accumulated in survivors:
        best.offer(int(record_ids[row]), points[row], accumulated)
