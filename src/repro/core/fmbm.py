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

from repro.core.heuristics import (
    heuristic5_prunes,
    heuristic5_prunes_batch,
    heuristic6_prunes,
    stack_summaries,
    weighted_mindist_batch,
)
from repro.core.instrumentation import CostTracker
from repro.core.types import BestList, GNNResult
from repro.geometry import kernels
from repro.geometry.mbr import MBR
from repro.rtree.flat import FlatRTree
from repro.storage.pointfile import PointFile


def fmbm(
    tree: FlatRTree,
    query_file: PointFile,
    k: int = 1,
    charge_summary_scan: bool = False,
) -> GNNResult:
    """Run F-MBM over a disk-resident query file.

    Parameters
    ----------
    tree:
        Flat R-tree snapshot over the dataset ``P``.
    query_file:
        The (Hilbert-sorted) query file.
    k:
        Number of group nearest neighbors to return.
    charge_summary_scan:
        The per-block summaries can be produced during the external sort
        the paper excludes from the measured cost; set this to True to
        charge the extra sequential scan anyway.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    tracker = CostTracker("F-MBM", trees=[tree], io_counters=[query_file.counters])
    best = BestList(k)
    if len(tree) == 0 or len(query_file) == 0:
        return GNNResult(neighbors=[], cost=tracker.finish())

    summaries = _collect_summaries(query_file, charge_summary_scan)
    stacked = stack_summaries(summaries)

    _fmbm_best_first(tree, query_file, summaries, stacked, best)
    return GNNResult(neighbors=best.neighbors(), cost=tracker.finish())


def _collect_summaries(query_file: PointFile, charge_summary_scan: bool):
    """Build the in-memory (MBR, cardinality) summary of every block."""
    if charge_summary_scan:
        return query_file.block_summaries()
    # Build summaries without charging I/O: the scan piggybacks on the
    # external sort, whose cost the paper excludes.
    from repro.storage.pointfile import BlockSummary

    summaries = []
    charged = query_file.counters.snapshot()
    for block in query_file.iter_blocks():
        summaries.append(BlockSummary(block.index, block.mbr, block.cardinality))
    # Roll back the charges made by iter_blocks.
    query_file.counters.page_reads = charged["page_reads"]
    query_file.counters.block_reads = charged["block_reads"]
    return summaries


def _fmbm_best_first(flat, query_file, summaries, stacked, best) -> None:
    """Best-first traversal ordered by the weighted mindist of Heuristic 5.

    ``stacked`` holds the summaries' (lows, highs, cardinalities) arrays
    so each popped node scores its whole child slice in one kernel call.
    """
    summary_lows, summary_highs, cardinalities = stacked
    counter = itertools.count()
    heap: list[tuple[float, int, int]] = [(0.0, next(counter), 0)]
    while heap:
        bound, _, node_id = heapq.heappop(heap)
        if best.is_full() and heuristic5_prunes(bound, best.best_dist):
            break
        index = flat.read_node(node_id)
        start = int(flat.child_start[index])
        stop = start + int(flat.child_count[index])
        if flat.levels[index] == 0:
            _process_leaf(flat, index, start, stop, query_file, summaries, stacked, best)
            continue
        lows = flat.lows[start:stop]
        highs = flat.highs[start:stop]
        child_bounds = weighted_mindist_batch(
            lows, highs, summary_lows, summary_highs, cardinalities
        )
        flat.stats.record_distance_computations(len(summaries) * (stop - start))
        if best.is_full():
            survives = ~heuristic5_prunes_batch(child_bounds, best.best_dist)
        else:
            survives = np.ones(stop - start, dtype=bool)
        for offset in np.flatnonzero(survives):
            heapq.heappush(
                heap, (float(child_bounds[offset]), next(counter), start + int(offset))
            )


def _process_leaf(flat, index, start, stop, query_file, summaries, stacked, best) -> None:
    """Accumulate exact block distances for the points of one leaf node.

    Implements the leaf-level loop of Figure 4.7: points are ordered by
    weighted mindist (one kernel call for the whole leaf), blocks are
    read in descending ``mindist(N, M_i)`` order, Heuristic 6 drops
    points as soon as their optimistic completion can no longer beat
    ``best_dist``, and each block's exact distances are accumulated for
    all still-alive points in one kernel call.
    """
    summary_lows, summary_highs, cardinalities = stacked
    node_mbr = MBR(flat.lows[index], flat.highs[index])
    points = flat.points
    bounds = kernels.points_weighted_group_mindist(
        points[start:stop], summary_lows, summary_highs, cardinalities
    )
    flat.stats.record_distance_computations(len(summaries) * (stop - start))
    # Survivors: list of [row, accumulated_distance].
    survivors = []
    for offset, bound in enumerate(bounds.tolist()):
        if best.is_full() and heuristic5_prunes(bound, best.best_dist):
            continue
        survivors.append([start + offset, 0.0])
    if not survivors:
        return

    # Blocks far from the leaf are processed first: they contribute large
    # distances and therefore prune points before the expensive
    # computations against the remaining blocks.
    ordered_blocks = sorted(
        summaries, key=lambda summary: node_mbr.mindist_mbr(summary.mbr), reverse=True
    )

    for position, summary in enumerate(ordered_blocks):
        if not survivors:
            return
        remaining = ordered_blocks[position + 1 :]
        block = query_file.read_block(summary.index)
        still_alive = [
            item
            for item in survivors
            if not (
                best.is_full()
                and heuristic6_prunes(
                    points[item[0]], item[1], [summary] + remaining, best.best_dist
                )
            )
        ]
        if still_alive:
            stacked_points = points[[item[0] for item in still_alive]]
            contributions = kernels.aggregate_distances(stacked_points, block.points)
            flat.stats.record_distance_computations(block.cardinality * len(still_alive))
            for item, contribution in zip(still_alive, contributions):
                item[1] += float(contribution)
        survivors = still_alive

    record_ids = flat.record_ids
    for row, accumulated in survivors:
        best.offer(int(record_ids[row]), points[row], accumulated)
