"""F-MQM — the file multiple query method (Section 4.2 of the paper).

F-MQM handles a disk-resident, non-indexed query set.  The query file is
Hilbert-sorted and split into memory-sized blocks ``Q_1 .. Q_m``.  Each
block behaves like a "super query point": an incremental *group* NN
stream (best-first over the R-tree of ``P``, ordered by the aggregate
distance to the block) retrieves its neighbors one at a time, and the
per-block thresholds ``t_j = dist(p_j, Q_j)`` are combined exactly as in
MQM — the global threshold ``T = sum_j t_j`` lower-bounds the aggregate
distance of every point not yet retrieved by *some* block.

The paper follows a lazy round-robin schedule to complete the global
distances of retrieved points; the implementation below performs the
same work per block visit (when block ``Q_j`` is resident, the distances
of all pending candidates to ``Q_j`` are accumulated), which completes
each candidate after one full round, and charges one block read per
visit.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregates import group_nn_stream
from repro.core.types import BestList, GNNResult, GroupQuery, QueryCost
from repro.geometry import kernels
from repro.rtree.flat import FlatRTree
from repro.storage.pointfile import PointFile


class _PendingCandidate:
    """A retrieved point whose global (all-blocks) distance is still partial."""

    __slots__ = ("point", "accumulated", "blocks_seen")

    def __init__(self, point):
        self.point = point
        self.accumulated = 0.0
        self.blocks_seen: set[int] = set()


def fmqm(tree: FlatRTree, query_file: PointFile, k: int = 1) -> GNNResult:
    """Run F-MQM over a disk-resident query file.

    Parameters
    ----------
    tree:
        Flat R-tree snapshot over the dataset ``P``.
    query_file:
        The (Hilbert-sorted) query file; its block structure defines the
        groups ``Q_1 .. Q_m``.
    k:
        Number of group nearest neighbors to return.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cost = QueryCost(algorithm="F-MQM")
    best = BestList(k)
    if len(tree) == 0 or len(query_file) == 0:
        return GNNResult(neighbors=[], cost=cost.finish())

    block_count = query_file.block_count
    streams = {}
    thresholds = [0.0] * block_count
    stream_exhausted = [False] * block_count
    pending: dict[int, _PendingCandidate] = {}
    finished: set[int] = set()

    while True:
        if best.is_full() and sum(thresholds) >= best.best_dist:
            break
        if all(stream_exhausted):
            break
        progressed = False
        for j in range(block_count):
            # Load Q_j (one block read per visit, as in the paper's
            # round-robin schedule) and advance its stream by one neighbor.
            block = query_file.read_block(j, cost)
            if not stream_exhausted[j]:
                if j not in streams:
                    # The block's group-NN stream, opened at its first
                    # visit; it charges every row and node it scores.
                    streams[j] = group_nn_stream(tree, GroupQuery(block.points), cost)
                neighbor = next(streams[j], None)
                if neighbor is None:
                    stream_exhausted[j] = True
                else:
                    progressed = True
                    thresholds[j] = neighbor.distance
                    record_id = neighbor.record_id
                    if record_id not in finished and record_id not in pending:
                        candidate = _PendingCandidate(neighbor.point)
                        pending[record_id] = candidate

            # While Q_j is resident, add it to every pending candidate
            # that has not seen it yet.
            _add_block(block, pending.values(), cost)
            for record_id in [r for r, c in pending.items() if len(c.blocks_seen) == block_count]:
                candidate = pending.pop(record_id)
                finished.add(record_id)
                best.offer(record_id, candidate.point, candidate.accumulated)

            if best.is_full() and sum(thresholds) >= best.best_dist:
                break
        if not progressed and not pending:
            break

    # Candidates retrieved shortly before the threshold fired may still
    # have partial global distances.  The paper's description glosses over
    # them; completing them costs at most one extra round of block reads
    # (the pending list never exceeds the number of blocks) and guarantees
    # the result is exact.
    for j in range(block_count):
        if any(j not in candidate.blocks_seen for candidate in pending.values()):
            _add_block(query_file.read_block(j, cost), pending.values(), cost)
    for record_id, candidate in pending.items():
        best.offer(record_id, candidate.point, candidate.accumulated)

    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _add_block(block, candidates, cost) -> None:
    """Add resident block ``Q_j``'s distances to every candidate that has not seen it.

    One kernel call covers the whole waiting set.
    """
    waiting = [candidate for candidate in candidates if block.index not in candidate.blocks_seen]
    if not waiting:
        return
    contributions = kernels.aggregate_distances(
        np.array([candidate.point for candidate in waiting]), block.points
    )
    cost.record_distance_computations(block.cardinality * len(waiting))
    for candidate, contribution in zip(waiting, contributions.tolist()):
        candidate.accumulated += contribution
        candidate.blocks_seen.add(block.index)
