"""GCP — the group closest pairs method (Section 4.1 of the paper).

GCP handles a disk-resident query set that is *indexed* by its own
R-tree.  It consumes an incremental closest-pair stream between the data
tree and the query tree; every emitted pair ``(p_i, q_j)`` contributes
``|p_i q_j|`` to the accumulated distance of ``p_i``.  When a data point
has appeared in ``n`` pairs its aggregate distance is complete and it is
a candidate result.

Two mechanisms bound the work:

* **Heuristic 4** — a partially-seen point ``p`` is discarded when even
  the optimistic completion ``(n - counter(p)) * dist(p_i, q_j) +
  curr_dist(p)`` reaches ``best_dist`` (the stream is non-decreasing, so
  every unseen distance of ``p`` is at least the current pair distance).
* **Global threshold T** — the maximum per-candidate threshold
  ``t = (best_dist - curr_dist) / (n - counter)``; once the emitted pair
  distance reaches ``T`` no candidate can improve, so GCP stops.

A run stopped by its ``max_pairs`` cap has no exact answer yet, so it
raises :class:`PairCapExceeded` instead of returning one.
"""

from __future__ import annotations

from repro.core.heuristics import gcp_candidate_threshold, heuristic4_prunes
from repro.core.types import BestList, GNNResult, QueryCost
from repro.rtree.closest_pairs import incremental_closest_pairs
from repro.rtree.flat import FlatRTree


class PairCapExceeded(RuntimeError):
    """GCP emitted ``max_pairs`` pairs without terminating.

    Its candidates are incomplete, so no exact top-k exists; ``cost`` is
    the run's :class:`QueryCost` up to the cap.
    """

    def __init__(self, max_pairs: int, cost: QueryCost):
        super().__init__(f"GCP did not terminate within max_pairs={max_pairs} pairs")
        self.max_pairs = max_pairs
        self.cost = cost


class _Candidate:
    """Book-keeping for a data point that is still accumulating distances."""

    __slots__ = ("point", "pair_count", "accumulated")

    def __init__(self, point):
        self.point = point
        self.pair_count = 0
        self.accumulated = 0.0


def gcp(
    data_tree: FlatRTree, query_tree: FlatRTree, k: int = 1, max_pairs: int | None = None
) -> GNNResult:
    """Run the group closest pairs method.

    Parameters
    ----------
    data_tree:
        Flat R-tree snapshot over the dataset ``P``.
    query_tree:
        Flat R-tree snapshot over the query set ``Q`` (both
        disk-resident in the paper's setting).
    k:
        Number of group nearest neighbors to return.
    max_pairs:
        Optional safety valve: raise :class:`PairCapExceeded` once the
        stream emits more pairs than this.  The paper observes that GCP
        may effectively not terminate when the query workspace is large
        relative to the data workspace; the experiment harness uses this
        cap to reproduce that observation without hanging.  ``None``
        (default) means no cap.

    Notes
    -----
    ``best_dist`` only becomes finite after ``k`` points have complete
    distances, so candidate pruning (Heuristic 4) starts at that moment,
    exactly as stated in the paper for the kNN extension.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cost = QueryCost(algorithm="GCP")
    best = BestList(k)
    n = len(query_tree)
    if len(data_tree) == 0 or n == 0:
        return GNNResult(neighbors=[], cost=cost.finish())

    candidates: dict[int, _Candidate] = {}
    completed: set[int] = set()
    threshold = 0.0
    pairs_emitted = 0

    for pair in incremental_closest_pairs(data_tree, query_tree, cost):
        pairs_emitted += 1
        if max_pairs is not None and pairs_emitted > max_pairs:
            raise PairCapExceeded(max_pairs, cost.finish())
        record_id = pair.data_id
        pair_distance = pair.distance

        if record_id in completed:
            # Global distance already known; nothing further to learn.
            pass
        elif record_id not in candidates:
            # First encounter: only qualifies while fewer than k complete
            # neighbors exist (afterwards it cannot beat them — every one
            # of its n distances is at least the current pair distance).
            if not best.is_full():
                candidate = _Candidate(pair.data_point)
                candidate.pair_count = 1
                candidate.accumulated = pair_distance
                candidates[record_id] = candidate
        else:
            candidate = candidates[record_id]
            candidate.pair_count += 1
            candidate.accumulated += pair_distance
            if candidate.pair_count == n:
                completed.add(record_id)
                del candidates[record_id]
                improved = best.offer(record_id, candidate.point, candidate.accumulated)
                if improved and best.is_full():
                    threshold = _reprune(candidates, completed, n, pair_distance, best)
            elif best.is_full():
                if heuristic4_prunes(
                    n, candidate.pair_count, pair_distance, candidate.accumulated, best.best_dist
                ):
                    del candidates[record_id]
                else:
                    candidate_threshold = gcp_candidate_threshold(
                        n, candidate.pair_count, candidate.accumulated, best.best_dist
                    )
                    threshold = max(threshold, candidate_threshold)

        # Termination condition of Figure 4.2: a complete NN exists and
        # either no candidate can still improve or the pair distance
        # passed the global threshold.
        if best.is_full() and (pair_distance >= threshold or not candidates):
            break

    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _reprune(candidates, completed, n, pair_distance, best) -> float:
    """Re-apply Heuristic 4 to every candidate after ``best_dist`` improved.

    Returns the recomputed global threshold T (the maximum candidate
    threshold).  Points that fail the heuristic leave the qualifying list
    — if the stream meets them again they are treated as new (and
    discarded, since a complete result already exists).
    """
    threshold = 0.0
    best_dist = best.best_dist
    for record_id in list(candidates):
        candidate = candidates[record_id]
        if heuristic4_prunes(
            n, candidate.pair_count, pair_distance, candidate.accumulated, best_dist
        ):
            del candidates[record_id]
            continue
        threshold = max(
            threshold,
            gcp_candidate_threshold(n, candidate.pair_count, candidate.accumulated, best_dist),
        )
    return threshold
