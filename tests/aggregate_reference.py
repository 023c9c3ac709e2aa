"""Best-first as a consumer of the group-NN stream: the reference ``repro.core.aggregates.aggregate_gnn`` is proven against.

This is the traversal ``algorithm="best-first"`` ran before it became
MBM's loop keyed by the paper's bound.  Over a dirty overlay the delta
is scanned first (:func:`repro.core.mbm.seed_from_delta`, in ascending
Heuristic-2 page key), then :func:`repro.core.aggregates.group_nn_stream`
is consumed — nodes keyed by ``query.mindist_lower_bounds`` and points
by their exact aggregate distance, in one heap, each charged ``n`` —
until it emits a distance that cannot beat the k-th best, which the
ascending emission order makes final.  Tombstoned records are emitted
but never offered.

The production best-first stops at the key instead of at the next
point, and keys the root for free: the differential test requires its
neighbours and distances, never more node accesses and never more
distance computations; the CPU smoke guard times it against this.
"""

from __future__ import annotations

import math

from repro.core.aggregates import group_nn_stream
from repro.core.mbm import seed_from_delta
from repro.core.types import BestList, GNNResult, QueryCost


def aggregate_reference(tree, query, overlay=None, within=math.inf):
    cost = QueryCost(algorithm=f"best-first-{query.aggregate}")
    best = BestList(query.k, within)
    exclude = seed_from_delta(tree, query, best, overlay, cost)
    for neighbor in group_nn_stream(tree, query, cost):
        if exclude is None or neighbor.record_id not in exclude:
            best.offer(neighbor.record_id, neighbor.point, neighbor.distance)
        if neighbor.distance >= best.best_dist:
            break
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())
