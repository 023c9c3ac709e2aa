"""Declarative query API: specs, planning, algorithm catalogue, execution.

This package is the public face of the engine redesign:

* :class:`~repro.api.spec.QuerySpec` — immutable, validated description
  of one GNN query (group or file, ``k``, aggregate, weights, residency,
  algorithm hint, options);
* :class:`~repro.api.registry.AlgorithmInfo` /
  :func:`~repro.api.registry.available_algorithms` — the closed,
  capability-aware catalogue of the paper's six algorithms plus the
  baselines;
* :class:`~repro.api.planner.QueryPlanner` — ``plan(spec)`` returns a
  :class:`~repro.api.planner.QueryPlan` with the chosen algorithm, a
  human-readable rationale and a cost estimate;
* :mod:`~repro.api.executor` — runs plans, including the batched
  ``execute_many`` path that amortises planning, index locality and
  scan work across queries.

``GNNEngine.execute`` / ``explain`` / ``execute_many`` wrap these pieces
for the common case of one engine-owned dataset.
"""

from repro.api.executor import (
    ExecutionContext,
    PreparedQuery,
    execute_batch,
    execute_spec,
    prepare,
)
from repro.api.planner import (
    AUTO_FMQM_MAX_BLOCKS,
    CostEstimate,
    QueryPlan,
    QueryPlanner,
)
from repro.api.registry import (
    AlgorithmInfo,
    available_algorithms,
    get_algorithm,
)
from repro.api.spec import AUTO, DISK, MEMORY, QuerySpec

__all__ = [
    "AUTO",
    "AUTO_FMQM_MAX_BLOCKS",
    "AlgorithmInfo",
    "CostEstimate",
    "DISK",
    "ExecutionContext",
    "MEMORY",
    "PreparedQuery",
    "QueryPlan",
    "QueryPlanner",
    "QuerySpec",
    "available_algorithms",
    "execute_batch",
    "execute_spec",
    "get_algorithm",
    "prepare",
]
