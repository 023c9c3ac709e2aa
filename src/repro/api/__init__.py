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
  :class:`~repro.api.planner.QueryPlan` with the chosen algorithm and a
  human-readable rationale, decided afresh on every call;
* :mod:`~repro.api.executor` — runs plans, including the batched
  ``execute_many`` path that shares node reads across queries.

``GNNEngine.execute`` / ``explain`` / ``execute_many`` wrap these pieces
for the common case of one engine-owned dataset.
"""

from repro.api.executor import ExecutionContext, execute_batch, execute_spec
from repro.api.planner import AUTO_FMQM_MAX_BLOCKS, QueryPlan, QueryPlanner
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
    "DISK",
    "ExecutionContext",
    "MEMORY",
    "QueryPlan",
    "QueryPlanner",
    "QuerySpec",
    "available_algorithms",
    "execute_batch",
    "execute_spec",
    "get_algorithm",
]
