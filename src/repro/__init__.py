"""Reproduction of "Group Nearest Neighbor Queries" (Papadias et al., ICDE 2004).

Given a dataset ``P`` indexed by an R-tree and a group of query points
``Q``, a group nearest neighbor (GNN) query returns the ``k`` points of
``P`` with the smallest sum of Euclidean distances to all points of
``Q``.  This package implements the paper's six algorithms (MQM, SPM,
MBM for memory-resident ``Q``; GCP, F-MQM, F-MBM for disk-resident
``Q``), every substrate they depend on (R-tree, incremental NN and
closest-pair search, Hilbert sorting, simulated disk I/O), and the full
experimental harness of Section 5.

Queries are declarative: a :class:`~repro.api.QuerySpec` describes what
to retrieve, a capability-aware planner picks the right algorithm (with
an inspectable rationale via ``engine.explain``), and batches run
through ``engine.execute_many``, which shares node reads across
queries.

Quickstart::

    import numpy as np
    from repro import GNNEngine, QuerySpec

    data = np.random.default_rng(0).uniform(0, 100, size=(10_000, 2))
    engine = GNNEngine(data)
    spec = QuerySpec(group=[[10, 10], [20, 35], [40, 15]], k=3)
    print(engine.explain(spec).describe())   # planner's choice + rationale
    meeting = engine.execute(spec)
    for neighbor in meeting.neighbors:
        print(neighbor.record_id, neighbor.distance)
"""

# repro.core must be imported before repro.api: the engine (loaded by
# repro.core's __init__) pulls in the api package, and importing api
# first would re-enter it while partially initialised.
from repro.core import (
    GNNEngine,
    GNNResult,
    GroupNeighbor,
    GroupQuery,
    QueryCost,
    aggregate_gnn,
    brute_force_gnn,
    fmbm,
    fmqm,
    gcp,
    mbm,
    mqm,
    spm,
)
from repro.api import (
    AlgorithmInfo,
    QueryPlan,
    QueryPlanner,
    QuerySpec,
    available_algorithms,
)
from repro.geometry import MBR
from repro.rtree import FlatRTree
from repro.storage import LRUBuffer, PointFile

__version__ = "16.1.0"

__all__ = [
    "AlgorithmInfo",
    "FlatRTree",
    "GNNEngine",
    "GNNResult",
    "GroupNeighbor",
    "GroupQuery",
    "LRUBuffer",
    "MBR",
    "PointFile",
    "QueryCost",
    "QueryPlan",
    "QueryPlanner",
    "QuerySpec",
    "aggregate_gnn",
    "available_algorithms",
    "brute_force_gnn",
    "fmbm",
    "fmqm",
    "gcp",
    "mbm",
    "mqm",
    "spm",
    "__version__",
]
