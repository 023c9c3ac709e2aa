"""The paper's contribution: group nearest neighbor query algorithms.

Memory-resident query groups (Section 3 of the paper):

* :func:`~repro.core.mqm.mqm` — multiple query method,
* :func:`~repro.core.spm.spm` — single point method,
* :func:`~repro.core.mbm.mbm` — minimum bounding method.

Disk-resident query sets (Section 4):

* :func:`~repro.core.gcp.gcp` — group closest pairs (indexed ``Q``),
* :func:`~repro.core.fmqm.fmqm` — file multiple query method,
* :func:`~repro.core.fmbm.fmbm` — file minimum bounding method.

Extensions: the brute-force baseline, the aggregate-generalised
best-first search and the :class:`~repro.core.engine.GNNEngine` facade.
"""

from repro.core.aggregates import aggregate_gnn, group_nn_stream
from repro.core.bruteforce import brute_force_gnn
from repro.core.centroid import compute_centroid
from repro.core.engine import GNNEngine
from repro.core.fmbm import fmbm
from repro.core.fmqm import fmqm
from repro.core.gcp import gcp
from repro.core.mbm import mbm
from repro.core.mqm import mqm
from repro.core.spm import spm
from repro.core.types import BestList, GNNResult, GroupNeighbor, GroupQuery, QueryCost

__all__ = [
    "BestList",
    "GNNEngine",
    "GNNResult",
    "GroupNeighbor",
    "GroupQuery",
    "QueryCost",
    "aggregate_gnn",
    "brute_force_gnn",
    "compute_centroid",
    "fmbm",
    "fmqm",
    "gcp",
    "group_nn_stream",
    "mbm",
    "mqm",
    "spm",
]
