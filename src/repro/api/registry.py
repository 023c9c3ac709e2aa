"""The closed, capability-aware algorithm catalogue.

Every GNN algorithm the engine can execute is described by an
:class:`AlgorithmInfo`: its runner, the residency it handles
(memory-resident group vs. disk-resident query file), the aggregates it
is defined for, whether it accepts per-point weights, and the options it
understands.  The catalogue is the fixed :data:`BUILTIN_ALGORITHMS`
table; the planner and the conformance matrix read it through
:func:`get_algorithm` / :func:`available_algorithms` instead of
hard-coding ``if/elif`` chains.

The capability declarations are the contract the planner enforces.
MQM, SPM, F-MQM, F-MBM and GCP are the paper's sum-aggregate algorithms
(Sections 3/4); MBM also answers weighted sums and ``max``/``min``
(keyed by the paper's bound, as ``best-first`` is), and ``best-first``
and ``brute-force`` answer every aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.aggregates import aggregate_gnn
from repro.core.fmbm import fmbm
from repro.core.fmqm import fmqm
from repro.core.gcp import gcp
from repro.core.mbm import mbm
from repro.core.mqm import mqm
from repro.core.spm import spm
from repro.geometry.distance import MAX, MIN, SUM
from repro.rtree.flat import DEFAULT_CAPACITY, FlatRTree
from repro.storage.pointfile import PointFile

from repro.api.spec import DISK, MEMORY, WITHIN, QuerySpec

#: Options that shape the simulated disk file rather than the algorithm
#: itself; the F-MQM and F-MBM runners consume them when they build a
#: PointFile.
FILE_GEOMETRY_OPTIONS = ("points_per_page", "block_pages")

#: Default simulated-disk geometry (the paper's 1 KByte pages of 50
#: points, blocks of 10,000 points).
DEFAULT_POINTS_PER_PAGE = 50
DEFAULT_BLOCK_PAGES = 200


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata and entry point of one catalogued algorithm.

    ``runner`` receives ``(context, plan)`` where ``context`` is the
    executor's :class:`~repro.api.executor.ExecutionContext` (flat
    index, pending-write overlay) and ``plan`` the
    :class:`~repro.api.planner.QueryPlan` (its spec, carrying the
    validated ``GroupQuery``, and the algorithm options).  Every
    memory-resident runner answers from ``context.overlay`` when it is
    set; disk-resident runners only ever see a clean context.
    """

    name: str
    runner: Callable[..., Any]
    residency: str
    aggregates: tuple[str, ...] = (SUM,)
    supports_weights: bool = False
    requires_raw_points: bool = False
    options: tuple[str, ...] = ()
    description: str = ""

    def capability_errors(self, spec: QuerySpec) -> list[str]:
        """Reasons this algorithm cannot answer ``spec`` (empty when it can)."""
        errors = []
        residency = spec.resolved_residency()
        if residency != self.residency:
            errors.append(
                f"{self.name} handles {self.residency}-resident groups, "
                f"but the spec is {residency}-resident"
            )
        if spec.aggregate not in self.aggregates:
            errors.append(
                f"{self.name} supports aggregates {self.aggregates}, "
                f"not {spec.aggregate!r}"
            )
        if spec.weights is not None and not self.supports_weights:
            errors.append(f"{self.name} does not support weighted queries")
        needs_points = self.requires_raw_points or self.residency == MEMORY
        if needs_points and spec.group is None:
            errors.append(
                f"{self.name} needs the raw query points "
                "(a group_file alone is not enough)"
            )
        return errors


def get_algorithm(name: str) -> AlgorithmInfo:
    """Look up an algorithm by (case-insensitive) name.

    Raises ``ValueError`` with the list of known names, so a typo in a
    spec fails with an actionable message.
    """
    info = _REGISTRY.get(name.lower())
    if info is None:
        raise ValueError(
            f"unknown algorithm {name!r}; known algorithms: "
            f"{sorted(_REGISTRY)}"
        )
    return info


def available_algorithms(residency: str | None = None) -> list[AlgorithmInfo]:
    """All catalogued algorithms, optionally filtered by residency."""
    infos = sorted(_REGISTRY.values(), key=lambda info: info.name)
    if residency is None:
        return infos
    return [info for info in infos if info.residency == residency]


# ----------------------------------------------------------------------
# built-in runners
# ----------------------------------------------------------------------
# The memory-resident runners answer from the merged view whenever the
# context carries a delta overlay: each driver seeds its best list from
# the delta and skips the tombstones inside its own traversal.
def _run_mqm(context, plan):
    return mqm(context.flat, plan.spec.query, overlay=context.overlay, **plan.options)


def _run_spm(context, plan):
    return spm(context.flat, plan.spec.query, overlay=context.overlay, **plan.options)


def _run_mbm(context, plan):
    return mbm(context.flat, plan.spec.query, overlay=context.overlay, **plan.options)


def _run_best_first(context, plan):
    return aggregate_gnn(context.flat, plan.spec.query, overlay=context.overlay, **plan.options)


def _run_brute_force(context, plan):
    return context.brute_force(plan.spec.query, **plan.options)


def _query_file(spec: QuerySpec) -> PointFile:
    """The spec's own query file, or one laid out from its points and file geometry."""
    if spec.group_file is not None:
        return spec.group_file
    return PointFile(
        spec.group,
        points_per_page=int(spec.options.get("points_per_page", DEFAULT_POINTS_PER_PAGE)),
        block_pages=int(spec.options.get("block_pages", DEFAULT_BLOCK_PAGES)),
    )


def _run_fmqm(context, plan):
    return fmqm(context.flat, _query_file(plan.spec), k=plan.spec.k, **plan.options)


def _run_fmbm(context, plan):
    return fmbm(context.flat, _query_file(plan.spec), k=plan.spec.k, **plan.options)


def _run_gcp(context, plan):
    options = dict(plan.options)
    capacity = options.pop("query_tree_capacity", DEFAULT_CAPACITY)
    query_tree = FlatRTree.bulk_load(plan.spec.group, capacity=capacity)
    return gcp(context.flat, query_tree, k=plan.spec.k, **options)


BUILTIN_ALGORITHMS = (
    AlgorithmInfo(
        name="mqm",
        runner=_run_mqm,
        residency=MEMORY,
        aggregates=(SUM,),
        options=(WITHIN,),
        description="Multiple query method: one incremental NN search per query point (Section 3.1).",
    ),
    AlgorithmInfo(
        name="spm",
        runner=_run_spm,
        residency=MEMORY,
        aggregates=(SUM,),
        options=("centroid_method", WITHIN),
        description="Single point method: one traversal around the group centroid (Section 3.2).",
    ),
    AlgorithmInfo(
        name="mbm",
        runner=_run_mbm,
        residency=MEMORY,
        aggregates=(SUM, MAX, MIN),
        supports_weights=True,
        options=("use_heuristic3", WITHIN),
        description="Minimum bounding method: single traversal pruned by the group MBR (Section 3.3).",
    ),
    AlgorithmInfo(
        name="best-first",
        runner=_run_best_first,
        residency=MEMORY,
        aggregates=(SUM, MAX, MIN),
        supports_weights=True,
        options=(WITHIN,),
        description="Aggregate-generalised optimal best-first traversal (sum/max/min, weighted).",
    ),
    AlgorithmInfo(
        name="brute-force",
        runner=_run_brute_force,
        residency=MEMORY,
        aggregates=(SUM, MAX, MIN),
        supports_weights=True,
        options=(WITHIN,),
        description="Exhaustive scan of the dataset; the ground-truth baseline.",
    ),
    AlgorithmInfo(
        name="fmqm",
        runner=_run_fmqm,
        residency=DISK,
        aggregates=(SUM,),
        options=FILE_GEOMETRY_OPTIONS,
        description="File multiple query method: one GNN sub-query per Hilbert block (Section 4.2).",
    ),
    AlgorithmInfo(
        name="fmbm",
        runner=_run_fmbm,
        residency=DISK,
        aggregates=(SUM,),
        options=FILE_GEOMETRY_OPTIONS,
        description="File minimum bounding method: single traversal pruned by block summaries (Section 4.3).",
    ),
    AlgorithmInfo(
        name="gcp",
        runner=_run_gcp,
        residency=DISK,
        aggregates=(SUM,),
        requires_raw_points=True,
        options=("query_tree_capacity", "max_pairs"),
        description="Group closest pairs over two R-trees (Section 4.1); expensive, for indexed Q.",
    ),
)

_REGISTRY = {info.name: info for info in BUILTIN_ALGORITHMS}
