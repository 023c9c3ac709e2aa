"""Workload execution.

A *setting* is one x-axis position of one figure: a set of query groups
(or one disk-resident query dataset placement) that is run through every
competing algorithm.  The runner builds a declarative
:class:`~repro.api.spec.QuerySpec` per (group, algorithm variant) and
executes it through the planner/executor layer, one query at a time
over a flat snapshot (the code path ``GNNEngine.execute`` uses — a
shared batch charges each node read to the first member to reach it,
so its members' node accesses are not the per-query cost the paper
plots), then averages the cost metrics per
algorithm: average node accesses and CPU time per query of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.executor import ExecutionContext, execute_spec
from repro.api.planner import QueryPlanner
from repro.api.spec import DISK, QuerySpec
from repro.core.gcp import PairCapExceeded
from repro.rtree.flat import FlatRTree

MEMORY_ALGORITHMS = ("MQM", "SPM", "MBM")
DISK_ALGORITHMS = ("GCP", "F-MQM", "F-MBM")

#: Bench series name → (registry algorithm, options).  The ablation
#: variants are ordinary algorithms with non-default options, which is
#: exactly what QuerySpec.options is for.
MEMORY_VARIANTS = {
    "MQM": ("mqm", {}),
    "SPM": ("spm", {}),
    "MBM": ("mbm", {}),
    "MBM-H2": ("mbm", {"use_heuristic3": False}),
    # the paper's literal Heuristic 3: best-first on sum_i mindist(N, q_i)
    "best-first": ("best-first", {}),
    "SPM-weiszfeld": ("spm", {"centroid_method": "weiszfeld"}),
    "SPM-mean": ("spm", {"centroid_method": "mean"}),
}

DISK_VARIANTS = {
    "GCP": "gcp",
    "F-MQM": "fmqm",
    "F-MBM": "fmbm",
}


@dataclass
class AlgorithmAverages:
    """Average per-query cost of one algorithm over a workload."""

    algorithm: str
    node_accesses: float = 0.0
    cpu_time: float = 0.0
    distance_computations: float = 0.0
    page_reads: float = 0.0
    queries: int = 0
    notes: str = ""

    def as_row(self) -> dict[str, object]:
        """Return the averages as a flat dictionary (one table row)."""
        return {
            "algorithm": self.algorithm,
            "node_accesses": round(self.node_accesses, 1),
            "cpu_time": self.cpu_time,
            "distance_computations": round(self.distance_computations, 1),
            "page_reads": round(self.page_reads, 1),
            "queries": self.queries,
            "notes": self.notes,
        }


@dataclass
class WorkloadResult:
    """Result of one setting, memory- or disk-resident: averages per algorithm."""

    averages: dict[str, AlgorithmAverages] = field(default_factory=dict)


def _accumulate(averages: AlgorithmAverages, cost) -> None:
    averages.node_accesses += cost.node_accesses
    averages.cpu_time += cost.cpu_time
    averages.distance_computations += cost.distance_computations
    averages.page_reads += cost.page_reads
    averages.queries += 1


def _finalise(averages: AlgorithmAverages) -> None:
    if averages.queries == 0:
        return
    averages.node_accesses /= averages.queries
    averages.cpu_time /= averages.queries
    averages.distance_computations /= averages.queries
    averages.page_reads /= averages.queries


def run_memory_setting(
    tree: FlatRTree,
    query_groups: list[np.ndarray],
    k: int,
    algorithms: tuple[str, ...] = MEMORY_ALGORITHMS,
) -> WorkloadResult:
    """Run every memory-resident algorithm over a workload of query groups.

    The same query groups are fed to every algorithm so the comparison is
    paired, and the results of the algorithms are cross-checked against
    each other (a mismatch raises, because it would invalidate the whole
    measurement).
    """
    for name in algorithms:
        if name not in MEMORY_VARIANTS:
            raise ValueError(
                f"unknown memory-resident algorithm {name!r}; "
                f"expected one of {sorted(MEMORY_VARIANTS)}"
            )
    result = WorkloadResult()
    context = ExecutionContext(flat=tree)
    planner = QueryPlanner()

    reference: list[np.ndarray | None] = [None] * len(query_groups)
    for name in algorithms:
        averages = result.averages[name] = AlgorithmAverages(algorithm=name)
        algorithm, options = MEMORY_VARIANTS[name]
        for index, group in enumerate(query_groups):
            spec = QuerySpec(group=group, k=k, algorithm=algorithm, options=options)
            outcome = execute_spec(context, spec, planner=planner)
            _accumulate(averages, outcome.cost)
            distances = np.array(outcome.distances())
            if reference[index] is None:
                reference[index] = distances
            elif not np.allclose(distances, reference[index], rtol=1e-8, atol=1e-8):
                raise AssertionError(
                    f"algorithm {name} disagrees with {algorithms[0]} on a workload query"
                )
    for averages in result.averages.values():
        _finalise(averages)
    return result


def run_disk_setting(
    tree: FlatRTree,
    query_points: np.ndarray,
    k: int,
    algorithms: tuple[str, ...] = DISK_ALGORITHMS,
    points_per_page: int = 50,
    block_pages: int = 200,
    query_tree_capacity: int = 50,
    gcp_max_pairs: int | None = None,
) -> WorkloadResult:
    """Run the disk-resident algorithms for one placement of the query dataset.

    GCP gets an R-tree over the query points (the paper's indexed
    setting); F-MQM and F-MBM get a Hilbert-sorted
    :class:`~repro.storage.pointfile.PointFile` split into blocks of
    ``block_pages * points_per_page`` points, built by the executor from
    the spec's file-geometry options.
    """
    result = WorkloadResult()
    context = ExecutionContext(flat=tree)
    planner = QueryPlanner()
    reference_distances = None

    for name in algorithms:
        if name not in DISK_VARIANTS:
            raise ValueError(
                f"unknown disk-resident algorithm {name!r}; "
                f"expected one of {sorted(DISK_VARIANTS)}"
            )
        averages = AlgorithmAverages(algorithm=name)
        result.averages[name] = averages
        if name == "GCP":
            options = {"query_tree_capacity": query_tree_capacity, "max_pairs": gcp_max_pairs}
        else:
            options = {"points_per_page": points_per_page, "block_pages": block_pages}
        spec = QuerySpec(
            group=query_points,
            k=k,
            residency=DISK,
            algorithm=DISK_VARIANTS[name],
            options=options,
        )
        try:
            outcome = execute_spec(context, spec, planner=planner)
        except PairCapExceeded as capped:
            # A capped GCP run has a cost but no answer to check.
            averages.notes = "did not terminate within the pair cap"
            _accumulate(averages, capped.cost)
            _finalise(averages)
            continue
        _accumulate(averages, outcome.cost)
        _finalise(averages)

        distances = np.array(outcome.distances())
        if reference_distances is None:
            reference_distances = distances
        elif distances.size and not np.allclose(
            distances, reference_distances, rtol=1e-8, atol=1e-8
        ):
            raise AssertionError(f"algorithm {name} disagrees with the reference result")
    return result
