"""Experiment definitions for every figure of the paper's evaluation.

Each function reproduces one figure (both of its panels — node accesses
and CPU time — come from the same run) and returns an
:class:`ExperimentResult` whose rows are exactly the series the paper
plots.  The registry at the bottom maps experiment names (used by the
CLI and the pytest benchmarks) to these functions.

Figures and settings (Section 5):

* 5.1 — memory-resident, cost vs. query cardinality ``n`` (M=8%, k=8)
* 5.2 — memory-resident, cost vs. query MBR size ``M`` (n=64, k=8)
* 5.3 — memory-resident, cost vs. number of neighbors ``k`` (n=64, M=8%)
* 5.4 — disk-resident, Q=PP over P=TS, cost vs. query MBR size
* 5.5 — disk-resident, Q=TS over P=PP, cost vs. query MBR size
* 5.6 — disk-resident, Q=PP over P=TS, cost vs. workspace overlap
* 5.7 — disk-resident, Q=TS over P=PP, cost vs. workspace overlap

plus two ablations called out in the paper's text (footnote 3 on the
value of Heuristic 3, and the sensitivity of SPM to the centroid
approximation).

Workloads are executed through the declarative
:class:`~repro.api.spec.QuerySpec` / planner / executor layer (see
:mod:`repro.bench.runner`), the same code path as ``GNNEngine.execute``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.config import BenchScale, get_scale
from repro.bench.runner import run_disk_setting, run_memory_setting
from repro.datasets.real_like import pp_like, ts_like
from repro.datasets.workload import (
    WorkloadSpec,
    generate_workload,
    place_with_overlap,
    scale_into_workspace,
)
from repro.rtree.flat import FlatRTree


@dataclass
class ExperimentResult:
    """All measured series of one figure."""

    name: str
    description: str
    x_label: str
    scale: str
    rows: list[dict] = field(default_factory=list)


def _dataset(name: str, scale: BenchScale):
    if name == "pp":
        return pp_like(scale.pp_size)
    if name == "ts":
        return ts_like(scale.ts_size)
    raise ValueError(f"unknown dataset {name!r}; expected 'pp' or 'ts'")


def _memory_figure(
    name: str,
    description: str,
    dataset: str,
    scale: BenchScale,
    x_label: str,
    x_values,
    spec_for,
    algorithms=("MQM", "SPM", "MBM"),
    seed: int = 17,
) -> ExperimentResult:
    """Shared driver for Figures 5.1-5.3 (and the memory ablations)."""
    data = _dataset(dataset, scale)
    tree = FlatRTree.bulk_load(data, capacity=scale.node_capacity)
    result = ExperimentResult(
        name=name, description=description, x_label=x_label, scale=scale.name
    )
    for x in x_values:
        spec: WorkloadSpec = spec_for(x)
        groups = generate_workload(data, spec, seed=seed)
        setting = {"x": x, "spec": spec.describe(), "dataset": dataset.upper()}
        outcome = run_memory_setting(
            tree, groups, k=spec.k, algorithms=algorithms, setting=setting
        )
        for algorithm, averages in outcome.averages.items():
            row = {"x": x, "dataset": dataset.upper(), **averages.as_row()}
            result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# memory-resident figures
# ----------------------------------------------------------------------
def fig5_1(dataset: str, scale: BenchScale) -> ExperimentResult:
    """Figure 5.1: cost vs. query cardinality n (M=8%, k=8)."""
    return _memory_figure(
        name=f"fig5_1_{dataset}",
        description=(
            "Cost vs. cardinality n of Q "
            f"(M={scale.fixed_mbr_fraction:.0%}, k={scale.fixed_k}, dataset={dataset.upper()})"
        ),
        dataset=dataset,
        scale=scale,
        x_label="n",
        x_values=scale.cardinalities,
        spec_for=lambda n: WorkloadSpec(
            n=n,
            mbr_fraction=scale.fixed_mbr_fraction,
            k=scale.fixed_k,
            queries=scale.queries_per_setting,
        ),
    )


def fig5_2(dataset: str, scale: BenchScale) -> ExperimentResult:
    """Figure 5.2: cost vs. size M of the query MBR (n=64, k=8)."""
    return _memory_figure(
        name=f"fig5_2_{dataset}",
        description=(
            f"Cost vs. size of MBR of Q (n={scale.fixed_n}, k={scale.fixed_k}, "
            f"dataset={dataset.upper()})"
        ),
        dataset=dataset,
        scale=scale,
        x_label="M (fraction of workspace)",
        x_values=scale.mbr_fractions,
        spec_for=lambda fraction: WorkloadSpec(
            n=scale.fixed_n,
            mbr_fraction=fraction,
            k=scale.fixed_k,
            queries=scale.queries_per_setting,
        ),
    )


def fig5_3(dataset: str, scale: BenchScale) -> ExperimentResult:
    """Figure 5.3: cost vs. number of retrieved neighbors k (n=64, M=8%)."""
    return _memory_figure(
        name=f"fig5_3_{dataset}",
        description=(
            f"Cost vs. number of retrieved NNs k (n={scale.fixed_n}, "
            f"M={scale.fixed_mbr_fraction:.0%}, dataset={dataset.upper()})"
        ),
        dataset=dataset,
        scale=scale,
        x_label="k",
        x_values=scale.k_values,
        spec_for=lambda k: WorkloadSpec(
            n=scale.fixed_n,
            mbr_fraction=scale.fixed_mbr_fraction,
            k=k,
            queries=scale.queries_per_setting,
        ),
    )


# ----------------------------------------------------------------------
# disk-resident figures
# ----------------------------------------------------------------------
def _disk_figure(
    name: str,
    description: str,
    data_name: str,
    query_name: str,
    scale: BenchScale,
    x_label: str,
    x_values,
    place,
    algorithms,
) -> ExperimentResult:
    """Shared driver for Figures 5.4-5.7."""
    data = _dataset(data_name, scale)
    query_source = _dataset(query_name, scale)
    tree = FlatRTree.bulk_load(data, capacity=scale.node_capacity)
    result = ExperimentResult(
        name=name, description=description, x_label=x_label, scale=scale.name
    )
    for x in x_values:
        query_points = place(query_source, data, x)
        setting = {"x": x, "P": data_name.upper(), "Q": query_name.upper()}
        outcome = run_disk_setting(
            tree,
            query_points,
            k=scale.fixed_k,
            algorithms=algorithms,
            block_pages=scale.block_pages,
            query_tree_capacity=scale.node_capacity,
            gcp_max_pairs=scale.gcp_max_pairs,
            setting=setting,
        )
        for algorithm, averages in outcome.averages.items():
            row = {"x": x, "P": data_name.upper(), "Q": query_name.upper(), **averages.as_row()}
            result.rows.append(row)
    return result


def fig5_4(scale: BenchScale) -> ExperimentResult:
    """Figure 5.4: disk-resident Q=PP over P=TS, cost vs. query MBR area."""
    return _disk_figure(
        name="fig5_4",
        description=f"Disk-resident cost vs. MBR area of Q (k={scale.fixed_k}, P=TS, Q=PP)",
        data_name="ts",
        query_name="pp",
        scale=scale,
        x_label="MBR area of Q (fraction of workspace of P)",
        x_values=scale.mbr_fractions,
        place=lambda q, p, fraction: scale_into_workspace(q, p, fraction),
        algorithms=("GCP", "F-MQM", "F-MBM"),
    )


def fig5_5(scale: BenchScale) -> ExperimentResult:
    """Figure 5.5: disk-resident Q=TS over P=PP (GCP omitted, as in the paper)."""
    return _disk_figure(
        name="fig5_5",
        description=f"Disk-resident cost vs. MBR area of Q (k={scale.fixed_k}, P=PP, Q=TS)",
        data_name="pp",
        query_name="ts",
        scale=scale,
        x_label="MBR area of Q (fraction of workspace of P)",
        x_values=scale.mbr_fractions,
        place=lambda q, p, fraction: scale_into_workspace(q, p, fraction),
        algorithms=("F-MQM", "F-MBM"),
    )


def fig5_6(scale: BenchScale) -> ExperimentResult:
    """Figure 5.6: disk-resident Q=PP over P=TS, cost vs. workspace overlap."""
    return _disk_figure(
        name="fig5_6",
        description=f"Disk-resident cost vs. workspace overlap (k={scale.fixed_k}, P=TS, Q=PP)",
        data_name="ts",
        query_name="pp",
        scale=scale,
        x_label="overlap area (fraction)",
        x_values=scale.overlap_fractions,
        place=lambda q, p, overlap: place_with_overlap(q, p, overlap),
        algorithms=("GCP", "F-MQM", "F-MBM"),
    )


def fig5_7(scale: BenchScale) -> ExperimentResult:
    """Figure 5.7: disk-resident Q=TS over P=PP, cost vs. workspace overlap."""
    return _disk_figure(
        name="fig5_7",
        description=f"Disk-resident cost vs. workspace overlap (k={scale.fixed_k}, P=PP, Q=TS)",
        data_name="pp",
        query_name="ts",
        scale=scale,
        x_label="overlap area (fraction)",
        x_values=scale.overlap_fractions,
        place=lambda q, p, overlap: place_with_overlap(q, p, overlap),
        algorithms=("F-MQM", "F-MBM"),
    )


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------
def ablation_heuristics(dataset: str, scale: BenchScale) -> ExperimentResult:
    """Footnote 3 of the paper: MBM with Heuristic 2 only vs. Heuristics 2+3 vs. SPM.

    ``best-first`` is the paper's own Heuristic 3 (a heap on the summed
    mindists); ``MBM`` prunes on the tighter tangent bound.
    """
    return _memory_figure(
        name=f"ablation_heuristics_{dataset}",
        description=(
            "MBM heuristic ablation: heuristic 2 only (MBM-H2) vs. the paper's heuristic 3 "
            "(best-first) vs. full MBM vs. SPM "
            f"(M={scale.fixed_mbr_fraction:.0%}, k={scale.fixed_k})"
        ),
        dataset=dataset,
        scale=scale,
        x_label="n",
        x_values=scale.cardinalities,
        spec_for=lambda n: WorkloadSpec(
            n=n,
            mbr_fraction=scale.fixed_mbr_fraction,
            k=scale.fixed_k,
            queries=scale.queries_per_setting,
        ),
        algorithms=("MBM", "best-first", "MBM-H2", "SPM"),
    )


def ablation_centroid(dataset: str, scale: BenchScale) -> ExperimentResult:
    """SPM centroid sensitivity: gradient descent (paper) vs. Weiszfeld vs. plain mean."""
    return _memory_figure(
        name=f"ablation_centroid_{dataset}",
        description=(
            "SPM centroid ablation: gradient descent vs. Weiszfeld vs. arithmetic mean "
            f"(M={scale.fixed_mbr_fraction:.0%}, k={scale.fixed_k})"
        ),
        dataset=dataset,
        scale=scale,
        x_label="n",
        x_values=scale.cardinalities,
        spec_for=lambda n: WorkloadSpec(
            n=n,
            mbr_fraction=scale.fixed_mbr_fraction,
            k=scale.fixed_k,
            queries=scale.queries_per_setting,
        ),
        algorithms=("SPM", "SPM-weiszfeld", "SPM-mean"),
    )


#: Registry used by the CLI and the pytest benchmark modules.
EXPERIMENTS = {
    "fig5_1_pp": lambda scale: fig5_1("pp", scale),
    "fig5_1_ts": lambda scale: fig5_1("ts", scale),
    "fig5_2_pp": lambda scale: fig5_2("pp", scale),
    "fig5_2_ts": lambda scale: fig5_2("ts", scale),
    "fig5_3_pp": lambda scale: fig5_3("pp", scale),
    "fig5_3_ts": lambda scale: fig5_3("ts", scale),
    "fig5_4": fig5_4,
    "fig5_5": fig5_5,
    "fig5_6": fig5_6,
    "fig5_7": fig5_7,
    "ablation_heuristics": lambda scale: ablation_heuristics("pp", scale),
    "ablation_centroid": lambda scale: ablation_centroid("pp", scale),
}


def run_experiment(name: str, scale="quick") -> ExperimentResult:
    """Run one named experiment at the given scale (name or :class:`BenchScale`)."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}")
    if isinstance(scale, str):
        scale = get_scale(scale)
    return EXPERIMENTS[name](scale)
