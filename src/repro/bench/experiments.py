"""Experiment definitions for every figure of the paper's evaluation.

Each :class:`Experiment` of the registry at the bottom declares one
figure (both of its panels — node accesses and CPU time — come from the
same run): its x axis, the algorithms it compares and the datasets it
runs on.  Running it returns an :class:`ExperimentResult` whose rows
are exactly the series the paper plots, one per (x, algorithm) pair.
The CLI and ``benchmarks/test_figures.py`` run the entries by name.

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

from dataclasses import dataclass, field, replace

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

#: The ``WorkloadSpec`` field a memory-resident x axis varies; the
#: others keep the scale's fixed values.
MEMORY_AXES = {"cardinalities": "n", "mbr_fractions": "mbr_fraction", "k_values": "k"}
#: How a disk-resident x axis places the query set over P's workspace.
DISK_AXES = {"mbr_fractions": scale_into_workspace, "overlap_fractions": place_with_overlap}


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


@dataclass(frozen=True)
class Experiment:
    """One figure: a row per (x, algorithm), x running over the scale's ``axis``.

    ``data`` names the dataset P is built from.  A memory-resident figure
    (``queries`` unset) draws its query groups from P (seed 17); a
    disk-resident one places the whole dataset ``queries`` over P's
    workspace at each x.  ``description`` is formatted with the scale
    ``s`` and the upper-cased dataset names ``P`` and ``Q``.
    """

    description: str
    x_label: str
    axis: str
    algorithms: tuple[str, ...]
    data: str
    queries: str | None = None

    def run(self, name: str, scale: BenchScale) -> ExperimentResult:
        data = _dataset(self.data, scale)
        tree = FlatRTree.bulk_load(data, capacity=scale.node_capacity)
        labels = {"P": self.data.upper(), "Q": (self.queries or "").upper()}
        result = ExperimentResult(
            name=name,
            description=self.description.format(s=scale, **labels),
            x_label=self.x_label,
            scale=scale.name,
        )
        if self.queries is None:
            where = {"dataset": labels["P"]}
            base = WorkloadSpec(
                n=scale.fixed_n,
                mbr_fraction=scale.fixed_mbr_fraction,
                k=scale.fixed_k,
                queries=scale.queries_per_setting,
            )

            def measure(x):
                spec = replace(base, **{MEMORY_AXES[self.axis]: x})
                return run_memory_setting(
                    tree,
                    generate_workload(data, spec, seed=17),
                    k=spec.k,
                    algorithms=self.algorithms,
                )

        else:
            where = labels
            query_source = _dataset(self.queries, scale)

            def measure(x):
                return run_disk_setting(
                    tree,
                    DISK_AXES[self.axis](query_source, data, x),
                    k=scale.fixed_k,
                    algorithms=self.algorithms,
                    block_pages=scale.block_pages,
                    query_tree_capacity=scale.node_capacity,
                    gcp_max_pairs=scale.gcp_max_pairs,
                )

        for x in getattr(scale, self.axis):
            for averages in measure(x).averages.values():
                result.rows.append({"x": x, **where, **averages.as_row()})
        return result


MEMORY = ("MQM", "SPM", "MBM")
CARDINALITY = "Cost vs. cardinality n of Q (M={s.fixed_mbr_fraction:.0%}, k={s.fixed_k}, dataset={P})"
MBR_SIZE = "Cost vs. size of MBR of Q (n={s.fixed_n}, k={s.fixed_k}, dataset={P})"
NEIGHBORS = "Cost vs. number of retrieved NNs k (n={s.fixed_n}, M={s.fixed_mbr_fraction:.0%}, dataset={P})"
DISK_MBR = "Disk-resident cost vs. MBR area of Q (k={s.fixed_k}, P={P}, Q={Q})"
DISK_OVERLAP = "Disk-resident cost vs. workspace overlap (k={s.fixed_k}, P={P}, Q={Q})"
MBR_AREA = "MBR area of Q (fraction of workspace of P)"
OVERLAP = "overlap area (fraction)"

#: Registry used by the CLI and the figure tests (Section 5 of the
#: paper; GCP is left out of 5.5 and 5.7, as in the paper).
EXPERIMENTS = {
    "fig5_1_pp": Experiment(CARDINALITY, "n", "cardinalities", MEMORY, "pp"),
    "fig5_1_ts": Experiment(CARDINALITY, "n", "cardinalities", MEMORY, "ts"),
    "fig5_2_pp": Experiment(MBR_SIZE, "M (fraction of workspace)", "mbr_fractions", MEMORY, "pp"),
    "fig5_2_ts": Experiment(MBR_SIZE, "M (fraction of workspace)", "mbr_fractions", MEMORY, "ts"),
    "fig5_3_pp": Experiment(NEIGHBORS, "k", "k_values", MEMORY, "pp"),
    "fig5_3_ts": Experiment(NEIGHBORS, "k", "k_values", MEMORY, "ts"),
    "fig5_4": Experiment(DISK_MBR, MBR_AREA, "mbr_fractions", ("GCP", "F-MQM", "F-MBM"), "ts", "pp"),
    "fig5_5": Experiment(DISK_MBR, MBR_AREA, "mbr_fractions", ("F-MQM", "F-MBM"), "pp", "ts"),
    "fig5_6": Experiment(DISK_OVERLAP, OVERLAP, "overlap_fractions", ("GCP", "F-MQM", "F-MBM"), "ts", "pp"),
    "fig5_7": Experiment(DISK_OVERLAP, OVERLAP, "overlap_fractions", ("F-MQM", "F-MBM"), "pp", "ts"),
    # footnote 3: MBM with Heuristic 2 only, the paper's Heuristic 3
    # (best-first on the summed mindists), MBM's tighter tangent bound, SPM
    "ablation_heuristics": Experiment(
        "MBM heuristic ablation: heuristic 2 only (MBM-H2) vs. the paper's heuristic 3 "
        "(best-first) vs. full MBM vs. SPM (M={s.fixed_mbr_fraction:.0%}, k={s.fixed_k})",
        "n",
        "cardinalities",
        ("MBM", "best-first", "MBM-H2", "SPM"),
        "pp",
    ),
    # SPM's centroid: gradient descent (the paper's), Weiszfeld, plain mean
    "ablation_centroid": Experiment(
        "SPM centroid ablation: gradient descent vs. Weiszfeld vs. arithmetic mean "
        "(M={s.fixed_mbr_fraction:.0%}, k={s.fixed_k})",
        "n",
        "cardinalities",
        ("SPM", "SPM-weiszfeld", "SPM-mean"),
        "pp",
    ),
}


def run_experiment(name: str, scale="quick") -> ExperimentResult:
    """Run one named experiment at the given scale (name or :class:`BenchScale`)."""
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {sorted(EXPERIMENTS)}")
    if isinstance(scale, str):
        scale = get_scale(scale)
    return EXPERIMENTS[name].run(name, scale)
