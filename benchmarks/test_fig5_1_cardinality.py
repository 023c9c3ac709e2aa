"""Figure 5.1 — memory-resident cost vs. query cardinality n (M=8%, k=8).

Paper's finding: MQM is the worst method and degrades sharply as ``n``
grows (it runs one incremental NN query per query point); SPM and MBM
perform a single traversal, so their node accesses are nearly flat in
``n``; MBM is the overall winner.  Both panels (node accesses, CPU) of
both datasets (PP, TS) come from these benchmarks; the same sweep is
also produced by ``python -m repro.bench fig5_1_pp`` / ``fig5_1_ts``.
"""

import pytest

from repro.datasets.workload import WorkloadSpec

from helpers import run_memory_benchmark

ALGORITHMS = ("MQM", "SPM", "MBM")
#: x-axis positions, expressed as indices into scale.cardinalities so the
#: same benchmark ids work at every scale.
N_STEPS = range(5)


@pytest.mark.parametrize("dataset", ["pp", "ts"])
@pytest.mark.parametrize("n_index", N_STEPS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig5_1_cost_vs_cardinality(
    benchmark, datasets, scale, node_accesses, dataset, n_index, algorithm
):
    if n_index >= len(scale.cardinalities):
        pytest.skip("scale defines fewer cardinality steps")
    n = scale.cardinalities[n_index]
    points, tree = datasets[dataset]
    spec = WorkloadSpec(
        n=n,
        mbr_fraction=scale.fixed_mbr_fraction,
        k=scale.fixed_k,
        queries=scale.queries_per_setting,
    )
    averages = run_memory_benchmark(benchmark, tree, points, spec, algorithm)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["dataset"] = dataset.upper()
    assert averages.queries == scale.queries_per_setting
    node_accesses[dataset, n, algorithm] = averages.node_accesses


@pytest.mark.parametrize("dataset", ["pp", "ts"])
def test_fig5_1_finding(node_accesses, scale, dataset):
    """The finding above, over the sweep's node accesses (exact repeats for a seed)."""
    if len(node_accesses) < 2 * len(scale.cardinalities) * len(ALGORITHMS):
        pytest.skip("needs the whole sweep of this module to have run first")
    for n in scale.cardinalities:
        assert node_accesses[dataset, n, "MBM"] <= node_accesses[dataset, n, "SPM"], n
    smallest, largest = scale.cardinalities[0], scale.cardinalities[-1]
    assert node_accesses[dataset, largest, "MQM"] >= 4 * node_accesses[dataset, smallest, "MQM"]
