"""Figure 5.5 — disk-resident Q=TS over P=PP, cost vs. query MBR area (k=8).

The roles of the datasets are swapped relative to Figure 5.4: the query
set is now the (roughly 8x larger) TS-like dataset, so it splits into
many memory-sized blocks.  Paper's finding: F-MBM clearly wins, because
F-MQM must run and combine one group search per block; GCP is omitted
(as in the paper) because its cost is excessive in this configuration.
"""

import pytest

from repro.datasets.workload import scale_into_workspace

from helpers import run_disk_benchmark

ALGORITHMS = ("F-MQM", "F-MBM")
M_STEPS = range(5)


@pytest.fixture(scope="module")
def page_reads():
    """The sweep's average page reads, keyed like ``node_accesses``."""
    return {}


@pytest.mark.parametrize("m_index", M_STEPS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig5_5_disk_cost_vs_mbr_area(
    benchmark, datasets, scale, node_accesses, page_reads, m_index, algorithm
):
    if m_index >= len(scale.mbr_fractions):
        pytest.skip("scale defines fewer MBR-size steps")
    fraction = scale.mbr_fractions[m_index]
    pp_points, pp_tree = datasets["pp"]
    ts_points, _ = datasets["ts"]
    query_points = scale_into_workspace(ts_points, pp_points, fraction)
    averages = run_disk_benchmark(benchmark, pp_tree, query_points, algorithm, scale)
    benchmark.extra_info["mbr_fraction"] = fraction
    benchmark.extra_info["P"] = "PP"
    benchmark.extra_info["Q"] = "TS"
    assert averages.queries == 1
    node_accesses[fraction, algorithm] = averages.node_accesses
    page_reads[fraction, algorithm] = averages.page_reads


def test_fig5_5_finding(node_accesses, page_reads, scale):
    """F-MBM clearly wins: no more node accesses or page reads than F-MQM at any M."""
    if len(node_accesses) < len(scale.mbr_fractions) * len(ALGORITHMS):
        pytest.skip("needs the whole sweep of this module to have run first")
    for fraction in scale.mbr_fractions:
        assert node_accesses[fraction, "F-MBM"] <= node_accesses[fraction, "F-MQM"], fraction
        assert page_reads[fraction, "F-MBM"] <= page_reads[fraction, "F-MQM"], fraction
