"""Every figure of the paper's evaluation, run once at the smoke scale, its finding asserted.

Each entry of :data:`repro.bench.experiments.EXPERIMENTS` (Figures
5.1-5.7 and the two ablations) runs through ``run_experiment(name,
"smoke")``, the call behind ``python -m repro.bench NAME --scale
smoke``, so datasets, x values, workloads and algorithm lists are
defined there alone.  The runner cross-checks the algorithms' answers
within each setting and raises on a disagreement.  The tests then check
that every (x, algorithm) cell the registry entry declares has exactly
one row, that the rows are those cells in order, and assert the
figure's finding on their counts (node accesses, page reads, distance
computations), which repeat exactly for the fixed seeds.  CPU time is
not asserted.

Each finding is stated once, in the docstring next to its assertion,
as this reproduction measures it; where that departs from the paper's
text, the docstring names the gap.  Larger runs are one command away:
``python -m repro.bench all --scale quick`` (or ``paper``).
"""

from functools import cache
from operator import le, lt

import pytest

from repro.bench.config import get_scale
from repro.bench.experiments import EXPERIMENTS, run_experiment

SMOKE = get_scale("smoke")
#: Every (experiment, x, algorithm) cell its registry entry declares.
CELLS = [
    (name, x, algorithm)
    for name, experiment in sorted(EXPERIMENTS.items())
    for x in getattr(SMOKE, experiment.axis)
    for algorithm in experiment.algorithms
]


@cache
def _smoke_rows(name):
    """The experiment's rows at smoke, run once per session."""
    return run_experiment(name, SMOKE).rows


def _series(rows, metric="node_accesses"):
    """``{algorithm: [metric at each x, in x order]}``."""
    series = {}
    for row in rows:
        series.setdefault(row["algorithm"], []).append(row[metric])
    return series


def _everywhere(compare, *series):
    """``compare(a, b)`` holds between each series and the next at every x."""
    return all(compare(a, b) for low, high in zip(series, series[1:]) for a, b in zip(low, high))


def _never_falls(values):
    return all(a <= b for a, b in zip(values, values[1:]))


def _fmbm_never_above_fmqm(rows, *metrics):
    for metric in ("node_accesses", "page_reads", *metrics):
        values = _series(rows, metric)
        assert _everywhere(le, values["F-MBM"], values["F-MQM"]), (metric, values)


def _every_gcp_row_capped(rows):
    return all("pair cap" in row["notes"] for row in rows if row["algorithm"] == "GCP")


def fig5_1(rows):
    """Figure 5.1, cost vs. cardinality n of Q (M = 8%, k = 8).

    Paper: MQM is the worst method and degrades sharply as n grows (one
    incremental NN query per query point); SPM and MBM run a single
    traversal, so their node accesses are nearly flat in n; MBM wins.
    Asserted: MBM reads no more nodes than SPM at every n, and MQM reads
    at least 4x as many at the largest n as at the smallest (PP: 29.5 at
    n = 4, 440.5 at n = 64).
    """
    na = _series(rows)
    assert _everywhere(le, na["MBM"], na["SPM"]), na
    assert na["MQM"][-1] >= 4 * na["MQM"][0], na["MQM"]


def fig5_2(rows):
    """Figure 5.2, cost vs. size M of the query MBR (k = 8; n = 64 in the paper, 16 at smoke).

    Paper: every method degrades as the query MBR grows, and MBM < SPM <
    MQM throughout.  Asserted: the order holds at every M (PP at 2%: 5.5
    < 12.5 < 122.5), and SPM never reads fewer nodes as M grows (PP:
    12.5, 13, 25).  Gap: MBM does not degrade, and MQM not steadily
    either: on PP, MBM reads 5.5, 5.0, 4.5 and MQM 122.5, 110, 168 at
    M = 2%, 8%, 32%, so "every method degrades" is not asserted.
    """
    na = _series(rows)
    assert _everywhere(lt, na["MBM"], na["SPM"], na["MQM"]), na
    assert _never_falls(na["SPM"]), na["SPM"]


def fig5_3(rows):
    """Figure 5.3, cost vs. number k of retrieved neighbors (M = 8%; n = 64 in the paper, 16 at smoke).

    Paper: k barely affects any method, because the extra neighbors lie
    mostly in nodes the search reads anyway; MBM < SPM < MQM throughout.
    Asserted: that order at every k, and no method reads fewer nodes as
    k grows (PP MBM: 2.5, 5, 6 at k = 1, 8, 32).
    """
    na = _series(rows)
    assert _everywhere(lt, na["MBM"], na["SPM"], na["MQM"]), na
    for algorithm, values in na.items():
        assert _never_falls(values), (algorithm, values)


def fig5_4(rows):
    """Figure 5.4, disk-resident Q = PP over P = TS, cost vs. MBR area of Q.

    Paper: GCP is the worst method and fails to terminate as the query
    workspace grows; F-MQM wins on CPU, because PP splits into few
    memory-sized blocks.  Asserted: every GCP row stops at the pair cap,
    and F-MBM does no more node accesses, page reads or distance
    computations than F-MQM at every M (page reads at 2%: 96 vs 222).
    Gap: with PP in 4 blocks F-MBM wins on every count, at smoke and at
    quick (quick, 2%: 1.66M vs 3.80M distance computations, 1,000 vs
    11,360 page reads), so the paper's few-blocks win for F-MQM is not
    reproduced.
    """
    assert _every_gcp_row_capped(rows)
    _fmbm_never_above_fmqm(rows, "distance_computations")


def fig5_5(rows):
    """Figure 5.5, disk-resident Q = TS over P = PP, cost vs. MBR area of Q (no GCP, as in the paper).

    Paper: F-MBM clearly wins, because F-MQM runs and combines one group
    search per block of the large query set.  Asserted: F-MBM does no
    more node accesses or page reads than F-MQM at every M.
    """
    _fmbm_never_above_fmqm(rows)


def fig5_6(rows):
    """Figure 5.6, disk-resident Q = PP over P = TS, cost vs. workspace overlap.

    Paper: every method's cost grows quickly with the overlap; F-MQM
    wins up to roughly 50% overlap; GCP is far worse and fails to
    terminate.  Asserted: every GCP row stops at the pair cap; F-MQM
    does fewer node accesses and page reads than F-MBM at 0% overlap (13
    vs 34, 192 vs 678), and F-MBM fewer than F-MQM at every larger
    overlap (page reads at 50%: 966 vs 11,010).  Gap: in page reads
    F-MQM wins only on disjoint workspaces, at smoke and at quick (quick,
    25%: F-MBM reads 9,180 pages, F-MQM 72,320, though F-MQM still reads
    fewer nodes there, 111 vs 154).
    """
    assert _every_gcp_row_capped(rows)
    for metric in ("node_accesses", "page_reads"):
        values = _series(rows, metric)
        fmqm, fmbm = values["F-MQM"], values["F-MBM"]
        assert fmqm[0] < fmbm[0], (metric, values)
        assert _everywhere(lt, fmbm[1:], fmqm[1:]), (metric, values)


def fig5_7(rows):
    """Figure 5.7, disk-resident Q = TS over P = PP, cost vs. workspace overlap (no GCP, as in the paper).

    Paper: with many query blocks F-MBM is the clear winner at every
    overlap.  Asserted: F-MBM does no more node accesses or page reads
    than F-MQM at every overlap.
    """
    _fmbm_never_above_fmqm(rows)


def ablation_heuristics(rows):
    """Footnote 3 of the paper: MBM with Heuristic 2 only, with Heuristic 3, and SPM.

    Paper: MBM with Heuristic 2 alone is inferior to SPM; Heuristic 3
    is what makes MBM win.  ``best-first`` is the paper's Heuristic 3 (a
    heap on the summed mindists); ``MBM`` prunes on the tighter tangent
    bound.  Asserted at every n: MBM <= best-first <= MBM-H2, and
    best-first <= SPM, in node accesses.
    """
    na = _series(rows)
    assert _everywhere(le, na["MBM"], na["best-first"], na["MBM-H2"]), na
    assert _everywhere(le, na["best-first"], na["SPM"]), na


def ablation_centroid(rows):
    """SPM's sensitivity to the centroid approximation (gradient descent, Weiszfeld, mean).

    Lemma 1 holds for any reference point, so every centroid keeps SPM
    correct; a better one only tightens Heuristic 1.  Asserted at every
    n: Weiszfeld's centroid reads the same nodes as gradient descent,
    and the arithmetic mean never fewer (n = 16: 13.0 / 13.0 / 13.5).
    """
    na = _series(rows)
    assert na["SPM-weiszfeld"] == na["SPM"], na
    assert _everywhere(le, na["SPM"], na["SPM-mean"]), na


FINDINGS = {
    "fig5_1_pp": fig5_1,
    "fig5_1_ts": fig5_1,
    "fig5_2_pp": fig5_2,
    "fig5_2_ts": fig5_2,
    "fig5_3_pp": fig5_3,
    "fig5_3_ts": fig5_3,
    "fig5_4": fig5_4,
    "fig5_5": fig5_5,
    "fig5_6": fig5_6,
    "fig5_7": fig5_7,
    "ablation_heuristics": ablation_heuristics,
    "ablation_centroid": ablation_centroid,
}


@pytest.mark.parametrize("name, x, algorithm", CELLS)
def test_every_cell_has_one_row(name, x, algorithm):
    (row,) = [row for row in _smoke_rows(name) if (row["x"], row["algorithm"]) == (x, algorithm)]
    assert row["node_accesses"] > 0, row
    # a memory-resident row averages a workload of groups, a disk-resident one one query set
    assert row["queries"] == (SMOKE.queries_per_setting if "dataset" in row else 1), row


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_reproduces_its_finding(name):
    rows = _smoke_rows(name)
    assert [(name, row["x"], row["algorithm"]) for row in rows] == [
        cell for cell in CELLS if cell[0] == name
    ]
    FINDINGS[name](rows)
