"""Experiment harness reproducing Section 5 of the paper.

Every figure of the evaluation (5.1-5.7) has a corresponding experiment
definition in :mod:`repro.bench.experiments`; running one produces the
same series the paper plots (average node accesses and CPU time per
algorithm, as a function of the figure's x-axis).  The harness can be
driven two ways:

* programmatically (``run_experiment("fig5_1_pp")``),
* from the command line (``python -m repro.bench --list`` /
  ``python -m repro.bench fig5_1_pp --scale quick``).

``benchmarks/test_figures.py`` runs every experiment at the ``smoke``
scale and asserts the figure's finding on its rows.

This package reproduces the paper's *figures* (series of node accesses
and CPU time per algorithm).  It is not the repo's performance
benchmark: every number a change is judged by comes from
``benchmarks/gnnbench`` (``BENCHMARK.json``), the one harness with
scale tiers, repeated runs and bounds.
"""

from repro.bench.config import BenchScale, get_scale
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.report import format_table, results_to_markdown
from repro.bench.runner import WorkloadResult, run_disk_setting, run_memory_setting

__all__ = [
    "BenchScale",
    "EXPERIMENTS",
    "WorkloadResult",
    "format_table",
    "get_scale",
    "results_to_markdown",
    "run_disk_setting",
    "run_experiment",
    "run_memory_setting",
]
