"""Integration tests: public API surface, instrumentation, example scripts."""

import ast
import importlib
import pathlib
import re

import numpy as np
import pytest

import repro
from repro.core.instrumentation import CostTracker
from repro.rtree.flat import FlatRTree

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


#: The public surface, pinned: removing or adding a public name is a
#: deliberate edit of these sets (and of the version).
PUBLIC_NAMES = {
    "repro": {
        "AlgorithmInfo", "FlatRTree", "GNNEngine", "GNNResult", "GroupNeighbor",
        "GroupQuery", "LRUBuffer", "MBR", "PointFile", "QueryCost", "QueryPlan",
        "QueryPlanner", "QuerySpec", "__version__", "aggregate_gnn",
        "available_algorithms", "brute_force_gnn", "fmbm", "fmqm", "gcp", "mbm",
        "mqm", "spm",
    },
    "repro.api": {
        "AUTO", "AUTO_FMQM_MAX_BLOCKS", "AlgorithmInfo", "DISK", "ExecutionContext",
        "MEMORY", "QueryPlan", "QueryPlanner", "QuerySpec", "available_algorithms",
        "execute_batch", "execute_spec", "get_algorithm",
    },
    "repro.rtree": {
        "DeltaOverlay", "FlatRTree", "TreeStats", "best_first_nearest",
        "flat_incremental_nearest_generic", "incremental_closest_pairs",
        "incremental_nearest",
    },
    "repro.serve": {
        "CompactingWriter", "GNNServer", "MicroBatcher", "ServerOverloadedError",
        "ServerStats", "ServingCounters", "ServingError", "WorkerDiedError",
        "check_servable",
    },
    "repro.obs": {
        "MetricsRegistry", "Tracer", "disable_all", "enable_all", "logging",
        "metrics", "orphan_spans", "trace",
    },
}


class TestPublicAPI:
    def test_version_is_exposed(self):
        assert repro.__version__ == "8.0.0"

    def test_version_matches_pyproject(self):
        # Read by regex: Python 3.10 has no tomllib.
        pyproject = (EXAMPLES_DIR.parent / "pyproject.toml").read_text()
        declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
        assert declared is not None
        assert repro.__version__ == declared.group(1)

    @pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
    def test_public_names_are_pinned(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) == PUBLIC_NAMES[package]
        assert len(module.__all__) == len(PUBLIC_NAMES[package])  # no duplicates

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name}"

    def test_end_to_end_quickstart_snippet(self):
        # The snippet from the package docstring / README must work verbatim.
        data = np.random.default_rng(0).uniform(0, 100, size=(2_000, 2))
        engine = repro.GNNEngine(data)
        result = engine.execute(repro.QuerySpec(group=[[10, 10], [20, 35], [40, 15]], k=3))
        assert len(result.neighbors) == 3
        assert result.cost.node_accesses > 0

    def test_submodules_importable(self):
        for module in (
            "repro.geometry",
            "repro.rtree",
            "repro.storage",
            "repro.core",
            "repro.datasets",
            "repro.bench",
        ):
            importlib.import_module(module)


class TestCostTracker:
    def test_tracker_reports_deltas_not_totals(self):
        points = np.random.default_rng(1).uniform(0, 100, size=(300, 2))
        tree = FlatRTree.bulk_load(points, capacity=8)
        # Pre-charge some accesses so a delta-based tracker and a total-based
        # one would disagree.
        from repro.rtree.traversal import best_first_nearest

        best_first_nearest(tree, [0.0, 0.0], k=5)
        pre_existing = tree.stats.node_accesses
        assert pre_existing > 0

        tracker = CostTracker("test", trees=[tree])
        best_first_nearest(tree, [50.0, 50.0], k=5)
        cost = tracker.finish()
        assert 0 < cost.node_accesses < pre_existing + tree.stats.node_accesses
        assert cost.cpu_time > 0

    def test_tree_distance_computations_are_tracked(self):
        # traversals charge distance computations on their tree's stats
        tree = FlatRTree.bulk_load(np.zeros((4, 2)), capacity=8)
        tracker = CostTracker("test", trees=[tree])
        tree.stats.record_distance_computations(42)
        assert tracker.finish().distance_computations == 42

    def test_io_counters_are_tracked(self):
        from repro.storage.counters import IOCounters

        io = IOCounters()
        tracker = CostTracker("test", io_counters=[io])
        io.record_block_read(pages_in_block=3)
        cost = tracker.finish()
        assert cost.block_reads == 1
        assert cost.page_reads == 3


class TestExamples:
    """The example scripts must stay runnable; they are parsed and their
    structure checked here, and the quickstart is executed end to end."""

    def test_examples_directory_has_at_least_three_scripts(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3

    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in EXAMPLES_DIR.glob("*.py")),
    )
    def test_example_parses_and_defines_main(self, script):
        source = (EXAMPLES_DIR / script).read_text(encoding="utf-8")
        module = ast.parse(source)
        function_names = {
            node.name for node in ast.walk(module) if isinstance(node, ast.FunctionDef)
        }
        assert "main" in function_names, f"{script} must define a main() function"
        docstring = ast.get_docstring(module)
        assert docstring, f"{script} must start with a module docstring"

    def test_quickstart_example_runs(self, capsys, monkeypatch):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "quickstart_example", EXAMPLES_DIR / "quickstart.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        output = capsys.readouterr().out
        assert "Top 5 meeting restaurants" in output
        assert "MBM" in output
