"""Integration tests: public API surface, instrumentation, example scripts."""

import ast
import importlib
import pathlib
import re

import numpy as np
import pytest
from traversal_reference import best_first_nearest

import repro
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
        "DeltaOverlay", "FlatRTree", "flat_incremental_nearest_generic",
        "incremental_closest_pairs",
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
        assert repro.__version__ == "16.1.0"

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


class TestQueryCostRecord:
    def test_record_counts_only_its_own_query(self):
        points = np.random.default_rng(1).uniform(0, 100, size=(300, 2))
        query = repro.GroupQuery([[50.0, 50.0], [60.0, 40.0]], k=5)
        alone = repro.mbm(FlatRTree.bulk_load(points, capacity=8), query).cost
        tree = FlatRTree.bulk_load(points, capacity=8)
        # Read the index first, outside any query: a record that took a
        # shared running total would count these reads too.
        best_first_nearest(tree, [0.0, 0.0], k=5)
        cost = repro.mbm(tree, query).cost
        assert cost.node_accesses > 0 and cost.distance_computations > 0
        assert cost.cpu_time > 0
        for key in ("node_accesses", "leaf_accesses", "distance_computations"):
            assert getattr(cost, key) == getattr(alone, key), key

    def test_node_reads_charge_the_record_given(self):
        tree = FlatRTree.bulk_load(np.zeros((4, 2)), capacity=8)
        cost = repro.QueryCost()
        tree.read_node(0, cost)
        cost.record_distance_computations(42)
        assert (cost.node_accesses, cost.leaf_accesses, cost.distance_computations) == (1, 1, 42)
        tree.read_node(0)  # a read outside any query is not counted
        assert cost.node_accesses == 1

    def test_block_reads_charge_the_record_given(self):
        query_file = repro.PointFile(np.zeros((10, 2)), points_per_page=2, block_pages=3)
        cost = repro.QueryCost()
        query_file.read_block(0, cost)
        assert (cost.block_reads, cost.page_reads) == (1, 3)
        query_file.read_block(1)  # a read outside any query is not counted
        assert (cost.block_reads, cost.page_reads) == (1, 3)


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
