"""Tests for the experiment harness: config, runner, experiments, report, CLI."""

import numpy as np
import pytest

from repro.bench.config import available_scales, get_scale
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.report import format_table, results_to_markdown
from repro.bench.runner import run_disk_setting, run_memory_setting
from repro.datasets.synthetic import uniform_points
from repro.rtree.flat import FlatRTree


class TestConfig:
    def test_known_scales_exist(self):
        assert {"smoke", "quick", "paper"} <= set(available_scales())

    def test_get_scale_returns_named_scale(self):
        assert get_scale("smoke").name == "smoke"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("enormous")

    def test_paper_scale_matches_paper_cardinalities(self):
        paper = get_scale("paper")
        assert paper.pp_size == 24_493
        assert paper.ts_size == 194_971
        assert paper.queries_per_setting == 100
        assert paper.node_capacity == 50


class TestRunner:
    @pytest.fixture(scope="class")
    def tree_and_data(self):
        data = uniform_points(600, seed=2)
        return FlatRTree.bulk_load(data, capacity=16), data

    def test_memory_setting_averages_all_algorithms(self, tree_and_data):
        tree, data = tree_and_data
        rng = np.random.default_rng(0)
        groups = [rng.uniform(2000, 4000, size=(8, 2)) for _ in range(3)]
        result = run_memory_setting(tree, groups, k=2)
        assert set(result.averages) == {"MQM", "SPM", "MBM"}
        for averages in result.averages.values():
            assert averages.queries == 3
            assert averages.node_accesses > 0
            assert averages.cpu_time > 0

    def test_memory_setting_supports_ablation_algorithms(self, tree_and_data):
        tree, _ = tree_and_data
        rng = np.random.default_rng(1)
        groups = [rng.uniform(2000, 4000, size=(6, 2))]
        result = run_memory_setting(
            tree, groups, k=1, algorithms=("MBM", "MBM-H2", "SPM-mean")
        )
        assert set(result.averages) == {"MBM", "MBM-H2", "SPM-mean"}

    def test_memory_setting_unknown_algorithm_rejected(self, tree_and_data):
        tree, _ = tree_and_data
        with pytest.raises(ValueError):
            run_memory_setting(tree, [np.zeros((2, 2))], k=1, algorithms=("MBM", "XYZ"))

    def test_disk_setting_runs_all_algorithms(self, tree_and_data):
        tree, data = tree_and_data
        rng = np.random.default_rng(2)
        # Keep the query workspace small relative to the data workspace so
        # GCP terminates quickly (the favourable case of Figure 4.3a).
        center = data.mean(axis=0)
        queries = rng.uniform(center - 300, center + 300, size=(120, 2))
        result = run_disk_setting(
            tree,
            queries,
            k=2,
            block_pages=2,
            points_per_page=32,
            query_tree_capacity=16,
            gcp_max_pairs=30_000,
        )
        assert set(result.averages) == {"GCP", "F-MQM", "F-MBM"}
        assert result.averages["F-MBM"].page_reads > 0

    def test_disk_setting_unknown_algorithm_rejected(self, tree_and_data):
        tree, _ = tree_and_data
        with pytest.raises(ValueError):
            run_disk_setting(tree, np.zeros((4, 2)) + 1.0, k=1, algorithms=("SORT-MERGE",))


class TestExperiments:
    def test_registry_covers_every_figure(self):
        expected = {
            "fig5_1_pp",
            "fig5_1_ts",
            "fig5_2_pp",
            "fig5_2_ts",
            "fig5_3_pp",
            "fig5_3_ts",
            "fig5_4",
            "fig5_5",
            "fig5_6",
            "fig5_7",
            "ablation_heuristics",
            "ablation_centroid",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig9_9", "smoke")


class TestReport:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("fig5_1_pp", "smoke")

    def test_format_table_contains_all_algorithms(self, result):
        text = format_table(result)
        for algorithm in ("MQM", "SPM", "MBM"):
            assert algorithm in text
        assert "node_accesses" in text

    def test_markdown_has_table_syntax(self, result):
        markdown = results_to_markdown(result)
        assert markdown.count("|") > 10
        assert markdown.startswith("### fig5_1_pp")


class TestCommandLine:
    def test_list_option(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig5_4" in output

    def test_unknown_experiment_returns_error_code(self, capsys):
        from repro.bench.__main__ import main

        assert main(["fig5_99"]) == 2

    def test_no_arguments_lists_experiments(self, capsys):
        from repro.bench.__main__ import main

        assert main([]) == 0
        assert "fig5_1_pp" in capsys.readouterr().out

    def test_single_experiment_run_writes_markdown(self, capsys, tmp_path):
        # Uses the smoke scale (the smallest registered one); the PP memory
        # figure finishes in well under a second at that size.
        from repro.bench.__main__ import main

        markdown_path = tmp_path / "results.md"
        assert main(["fig5_1_pp", "--scale", "smoke", "--markdown", str(markdown_path)]) == 0
        output = capsys.readouterr().out
        assert "fig5_1_pp" in output and "MBM" in output
        content = markdown_path.read_text(encoding="utf-8")
        assert content.startswith("### fig5_1_pp")
        assert "| node_accesses |" in content or "node_accesses" in content


class TestBaselineWrite:
    """Atomic persistence of the JSON documents the system publishes."""

    def test_write_json_atomic_roundtrips(self, tmp_path):
        import json

        from repro.storage.atomicio import write_json_atomic

        path = tmp_path / "baseline.json"
        write_json_atomic(str(path), {"schema": 3, "value": 1.5})
        assert json.loads(path.read_text(encoding="utf-8")) == {"schema": 3, "value": 1.5}

    def test_interrupted_write_never_truncates_existing_file(self, tmp_path):
        """A failure mid-write must leave the previous complete file (and
        no temp litter) behind — never a truncated baseline."""
        import json

        from repro.storage.atomicio import write_json_atomic

        path = tmp_path / "baseline.json"
        write_json_atomic(str(path), {"schema": 3, "generation": 1})
        with pytest.raises(TypeError):
            write_json_atomic(str(path), {"bad": object()})  # not JSON-serialisable
        assert json.loads(path.read_text(encoding="utf-8")) == {
            "schema": 3,
            "generation": 1,
        }
        assert list(tmp_path.iterdir()) == [path]
