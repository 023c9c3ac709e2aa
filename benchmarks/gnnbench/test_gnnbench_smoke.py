"""Smoke test of the benchmark harness (tier-1 collected, no timing thresholds).

Runs one set at ``--scale smoke`` (every workload once untraced and once
traced, each in its own process), and the driver's one-run command with
tracing off and on, then checks the *shape* of what came out against
``BENCHMARK.json``: every workload and metric is there under its
declared unit, nothing failed, and the traced pass accounts for its own
wall time.  ``compare.py`` is checked on copies of that set.
"""

from __future__ import annotations

import copy
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gnnbench.compare import compare
from gnnbench.metrics import END_TO_END, benchmark_json

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "gnnbench" / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("gnnbench") / "smoke.json"
    done = subprocess.run(
        [*RUN, "--scale", "smoke", "--seed", "17", "--runs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(out.read_text())
    result["_stdout"] = done.stdout
    result["_path"] = out
    return result


def driver_line(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [*RUN, "--scale", "smoke", "--workload", workload, "--seed", "5", "--seconds", "0.3",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables(declared):
    assert declared == benchmark_json()
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"] for entry in declared["workloads"])
    assert all(0 <= entry["bound"] <= 0.25 for entry in declared["end_to_end"])
    setup = next(entry for entry in declared["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in declared["end_to_end"])


def test_set_reports_every_metric_with_its_unit(declared, measured):
    assert measured["correct"] and measured["problems"] == []
    for workload in declared["workloads"]:
        reported = measured["workloads"][workload["name"]]
        assert reported["failed"] == 0
        assert reported["end_to_end"]["failed_share"]["value"] == 0
        expected = {name for name, row in END_TO_END.items() if workload["name"] in row[3]}
        assert set(reported["end_to_end"]) == expected
        for metric in declared["end_to_end"]:
            entry = reported["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0
            assert entry["bound"] == metric["bound"]
            assert f"{workload['name']:<14} {metric['name']:<32}" in measured["_stdout"]
    for metric in declared["per_layer"]:
        assert measured["per_layer"][metric["name"]]["unit"] == metric["unit"]
        assert set(measured["per_layer"][metric["name"]]["values"]) == set(measured["workloads"])
        assert metric["name"] in measured["_stdout"]
    assert measured["workloads"]["serve_meet"]["end_to_end"]["missed_share"]["value"] == 0
    assert set(measured["provenance"]) >= {"seed", "git_commit", "nproc", "python", "numpy"}


def test_traced_pass_accounts_for_its_wall_time(declared, measured):
    spans = [json.loads(line) for line in Path(f"{measured['_path']}.trace.jsonl").read_text().splitlines()]
    assert {span["source"] for span in spans} == {"harness", "program"}
    for workload in declared["workloads"]:
        trace = measured["workloads"][workload["name"]]["trace"]
        assert trace["overhead_ratio"] > 0
        assert 0.9 <= trace["self_time_coverage"] <= 1.1
        assert any(span["workload"] == workload["name"] for span in spans)


def test_driver_runs_print_exactly_the_declared_metrics(declared):
    untraced = driver_line("write_mix", 0)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert {name: m["unit"] for name, m in untraced["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared["end_to_end"]
    }
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    traced = driver_line("shard_scatter", 1)
    assert traced["correct"] and traced["failed"] == 0
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared["per_layer"]
    }


def verdicts(a: dict, b: dict) -> tuple[bool, str]:
    table = io.StringIO()
    clean = compare(a, b, out=table)
    return clean, table.getvalue()


def test_compare_judges_medians_against_bounds_and_run_to_run_spread(measured):
    clean, table = verdicts(measured, measured)
    assert clean and "regressed" not in table and "unresolved" not in table and "DIFFERS" not in table
    assert table.count("exact count") == len(measured["exact_counts"])
    assert "not judged" in table  # demoted metrics are shown, never judged

    costlier = copy.deepcopy(measured)
    costlier["workloads"]["fig51_mem"]["end_to_end"]["node_accesses_per_query"]["value"] *= 1.5
    costlier["workloads"]["fig51_mem"]["end_to_end"]["ops_per_s"]["value"] /= 2  # demoted: shown, not judged
    clean, table = verdicts(measured, costlier)
    assert not clean and table.count("regressed") == 1
    assert verdicts(costlier, measured)[0]  # fewer node accesses is no regression

    noisy = copy.deepcopy(measured)
    noisy["workloads"]["write_mix"]["end_to_end"]["setup_s"]["spread"] = 0.9
    clean, table = verdicts(measured, noisy)
    assert not clean and table.count("unresolved") == 1

    other = copy.deepcopy(measured)
    other["per_layer"]["core.mbm_node_accesses"]["value"] += 1
    clean, table = verdicts(measured, other)
    assert not clean and table.count("DIFFERS") == 1
