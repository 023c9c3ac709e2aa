#!/usr/bin/env python3
"""gnnbench entry point: one command prints every metric and checks every answer.

One measured run -- one workload, one fresh process (what the benchmark
driver issues, see ``BENCHMARK.json``)::

    python3 benchmarks/gnnbench/run.py --workload fig51_mem --seed 3 --seconds 20 --trace 0

prints the workload's end-to-end metrics and ends with one JSON line
holding the ones ``BENCHMARK.json`` lists.  With ``--trace 1`` the run is
the traced pass instead: the workload at a third of the length, untraced
then traced, plus the layer probes; the JSON line holds the per-layer
metrics and ``<out>.trace.jsonl`` the spans.

A whole set (what a person runs)::

    python3 benchmarks/gnnbench/run.py --seed 17 --out result.json

is a loop over that same run: every workload ``--runs`` times with
tracing off, then once traced, each in its own process; the set reports
each metric's median over the runs and its run-to-run spread, writes
``result.json`` and ``result.json.trace.jsonl``.  ``--workload NAME``,
``--scale smoke`` and ``--no-traced`` exist for iteration.

Exit status is non-zero when any answer was wrong, any operation failed,
or any process the harness started is still alive at the end.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

from gnnbench import probes  # noqa: E402
from gnnbench.common import SCALES, Watchdog, WorkDir, descendant_pids, quartile_spread  # noqa: E402
from gnnbench.metrics import ALL, DRIVER_END_TO_END, END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from gnnbench.spans import SpanRecorder, self_times, write_jsonl  # noqa: E402
from gnnbench.workloads import WORKLOADS, RunConfig  # noqa: E402

RUN_LIMIT_S = 170  # the driver allows 180 s per run


def provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": args.seed,
        "scale": args.scale,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# one measured run
# ----------------------------------------------------------------------
def end_to_end_view(result: dict) -> dict:
    """The workload's end-to-end metrics, in table order, with unit and bound."""
    measured = dict(result["metrics"])
    measured["failed_share"] = {"value": result["failed_share"], "samples": result["attempted"]}
    return {
        name: {
            "value": measured[name]["value"],
            "unit": unit,
            "better": better,
            "bound": bound,
            "samples": measured[name]["samples"],
        }
        for name, (unit, better, bound, workloads, _) in END_TO_END.items()
        if result["name"] in workloads
    }


def traced_pass(name: str, cfg: RunConfig) -> tuple:
    """The workload at a third of the length, tracing off then on; returns (runs, summary, spans).

    The traced run records a harness span around every call into a layer
    and turns the program's own tracer on; the ratio of the two
    ``ops_per_s`` is the tracing overhead.
    """
    third = cfg.seconds / 3.0
    untraced = WORKLOADS[name](cfg.shortened(third))
    recorder = SpanRecorder()
    traced = WORKLOADS[name](cfg.shortened(third, recorder=recorder, program_trace=True))
    own = self_times(recorder.spans)
    busy = traced["phase_wall_s"] * traced["callers"]
    summary = {
        "overhead_ratio": traced["metrics"]["ops_per_s"]["value"] / untraced["metrics"]["ops_per_s"]["value"],
        "traced_wall_s": traced["phase_wall_s"],
        "callers": traced["callers"],
        "self_time_s": own,
        "self_time_coverage": sum(own.values()) / busy if busy else 0.0,
        "harness_spans": len(recorder.spans),
        "program_spans": len(traced["program_spans"]),
    }
    spans = [dict(span, workload=name) for span in recorder.spans]
    spans += [dict(span, workload=name, source="program") for span in traced["program_spans"]]
    return [untraced, traced], summary, spans


def print_run(output: dict) -> None:
    name = output["workload"]
    print(f"== {name}: {output['attempted']} operations, {output['failed']} failed")
    for metric, entry in output.get("end_to_end", {}).items():
        bound = "not judged" if entry["bound"] is None else f"bound={entry['bound']}"
        print(f"{name:<14} {metric:<32} {entry['value']:>14.4f} {entry['unit']:<6} n={entry['samples']} {bound}")
    for metric, entry in output.get("informational", {}).items():
        print(f"{name:<14} {metric:<32} {entry['value']:>14.4f} (informational, n={entry['samples']})")
    if "trace" in output:
        print(f"== {name} traced pass: {json.dumps(output['trace'], default=float)}")
        print("== per-layer metrics")
        for metric, (unit, _, moves) in PER_LAYER.items():
            print(f"{metric:<34} {output['per_layer'][metric]:>16.4f} {unit:<6} -> {moves}")
    for note in output["failure_notes"]:
        print(f"  FAILED: {note}")


def hygiene() -> list[str]:
    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"multiprocessing children still alive: {[c.name for c in children]}")
    leftover = descendant_pids()
    if leftover:
        problems.append(f"descendant processes still alive: {sorted(leftover)}")
    return problems


def one_run(args) -> int:
    """One workload in this process: untraced (``--trace 0``) or the traced pass (``--trace 1``)."""
    name = args.workload
    output = {"workload": name, "seconds": args.seconds, "provenance": provenance(args)}
    spans = []
    with WorkDir() as workdir, Watchdog(RUN_LIMIT_S, f"{name} --trace {args.trace}"):
        cfg = RunConfig(scale=SCALES[args.scale], seed=args.seed, seconds=args.seconds, workdir=workdir)
        if args.trace == 0:
            result = WORKLOADS[name](cfg)
            runs = [result]
            output["end_to_end"] = end_to_end_view(result)
            output["informational"] = {
                metric: entry for metric, entry in result["metrics"].items() if metric not in END_TO_END
            }
            line = {m: {"value": output["end_to_end"][m]["value"], "unit": END_TO_END[m][0]} for m in DRIVER_END_TO_END}
        else:
            runs, output["trace"], spans = traced_pass(name, cfg)
            layer, layer_runs = probes.layer_pass(cfg)
            runs += layer_runs
            layer["obs.trace_overhead_ratio"] = output["trace"]["overhead_ratio"]
            for metric in ("ops_per_s", "query_ms_p50", "query_ms_p95"):
                layer[f"run.{metric}"] = runs[0]["metrics"][metric]["value"]
            output["per_layer"] = {m: float(layer[m]) for m in PER_LAYER}
            line = {m: {"value": output["per_layer"][m], "unit": PER_LAYER[m][0]} for m in PER_LAYER}
    output["settings"] = runs[0]["settings"]
    output["detail"] = runs[0]["detail"]
    output["attempted"] = sum(run["attempted"] for run in runs)
    output["failed"] = sum(run["failed"] for run in runs)
    output["failure_notes"] = [note for run in runs for note in run["failure_notes"]]
    output["hygiene"] = hygiene()
    output["correct"] = output["failed"] == 0 and not output["hygiene"]
    print_run(output)
    for problem in output["hygiene"]:
        print(f"  HYGIENE: {problem}")
    if args.out:
        Path(args.out).write_text(json.dumps(output, indent=1, default=float) + "\n")
        if args.trace == 1:
            write_jsonl(f"{args.out}.trace.jsonl", spans)
    print(json.dumps({
        "correct": output["correct"], "attempted": output["attempted"], "failed": output["failed"],
        "metrics": line,
    }))
    return 0 if output["correct"] else 1


# ----------------------------------------------------------------------
# a set: the same run, repeated, each in its own process
# ----------------------------------------------------------------------
def child_run(args, name: str, trace: int, seconds: float, scratch: Path) -> dict:
    """Run ``run.py --workload name --trace trace`` as a subprocess; returns its result file."""
    out = scratch / f"{name}-{trace}.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", str(trace), "--scale", args.scale, "--out", str(out)],
        capture_output=True, text=True, timeout=RUN_LIMIT_S + 30,
    )
    if not out.exists():  # the run died before it could report: that is a failure of the harness
        raise RuntimeError(f"{name} --trace {trace} exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    print(f"-- {name} --trace {trace}: {time.perf_counter() - started:.1f} s", flush=True)
    return json.loads(out.read_text())


def merge_runs(runs: list[dict], table: str) -> dict:
    """Median and run-to-run spread of each metric of ``table`` over one workload's runs."""
    merged = {}
    for metric, first in runs[0][table].items():
        values = [run[table][metric]["value"] for run in runs if metric in run[table]]
        merged[metric] = {
            **first,
            "value": statistics.median(values),
            "values": values,
            "spread": quartile_spread(values),
        }
    return merged


def run_set(args) -> int:
    """Every workload ``--runs`` times untraced, then once traced; one process per run."""
    scale = SCALES[args.scale]
    seconds = args.seconds if args.seconds is not None else scale.set_seconds
    selected = [args.workload] if args.workload else list(ALL)
    output = {
        "benchmark": "gnnbench", "provenance": provenance(args), "seconds": seconds, "runs": args.runs,
        "workloads": {}, "exact_counts": list(EXACT_COUNTS),
    }
    problems = []
    with WorkDir() as scratch:
        untraced = {name: [] for name in selected}
        for _ in range(args.runs):  # workloads alternate, so a disturbed minute does not land on one of them
            for name in selected:
                untraced[name].append(child_run(args, name, 0, seconds, scratch))
        traced = {} if args.no_traced else {
            name: child_run(args, name, 1, seconds, scratch) for name in selected
        }
        if traced and args.out:
            with open(f"{args.out}.trace.jsonl", "w", encoding="utf-8") as handle:
                for name in selected:
                    handle.write((scratch / f"{name}-1.json.trace.jsonl").read_text())

    for name in selected:
        runs = untraced[name] + ([traced[name]] if traced else [])
        entry = {
            "settings": runs[0]["settings"],
            "detail": runs[0]["detail"],
            "end_to_end": merge_runs(untraced[name], "end_to_end"),
            "informational": merge_runs(untraced[name], "informational"),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
        }
        if traced:
            entry["trace"] = traced[name]["trace"]
        for run in runs:
            problems += run["failure_notes"] + run["hygiene"]
        output["workloads"][name] = entry
        print(f"== {name}: {entry['attempted']} operations, {entry['failed']} failed, {args.runs} runs")
        for metric, merged in entry["end_to_end"].items():
            bound = "not judged" if merged["bound"] is None else f"bound={merged['bound']}"
            print(
                f"{name:<14} {metric:<32} {merged['value']:>14.4f} {merged['unit']:<6}"
                f" n={merged['samples']} spread={merged['spread']:.3f} {bound}"
            )
        for metric, merged in entry["informational"].items():
            print(f"{name:<14} {metric:<32} {merged['value']:>14.4f} (informational, n={merged['samples']})")
        if traced:
            print(f"== {name} traced pass: {json.dumps(entry['trace'], default=float)}")

    if traced:
        # Every traced run measures every layer, so each probe has one value per workload run.
        output["per_layer"] = {}
        print("== per-layer metrics (median over the traced runs)")
        for metric, (unit, _, moves) in PER_LAYER.items():
            values = {name: traced[name]["per_layer"][metric] for name in selected}
            value = statistics.median(values.values())
            output["per_layer"][metric] = {"value": value, "values": values, "unit": unit, "moves": moves}
            print(f"{metric:<34} {value:>16.4f} {unit:<6} -> {moves}")
            if metric in EXACT_COUNTS and len(set(values.values())) > 1:
                problems.append(f"{metric} must repeat exactly for one seed but read {values}")

    failed = sum(entry["failed"] for entry in output["workloads"].values())
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    output["problems"], output["correct"] = problems, failed == 0 and not problems
    if args.out:
        Path(args.out).write_text(json.dumps(output, indent=1, default=float) + "\n")
    print(f"== gnnbench: {'ok' if output['correct'] else 'FAILED'} ({failed} failed operations)")
    return 0 if output["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=17, help="drives groups, traces and the op stream")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this workload")
    parser.add_argument("--seconds", type=float, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one measured run: 0 untraced, 1 the traced pass")
    parser.add_argument("--runs", type=int, default=5, help="a set: untraced runs per workload")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full", help="smoke is for iteration only")
    parser.add_argument("--no-traced", action="store_true", help="a set: skip the traced pass")
    parser.add_argument("--out", help="write the result here and spans to <out>.trace.jsonl")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_set(args)
    if args.workload is None or args.seconds is None:
        parser.error("--trace needs --workload and --seconds")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
