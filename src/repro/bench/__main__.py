"""Command-line entry point for the experiment harness.

Examples::

    # list the available experiments
    python -m repro.bench --list

    # reproduce Figure 5.1 on the PP-like dataset at the default scale
    python -m repro.bench fig5_1_pp

    # reproduce everything the paper reports, writing Markdown tables
    python -m repro.bench all --scale quick --markdown results.md

    # write the machine-readable perf baseline (BENCH_quick.json)
    python -m repro.bench --quick
"""

from __future__ import annotations

import argparse
import sys
import time

import json

from repro.bench.baseline import (
    DEFAULT_OUTPUT,
    baseline_warnings,
    compare_baseline,
    write_baseline,
)
from repro.bench.config import available_scales, get_scale
from repro.storage.atomicio import atomic_output
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.report import format_table, results_to_markdown


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the experiments of 'Group Nearest Neighbor Queries' (ICDE 2004).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment name (see --list) or 'all'",
    )
    parser.add_argument(
        "--scale",
        default="quick",
        choices=available_scales(),
        help="problem size: smoke (seconds), quick (minutes, default), paper (hours)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="also write the results as Markdown tables to this file",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "measure the fixed perf baseline (fig-5.1 smoke over the flat "
            "index, one disk config, the execute_many batch path, and the "
            f"multi-worker serving section) and write {DEFAULT_OUTPUT}"
        ),
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=DEFAULT_OUTPUT,
        help=f"where --quick writes its JSON (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help=(
            "with --quick: after measuring, compare the speedup ratios "
            "against this committed baseline JSON and exit non-zero when "
            "any falls below 90%% of its committed value (the CI "
            "bench-baseline regression gate)"
        ),
    )
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
    if args.quick:
        document = write_baseline(args.output)
        memory = document["memory_fig5_1"]["algorithms"]
        print(f"Perf baseline written to {args.output}")
        for name, row in memory.items():
            print(
                f"  {name:6s} {row['flat_ms_per_query']:8.2f} ms/query   "
                f"{row['node_accesses_median']} node accesses (median)"
            )
        for name, row in document["disk"]["algorithms"].items():
            print(
                f"  {name:6s} {row['ms_per_query']:8.2f} ms/query   "
                f"{row['node_accesses']} node accesses, {row['page_reads']} page reads"
            )
        batch = document["batch_flat"]
        print(
            f"  batch  execute {batch['execute_ms_per_query']:8.2f} ms/query   "
            f"execute_many {batch['execute_many_ms_per_query']:8.2f} ms/query   "
            f"speedup {batch['batch_speedup']:.2f}x "
            f"(B={batch['setting']['batch_size']})"
        )
        serving = document["serving"]
        for workers, row in sorted(serving["workers"].items(), key=lambda kv: int(kv[0])):
            print(
                f"  serve  {workers} worker(s) {row['throughput_rps']:8.1f} req/s   "
                f"p50 {row['p50_ms']:6.1f} ms   p95 {row['p95_ms']:6.1f} ms   "
                f"p99 {row['p99_ms']:6.1f} ms"
            )
        print(
            f"  serve  4-worker throughput speedup over 1 worker: "
            f"{serving['throughput_speedup_4w_vs_1w']:.2f}x"
        )
        sharded = document["sharded"]
        for shards, row in sorted(sharded["shards"].items(), key=lambda kv: int(kv[0])):
            print(
                f"  shard  {shards} shard(s)  {row['throughput_rps']:8.1f} req/s   "
                f"contact rate {row['shard_contact_rate']:.0%}"
            )
        print(
            f"  shard  4-shard throughput speedup over 1 shard: "
            f"{sharded['throughput_speedup_4s_vs_1s']:.2f}x"
        )
        observability = document["observability"]
        print(
            f"  obs    disabled {observability['disabled_ms_per_query']:8.2f} ms/query   "
            f"enabled {observability['enabled_ms_per_query']:8.2f} ms/query   "
            f"overhead {observability['enabled_overhead']:.3f}x"
        )
        if args.compare is not None:
            with open(args.compare, "r", encoding="utf-8") as handle:
                reference = json.load(handle)
            for warning in baseline_warnings(document, reference):
                print(f"warning: {warning}", file=sys.stderr)
            failures = compare_baseline(document, reference)
            if failures:
                print(f"Speedup regression vs {args.compare}:", file=sys.stderr)
                for failure in failures:
                    print(f"  {failure}", file=sys.stderr)
                return 1
            print(f"Speedups hold against {args.compare}")
        return 0
    if args.compare is not None:
        print("--compare requires --quick", file=sys.stderr)
        return 2
    if args.list or args.experiment is None:
        print("Available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        print("  all")
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if any(name not in EXPERIMENTS for name in names):
        print(f"unknown experiment {args.experiment!r}; use --list", file=sys.stderr)
        return 2

    scale = get_scale(args.scale)
    markdown_chunks = []
    for name in names:
        started = time.perf_counter()
        result = run_experiment(name, scale)
        elapsed = time.perf_counter() - started
        print(format_table(result))
        print(f"  (experiment wall time: {elapsed:.1f}s)\n")
        markdown_chunks.append(results_to_markdown(result))

    if args.markdown:
        with atomic_output(args.markdown) as handle:
            handle.write("\n".join(markdown_chunks).encode("utf-8"))
        print(f"Markdown tables written to {args.markdown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
