"""Command-line entry point for the experiment harness.

Examples::

    # list the available experiments
    python -m repro.bench --list

    # reproduce Figure 5.1 on the PP-like dataset at the default scale
    python -m repro.bench fig5_1_pp

    # reproduce everything the paper reports, writing Markdown tables
    python -m repro.bench all --scale quick --markdown results.md

Performance numbers are not quoted from here: the repo's benchmark is
``python3 benchmarks/gnnbench/run.py`` (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.config import available_scales, get_scale
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.report import format_table, results_to_markdown
from repro.storage.atomicio import atomic_output


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
        help=(
            "problem size: smoke (seconds), quick (minutes, default), paper (the paper's "
            "sizes; fig5_1_pp measured at 212 s, the GCP-bound disk figures not timed)"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="also write the results as Markdown tables to this file",
    )
    return parser


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
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
