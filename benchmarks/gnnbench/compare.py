#!/usr/bin/env python3
"""Compare two gnnbench sets: ``compare.py A.json B.json``.

A set (``run.py --seed N --out FILE``) holds several runs of every
workload; each end-to-end metric is the median over those runs, and its
spread is the distance between the first and third quartile of the runs
over their median.  One row per workload x end-to-end metric: both
medians, the ratio B/A (A is the base), the share by which B is worse,
the bound, the larger of the two sets' spreads, and a verdict:

``ok``          B is not worse than A by more than the bound;
``regressed``   B is worse than A by more than the bound;
``unresolved``  the run-to-run spread of either set is wider than the
                bound, so the pair cannot show either (never reported as
                unchanged);
``not judged``  the metric has no bound (it does not repeat on this box);
                it is shown with its spread for the reader.

Counts that must repeat exactly for one seed on one commit (the result
file lists them: node accesses, distance computations, bytes per point
or record, final delta size) are asserted equal.  Exit status is
non-zero unless every judged row is ``ok`` and every count matches.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def verdict(a: dict, b: dict) -> tuple[str, float]:
    """Judge one metric; returns (verdict, share by which B is worse than A)."""
    base, new = a["value"], b["value"]
    bound = a["bound"]
    if a["better"] == "lower":
        worse_by = (new - base) / base if base else float(new > base)
    else:
        worse_by = (base - new) / base if base else float(new < base)
    if bound is None:
        return "not judged", worse_by
    if bound > 0 and max(a["spread"], b["spread"]) > bound:
        return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "ok"), worse_by


def compare(a: dict, b: dict, out=sys.stdout) -> bool:
    """Print the comparison table; True when nothing regressed, is unresolved or differs."""
    clean = True
    print(f"A: {a['runs']} runs per workload, B: {b['runs']} runs per workload", file=out)
    print(
        f"{'workload':<14} {'metric':<32} {'A':>14} {'B':>14} {'B/A':>7} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict",
        file=out,
    )
    for workload, side_a in a["workloads"].items():
        side_b = b["workloads"].get(workload)
        if side_b is None:
            print(f"{workload:<14} missing from B", file=out)
            clean = False
            continue
        for metric, entry_a in side_a["end_to_end"].items():
            entry_b = side_b["end_to_end"].get(metric)
            if entry_b is None:
                print(f"{workload:<14} {metric:<32} missing from B", file=out)
                clean = False
                continue
            result, worse_by = verdict(entry_a, entry_b)
            ratio = entry_b["value"] / entry_a["value"] if entry_a["value"] else float("nan")
            bound = "-" if entry_a["bound"] is None else f"{entry_a['bound']:.2f}"
            print(
                f"{workload:<14} {metric:<32} {entry_a['value']:>14.4f} {entry_b['value']:>14.4f} "
                f"{ratio:>7.3f} {worse_by:>+9.3f} {bound:>6} "
                f"{max(entry_a['spread'], entry_b['spread']):>7.3f}  {result}",
                file=out,
            )
            clean = clean and result in ("ok", "not judged")
    layers_a, layers_b = a.get("per_layer", {}), b.get("per_layer", {})
    for name in a.get("exact_counts", []):
        value_a = layers_a.get(name, {}).get("value")
        value_b = layers_b.get(name, {}).get("value")
        same = value_a == value_b
        print(f"exact count    {name:<34} {value_a!s:>16} {value_b!s:>16}  {'equal' if same else 'DIFFERS'}", file=out)
        clean = clean and same
    return clean


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    return 0 if compare(a, b) else 1


if __name__ == "__main__":
    sys.exit(main())
