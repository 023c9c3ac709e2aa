"""Smoke benchmarks guarding the vectorised kernel layer.

Selected with ``-k smoke`` (the CI job runs exactly that): a
seconds-long subset that fails loudly if the kernel layer regresses to
per-point Python-loop speed or drifts from the scalar arithmetic,
without slowing the main test job down.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets.workload import WorkloadSpec, generate_workload
from repro.geometry import kernels
from repro.geometry.distance import group_distance
from repro.bench.runner import run_memory_setting
from repro.rtree.flat import FlatRTree
from repro.rtree.traversal import incremental_nearest

#: The vectorised kernel is ~50-100x faster than the scalar loop on this
#: shape; 3x leaves a huge margin against CI noise while still catching
#: any fallback to per-point evaluation.
MIN_SPEEDUP = 3.0

#: Floor on incremental-stream throughput (neighbors/second).  With
#: plain-tuple heap items the stream sustains several hundred thousand
#: per second; a regression back to per-item object wrappers (or
#: strings in the heap) cuts that by an order of magnitude, while CI
#: noise does not get near a 10x swing.
MIN_STREAM_THROUGHPUT = 30_000.0


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_smoke_kernel_beats_scalar_loop(benchmark):
    """One kernel call over a leaf-sized array must beat the scalar loop."""
    rng = np.random.default_rng(123)
    candidates = rng.uniform(0, 1000, size=(2_000, 2))
    group = rng.uniform(0, 1000, size=(64, 2))
    scalar_subset = candidates[:200]

    scalar_time = _best_of(
        3, lambda: [group_distance(p, group) for p in scalar_subset]
    ) / scalar_subset.shape[0]
    kernel_time = benchmark(
        lambda: kernels.aggregate_distances(candidates, group)
    )  # pytest-benchmark returns the function result, timings go to the report
    kernel_per_point = _best_of(3, lambda: kernels.aggregate_distances(candidates, group))
    kernel_per_point /= candidates.shape[0]

    speedup = scalar_time / kernel_per_point
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 1)
    assert speedup >= MIN_SPEEDUP, (
        f"kernel path is only {speedup:.1f}x faster than the scalar loop "
        f"(expected >= {MIN_SPEEDUP}x) — vectorisation has regressed"
    )
    # and it must still be the *same* arithmetic
    assert np.array_equal(
        kernels.aggregate_distances(scalar_subset, group),
        [group_distance(p, group) for p in scalar_subset],
    )


def test_smoke_tangent_kernel_price_per_node():
    """MBM's tangent key must cost at most 2x the summed-mindist kernel per node.

    The tangent bound buys its fewer node accesses with more arithmetic
    per scored child slice (~1.4x at the paper's n=64); this keeps that
    per-node price from drifting unseen.
    """
    rng = np.random.default_rng(123)
    flat = FlatRTree.bulk_load(rng.uniform(0, 1000, size=(10_000, 2)), capacity=50)
    node = int(np.flatnonzero((flat.levels == 1) & (flat.child_count == 50))[0])
    start = int(flat.child_start[node])
    lows, highs = flat.lows[start : start + 50], flat.highs[start : start + 50]
    group = rng.uniform(400, 680, size=(64, 2))
    anchor = group.mean(axis=0)
    scorer = kernels.Scorer2D(group, flat.capacity)

    def best_of_200_calls(kernel, *args):
        return _best_of(7, lambda: [kernel(lows, highs, *args) for _ in range(200)])

    mindist_time = best_of_200_calls(scorer.boxes_group_sum_mindist)
    tangent_time = best_of_200_calls(scorer.boxes_group_tangent_bound, anchor)
    assert tangent_time <= 2.0 * mindist_time, (
        f"tangent kernel costs {tangent_time / mindist_time:.2f}x the summed-mindist "
        "kernel on a 50-box slice (expected <= 2x)"
    )


def test_smoke_traversal_stream_tuples(benchmark):
    """Profile-guard for the plain-tuple heap items in the traversals.

    Consuming a full incremental stream is pure heap-and-yield work, so
    its throughput directly measures the per-item cost of the heap
    entries.
    """
    rng = np.random.default_rng(321)
    points = rng.uniform(0, 1000, size=(10_000, 2))
    flat = FlatRTree.bulk_load(points, capacity=50)
    query = [500.0, 500.0]

    def consume():
        count = 0
        for _ in incremental_nearest(flat, query):
            count += 1
        return count

    consume()  # warm-up
    benchmark(consume)
    started = time.perf_counter()
    count = consume()
    elapsed = time.perf_counter() - started
    throughput = count / elapsed
    benchmark.extra_info["neighbors_per_second"] = round(throughput)
    assert count == len(points)
    assert throughput >= MIN_STREAM_THROUGHPUT, (
        f"incremental stream emits only {throughput:,.0f} neighbors/s "
        f"(expected >= {MIN_STREAM_THROUGHPUT:,.0f}) — heap items have regressed"
    )


def test_smoke_memory_algorithms_cross_check(benchmark, datasets, scale):
    """SPM/MBM at the paper's fixed cardinality, answers cross-checked.

    ``run_memory_setting`` raises if the algorithms disagree, so this
    doubles as an end-to-end equivalence smoke test of the kernelised
    traversals at benchmark scale.
    """
    points, tree = datasets["pp"]
    spec = WorkloadSpec(
        n=64, mbr_fraction=scale.fixed_mbr_fraction, k=scale.fixed_k, queries=2
    )
    groups = generate_workload(points, spec, seed=17)

    result = benchmark.pedantic(
        lambda: run_memory_setting(tree, groups, k=spec.k, algorithms=("SPM", "MBM")),
        rounds=1,
        iterations=1,
    )
    for name, averages in result.averages.items():
        assert averages.node_accesses > 0, name
        benchmark.extra_info[f"{name}_node_accesses"] = round(averages.node_accesses, 1)
        benchmark.extra_info[f"{name}_cpu_per_query"] = averages.cpu_time
