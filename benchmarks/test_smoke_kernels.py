"""Smoke benchmarks guarding the vectorised kernel layer.

Selected with ``-k smoke`` (the CI job runs exactly that): a
seconds-long subset that fails loudly if the kernel layer regresses to
per-point Python-loop speed or drifts from the scalar arithmetic,
without slowing the main test job down.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.mbm import mbm
from repro.core.types import GroupQuery
from repro.datasets import pp_like
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


def _cost_ratio(subject, reference, rounds=7, calls=200):
    """Best time of ``calls`` subject calls over the same for ``reference``.

    The two alternate round by round, so a burst of load on a shared
    machine hits both sides rather than one.
    """
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for side, fn in enumerate((subject, reference)):
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            best[side] = min(best[side], time.perf_counter() - started)
    return best[0] / best[1]


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

    ratio = _cost_ratio(
        lambda: kernels.boxes_group_tangent_bound(lows, highs, group, anchor),
        lambda: kernels.boxes_group_mindist(lows, highs, group),
    )
    assert ratio <= 2.0, (
        f"tangent kernel costs {ratio:.2f}x the summed-mindist "
        "kernel on a 50-box slice (expected <= 2x)"
    )


#: How much more CPU MBM may spend than the eager-key reference it
#: replaced, on the same replay.
MAX_MBM_CPU_RATIO = 1.10


def _load_mbm_reference():
    path = Path(__file__).resolve().parents[1] / "tests" / "mbm_reference.py"
    spec = importlib.util.spec_from_file_location("mbm_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.mbm_reference


@pytest.mark.parametrize("n", [4, 64])
def test_smoke_mbm_cpu_per_query(n):
    """MBM's deferred keys must not cost CPU against the eager keys of ``tests/mbm_reference.py``.

    A fixed ``pp_like(20000)`` replay of 40 Figure-5.1-shaped groups
    (M = 8%, k = 8), timed with the alternating ``_cost_ratio``.
    Deferring saves distance computations; heap or batching overhead
    that eats the saving shows up as a ratio above 1.10.  A burst of
    load on a shared machine can still land on one side, so the check
    fails only when three measurements in a row do.
    """
    mbm_reference = _load_mbm_reference()
    points = pp_like(20_000)
    flat = FlatRTree.bulk_load(points, capacity=50)
    spec = WorkloadSpec(n=n, mbr_fraction=0.08, k=8, queries=40)
    queries = [GroupQuery(group, k=8) for group in generate_workload(points, spec, seed=17)]
    for query in queries:
        assert mbm(flat, query).distances() == mbm_reference(flat, query).distances()

    ratios = []
    while len(ratios) < 3 and (not ratios or ratios[-1] > MAX_MBM_CPU_RATIO):
        ratios.append(
            _cost_ratio(
                lambda: [mbm(flat, query) for query in queries],
                lambda: [mbm_reference(flat, query) for query in queries],
                rounds=15,
                calls=1,
            )
        )
    assert ratios[-1] <= MAX_MBM_CPU_RATIO, (
        f"MBM costs {', '.join(f'{r:.2f}x' for r in ratios)} the eager-key reference's "
        f"CPU at n={n} (expected <= {MAX_MBM_CPU_RATIO}x)"
    )


def _column_loop(terms, shape):
    """The per-axis form written out: square each (m, n) axis term and sum in place."""
    total = np.zeros(shape)
    for term in terms:
        total += term * term
    return np.sqrt(total, out=total).sum(axis=1)


@pytest.mark.parametrize("dims", [2, 3])
def test_smoke_group_kernels_run_per_axis(dims):
    """Leaf and child-slice scoring cost what a plain column loop costs, at any dims.

    A 50-row slice against a 64-point group: the aggregate-distance and
    summed-mindist kernels must stay within 1.5x of the loop above fed
    the same per-axis terms.  Kernels that build ``(m, n, dims)``
    broadcast tensors run 4-5x slower than it, which is what this guards
    against.
    """
    rng = np.random.default_rng(7)
    points = rng.uniform(0, 1000, size=(50, dims))
    lows = rng.uniform(0, 900, size=(50, dims))
    highs = lows + rng.uniform(0, 100, size=lows.shape)
    group = rng.uniform(300, 700, size=(64, dims))
    columns = [
        (points[:, None, j], group[None, :, j], lows[:, None, j], highs[:, None, j])
        for j in range(dims)
    ]

    def distance_loop():
        return _column_loop((p - q for p, q, _, _ in columns), (50, 64))

    def mindist_loop():
        gaps = (np.maximum(np.maximum(low - q, q - high), 0.0) for _, q, low, high in columns)
        return _column_loop(gaps, (50, 64))

    assert np.allclose(distance_loop(), kernels.aggregate_distances(points, group))
    assert np.allclose(mindist_loop(), kernels.boxes_group_mindist(lows, highs, group))
    for kernel, args, loop in (
        (kernels.aggregate_distances, (points, group), distance_loop),
        (kernels.boxes_group_mindist, (lows, highs, group), mindist_loop),
    ):
        ratio = _cost_ratio(lambda: kernel(*args), loop)
        assert ratio <= 1.5, (
            f"{kernel.__name__} costs {ratio:.2f}x a per-axis column loop at "
            f"{dims}-D (expected <= 1.5x)"
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
