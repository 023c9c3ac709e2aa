"""Smoke benchmarks guarding the vectorised kernel layer.

Selected with ``-k smoke`` (the CI job runs exactly that): a
seconds-long subset that fails loudly if the kernel layer regresses to
per-point Python-loop speed or drifts from the scalar arithmetic,
without slowing the main test job down.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.aggregates import aggregate_gnn
from repro.core.fmbm import fmbm
from repro.core.mbm import mbm
from repro.core.spm import spm
from repro.core.types import GroupQuery
from repro.datasets import pp_like, ts_like
from repro.datasets.workload import WorkloadSpec, generate_workload, scale_into_workspace
from repro.geometry import kernels
from repro.geometry.distance import group_distance
from repro.bench.config import get_scale
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.storage.pointfile import PointFile

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

    def tangent_bound():
        planes = kernels.group_tangent_planes(lows, highs, group, anchor)
        return kernels.plane_lower_bounds(*planes, lows, highs)

    ratio = _cost_ratio(tangent_bound, lambda: kernels.boxes_group_mindist(lows, highs, group))
    assert ratio <= 2.0, (
        f"tangent kernel costs {ratio:.2f}x the summed-mindist "
        "kernel on a 50-box slice (expected <= 2x)"
    )


#: How much more CPU MBM may spend than its reference on the same
#: replay: the eager-key reference it replaced, or (batches) solo MBM.
MAX_MBM_CPU_RATIO = 1.10


def _load_reference(name, module="mbm_reference"):
    """``name`` from the test oracle ``tests/<module>.py``.

    The oracles import each other by module name, so ``tests/`` goes on
    the import path first.
    """
    tests = str(Path(__file__).resolve().parents[1] / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    return getattr(importlib.import_module(module), name)


def _assert_cpu_ratio(subject, reference, label):
    """``subject`` must cost at most :data:`MAX_MBM_CPU_RATIO` times ``reference``.

    Timed with the alternating ``_cost_ratio``.  A burst of load on a
    shared machine can still land on one side, so the check fails only
    when three measurements in a row do.
    """
    ratios = []
    while len(ratios) < 3 and (not ratios or ratios[-1] > MAX_MBM_CPU_RATIO):
        ratios.append(_cost_ratio(subject, reference, rounds=15, calls=1))
    assert ratios[-1] <= MAX_MBM_CPU_RATIO, (
        f"{label} costs {', '.join(f'{r:.2f}x' for r in ratios)} its "
        f"reference's CPU (expected <= {MAX_MBM_CPU_RATIO}x)"
    )


@pytest.mark.parametrize("n", [4, 64])
def test_smoke_mbm_cpu_per_query(n):
    """MBM's deferred keys must not cost CPU against the eager keys of ``tests/mbm_reference.py``.

    A fixed ``pp_like(20000)`` replay of 40 Figure-5.1-shaped groups
    (M = 8%, k = 8), timed with the alternating ``_cost_ratio``.
    Deferring saves distance computations; heap or batching overhead
    that eats the saving shows up as a ratio above 1.10.
    """
    mbm_reference = _load_reference("mbm_reference")
    points = pp_like(20_000)
    flat = FlatRTree.bulk_load(points, capacity=50)
    spec = WorkloadSpec(n=n, mbr_fraction=0.08, k=8, queries=40)
    queries = [GroupQuery(group, k=8) for group in generate_workload(points, spec, seed=17)]
    for query in queries:
        assert mbm(flat, query).distances() == mbm_reference(flat, query).distances()

    _assert_cpu_ratio(
        lambda: [mbm(flat, query) for query in queries],
        lambda: [mbm_reference(flat, query) for query in queries],
        f"MBM at n={n}",
    )


def test_smoke_mbm_cpu_per_query_n16():
    """MBM's run heap must not cost CPU against the eager keys where it saves most.

    The replay of :func:`test_smoke_mbm_cpu_per_query` at the
    ``shard_scatter`` shape (n = 16, M = 4%, k = 8): base leaves offer
    their rows only up to the node heap's head, so a leaf may be scanned
    in several calls; scan and heap overhead that eats the saved
    distance computations shows up as a ratio above 1.10.
    """
    mbm_reference = _load_reference("mbm_reference")
    points = pp_like(20_000)
    flat = FlatRTree.bulk_load(points, capacity=50)
    spec = WorkloadSpec(n=16, mbr_fraction=0.04, k=8, queries=40)
    queries = [GroupQuery(group, k=8) for group in generate_workload(points, spec, seed=17)]
    for query in queries:
        assert mbm(flat, query).distances() == mbm_reference(flat, query).distances()

    _assert_cpu_ratio(
        lambda: [mbm(flat, query) for query in queries],
        lambda: [mbm_reference(flat, query) for query in queries],
        "MBM at n=16",
    )


def test_smoke_dirty_mbm_cpu_per_query():
    """Paging the delta into MBM's heap must not cost CPU against scanning it first.

    A ``write_mix``-shaped replay: ``pp_like(20000)`` (capacity 50) whose
    overlay holds 360 inserts — existing records moved by a seeded
    jitter — and 60 deletes, and 40 groups of ``n = 16`` in boxes of
    M = 2%, ``k = 8``, answered by ``mbm`` and by ``mbm_seed_first`` of
    ``tests/mbm_reference.py`` (the whole delta scanned before the
    base), timed with the alternating ``_cost_ratio``.  Paging saves
    distance computations; per-page kernel calls and heap entries that
    eat the saving show up as a ratio above 1.10.
    """
    mbm_seed_first = _load_reference("mbm_seed_first")
    points = pp_like(20_000)
    flat = FlatRTree.bulk_load(points, capacity=50)
    rng = np.random.default_rng(3)
    overlay = DeltaOverlay(flat)
    moved = points[rng.choice(len(points), size=360)] + rng.normal(scale=10.0, size=(360, 2))
    for row, point in enumerate(moved):
        overlay.insert(point, len(points) + row)
    for record_id in rng.choice(len(points), size=60, replace=False).tolist():
        assert overlay.delete(points[record_id], record_id)
    spec = WorkloadSpec(n=16, mbr_fraction=0.02, k=8, queries=40)
    queries = [GroupQuery(group, k=8) for group in generate_workload(points, spec, seed=17)]
    for query in queries:
        paged = mbm(flat, query, overlay=overlay)
        oracle = mbm_seed_first(flat, query, overlay=overlay)
        assert paged.distances() == oracle.distances()
        assert paged.cost.node_accesses == oracle.cost.node_accesses
        assert paged.cost.distance_computations <= oracle.cost.distance_computations

    _assert_cpu_ratio(
        lambda: [mbm(flat, query, overlay=overlay) for query in queries],
        lambda: [mbm_seed_first(flat, query, overlay=overlay) for query in queries],
        "MBM over a dirty overlay",
    )


@pytest.mark.parametrize("n", [4, 64])
def test_smoke_spm_cpu_per_query(n):
    """SPM on MBM's loop must not cost CPU against the stream consumer of ``tests/spm_reference.py``.

    The replay of :func:`test_smoke_mbm_cpu_per_query` (``pp_like(20000)``,
    M = 8%, k = 8, 40 groups), answers checked first.  Stopping at
    Heuristic 1's key reads no more nodes than the stream; run-heap or
    per-leaf overhead that outweighs that shows up as a ratio above 1.10.
    """
    spm_reference = _load_reference("spm_reference", "spm_reference")
    points = pp_like(20_000)
    flat = FlatRTree.bulk_load(points, capacity=50)
    spec = WorkloadSpec(n=n, mbr_fraction=0.08, k=8, queries=40)
    queries = [GroupQuery(group, k=8) for group in generate_workload(points, spec, seed=17)]
    for query in queries:
        result, expected = spm(flat, query), spm_reference(flat, query)
        assert result.record_ids() == expected.record_ids()
        assert result.distances() == expected.distances()

    _assert_cpu_ratio(
        lambda: [spm(flat, query) for query in queries],
        lambda: [spm_reference(flat, query) for query in queries],
        f"SPM at n={n}",
    )


@pytest.mark.parametrize(
    "aggregate, n, dirty", [("sum", 4, False), ("max", 64, False), ("sum", 16, True)]
)
def test_smoke_bestfirst_cpu_per_query(aggregate, n, dirty):
    """Best-first on MBM's loop must not cost CPU against the stream consumer of ``tests/aggregate_reference.py``.

    The replay of :func:`test_smoke_mbm_cpu_per_query` (``pp_like(20000)``,
    M = 8%, k = 8, 40 groups) for sum at n = 4 and max at n = 64, and
    the dirty replay of :func:`test_smoke_dirty_mbm_cpu_per_query`
    (M = 2%, the delta scanned first by the reference) at n = 16,
    answers checked first.  Stopping at the paper's bound reads no more
    nodes than the stream; run-heap or per-leaf overhead that outweighs
    that shows up as a ratio above 1.10.
    """
    aggregate_reference = _load_reference("aggregate_reference", "aggregate_reference")
    points = pp_like(20_000)
    flat = FlatRTree.bulk_load(points, capacity=50)
    overlay = None
    if dirty:
        rng = np.random.default_rng(3)
        overlay = DeltaOverlay(flat)
        moved = points[rng.choice(len(points), size=360)] + rng.normal(scale=10.0, size=(360, 2))
        for row, point in enumerate(moved):
            overlay.insert(point, len(points) + row)
        for record_id in rng.choice(len(points), size=60, replace=False).tolist():
            assert overlay.delete(points[record_id], record_id)
    spec = WorkloadSpec(n=n, mbr_fraction=0.02 if dirty else 0.08, k=8, queries=40)
    queries = [
        GroupQuery(group, k=8, aggregate=aggregate)
        for group in generate_workload(points, spec, seed=17)
    ]
    for query in queries:
        result = aggregate_gnn(flat, query, overlay=overlay)
        expected = aggregate_reference(flat, query, overlay=overlay)
        assert result.record_ids() == expected.record_ids()
        assert result.distances() == expected.distances()

    _assert_cpu_ratio(
        lambda: [aggregate_gnn(flat, query, overlay=overlay) for query in queries],
        lambda: [aggregate_reference(flat, query, overlay=overlay) for query in queries],
        f"best-first {aggregate} at n={n}" + (" over a dirty overlay" if dirty else ""),
    )


def _meetup_replay(batch):
    """A fixed meet-up replay shaped like the served path, in chunks of ``batch``.

    ``pp_like(20000)``, 64 requests of ``n = 4``, ``k = 1`` groups drawn
    in 32 fixed boxes of M = 0.5% with Zipf-1.1 popularity.
    """
    points = pp_like(20_000)
    flat = FlatRTree.bulk_load(points, capacity=50)
    rng = np.random.default_rng(31)
    low, high = points.min(axis=0), points.max(axis=0)
    side = float(np.sqrt(0.005 * np.prod(high - low)))
    boxes = rng.uniform(low, high - side, size=(32, 2))
    popularity = np.arange(1, 33) ** -1.1
    hotspots = rng.choice(32, size=64, p=popularity / popularity.sum())
    groups = np.stack([rng.uniform(boxes[h], boxes[h] + side, size=(4, 2)) for h in hotspots])
    return flat, groups, [groups[start : start + batch] for start in range(0, len(groups), batch)]


def _scoped_mbm(flat, chunk):
    """A batch as ``execute_many`` runs it: solo ``mbm`` per member in one read scope."""
    with flat.read_scope():
        return [mbm(flat, GroupQuery(group, k=1)) for group in chunk]


@pytest.mark.parametrize("batch", [2, 8])
def test_smoke_mbm_batch_cpu_per_query(batch):
    """A batch's deferred traversals must not cost CPU against the eager batch.

    The meet-up replay (:func:`_meetup_replay`) answered ``batch``
    consecutive requests at a time by solo ``mbm`` per member in one
    ``flat.read_scope()`` and by the eager ``mbm_batch_reference`` of
    ``tests/mbm_reference.py``.
    """
    mbm_batch_reference = _load_reference("mbm_batch_reference")
    flat, _, chunks = _meetup_replay(batch)
    for chunk in chunks:
        expected = mbm_batch_reference(flat, chunk, 1)
        assert [r.distances() for r in _scoped_mbm(flat, chunk)] == [
            e.distances() for e in expected
        ]

    _assert_cpu_ratio(
        lambda: [_scoped_mbm(flat, chunk) for chunk in chunks],
        lambda: [mbm_batch_reference(flat, chunk, 1) for chunk in chunks],
        f"scoped mbm at B={batch}",
    )


@pytest.mark.parametrize("batch", [2, 8])
def test_smoke_mbm_batch_cpu_vs_solo(batch):
    """A batch must not cost CPU against answering its members one by one.

    The meet-up replay answered ``batch`` consecutive requests at a time
    in one ``flat.read_scope()`` and request by request by solo ``mbm``,
    both from the raw groups.  Each member runs solo's traversal and
    only shares its reads, so scope overhead shows as a ratio above 1.10.
    """
    flat, groups, chunks = _meetup_replay(batch)
    answers = [r.record_ids() for chunk in chunks for r in _scoped_mbm(flat, chunk)]
    assert answers == [mbm(flat, GroupQuery(group, k=1)).record_ids() for group in groups]

    _assert_cpu_ratio(
        lambda: [_scoped_mbm(flat, chunk) for chunk in chunks],
        lambda: [mbm(flat, GroupQuery(group, k=1)) for group in groups],
        f"scoped mbm at B={batch} against solo mbm",
    )


#: How much of the per-point leaf loop's CPU F-MBM's array leaf may spend.
MAX_FMBM_CPU_RATIO = 0.5


def test_smoke_fmbm_cpu_per_query():
    """F-MBM's array leaf must cost well under the per-point loop of ``tests/fmbm_reference.py``.

    The smoke-scale Figure 5.5 input at M = 32% (Q = TS-like placed in
    32% of PP-like's workspace, the scale's block size and k), timed
    with the alternating ``_cost_ratio``.  Both sides read blocks as
    views of one file, so the ratio is the leaf loop's alone; a slide
    back to per-point Python shows as a ratio near 1.
    """
    fmbm_reference = _load_reference("fmbm_reference", "fmbm_reference")
    scale = get_scale("smoke")
    points = pp_like(scale.pp_size)
    flat = FlatRTree.bulk_load(points, capacity=scale.node_capacity)
    queries = scale_into_workspace(ts_like(scale.ts_size), points, 0.32)
    query_file = PointFile(queries, points_per_page=50, block_pages=scale.block_pages)
    result = fmbm(flat, query_file, k=scale.fixed_k)
    reference = fmbm_reference(flat, query_file, k=scale.fixed_k)
    assert result.distances() == reference.distances()
    assert result.cost.page_reads == reference.cost.page_reads

    ratio = _cost_ratio(
        lambda: fmbm(flat, query_file, k=scale.fixed_k),
        lambda: fmbm_reference(flat, query_file, k=scale.fixed_k),
        rounds=5,
        calls=1,
    )
    assert ratio <= MAX_FMBM_CPU_RATIO, (
        f"F-MBM costs {ratio:.2f}x the per-point reference's CPU "
        f"(expected <= {MAX_FMBM_CPU_RATIO}x)"
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

    incremental_nearest = _load_reference("incremental_nearest", "traversal_reference")

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

