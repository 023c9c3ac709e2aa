"""Smoke benchmarks guarding the index build.

Selected with ``-k smoke`` like the kernel and write-path smokes.  The
bulk load packs straight into the snapshot arrays; these guards fail
loudly if a per-record (or per-page) Python object creeps back onto the
path every engine start, compaction and shard publish takes.  Sized
from ``pp_like(100_000)`` (best of 7 on a shared 2-core x86-64 box):
``FlatRTree.bulk_load`` with STR at capacity 50, every level tiled,
takes ~0.007 s and peaks at 2.3x the input's bytes (the points are
gathered once, in the final leaf order, and the leaf MBRs read one
column at a time; 2.6x when the points were gathered before the upper
levels were packed), and ``partition_dataset`` into 2 shards at
capacity 50, snapshots written, takes ~0.02 s; the object packers took
0.69 s / 25x / 1.13 s.  With ~5x headroom or more for a slow runner,
each limit still sits below what one object per record costs.  The
partition's allocation peak is a count, not a time, so its limit sits
close: 3.4x the input's bytes with state-table Hilbert keys, a
tie-repaired default-argsort rank and a mark-array id check, against
5.5x for per-level key passes, a comparison argsort and a sorted copy of
the ids.  Shard node processes fork from the partitioning process, so
this heap is what they inherit.  The build and partition guards also run
on 100k uniform 3-D points, under the same limits: STR cuts every axis
in one rank per axis and the 3-D keys walk the same kind of table, so a
per-slab Python loop or an index-sized temporary per axis shows there
first (about 1.5x and 2.8x the input's bytes today).  The first write
into an engine finds base records by binary search in the snapshot's id
index: it peaks at 1.0x the points' bytes, against 8.2x for a
``{record_id: row}`` map over every base record.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.core.engine import GNNEngine
from repro.datasets.real_like import pp_like
from repro.rtree.flat import FlatRTree
from repro.shard.partition import partition_dataset

MAX_BULK_LOAD_S = 0.25
MAX_PEAK_OVER_INPUT = 10.0
MAX_PARTITION_S = 0.25
MAX_PARTITION_PEAK_OVER_INPUT = 4.5
MAX_FIRST_WRITE_OVER_INPUT = 3.0


@pytest.fixture(scope="module")
def points():
    return pp_like(100_000)


@pytest.fixture(scope="module", params=["pp_like", "uniform_3d"])
def build_points(request, points):
    """What every bulk load and partition guard runs on: 100k 2-D or 3-D points."""
    if request.param == "pp_like":
        return points
    return np.random.default_rng(3).uniform(0, 1000, size=(100_000, 3))


def test_smoke_bulk_load_time(build_points):
    points = build_points

    def timed() -> float:
        started = time.perf_counter()
        FlatRTree.bulk_load(points)
        return time.perf_counter() - started

    best = min(timed() for _ in range(3))
    assert best < MAX_BULK_LOAD_S, (
        f"bulk-loading 100k points took {best:.3f}s (limit {MAX_BULK_LOAD_S}s)"
    )


def test_smoke_bulk_load_allocations(build_points):
    points = build_points
    tracemalloc.start()
    try:
        flat = FlatRTree.bulk_load(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flat.size == len(points)
    ratio = peak / points.nbytes
    assert ratio < MAX_PEAK_OVER_INPUT, (
        f"bulk load peaked at {ratio:.1f}x the input's bytes "
        f"(limit {MAX_PEAK_OVER_INPUT}x) — is something allocated per record?"
    )


def test_smoke_partition_time(build_points, tmp_path):
    points = build_points
    started = time.perf_counter()
    manifest = partition_dataset(points, shards=2, directory=tmp_path)
    elapsed = time.perf_counter() - started
    assert manifest.size == len(points)
    assert elapsed < MAX_PARTITION_S, (
        f"partitioning 100k points into 2 shards took {elapsed:.3f}s "
        f"(limit {MAX_PARTITION_S}s)"
    )


def test_smoke_partition_allocations(build_points, tmp_path):
    points = build_points
    tracemalloc.start()
    try:
        manifest = partition_dataset(points, shards=2, directory=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest.size == len(points)
    ratio = peak / points.nbytes
    assert ratio < MAX_PARTITION_PEAK_OVER_INPUT, (
        f"partitioning 100k points peaked at {ratio:.2f}x the input's bytes "
        f"(limit {MAX_PARTITION_PEAK_OVER_INPUT}x)"
    )


def test_smoke_first_write_allocations(points):
    engine = GNNEngine(points)
    tracemalloc.start()
    try:
        engine.insert([1.0, 2.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.dirty
    ratio = peak / points.nbytes
    assert ratio < MAX_FIRST_WRITE_OVER_INPUT, (
        f"the first write peaked at {ratio:.1f}x the points' bytes "
        f"(limit {MAX_FIRST_WRITE_OVER_INPUT}x) — is the id lookup a per-record map again?"
    )
