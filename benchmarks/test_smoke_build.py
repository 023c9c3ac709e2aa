"""Smoke benchmarks guarding the index build.

Selected with ``-k smoke`` like the kernel and write-path smokes.  The
bulk load packs straight into the snapshot arrays; these guards fail
loudly if a per-record (or per-page) Python object creeps back onto the
path every engine start, compaction and shard publish takes.  Sized
from ``pp_like(100_000)`` on a shared 2-core container — STR packer
0.023 s / 2.6x the input's bytes / 0.047 s to partition, object packers
0.69 s / 25x / 1.13 s — with ~5x headroom or more for a slow runner, so
each limit still sits below what one object per record costs.  The
partition's allocation peak is a count, not a time, so its limit sits
close: 3.6x the input's bytes with chunk-table Hilbert keys, a radix
rank and a mark-array id check, against 5.5x for per-level key passes,
a comparison argsort and a sorted copy of the ids.  Shard node processes
fork from the partitioning process, so this heap is what they inherit.  The
first write into an engine finds base records by binary search in the
snapshot's id index: it peaks at 1.0x the points' bytes, against 8.2x
for a ``{record_id: row}`` map over every base record.
"""

from __future__ import annotations

import time
import tracemalloc

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


def test_smoke_bulk_load_time(points):
    def timed() -> float:
        started = time.perf_counter()
        FlatRTree.bulk_load(points)
        return time.perf_counter() - started

    best = min(timed() for _ in range(3))
    assert best < MAX_BULK_LOAD_S, (
        f"bulk-loading 100k points took {best:.3f}s (limit {MAX_BULK_LOAD_S}s)"
    )


def test_smoke_bulk_load_allocations(points):
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


def test_smoke_partition_time(points, tmp_path):
    started = time.perf_counter()
    manifest = partition_dataset(points, shards=2, directory=tmp_path)
    elapsed = time.perf_counter() - started
    assert manifest.size == len(points)
    assert elapsed < MAX_PARTITION_S, (
        f"partitioning 100k points into 2 shards took {elapsed:.3f}s "
        f"(limit {MAX_PARTITION_S}s)"
    )


def test_smoke_partition_allocations(points, tmp_path):
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
