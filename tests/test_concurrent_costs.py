"""Queries sharing one engine on many threads each report their own cost.

Every query charges its own :class:`~repro.core.types.QueryCost` where the
work happens; the record is the only counter.  The checks below run the
same specs on 2 and 4 threads over one engine, with the interpreter
switching threads every microsecond so the traversals interleave, and
require every result's counters to equal the same spec's cost when run
alone.

A cost taken as a before/after difference of counters shared by the
index fails this: each query would also count whatever the other threads
read meanwhile.
"""

import sys
import threading

import numpy as np
import pytest

from repro import GNNEngine, PointFile, QuerySpec, QueryCost
from repro.geometry import kernels
from repro.rtree.traversal import flat_incremental_nearest_generic
from repro.serve import CompactingWriter

from read_sets import union_of_solo_reads

SEED = 20040302

#: Every counter a result's cost reports but its CPU time.
COST_COUNTERS = (
    "node_accesses",
    "leaf_accesses",
    "page_faults",
    "distance_computations",
    "page_reads",
    "block_reads",
)

#: Each thread runs its specs this many times over.
ROUNDS = 3

MEMORY_ALGORITHMS = ("mbm", "spm", "mqm", "best-first")
DISK_ALGORITHMS = ("fmqm", "fmbm")


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(SEED).uniform(0, 1000, size=(3000, 2))


@pytest.fixture()
def engine(points):
    return GNNEngine(points, capacity=16)


@pytest.fixture(autouse=True)
def fine_thread_switching():
    """Switch threads every microsecond so concurrent traversals interleave."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def _groups(count, size=8, seed=SEED):
    rng = np.random.default_rng(seed)
    corners = rng.uniform(0, 900, size=(count, 1, 2))
    return corners + rng.uniform(0, 100, size=(count, size, 2))


def _specs(algorithm, count=12):
    """``count`` specs of ``algorithm``; disk specs share a few query files."""
    if algorithm in DISK_ALGORITHMS:
        files = [
            PointFile(group, points_per_page=8, block_pages=2)
            for group in _groups(3, size=60)
        ]
        return [
            QuerySpec(group_file=files[i % len(files)], k=1 + i % 4, algorithm=algorithm)
            for i in range(count)
        ]
    return [
        QuerySpec(group=group, k=1 + i % 4, algorithm=algorithm)
        for i, group in enumerate(_groups(count))
    ]


def _counters(cost, names=COST_COUNTERS):
    return {name: getattr(cost, name) for name in names}


def _on_threads(threads, work):
    """Run ``work(thread_index)`` on ``threads`` threads released together."""
    barrier = threading.Barrier(threads)
    outcomes = [None] * threads
    errors = []

    def target(index):
        barrier.wait()
        try:
            outcomes[index] = work(index)
        except Exception as error:  # reported on the test thread below
            errors.append(error)

    workers = [threading.Thread(target=target, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=300)
        assert not worker.is_alive()
    assert not errors, errors
    return outcomes


def _rotated(items, by):
    """``items`` starting at ``by``: each thread begins on a different spec."""
    by %= len(items)
    return list(range(by, len(items))) + list(range(by))


@pytest.mark.parametrize("threads", (2, 4))
@pytest.mark.parametrize("algorithm", MEMORY_ALGORITHMS + DISK_ALGORITHMS)
def test_concurrent_queries_report_their_solo_cost(engine, algorithm, threads):
    specs = _specs(algorithm)
    solo = [engine.execute(spec) for spec in specs]

    def work(thread):
        order = _rotated(specs, 3 * thread) * ROUNDS
        return [(i, engine.execute(specs[i])) for i in order]

    runs = [pair for outcome in _on_threads(threads, work) for pair in outcome]
    assert len(runs) == threads * ROUNDS * len(specs)
    for i, result in runs:
        assert result.record_ids() == solo[i].record_ids()
        assert _counters(result.cost) == _counters(solo[i].cost), (i, result.cost.algorithm)


@pytest.mark.parametrize("threads", (2, 4))
def test_concurrent_shared_buckets_report_their_solo_cost(engine, threads):
    """``execute_many`` batches on many threads: each member's cost is its own.

    Each thread's read scope is its own, so a batch reads the union of
    its members' solo read sets however the threads interleave.
    """
    specs = _specs("mbm", count=24)
    batches = [specs[start : start + 8] for start in range(0, len(specs), 8)]
    solo = [engine.execute_many(batch) for batch in batches]
    for batch, results in zip(batches, solo):
        reads = union_of_solo_reads(engine.flat, engine.execute, batch)
        assert sum(result.cost.node_accesses for result in results) == reads

    def work(thread):
        order = _rotated(batches, thread) * ROUNDS
        return [(b, engine.execute_many(batches[b])) for b in order]

    runs = [pair for outcome in _on_threads(threads, work) for pair in outcome]
    for b, results in runs:
        for result, alone in zip(results, solo[b]):
            assert result.record_ids() == alone.record_ids()
            assert _counters(result.cost) == _counters(alone.cost)


def test_queries_beside_a_compacting_writer_report_their_solo_cost(points, engine):
    """A background compaction swaps the index while queries run.

    A record is deleted and re-inserted under its own id, so the live
    data never changes: a query answers the same from the dirty overlay
    (``+overlay``) or from the compacted snapshot, which is structurally
    identical to the original.  Each result must cost what the same spec
    costs alone in the state it ran in.
    """
    clean = GNNEngine(points, capacity=16)
    specs = _specs("mbm")
    clean_solo = [clean.execute(spec) for spec in specs]
    for record_id in (5, 50, 500):
        assert engine.delete(points[record_id], record_id)
        engine.insert(points[record_id], record_id=record_id)
    dirty_solo = [engine.execute(spec) for spec in specs]
    assert all(r.cost.algorithm.endswith("+overlay") for r in dirty_solo)

    writer = CompactingWriter(engine, dirty_ratio_trigger=1e-4, interval_s=0.001)
    started = threading.Event()

    def work(thread):
        runs = []
        for _ in range(4):
            for i in _rotated(specs, 3 * thread):
                runs.append((i, engine.execute(specs[i])))
            started.set()
        return runs

    writer_thread = threading.Thread(target=lambda: started.wait(60) and writer.start())
    writer_thread.start()
    try:
        outcomes = _on_threads(2, work)
    finally:
        writer_thread.join(timeout=60)
        writer.stop()
    assert not writer_thread.is_alive()
    assert writer.compactions == 1
    runs = [pair for outcome in outcomes for pair in outcome]
    for i, result in runs:
        alone = dirty_solo[i] if result.cost.algorithm.endswith("+overlay") else clean_solo[i]
        assert result.record_ids() == alone.record_ids()
        assert _counters(result.cost) == _counters(alone.cost)


def test_concurrent_queries_keep_the_buffer_whole(points):
    """One LRU buffer under 4 querying threads: every node read is one hit or one miss.

    The buffer's check-then-act on its ``OrderedDict`` runs under a
    lock; without it a page evicted between the check and the move
    raises, and interleaved counter updates are lost.
    """
    engine = GNNEngine(points, capacity=16, buffer_pages=24)
    specs = _specs("mbm") + _specs("mqm")

    def work(thread):
        return [engine.execute(specs[i]) for i in _rotated(specs, 3 * thread) * ROUNDS]

    results = [result for outcome in _on_threads(4, work) for result in outcome]
    buffer = engine.buffer
    assert buffer.hits + buffer.misses == sum(r.cost.node_accesses for r in results)
    assert buffer.misses == sum(r.cost.page_faults for r in results)
    assert len(buffer) <= buffer.capacity


def test_concurrent_raw_streams_charge_only_their_own_records(engine):
    """Streams read on 4 threads, each with its own record, count only their own reads."""
    flat = engine.flat
    centres = _groups(4, size=1)[:, 0]

    def stream(centre, cost, items=150):
        nearest = flat_incremental_nearest_generic(
            flat,
            lambda points: kernels.point_distances(points, centre),
            lambda lows, highs: kernels.boxes_mindist_point(lows, highs, centre),
            cost=cost,
        )
        for _ in range(items):
            next(nearest)
        return cost

    solo = [stream(centre, QueryCost()) for centre in centres]

    def work(thread):
        return [stream(centres[thread], QueryCost()) for _ in range(ROUNDS)]

    for thread, costs in enumerate(_on_threads(4, work)):
        for cost in costs:
            assert _counters(cost) == _counters(solo[thread]), thread
