"""Tests for the serving subsystem: scheduler, protocol, stats, server.

The integration tests spin up real multi-process servers over a shared
mmap snapshot and pin the subsystem's core contract: answers are
bit-identical to sequential ``engine.execute`` for any worker count and
any batching window, shutdown is clean and bounded, overload sheds with
an error, and hot-swaps never tear in-flight work.
"""

import asyncio
import dataclasses
import pickle
import time

import numpy as np
import pytest

from repro import GNNEngine, QuerySpec
from repro.core.types import QueryCost
from repro.rtree.flat import FlatRTree
from repro.serve import (
    GNNServer,
    MicroBatcher,
    ServerOverloadedError,
    ServingCounters,
    ServingError,
    check_servable,
)
from repro.serve.protocol import BatchRequest, decode_spec, encode_spec
from repro.serve.stats import percentile
from repro.serve.worker import execute_batch_message
from repro.shard.coordinator import CoordinatorStats
from repro.storage.counters import MappedPageCounters
from repro.storage.pointfile import PointFile

from read_sets import union_of_solo_reads


@pytest.fixture(scope="module")
def serve_points():
    generator = np.random.default_rng(404)
    clusters = generator.uniform(100, 900, size=(5, 2))
    assignments = generator.integers(0, 5, size=600)
    noise = generator.normal(scale=50.0, size=(600, 2))
    return np.clip(clusters[assignments] + noise, 0, 1000)


@pytest.fixture(scope="module")
def sequential_engine(serve_points):
    return GNNEngine(serve_points, capacity=16)


@pytest.fixture(scope="module")
def snapshot_path(sequential_engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "snapshot-gen000000.npz"
    sequential_engine.snapshot().save(path, generation=0)
    return path


@pytest.fixture(scope="module")
def server(snapshot_path):
    with GNNServer(snapshot_path, workers=2, window_s=0.002) as srv:
        yield srv


def mixed_specs(rng, count):
    """A mixed workload: MBM sums plus every servable oddball."""
    specs = []
    for i in range(count):
        center = rng.uniform(100, 900, size=2)
        n = (3, 6, 6, 6, 9)[i % 5]
        group = rng.uniform(center - 90, center + 90, size=(n, 2))
        k = (1, 3, 3, 5)[i % 4]
        if i % 11 == 7:
            specs.append(QuerySpec(group=group, k=k, aggregate="max"))
        elif i % 11 == 8:
            specs.append(QuerySpec(group=group, k=k, weights=np.arange(1.0, n + 1.0)))
        elif i % 11 == 9:
            specs.append(QuerySpec(group=group, k=k, algorithm="brute-force"))
        elif i % 11 == 10:
            specs.append(QuerySpec(group=group, k=k, algorithm="mqm"))
        else:
            specs.append(QuerySpec(group=group, k=k))
    return specs


def as_tuples(result):
    return [neighbor.as_tuple() for neighbor in result.neighbors]


# ----------------------------------------------------------------------
# micro-batching scheduler (pure unit tests)
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_zero_window_dispatches_immediately(self):
        batcher = MicroBatcher(window_s=0.0, max_batch=32)
        assert batcher.offer("a", "x", now=0.0) == ["x"]
        assert len(batcher) == 0

    def test_size_trigger_flushes_full_bucket(self):
        batcher = MicroBatcher(window_s=1.0, max_batch=3)
        assert batcher.offer("a", 1, now=0.0) is None
        assert batcher.offer("a", 2, now=0.0) is None
        assert batcher.offer("a", 3, now=0.0) == [1, 2, 3]
        assert len(batcher) == 0

    def test_window_trigger_runs_from_the_oldest_item(self):
        batcher = MicroBatcher(window_s=0.5, max_batch=32)
        batcher.offer("a", 1, now=0.0)
        batcher.offer("b", 2, now=0.2)
        assert batcher.next_deadline() == pytest.approx(0.5)
        assert batcher.due(now=0.4) == []
        assert batcher.due(now=0.55) == [[1, 2]]
        assert batcher.next_deadline() is None
        batcher.offer("a", 3, now=0.6)
        assert batcher.next_deadline() == pytest.approx(1.1)
        assert batcher.due(now=1.2) == [[3]]

    def test_every_key_shares_one_batch(self):
        batcher = MicroBatcher(window_s=1.0, max_batch=2)
        batcher.offer("a", 1, now=0.0)
        assert batcher.offer("b", 2, now=0.0) == [1, 2]
        assert len(batcher) == 0

    def test_drain_flushes_everything(self):
        batcher = MicroBatcher(window_s=1.0, max_batch=32)
        assert batcher.drain() == []
        batcher.offer("a", 1, now=0.0)
        batcher.offer("b", 2, now=0.0)
        assert batcher.drain() == [[1, 2]]
        assert len(batcher) == 0
        assert batcher.next_deadline() is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="window_s"):
            MicroBatcher(window_s=-1.0, max_batch=4)
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(window_s=0.1, max_batch=0)


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_spec_roundtrip_is_bit_exact(self, rng):
        spec = QuerySpec(
            group=rng.uniform(0, 1000, size=(7, 2)),
            k=4,
            aggregate="sum",
            weights=np.arange(1.0, 8.0),
            options={"use_heuristic3": False},
            algorithm="mbm",
            label="tag-17",
        )
        decoded = decode_spec(encode_spec(spec))
        assert np.array_equal(decoded.group, spec.group)
        assert np.array_equal(decoded.weights, spec.weights)
        assert decoded.k == spec.k
        assert decoded.aggregate == spec.aggregate
        assert dict(decoded.options) == dict(spec.options)
        assert decoded.algorithm == spec.algorithm
        assert decoded.label == spec.label

    def test_group_file_specs_are_not_servable(self, rng, engine):
        queries = rng.uniform(0, 1000, size=(120, 2))
        spec = QuerySpec(group_file=PointFile(queries, points_per_page=20, block_pages=2))
        plan = engine.explain(spec)
        with pytest.raises(ValueError, match="group_file"):
            check_servable(spec, plan)

    def test_disk_resident_specs_are_not_servable(self, rng, engine):
        spec = QuerySpec(group=rng.uniform(0, 1000, size=(60, 2)), residency="disk")
        with pytest.raises(ValueError, match="disk-resident specs are not served"):
            check_servable(spec, engine.explain(spec))

    def test_memory_resident_specs_are_servable(self, rng, engine):
        for spec in (
            QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=2),
            QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), aggregate="min"),
            QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), algorithm="brute-force"),
        ):
            check_servable(spec, engine.explain(spec))


# ----------------------------------------------------------------------
# mergeable counters (storage satellite + serving stats)
# ----------------------------------------------------------------------
class TestMergeableCounters:
    def test_query_cost_merges_objects_and_dicts(self):
        left = QueryCost(page_reads=3, block_reads=1, node_accesses=2)
        right = QueryCost(page_reads=2, block_reads=4)
        left.merge(right)
        assert (left.page_reads, left.block_reads, left.node_accesses) == (5, 5, 2)
        left.merge({"page_reads": 10, "requests": 7})  # keys it does not declare are ignored
        assert left.page_reads == 15
        assert not hasattr(left, "requests")

    def test_mapped_page_counters_merge(self):
        left = MappedPageCounters(arrays_mapped=1, bytes_mapped=100, pages_mapped=1)
        left.merge(MappedPageCounters(arrays_mapped=2, bytes_mapped=200, pages_mapped=2))
        assert left.snapshot() == {
            "arrays_mapped": 3,
            "bytes_mapped": 300,
            "pages_mapped": 3,
        }

    def test_serving_counters_merge_sums_and_maxes(self):
        left = ServingCounters(requests=10, batches=2, largest_batch=8, cpu_time=0.5)
        right = ServingCounters(requests=5, batches=1, largest_batch=5, cpu_time=0.25)
        left.merge(right)
        assert left.requests == 15
        assert left.batches == 3
        assert left.largest_batch == 8  # max, not sum
        assert left.cpu_time == pytest.approx(0.75)
        left.merge({"requests": 1, "largest_batch": 20})
        assert left.requests == 16
        assert left.largest_batch == 20

    @pytest.mark.parametrize(
        "cls",
        [MappedPageCounters, ServingCounters, QueryCost, CoordinatorStats],
        ids=lambda cls: cls.__name__,
    )
    def test_counter_set_protocol(self, cls):
        """Every counter class speaks the one derived ``CounterSet`` protocol."""
        numeric = [
            spec.name for spec in dataclasses.fields(cls) if spec.type in ("int", "float")
        ]
        nested = {"cost"} if cls is CoordinatorStats else set()

        def filled(start):
            counters = cls()
            for offset, name in enumerate(numeric):
                kind = type(getattr(counters, name))
                setattr(counters, name, kind(start + offset))
            if nested:
                counters.cost = QueryCost(node_accesses=start, cpu_time=start / 4)
            return counters

        def counted(counters):
            return {name: getattr(counters, name) for name in numeric}

        low, high = filled(3), filled(10)
        assert set(low.snapshot()) == set(numeric) | nested
        assert {key: low.snapshot()[key] for key in numeric} == counted(low)

        # An object, its snapshot and its pickle round-trip all merge alike.
        for other in (low, low.snapshot(), pickle.loads(pickle.dumps(low))):
            assert cls().merge(other).snapshot() == low.snapshot()
        # Unknown keys are ignored, missing keys count as zero.
        sparse = cls().merge({"no_such_counter": 7, numeric[0]: 2})
        assert counted(sparse) == {**counted(cls()), numeric[0]: 2}
        assert not hasattr(sparse, "no_such_counter")

        # Sums everywhere, maxima where declared.
        merged = filled(3).merge(high)
        assert counted(merged) == {
            name: max(getattr(low, name), getattr(high, name))
            if name in cls.MAXIMA
            else getattr(low, name) + getattr(high, name)
            for name in numeric
        }
        assert (low + high).snapshot() == merged.snapshot()
        assert counted(low) == counted(filled(3))  # operands untouched
        if nested:
            assert merged.cost.node_accesses == 13 and merged.cost.cpu_time == 3.25

        # reset restores the declared defaults and nothing but the counters.
        if cls is QueryCost:
            merged.algorithm = "mbm"
        merged.reset()
        assert counted(merged) == counted(cls())
        if cls is QueryCost:
            assert merged.algorithm == "mbm"

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50.0
        assert percentile(values, 95) == 95.0
        assert percentile(values, 99) == 99.0
        assert percentile([7.0], 99) == 7.0


# ----------------------------------------------------------------------
# worker execution path (in-process)
# ----------------------------------------------------------------------
class TestWorkerExecution:
    def test_bad_payload_fails_only_its_request(self, snapshot_path, rng):
        engine = GNNEngine.from_index(FlatRTree.load(snapshot_path, mmap_mode="r"))
        good = encode_spec(QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2))
        bad = dict(good, group=np.zeros((0, 2)))  # empty group fails validation
        message = BatchRequest(epoch=0, snapshot_path=str(snapshot_path), items=((1, good), (2, bad)))
        items, counters, _ = execute_batch_message(engine, message)
        by_id = {request_id: (result, error) for request_id, result, error in items}
        assert by_id[1][0] is not None and by_id[1][1] is None
        assert by_id[2][0] is None and "non-empty" in by_id[2][1]
        assert counters.requests == 1

    def test_shared_bucket_charges_one_traversal(self, snapshot_path, rng):
        """The batch counters sum the members' own costs: each node the
        batch reads is charged once, to the member that read it first."""
        engine = GNNEngine.from_index(FlatRTree.load(snapshot_path, mmap_mode="r"))
        center = rng.uniform(300, 700, size=2)
        specs = [
            QuerySpec(group=rng.uniform(center - 50, center + 50, size=(5, 2)), k=2)
            for _ in range(8)
        ]
        message = BatchRequest(
            epoch=0,
            snapshot_path=str(snapshot_path),
            items=tuple((i, encode_spec(spec)) for i, spec in enumerate(specs)),
        )
        items, counters, _ = execute_batch_message(engine, message)
        results = [result for _, result, _ in items]
        assert counters.node_accesses == union_of_solo_reads(engine.flat, engine.execute, specs)
        # Every member reports its own share of the batch's reads; the
        # counters must charge each read once (the members' sum).
        assert counters.node_accesses == sum(result.cost.node_accesses for result in results)
        assert counters.distance_computations == sum(
            result.cost.distance_computations for result in results
        )
        assert counters.requests == 8

    def test_io_stall_is_charged_and_slept(self, snapshot_path, rng):
        engine = GNNEngine.from_index(FlatRTree.load(snapshot_path, mmap_mode="r"))
        spec = QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2)
        message = BatchRequest(
            epoch=0, snapshot_path=str(snapshot_path), items=((0, encode_spec(spec)),)
        )
        started = time.perf_counter()
        _, counters, _ = execute_batch_message(engine, message, io_stall_s_per_access=1e-4)
        elapsed = time.perf_counter() - started
        assert counters.io_stall_s == pytest.approx(1e-4 * counters.node_accesses)
        assert elapsed >= counters.io_stall_s


# ----------------------------------------------------------------------
# server integration
# ----------------------------------------------------------------------
class TestServerConformance:
    def test_200_mixed_specs_bit_identical_with_clean_shutdown(
        self, serve_points, sequential_engine, snapshot_path
    ):
        """The serving-smoke contract (also run as a dedicated CI job):
        2 workers, 200 mixed specs, answers bit-identical to sequential
        ``engine.execute``, shutdown bounded."""
        rng = np.random.default_rng(2004)
        specs = mixed_specs(rng, 200)
        server = GNNServer(snapshot_path, workers=2, window_s=0.002)
        try:
            futures = server.submit_many(specs)
            results = [future.result(timeout=60) for future in futures]
        finally:
            started = time.perf_counter()
            server.close(timeout=30)
            assert time.perf_counter() - started < 30
        for spec, served in zip(specs, results):
            expected = sequential_engine.execute(spec)
            assert as_tuples(served) == as_tuples(expected)
        snapshot = server.stats()
        assert snapshot["server"]["completed"] == 200
        assert snapshot["server"]["failed"] == 0
        assert snapshot["total"]["requests"] == 200
        assert snapshot["total"]["batches"] >= 1

    def test_any_batching_window_gives_identical_answers(
        self, sequential_engine, snapshot_path
    ):
        rng = np.random.default_rng(77)
        specs = mixed_specs(rng, 40)
        expected = [as_tuples(sequential_engine.execute(spec)) for spec in specs]
        for window_s, max_batch in ((0.0, 32), (0.05, 4)):
            with GNNServer(
                snapshot_path, workers=2, window_s=window_s, max_batch=max_batch
            ) as server:
                results = [f.result(timeout=60) for f in server.submit_many(specs)]
            assert [as_tuples(result) for result in results] == expected

    def test_served_results_carry_no_plan(self, server, rng):
        result = server.submit(
            QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2, trace=True)
        ).result(timeout=30)
        assert result.plan is None

    def test_asyncio_callers_match_sequential(self, server, sequential_engine):
        rng = np.random.default_rng(13)
        specs = mixed_specs(rng, 12)

        async def run():
            futures = [asyncio.wrap_future(server.submit(spec)) for spec in specs]
            return await asyncio.gather(*futures)

        results = asyncio.run(run())
        for spec, served in zip(specs, results):
            assert as_tuples(served) == as_tuples(sequential_engine.execute(spec))

    def test_submit_time_validation(self, server, rng):
        with pytest.raises(ValueError, match="dimensionality"):
            server.submit(QuerySpec(group=rng.uniform(0, 1, size=(3, 4)), k=1))
        with pytest.raises(ValueError, match="unknown algorithm"):
            server.submit(QuerySpec(group=[[0.0, 0.0]], algorithm="quantum"))
        with pytest.raises(ValueError, match="does not understand option"):
            server.submit(
                QuerySpec(group=[[0.0, 0.0]], algorithm="mbm", options={"use_h3": False})
            )


class TestBackpressure:
    def test_overload_sheds_with_error(self, snapshot_path, rng):
        with GNNServer(
            snapshot_path, workers=1, window_s=0.05, max_batch=64, max_pending=8
        ) as server:
            accepted = []
            with pytest.raises(ServerOverloadedError, match="shed"):
                for _ in range(50):
                    accepted.append(
                        server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=1))
                    )
            assert len(accepted) == 8
            for future in accepted:
                future.result(timeout=30)
            assert server.stats()["server"]["shed"] >= 1

    def test_submit_after_close_raises(self, snapshot_path, rng):
        server = GNNServer(snapshot_path, workers=1)
        server.close(timeout=10)
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))

    def test_close_fails_unresolved_futures(self, snapshot_path, rng):
        server = GNNServer(snapshot_path, workers=1, window_s=5.0, max_batch=1024)
        future = server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))
        # close() drains the batcher, so the queued request completes.
        server.close(timeout=20)
        assert future.done()
        result = future.result(timeout=1)
        assert result.neighbors


class TestCloseIdempotency:
    def test_close_twice_is_safe(self, snapshot_path, rng):
        server = GNNServer(snapshot_path, workers=1)
        future = server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))
        server.close(timeout=20)
        server.close(timeout=20)  # second close must be a bounded no-op
        assert future.done()

    def test_concurrent_closers_all_return(self, snapshot_path):
        import threading

        server = GNNServer(snapshot_path, workers=2)
        threads = [
            threading.Thread(target=server.close, kwargs={"timeout": 20})
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        server.close(timeout=5)  # and once more after teardown completed

    def test_close_after_worker_crash_does_not_raise(self, snapshot_path, rng):
        """A crashed worker must not turn shutdown into an exception:
        queue feeders may be broken, joins must fall back to terminate."""
        server = GNNServer(snapshot_path, workers=1, window_s=5.0, max_batch=1024)
        future = server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))
        for process in server._workers:
            process.kill()
            process.join(timeout=10)
        server.close(timeout=20)
        server.close(timeout=20)
        # The queued request cannot have survived; close() failed it
        # with a ServingError instead of leaving it hanging forever.
        assert future.done()
        with pytest.raises(ServingError):
            future.result(timeout=1)

    def test_submit_racing_close_never_hangs(self, snapshot_path, rng):
        import threading

        server = GNNServer(snapshot_path, workers=1, window_s=0.001)
        specs = [
            QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1) for _ in range(50)
        ]
        futures = []

        def submitter():
            for spec in specs:
                try:
                    futures.append(server.submit(spec))
                except RuntimeError:
                    return  # server closed under us: expected

        thread = threading.Thread(target=submitter)
        thread.start()
        time.sleep(0.01)
        server.close(timeout=20)
        thread.join(timeout=30)
        assert not thread.is_alive()
        for future in futures:
            assert future.done()


class TestRequestEndings:
    def test_dead_pool_without_respawn_fails_pending_requests(self, snapshot_path, rng):
        """With respawn off, the last worker's death fails what is in
        flight at once — the request was still queued in the batching
        window, so no worker had claimed it — not at close()."""
        server = GNNServer(snapshot_path, workers=1, respawn_workers=False, window_s=5.0)
        try:
            future = server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))
            for process in server._workers:
                process.kill()
                process.join(timeout=10)
            # A wait past the 3 s bound raises TimeoutError, not ServingError.
            with pytest.raises(ServingError, match="all serving workers exited unexpectedly"):
                future.result(timeout=3.0)
            stats = server.stats()["server"]
            assert stats["failed"] == 1
            assert stats["pending"] == 0
            assert stats["worker_deaths"] == 1
            assert stats["workers_alive"] == 0
        finally:
            server.close(timeout=20)

    def test_cancelled_future_does_not_stall_later_requests(self, snapshot_path, rng):
        """A client cancelling its future must not take the reply thread
        down with it: the batch it rode in still answers its neighbour."""
        with GNNServer(snapshot_path, workers=1, window_s=0.2) as server:
            cancelled = server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))
            assert cancelled.cancel()
            later = server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))
            assert later.result(timeout=10).neighbors
            after = server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))
            assert after.result(timeout=10).neighbors
            stats = server.stats()["server"]
            assert stats["completed"] == 3
            assert stats["pending"] == 0


class TestHotSwap:
    def test_publish_snapshot_remaps_workers(self, serve_points, snapshot_path):
        group = np.array([[555.0, 555.0], [557.0, 555.0]])
        spec = QuerySpec(group=group, k=1)
        with GNNServer(snapshot_path, workers=2) as server:
            before = server.submit(spec).result(timeout=30)
            grown = GNNEngine(np.vstack([serve_points, [[556.0, 555.0]]]), capacity=16)
            epoch = server.publish_snapshot(grown)
            assert epoch == 1
            assert server.epoch == 1
            after = server.submit(spec).result(timeout=30)
            assert after.record_ids() == [len(serve_points)]
            assert before.record_ids() != after.record_ids()
            # The published file carries the generation token.
            assert FlatRTree.load(server.snapshot_path).generation == 1
            stats = server.stats()
            assert stats["server"]["swaps"] == 1
            assert sum(w["snapshot_swaps"] for w in stats["workers"].values()) >= 1

    def test_swap_rejects_mismatched_snapshot(self, snapshot_path, tmp_path, rng):
        with GNNServer(snapshot_path, workers=1) as server:
            other = tmp_path / "threed.npz"
            GNNEngine(rng.uniform(0, 1, size=(50, 3)), capacity=8).snapshot().save(other)
            with pytest.raises(ValueError, match="3-d"):
                server.swap_snapshot(other)
            with pytest.raises(FileNotFoundError):
                server.swap_snapshot(tmp_path / "missing.npz")

    def test_generation_token_roundtrips(self, sequential_engine, tmp_path):
        path = tmp_path / "gen.npz"
        sequential_engine.snapshot().save(path, generation=41)
        assert FlatRTree.load(path).generation == 41
        assert FlatRTree.load(path, mmap_mode="r").generation == 41


class TestServingErrorType:
    def test_serving_error_is_runtime_error(self):
        assert issubclass(ServingError, RuntimeError)
        assert issubclass(ServerOverloadedError, RuntimeError)
