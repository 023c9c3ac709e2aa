"""Tests for the sharding subsystem: partitioner, wire, node, coordinator.

The integration tests run a real federation — shard nodes listening on
localhost TCP sockets, each wrapping a forked worker pool over its own
mmap snapshot — and pin the subsystem's core contract: federated
answers are bit-identical to a single-index ``engine.execute`` over the
same dataset, federation-level pruning contacts exactly the shards the
manifest bounds justify, and failures degrade the way the coordinator
promises (timeout -> retry -> error or degraded result).
"""

import asyncio
import contextlib
import os
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GNNEngine, QuerySpec
from repro.core.bruteforce import brute_force_gnn
from repro.core.types import GroupQuery
from repro.geometry.distance import group_distance
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    pack_frame,
    read_frame,
    unpack_frame,
)
from repro.shard import (
    ShardCoordinator,
    ShardManifest,
    ShardNode,
    ShardNodeProcess,
    ShardQueryError,
    ShardUnavailableError,
    ShardedEngine,
    partition_dataset,
    partition_points,
)
from repro.shard.partition import SAMPLE_SIZE, sample_rows
from repro.shard.wire import ShardPing, ShardPong, ShardQuery, ShardReply

SHARD_COUNTS = (1, 2, 4)


def as_tuples(result):
    return [neighbor.as_tuple() for neighbor in result.neighbors]


@pytest.fixture(scope="module")
def shard_points():
    generator = np.random.default_rng(1789)
    clusters = generator.uniform(100, 900, size=(6, 2))
    assignments = generator.integers(0, 6, size=600)
    noise = generator.normal(scale=60.0, size=(600, 2))
    return np.clip(clusters[assignments] + noise, 0, 1000)


@pytest.fixture(scope="module")
def reference_engine(shard_points):
    return GNNEngine(shard_points, capacity=16)


@pytest.fixture(scope="module")
def federations(shard_points, tmp_path_factory):
    """One live federation per shard count: ``{K: (manifest, nodes, engine)}``."""
    built = {}
    for count in SHARD_COUNTS:
        directory = tmp_path_factory.mktemp(f"shards-{count}")
        manifest = partition_dataset(shard_points, count, directory, capacity=16)
        nodes = [
            ShardNode(shard.shard_id, directory / shard.path, workers=1)
            for shard in manifest.shards
        ]
        addresses = [node.start() for node in nodes]
        engine = ShardedEngine.connect(manifest, addresses, timeout_s=30.0)
        built[count] = (manifest, nodes, engine)
    yield built
    for _, nodes, engine in built.values():
        engine.close()
        for node in nodes:
            node.close()


# ----------------------------------------------------------------------
# partitioner + manifest (pure unit tests)
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_chunks_are_balanced_and_cover_every_row(self, shard_points):
        assignments, _ = partition_points(shard_points, 4)
        sizes = [len(chunk) for chunk in assignments]
        assert sum(sizes) == len(shard_points)
        assert max(sizes) - min(sizes) <= 1
        covered = np.sort(np.concatenate(assignments))
        assert np.array_equal(covered, np.arange(len(shard_points)))

    def test_hilbert_ranges_are_disjoint_and_ordered(self, shard_points, tmp_path):
        manifest = partition_dataset(shard_points, 4, tmp_path / "m", capacity=16)
        ranges = [(s.hilbert_low, s.hilbert_high) for s in manifest.shards]
        for (_, high), (low, _) in zip(ranges, ranges[1:]):
            assert high <= low

    def test_snapshots_keep_global_record_ids(self, shard_points, tmp_path):
        from repro.rtree.flat import FlatRTree

        directory = tmp_path / "ids"
        manifest = partition_dataset(shard_points, 3, directory, capacity=16)
        seen = []
        for shard in manifest.shards:
            tree = FlatRTree.load(directory / shard.path)
            assert tree.generation == manifest.generation
            leaves = tree.record_ids[tree.record_ids >= 0]
            assert len(leaves) == shard.count
            seen.append(np.sort(leaves))
            # Every stored point is the original dataset's row.
            order = np.argsort(tree.record_ids)
            mask = tree.record_ids[order] >= 0
            assert np.array_equal(
                tree.points[order][mask], shard_points[tree.record_ids[order][mask]]
            )
        assert np.array_equal(np.sort(np.concatenate(seen)), np.arange(600))

    def test_root_mbrs_bound_their_points(self, shard_points, tmp_path):
        manifest = partition_dataset(shard_points, 4, tmp_path / "mbr", capacity=16)
        assignments, _ = partition_points(shard_points, 4)
        for shard, rows in zip(manifest.shards, assignments):
            chunk = shard_points[rows]
            assert np.all(chunk >= np.asarray(shard.root_low) - 1e-9)
            assert np.all(chunk <= np.asarray(shard.root_high) + 1e-9)

    def test_group_mindist_bounds_are_true_lower_bounds(self, shard_points, tmp_path, rng):
        manifest = partition_dataset(shard_points, 4, tmp_path / "lb", capacity=16)
        assignments, _ = partition_points(shard_points, 4)
        group = rng.uniform(0, 1000, size=(6, 2))
        for aggregate in ("sum", "max", "min"):
            bounds = manifest.group_mindist_bounds(group, aggregate=aggregate)
            for bound, rows in zip(bounds, assignments):
                actual = min(
                    group_distance(point, group, aggregate=aggregate)
                    for point in shard_points[rows]
                )
                assert bound <= actual + 1e-9

    def test_more_shards_than_points_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            partition_points(np.zeros((3, 2)), 5)

    def test_manifest_roundtrips_through_json(self, shard_points, tmp_path):
        directory = tmp_path / "roundtrip"
        manifest = partition_dataset(shard_points, 2, directory, capacity=16)
        reloaded = ShardManifest.load(directory)
        assert reloaded == manifest
        assert ShardManifest.load(directory / "manifest.json") == manifest

    def test_manifest_rejects_unknown_version(self, shard_points, tmp_path):
        directory = tmp_path / "versioned"
        manifest = partition_dataset(shard_points, 2, directory, capacity=16)
        document = manifest.as_dict()
        document["version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            ShardManifest.load(document)

    def test_sample_rows_is_deterministic_and_spans_the_run(self):
        rows = np.arange(100, 400)
        picked = sample_rows(rows)
        assert np.array_equal(picked, sample_rows(rows))
        assert len(picked) <= SAMPLE_SIZE
        assert picked[0] == rows[0] and picked[-1] == rows[-1]
        # Short runs are passed through whole.
        assert np.array_equal(sample_rows(rows[:5]), rows[:5])

    def test_manifest_samples_are_real_records(self, shard_points, tmp_path):
        directory = tmp_path / "samples"
        manifest = partition_dataset(shard_points, 3, directory, capacity=16)
        assignments, _ = partition_points(shard_points, 3)
        for shard, rows in zip(manifest.shards, assignments):
            assert 0 < len(shard.sample) <= SAMPLE_SIZE
            chunk = {tuple(point) for point in shard_points[rows]}
            for point in shard.sample:
                assert tuple(point) in chunk
        # The sample survives the JSON roundtrip verbatim.
        assert ShardManifest.load(directory).shards[0].sample == (
            manifest.shards[0].sample
        )

    def test_sample_kth_distance_upper_bounds_the_true_kth(
        self, shard_points, tmp_path, rng
    ):
        manifest = partition_dataset(shard_points, 4, tmp_path / "tau", capacity=16)
        for aggregate in ("sum", "max", "min"):
            for k in (1, 4, 8):
                group = rng.uniform(0, 1000, size=(5, 2))
                true_kth = sorted(
                    group_distance(point, group, aggregate=aggregate)
                    for point in shard_points
                )[k - 1]
                # Union of all shards' samples, and each single shard's
                # sample, are real records: both must upper-bound the
                # federation's k-th answer distance.
                assert manifest.sample_kth_distance(group, k, aggregate=aggregate) >= (
                    true_kth - 1e-9
                )
                for shard in manifest.shards:
                    tau = manifest.sample_kth_distance(
                        group, k, aggregate=aggregate, shard_id=shard.shard_id
                    )
                    assert tau >= true_kth - 1e-9

    def test_sample_kth_distance_is_inf_when_sample_too_small(self):
        # A hand-built manifest row with a one-point sample: k beyond the
        # sample size must yield inf (pilot fallback), k within it a
        # finite bound.
        from repro.shard.manifest import ShardInfo

        shard = ShardInfo(
            shard_id=0, path="s.npz", count=3,
            root_low=(0.0, 0.0), root_high=(1.0, 1.0),
            hilbert_low=0, hilbert_high=5,
            sample=((0.5, 0.5),),
        )
        manifest = ShardManifest(
            dims=2, size=3, capacity=16, generation=0, shards=(shard,)
        )
        assert manifest.sample_kth_distance(np.zeros((2, 2)), k=2) == float("inf")
        assert manifest.sample_kth_distance(np.zeros((2, 2)), k=1) < float("inf")

    def test_manifest_validates_shape(self):
        from repro.shard.manifest import ShardInfo

        shard = ShardInfo(
            shard_id=0, path="s.npz", count=10,
            root_low=(0.0, 0.0), root_high=(1.0, 1.0),
            hilbert_low=0, hilbert_high=5,
        )
        with pytest.raises(ValueError, match="at least one shard"):
            ShardManifest(dims=2, size=0, capacity=16, generation=0, shards=())
        with pytest.raises(ValueError, match="sum"):
            ShardManifest(dims=2, size=11, capacity=16, generation=0, shards=(shard,))


# ----------------------------------------------------------------------
# frame codec + wire messages (pure unit tests)
# ----------------------------------------------------------------------
class TestWireFraming:
    def test_messages_roundtrip(self):
        for message in (
            ShardPing(request_id=3),
            ShardPong(request_id=3, shard_id=1, generation=0, size=150, dims=2),
            ShardQuery(request_id=9, payload={"k": 4}),
            ShardReply(request_id=9, error="nope", overloaded=True),
        ):
            assert unpack_frame(pack_frame(message)) == message

    def test_truncated_frames_rejected(self):
        frame = pack_frame(ShardPing(request_id=1))
        with pytest.raises(ValueError, match="truncated"):
            unpack_frame(frame[:2])
        with pytest.raises(ValueError, match="length prefix"):
            unpack_frame(frame[:-1])

    def test_oversized_length_prefix_rejected(self):
        bogus = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(ValueError, match="cap"):
            unpack_frame(bogus)

    def test_read_frame_clean_eof_returns_none(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(pack_frame(ShardPing(request_id=7)))
            reader.feed_eof()
            assert await read_frame(reader) == ShardPing(request_id=7)
            assert await read_frame(reader) is None

        asyncio.run(scenario())

    def test_read_frame_mid_frame_eof_raises(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(pack_frame(ShardPing(request_id=7))[:-2])
            reader.feed_eof()
            with pytest.raises(ConnectionError, match="mid-frame"):
                await read_frame(reader)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# federated conformance over real loopback sockets
# ----------------------------------------------------------------------
class TestFederatedConformance:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("aggregate", ("sum", "max", "min"))
    @pytest.mark.parametrize("k", (1, 4, 8))
    def test_matrix_matches_single_index(
        self, federations, reference_engine, shards, aggregate, k
    ):
        """The conformance matrix: K x aggregate x k, every cell
        bit-identical to a single-index execute over the same data."""
        rng = np.random.default_rng(10_000 * shards + 100 * k + len(aggregate))
        _, _, engine = federations[shards]
        for _ in range(3):
            center = rng.uniform(100, 900, size=2)
            group = rng.uniform(center - 120, center + 120, size=(5, 2))
            spec = QuerySpec(group=group, k=k, aggregate=aggregate, index="sharded")
            federated = engine.execute(spec)
            expected = reference_engine.execute(
                QuerySpec(group=group, k=k, aggregate=aggregate)
            )
            assert as_tuples(federated) == as_tuples(expected)
            assert federated.cost.distance_computations > 0

    def test_single_shard_counters_match_single_index(
        self, federations, reference_engine, rng
    ):
        """K=1 is the clean counter baseline: one shard holds the whole
        dataset, so the merged counters equal the single-index cost."""
        _, _, engine = federations[1]
        group = rng.uniform(200, 800, size=(6, 2))
        spec = QuerySpec(group=group, k=4, index="sharded")
        federated = engine.execute(spec)
        expected = reference_engine.execute(QuerySpec(group=group, k=4))
        assert as_tuples(federated) == as_tuples(expected)
        assert (
            federated.cost.distance_computations
            == expected.cost.distance_computations
        )
        assert federated.cost.node_accesses == expected.cost.node_accesses

    def test_merged_counters_are_the_sum_over_contacted_shards(
        self, shard_points, reference_engine, tmp_path, rng
    ):
        """The coordinator's counter aggregation equals what the shard
        nodes themselves metered (fresh nodes, so totals start at 0)."""
        directory = tmp_path / "counted"
        manifest = partition_dataset(shard_points, 3, directory, capacity=16)
        nodes = [
            ShardNode(s.shard_id, directory / s.path, workers=1)
            for s in manifest.shards
        ]
        try:
            addresses = [node.start() for node in nodes]
            with ShardedEngine.connect(manifest, addresses, timeout_s=30.0) as engine:
                total = 0
                for _ in range(5):
                    group = rng.uniform(0, 1000, size=(4, 2))
                    result = engine.execute(
                        QuerySpec(group=group, k=4, index="sharded")
                    )
                    total += result.cost.distance_computations
                metered = sum(
                    node.stats()["total"]["distance_computations"] for node in nodes
                )
                assert total == metered
                assert (
                    engine.stats()["coordinator"]["cost"]["distance_computations"]
                    == total
                )
        finally:
            for node in nodes:
                node.close()

    #: Sums over the fixed replay below: (node accesses, distance
    #: computations, shards contacted, neighbors merged) per shard count.
    #: Before sub-queries carried tau0 as a ceiling the same replay read
    #: (406, 47954) at 2 shards and (455, 56376) at 4, with every shard
    #: returning its full top-k (50 x 8 per contacted shard).  Routing
    #: is unchanged, so the contact counts are the same at both.  With
    #: MBM's keys computed eagerly for every pushed child the distance
    #: computations were 43474 (2 shards) and 41998 (4 shards); before
    #: base leaves were offered only up to the node heap's head, 35722
    #: and 34689.  Under the sampled-tau0 wave (every shard with bound
    #: <= tau0 at once, before the pilot-then-wave routing) the pins were
    #: (392, 35119, 81, 603) at 2 shards and (370, 34409, 132, 698) at 4.
    #: Tiling every level left both rows where they were; keying a run of
    #: leaves in one call moved the 2-shard distance computations
    #: 32195 -> 32267.
    REPLAY_PINS = {2: (345, 32267, 74, 497), 4: (298, 28768, 113, 530)}

    @pytest.mark.parametrize("shards", (2, 4))
    def test_replay_work_is_pinned(self, federations, reference_engine, shards):
        _, _, engine = federations[shards]
        before = engine.stats()["coordinator"]["neighbors_merged"]
        rng = np.random.default_rng(2004)
        totals = [0, 0, 0]
        for _ in range(50):
            center = rng.uniform(100, 900, size=2)
            group = rng.uniform(center - 150, center + 150, size=(8, 2))
            federated = engine.execute(QuerySpec(group=group, k=8, index="sharded"))
            expected = reference_engine.execute(QuerySpec(group=group, k=8))
            assert as_tuples(federated) == as_tuples(expected)
            totals[0] += federated.cost.node_accesses
            totals[1] += federated.cost.distance_computations
            totals[2] += len(federated.shards_contacted)
        merged = engine.stats()["coordinator"]["neighbors_merged"] - before
        assert (*totals, merged) == self.REPLAY_PINS[shards]

    def test_execute_many_pipelines_and_matches(
        self, federations, reference_engine, rng
    ):
        _, _, engine = federations[4]
        specs = [
            QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=3, index="sharded")
            for _ in range(16)
        ]
        results = engine.execute_many(specs)
        for spec, federated in zip(specs, results):
            expected = reference_engine.execute(spec.replace(index="auto"))
            assert as_tuples(federated) == as_tuples(expected)

    def test_trace_attaches_the_client_side_plan(self, federations, rng):
        _, _, engine = federations[2]
        spec = QuerySpec(
            group=rng.uniform(300, 700, size=(4, 2)), k=2, index="sharded", trace=True
        )
        result = engine.execute(spec)
        assert result.plan is not None
        assert result.plan.algorithm.name == "mbm"


# ----------------------------------------------------------------------
# federation-level pruning (pinned contact counts on a crafted layout)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corner_federation(tmp_path_factory):
    """Four 100-point clusters in the workspace corners, one per shard.

    Hilbert-contiguous partitioning puts each cluster in its own shard,
    so the shard root MBRs are four well-separated boxes — the layout
    where pruning behaviour is exactly predictable.
    """
    generator = np.random.default_rng(42)
    corners = np.array([[50.0, 50.0], [50.0, 950.0], [950.0, 50.0], [950.0, 950.0]])
    points = np.vstack(
        [
            np.clip(corner + generator.normal(scale=20.0, size=(100, 2)), 0, 1000)
            for corner in corners
        ]
    )
    directory = tmp_path_factory.mktemp("corners")
    manifest = partition_dataset(points, 4, directory, capacity=16)
    nodes = [
        ShardNode(s.shard_id, directory / s.path, workers=1) for s in manifest.shards
    ]
    addresses = [node.start() for node in nodes]
    coordinator = ShardCoordinator(manifest, addresses, timeout_s=30.0)
    yield points, manifest, coordinator
    coordinator.close()
    for node in nodes:
        node.close()


@pytest.fixture(scope="module")
def federation_3d(tmp_path_factory):
    """600 uniform 3-D points cut into 2 shards along the 3-D Hilbert curve."""
    points = np.random.default_rng(33).uniform(0, 1000, size=(600, 3))
    directory = tmp_path_factory.mktemp("fed3d")
    manifest = partition_dataset(points, 2, directory, capacity=16)
    nodes = [ShardNode(s.shard_id, directory / s.path, workers=1) for s in manifest.shards]
    addresses = [node.start() for node in nodes]
    coordinator = ShardCoordinator(manifest, addresses, timeout_s=30.0)
    yield points, manifest, coordinator
    coordinator.close()
    for node in nodes:
        node.close()


class TestThreeDimensionalFederation:
    def test_hilbert_ranges_are_increasing_and_disjoint(self, federation_3d):
        points, manifest, _ = federation_3d
        assert manifest.dims == 3
        ranges = [(s.hilbert_low, s.hilbert_high) for s in manifest.shards]
        assert all(low <= high for low, high in ranges)
        for (_, high), (low, _) in zip(ranges, ranges[1:]):
            assert high < low
        assert [s.count for s in manifest.shards] == [300, 300]

    @pytest.mark.parametrize("aggregate", ("sum", "max", "min"))
    def test_answers_equal_the_unsharded_engine_and_brute_force(self, federation_3d, aggregate):
        points, _, coordinator = federation_3d
        engine = GNNEngine(points, capacity=16)
        rng = np.random.default_rng(len(aggregate))
        for k in (1, 5):
            center = rng.uniform(200, 800, size=3)
            group = rng.uniform(center - 150, center + 150, size=(6, 3))
            spec = QuerySpec(group=group, k=k, aggregate=aggregate)
            federated = coordinator.execute(spec)
            assert as_tuples(federated) == as_tuples(engine.execute(spec))
            expected = brute_force_gnn(points, GroupQuery(group, k=k, aggregate=aggregate))
            assert as_tuples(federated) == as_tuples(expected)


class TestFederationPruning:
    def test_each_cluster_is_one_shard(self, corner_federation):
        _, manifest, _ = corner_federation
        assert [shard.count for shard in manifest.shards] == [100, 100, 100, 100]
        for shard in manifest.shards:
            extents = np.asarray(shard.root_high) - np.asarray(shard.root_low)
            assert np.all(extents < 300.0)  # a cluster, not the workspace

    def test_query_inside_one_cluster_contacts_exactly_one_shard(
        self, corner_federation
    ):
        _, _, coordinator = corner_federation
        generator = np.random.default_rng(3)
        group = generator.uniform(30, 70, size=(4, 2))  # deep inside (50, 50)
        result = coordinator.execute(QuerySpec(group=group, k=4, index="sharded"))
        assert len(result.shards_contacted) == 1
        assert len(result.shards_pruned) == 3
        assert sorted(result.shards_contacted + result.shards_pruned) == [0, 1, 2, 3]

    def test_query_spanning_two_clusters_contacts_exactly_two_shards(
        self, corner_federation
    ):
        _, _, coordinator = corner_federation
        # One query point in each of two opposite clusters: both of their
        # shards have bound 0 and must be contacted; with k=1 the two
        # remaining (far) clusters can never beat the in-cluster answer.
        group = np.array([[50.0, 50.0], [950.0, 950.0]])
        result = coordinator.execute(QuerySpec(group=group, k=1, index="sharded"))
        assert len(result.shards_contacted) == 2
        assert len(result.shards_pruned) == 2

    def test_workspace_wide_k_contacts_all_shards(self, corner_federation):
        _, _, coordinator = corner_federation
        # k larger than any single shard's useful contribution with a
        # group covering every corner: nothing is prunable.
        group = np.array(
            [[50.0, 50.0], [50.0, 950.0], [950.0, 50.0], [950.0, 950.0]]
        )
        result = coordinator.execute(QuerySpec(group=group, k=8, index="sharded"))
        assert result.shards_contacted == [0, 1, 2, 3]
        assert result.shards_pruned == []

    def test_pruned_answers_still_match_single_index(self, corner_federation):
        points, _, coordinator = corner_federation
        reference = GNNEngine(points, capacity=16)
        generator = np.random.default_rng(8)
        for _ in range(5):
            corner = generator.choice([50.0, 950.0], size=2)
            group = generator.uniform(corner - 30, corner + 30, size=(3, 2))
            federated = coordinator.execute(
                QuerySpec(group=group, k=6, index="sharded")
            )
            expected = reference.execute(QuerySpec(group=group, k=6))
            assert as_tuples(federated) == as_tuples(expected)

    def test_coordinator_stats_account_every_shard(self, corner_federation):
        _, _, coordinator = corner_federation
        stats = coordinator.stats()
        assert stats["queries"] >= 1
        assert (
            stats["shards_contacted"] + stats["shards_pruned"]
            == 4 * stats["queries"]
        )


# ----------------------------------------------------------------------
# pilot, then wave: the routing rule itself
# ----------------------------------------------------------------------
coordinates = st.floats(0.0, 1000.0, allow_nan=False)


class TestPilotThenWave:
    def test_a_shard_whose_bound_ties_the_kth_distance_is_asked(self, tmp_path):
        """Both shards' root bounds equal the pilot's k-th distance, and
        the record at that distance with the smaller id lives on the
        non-pilot shard: the wave must still ask it (``bound <= tau``),
        or the answer breaks the ``(distance, record_id)`` order."""
        right = [(60, 50), (90, 20), (90, 80), (80, 30), (70, 70)]
        left = [(10, 20), (10, 80), (40, 50), (20, 30), (30, 70)]
        points = np.array(right + left, dtype=np.float64)
        group = np.array([[50.0, 50.0]])
        manifest = partition_dataset(points, 2, tmp_path / "tie", capacity=4)
        assignments, _ = partition_points(points, 2)
        # The pilot (shard 0, first of two equal bounds) holds record 7
        # at (40, 50); shard 1 holds record 0 at (60, 50), the same 10
        # away.
        assert list(manifest.group_mindist_bounds(group)) == [10.0, 10.0]
        assert 7 in assignments[0] and 0 in assignments[1]
        expected = brute_force_gnn(points, GroupQuery(group, k=1))
        assert expected.record_ids() == [0]
        nodes = [
            ShardNode(shard.shard_id, tmp_path / "tie" / shard.path, workers=1)
            for shard in manifest.shards
        ]
        try:
            addresses = [node.start() for node in nodes]
            with ShardCoordinator(manifest, addresses, timeout_s=30.0) as coordinator:
                result = coordinator.execute(QuerySpec(group=group, k=1))
            assert as_tuples(result) == as_tuples(expected)
            assert result.shards_contacted == [0, 1]
        finally:
            for node in nodes:
                node.close()

    def test_a_short_pilot_stops_at_the_specs_own_ceiling(self, corner_federation):
        """The pilot's cluster holds fewer than k records under the spec's
        ``within``, and every other cluster's bound is past it: no further
        shard is piloted, and the short answer is the single index's."""
        points, manifest, coordinator = corner_federation
        group = np.array([[40.0, 50.0], [60.0, 50.0]])
        spec = QuerySpec(group=group, k=150, options={"within": 500.0})
        bounds = manifest.group_mindist_bounds(group)
        assert sorted(bounds)[1] > 500.0
        result = coordinator.execute(spec)
        assert result.shards_contacted == [int(np.argmin(bounds))]
        expected = GNNEngine(points, capacity=16).execute(spec)
        assert 0 < len(expected.neighbors) < spec.k
        assert as_tuples(result) == as_tuples(expected)

    def test_an_emptied_shard_is_never_piloted(self, tmp_path):
        """k exceeds the live records, so every pilot is short, yet the
        shard compacted down to nothing (bound ``inf``) is never asked."""
        from repro.shard import ShardWriter
        from repro.rtree.flat import FlatRTree

        points = np.random.default_rng(9).uniform(0, 1000, size=(30, 2))
        before = partition_dataset(points, 3, tmp_path, capacity=16)
        writer = ShardWriter(tmp_path)
        drained = FlatRTree.load(tmp_path / before.shards[1].path)
        for point, rid in zip(np.asarray(drained.points), np.asarray(drained.record_ids)):
            assert writer.delete(point, int(rid)) == 1
        manifest = writer.compact()
        live = np.setdiff1d(np.arange(30), np.asarray(drained.record_ids))
        group = np.array([[500.0, 500.0], [100.0, 900.0]])
        nodes = [
            ShardNode(shard.shard_id, tmp_path / shard.path, workers=1)
            for shard in manifest.shards
        ]
        try:
            addresses = [node.start() for node in nodes]
            with ShardCoordinator(manifest, addresses, timeout_s=30.0) as coordinator:
                result = coordinator.execute(QuerySpec(group=group, k=25))
            assert result.shards_contacted == [0, 2]
            assert result.shards_pruned == [1]
            expected = brute_force_gnn(points[live], GroupQuery(group, k=25), record_ids=live)
            assert as_tuples(result) == as_tuples(expected)
        finally:
            for node in nodes:
                node.close()

    @given(
        shards=st.sampled_from((2, 4)),
        group=st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=8),
        k=st.integers(1, 16),
        aggregate=st.sampled_from(("sum", "max", "min")),
        weighted=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_answers_match_and_only_the_pilots_kth_admits_a_shard(
        self,
        federations,
        shard_points,
        reference_engine,
        shards,
        group,
        k,
        aggregate,
        weighted,
        data,
    ):
        manifest, _, engine = federations[shards]
        group = np.array(group)
        weights = None
        if weighted:
            weights = data.draw(
                st.lists(
                    st.floats(0.25, 4.0), min_size=len(group), max_size=len(group)
                )
            )
        spec = QuerySpec(group=group, k=k, aggregate=aggregate, weights=weights)
        federated = engine.execute(spec.replace(index="sharded"))
        assert as_tuples(federated) == as_tuples(reference_engine.execute(spec))

        bounds = manifest.group_mindist_bounds(group, weights, aggregate)
        pilot = int(np.argsort(bounds, kind="stable")[0])
        rows = partition_points(shard_points, shards)[0][pilot]
        pilot_kth = brute_force_gnn(
            shard_points[rows],
            GroupQuery(group, k=k, aggregate=aggregate, weights=weights),
            record_ids=rows,
        ).distances()[-1]
        # The pilot, then exactly the shards its k-th distance admits.
        wave = [sid for sid in range(shards) if sid != pilot and bounds[sid] <= pilot_kth]
        assert federated.shards_contacted == sorted([pilot, *wave])
        # Never a shard the sampled tau0 wave would have left out: the
        # pilot's exact k-th is at most the k-th of its own sample.
        tau0 = manifest.sample_kth_distance(
            group, k, weights, aggregate, shard_id=pilot
        )
        assert all(bounds[sid] <= tau0 for sid in federated.shards_contacted)


# ----------------------------------------------------------------------
# failure semantics: timeout -> retry -> degraded
# ----------------------------------------------------------------------
class TestFailureSemantics:
    @pytest.fixture()
    def small_federation(self, tmp_path):
        generator = np.random.default_rng(5)
        points = generator.uniform(0, 1000, size=(200, 2))
        manifest = partition_dataset(points, 2, tmp_path / "fed", capacity=16)
        nodes = [
            ShardNode(s.shard_id, tmp_path / "fed" / s.path, workers=1)
            for s in manifest.shards
        ]
        addresses = [node.start() for node in nodes]
        yield points, manifest, nodes, addresses
        for node in nodes:
            node.close()

    def test_dead_shard_raises_by_default(self, small_federation, rng):
        _, manifest, nodes, addresses = small_federation
        nodes[0].close()
        nodes[1].close()
        with ShardCoordinator(
            manifest, addresses, timeout_s=2.0, retries=1
        ) as coordinator:
            with pytest.raises(ShardUnavailableError, match="unreachable after 2"):
                coordinator.execute(
                    QuerySpec(group=rng.uniform(0, 1000, size=(8, 2)), k=4)
                )
            assert coordinator.stats()["retries"] >= 1

    def test_degraded_mode_answers_from_surviving_shards(self, small_federation):
        """The dead shard is the best-bound one, so the pilot fails and
        the survivor is piloted next: its full top-k is the answer."""
        points, manifest, nodes, addresses = small_federation
        k = 4
        survivor_rows = partition_points(points, 2)[0][1]
        search = np.random.default_rng(0)
        while True:
            group = search.uniform(0, 1000, size=(8, 2))
            bounds = manifest.group_mindist_bounds(group)
            if bounds[0] < bounds[1]:
                break
        nodes[0].close()
        with ShardCoordinator(
            manifest, addresses, timeout_s=2.0, retries=0, allow_degraded=True
        ) as coordinator:
            result = coordinator.execute(QuerySpec(group=group, k=k))
            assert result.degraded is True
            assert result.failed_shards == [0]
            assert result.shards_contacted == [1]
            stats = coordinator.stats()
            assert stats["degraded_queries"] == 1
            # One failed pilot at shard 0, then shard 1 piloted.
            assert stats["subqueries"] == 2
        # The survivors' answer: k records, the exact top-k of the
        # reachable shard's records.
        expected = brute_force_gnn(
            points[survivor_rows], GroupQuery(group, k=k), record_ids=survivor_rows
        )
        assert as_tuples(result) == as_tuples(expected)

    def test_dead_wave_shard_leaves_the_survivors_exact_top_k(
        self, small_federation
    ):
        """The pilot answers and the wave shard is dead: the ceiling rests
        on the pilot's own records, so the pilot's top-k is the answer."""
        points, manifest, nodes, addresses = small_federation
        k = 4
        pilot_rows = partition_points(points, 2)[0][0]
        search = np.random.default_rng(1)
        while True:
            group = search.uniform(0, 1000, size=(8, 2))
            bounds = manifest.group_mindist_bounds(group)
            expected = brute_force_gnn(
                points[pilot_rows], GroupQuery(group, k=k), record_ids=pilot_rows
            )
            if bounds[0] < bounds[1] <= expected.distances()[-1]:
                break
        nodes[1].close()
        with ShardCoordinator(
            manifest, addresses, timeout_s=2.0, retries=0, allow_degraded=True
        ) as coordinator:
            result = coordinator.execute(QuerySpec(group=group, k=k))
            assert result.degraded is True
            assert result.failed_shards == [1]
            assert result.shards_contacted == [0]
            # The pilot at shard 0, then one failed wave attempt at shard 1.
            assert coordinator.stats()["subqueries"] == 2
        assert as_tuples(result) == as_tuples(expected)

    def test_healthy_queries_are_never_degraded(self, small_federation, rng):
        _, manifest, _, addresses = small_federation
        with ShardCoordinator(
            manifest, addresses, timeout_s=30.0, allow_degraded=True
        ) as coordinator:
            result = coordinator.execute(
                QuerySpec(group=rng.uniform(0, 1000, size=(6, 2)), k=2)
            )
            assert result.degraded is False
            assert result.failed_shards == []

    def test_coordinator_reconnects_after_node_restart(self, small_federation, rng):
        _, manifest, nodes, addresses = small_federation
        group = rng.uniform(0, 1000, size=(6, 2))
        with ShardCoordinator(
            manifest, addresses, timeout_s=2.0, retries=2, allow_degraded=True
        ) as coordinator:
            before = coordinator.execute(QuerySpec(group=group, k=4))
            assert before.degraded is False
            # Bounce node 0 onto the same port: the next query must
            # reconnect transparently (at worst burning one retry).
            host, port = addresses[0]
            nodes[0].close()
            nodes[0] = ShardNode(
                manifest.shards[0].shard_id,
                nodes[0].snapshot_path,
                host=host,
                port=port,
                workers=1,
            )
            nodes[0].start()
            after = coordinator.execute(QuerySpec(group=group, k=4))
            assert after.degraded is False
            assert as_tuples(after) == as_tuples(before)

    def test_semantic_errors_do_not_degrade(self, small_federation, rng):
        """A spec the shard rejects is a query error even under
        allow_degraded — not a liveness problem.  Disk-resident specs
        are the driver: shard nodes serve memory-resident groups only."""
        _, manifest, _, addresses = small_federation
        with ShardCoordinator(
            manifest, addresses, timeout_s=30.0, allow_degraded=True
        ) as coordinator:
            with pytest.raises(ShardQueryError, match="disk-resident"):
                coordinator.execute(
                    QuerySpec(
                        group=rng.uniform(0, 1000, size=(3, 2)),
                        k=1,
                        residency="disk",
                        algorithm="fmqm",
                    )
                )

    def test_disk_resident_specs_are_refused_before_any_round_trip(
        self, small_federation, rng
    ):
        _, manifest, _, addresses = small_federation
        spec = QuerySpec(
            group=rng.uniform(0, 1000, size=(3, 2)), k=1, residency="disk", algorithm="fmqm"
        )
        with ShardCoordinator(manifest, addresses, timeout_s=30.0) as coordinator:
            before = coordinator.stats()
            with pytest.raises(ShardQueryError, match="disk-resident"):
                coordinator.submit(spec)
            after = coordinator.stats()
            assert after["subqueries"] == before["subqueries"]
            assert after["cost"] == before["cost"]

    def test_brute_force_runs_federated_over_snapshot_ids(
        self, small_federation, rng
    ):
        """Brute force scans each shard snapshot in record-id order, so
        the federated answer matches a single-index scan exactly even
        though shards carry global (gappy) record ids."""
        points, manifest, _, addresses = small_federation
        group = rng.uniform(0, 1000, size=(3, 2))
        spec = QuerySpec(group=group, k=4, algorithm="brute-force")
        reference = GNNEngine(points, capacity=16).execute(spec)
        with ShardCoordinator(manifest, addresses, timeout_s=30.0) as coordinator:
            result = coordinator.execute(spec)
            assert as_tuples(result) == as_tuples(reference)

    def test_mismatched_dimensionality_fails_at_submit(self, small_federation, rng):
        _, manifest, _, addresses = small_federation
        with ShardCoordinator(manifest, addresses) as coordinator:
            with pytest.raises(ValueError, match="dimensionality"):
                coordinator.submit(QuerySpec(group=rng.uniform(0, 1, size=(3, 4))))

    def test_mismatched_shard_identity_refused(self, small_federation, rng):
        """Swapping two node addresses is caught by the ping handshake."""
        _, manifest, _, addresses = small_federation
        swapped = [addresses[1], addresses[0]]
        with ShardCoordinator(
            manifest, swapped, timeout_s=2.0, retries=0
        ) as coordinator:
            with pytest.raises(ShardUnavailableError, match="miswired"):
                coordinator.execute(
                    QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=1)
                )

    def test_non_listening_address_fails_fast(self, tmp_path, rng):
        generator = np.random.default_rng(6)
        points = generator.uniform(0, 1000, size=(50, 2))
        manifest = partition_dataset(points, 1, tmp_path / "dead", capacity=16)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with ShardCoordinator(
            manifest, [("127.0.0.1", port)], timeout_s=2.0, retries=0
        ) as coordinator:
            with pytest.raises(ShardUnavailableError):
                coordinator.execute(
                    QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1)
                )

    def test_address_count_must_match_manifest(self, small_federation):
        _, manifest, _, addresses = small_federation
        with pytest.raises(ValueError, match="2 shards but 1 addresses"):
            ShardCoordinator(manifest, addresses[:1])


# ----------------------------------------------------------------------
# process-isolated nodes (the deployment launcher)
# ----------------------------------------------------------------------
def _child_pids(pid: int) -> list[int]:
    """The children of process ``pid``, from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _proc_stat(int(entry))[1:2] == [str(pid)]:
            children.append(int(entry))
    return children


def _is_running(pid: int) -> bool:
    return _proc_stat(pid)[:1] not in ([], ["Z"])


def _proc_stat(pid: int) -> list[str]:
    """The fields of ``/proc/<pid>/stat`` after the command: state, ppid, ..."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _kill_all(pids) -> None:
    for pid in pids:
        if _is_running(pid):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def _start_node_and_vanish(pid_out, snapshot_path) -> None:
    """Start a node process, report its pid, and exit without closing it."""
    node = ShardNodeProcess(0, snapshot_path, workers=1)
    node.start()
    pid_out.send(node._process.pid)
    os._exit(0)


class TestShardNodeProcess:
    def test_process_nodes_serve_conformant_answers(
        self, shard_points, reference_engine, tmp_path, rng
    ):
        """The nodes start back to back: ``start()`` does not wait for its
        node, the first query's handshake ping does."""
        directory = tmp_path / "proc"
        manifest = partition_dataset(shard_points, 2, directory, capacity=16)
        specs = [
            QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=3) for _ in range(4)
        ]
        nodes = [
            ShardNodeProcess(shard.shard_id, directory / shard.path, workers=1)
            for shard in manifest.shards
        ]
        try:
            addresses = [node.start() for node in nodes]
            assert all(host == "127.0.0.1" for host, _ in addresses)
            with ShardedEngine.connect(manifest, addresses, timeout_s=30.0) as engine:
                for spec in specs:
                    assert as_tuples(engine.execute(spec)) == as_tuples(
                        reference_engine.execute(spec)
                    )
        finally:
            for node in nodes:
                node.close()
        # close() is idempotent and the child is really gone.
        for node in nodes:
            node.close()
            assert "closed" in repr(node)

    def test_start_reports_child_failure(self, tmp_path):
        node = ShardNodeProcess(0, tmp_path / "missing.npz", workers=1)
        with pytest.raises(RuntimeError, match="failed to start"):
            node.start()
        node.close()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_a_killed_node_refuses_connections_despite_live_workers(
        self, shard_points, tmp_path, rng
    ):
        """Workers forked by the node drop its listener: once the node
        dies, even abruptly with its workers orphaned, a connection is
        refused rather than left in a backlog that nobody serves."""
        manifest = partition_dataset(shard_points, 1, tmp_path, capacity=16)
        node = ShardNodeProcess(0, tmp_path / manifest.shards[0].path, workers=1)
        orphans = []
        try:
            address = node.start()
            with ShardedEngine.connect(manifest, [address], timeout_s=30.0) as engine:
                engine.execute(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=2))
            pid = node._process.pid
            orphans = _child_pids(pid)
            assert orphans, "the node forked no worker"
            os.kill(pid, signal.SIGKILL)
            node._process.join(10.0)
            assert any(_is_running(worker) for worker in orphans)
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5.0).close()
        finally:
            _kill_all(orphans)
            node.close()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks, reads /proc")
    def test_a_node_whose_parent_dies_shuts_down(self, shard_points, tmp_path):
        import multiprocessing

        manifest = partition_dataset(shard_points, 1, tmp_path, capacity=16)
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        parent = context.Process(
            target=_start_node_and_vanish,
            args=(writer, str(tmp_path / manifest.shards[0].path)),
        )
        parent.start()
        writer.close()
        pid = reader.recv()
        parent.join(10.0)
        try:
            deadline = time.monotonic() + 30.0
            while _is_running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _is_running(pid)
        finally:
            if _is_running(pid):
                _kill_all(_child_pids(pid) + [pid])

    def test_a_corrupt_snapshot_fails_in_start(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"PK\x03\x04 not a snapshot")
        node = ShardNodeProcess(0, path, workers=1)
        with pytest.raises(RuntimeError, match="failed to start"):
            node.start()
        assert "closed" in repr(node)
        node.close()

    def test_a_port_in_use_fails_in_start(self, shard_points, tmp_path):
        manifest = partition_dataset(shard_points, 1, tmp_path, capacity=16)
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            node = ShardNodeProcess(0, tmp_path / manifest.shards[0].path, port=port, workers=1)
            with pytest.raises(RuntimeError, match="failed to start: OSError"):
                node.start()
            node.close()

    def test_a_node_failing_after_the_fork_is_unavailable_and_reaped(
        self, shard_points, tmp_path, rng
    ):
        import multiprocessing

        manifest = partition_dataset(shard_points, 1, tmp_path, capacity=16)
        # The snapshot opens and the port binds, so start() returns; the
        # node's own GNNServer then refuses the options, in the child.
        node = ShardNodeProcess(0, tmp_path / manifest.shards[0].path, workers=0)
        address = node.start()
        process = node._process
        try:
            with ShardedEngine.connect(manifest, [address], timeout_s=10.0) as engine:
                with pytest.raises(ShardUnavailableError):
                    engine.execute(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=2))
        finally:
            node.close()
        assert not process.is_alive()
        assert process.exitcode != 0
        assert process not in multiprocessing.active_children()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5.0).close()

    def test_spawned_nodes_receive_the_listener(
        self, shard_points, reference_engine, tmp_path, rng, monkeypatch
    ):
        from repro.shard import launch

        monkeypatch.setattr(launch, "_default_start_method", lambda: "spawn")
        manifest = partition_dataset(shard_points, 1, tmp_path, capacity=16)
        node = ShardNodeProcess(0, tmp_path / manifest.shards[0].path, workers=1)
        assert node._context.get_start_method() == "spawn"
        try:
            address = node.start()
            with ShardedEngine.connect(manifest, [address], timeout_s=60.0) as engine:
                spec = QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=3)
                assert as_tuples(engine.execute(spec)) == as_tuples(
                    reference_engine.execute(spec)
                )
        finally:
            node.close()


class TestShardConnections:
    def test_both_ends_of_a_shard_connection_send_without_nagle(
        self, shard_points, tmp_path, rng
    ):
        """The node's listener is made by ``socket.create_server`` (protocol
        0), whose accepted sockets asyncio leaves with Nagle on; both ends
        set ``TCP_NODELAY`` themselves."""
        manifest = partition_dataset(shard_points, 1, tmp_path, capacity=16)
        with ShardNode(0, tmp_path / manifest.shards[0].path, workers=1) as node:
            with ShardedEngine.connect(manifest, [node.address], timeout_s=30.0) as engine:
                engine.execute(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=2))
                link = engine.coordinator._links[0][0]
                ends = [link._writer] + list(node._connections)
                assert len(ends) == 2
                for writer in ends:
                    sock = writer.get_extra_info("socket")
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


# ----------------------------------------------------------------------
# planner routing + engine facade
# ----------------------------------------------------------------------
class TestShardedPlanning:
    def test_single_index_engine_rejects_sharded_at_plan_time(self, engine, rng):
        spec = QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), index="sharded")
        with pytest.raises(ValueError, match="coordinator-backed") as excinfo:
            engine.explain(spec)
        message = str(excinfo.value)
        assert "'auto'" in message
        assert "ShardedEngine" in message

    def test_sharded_engine_accepts_sharded_specs(self, federations, rng):
        _, _, engine = federations[2]
        plan = engine.explain(
            QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), index="sharded")
        )
        assert plan.algorithm.name == "mbm"

    def test_sharded_engine_rejects_unservable_specs_client_side(
        self, federations, rng
    ):
        _, _, engine = federations[2]
        with pytest.raises(ValueError, match="disk-resident specs are not served"):
            engine.execute(
                QuerySpec(
                    group=rng.uniform(0, 1000, size=(60, 2)),
                    residency="disk",
                    index="sharded",
                )
            )

    def test_submit_after_close_raises(self, shard_points, tmp_path, rng):
        directory = tmp_path / "closed"
        manifest = partition_dataset(shard_points, 1, directory, capacity=16)
        node = ShardNode(0, directory / manifest.shards[0].path, workers=1)
        address = node.start()
        try:
            engine = ShardedEngine.connect(manifest, [address])
            engine.close()
            engine.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                engine.submit(
                    QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1)
                )
        finally:
            node.close()

    def test_node_close_is_idempotent_and_concurrent_safe(
        self, shard_points, tmp_path
    ):
        directory = tmp_path / "nodeclose"
        manifest = partition_dataset(shard_points, 1, directory, capacity=16)
        node = ShardNode(0, directory / manifest.shards[0].path, workers=1)
        node.start()
        threads = [threading.Thread(target=node.close) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        node.close()  # and once more, after the dust settled
        assert not any(thread.is_alive() for thread in threads)
