"""Correctness tests for the disk-resident algorithms: GCP, F-MQM, F-MBM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmbm_reference import fmbm_reference
from repro.core.bruteforce import brute_force_gnn
from repro.core.fmbm import fmbm
from repro.core.fmqm import fmqm
from repro.core.gcp import PairCapExceeded, gcp
from repro.core.types import GroupQuery
from repro.rtree.flat import FlatRTree
from repro.storage.buffer import LRUBuffer
from repro.storage.pointfile import PointFile

EMPTY = FlatRTree.bulk_load(np.zeros((0, 2)))


@pytest.fixture(scope="module")
def disk_setup():
    """A data tree plus two disk-resident query sets (clustered and spread)."""
    rng = np.random.default_rng(99)
    data = rng.uniform(0, 1000, size=(800, 2))
    tree = FlatRTree.bulk_load(data, capacity=16)
    clustered_queries = rng.uniform(420, 560, size=(300, 2))
    spread_queries = rng.uniform(0, 1000, size=(300, 2))
    return data, tree, clustered_queries, spread_queries


def _query_file(points, block_points=64):
    return PointFile(points, points_per_page=16, block_pages=block_points // 16)


class TestGCP:
    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_brute_force_clustered_queries(self, disk_setup, k):
        data, tree, clustered, _ = disk_setup
        query_tree = FlatRTree.bulk_load(clustered, capacity=16)
        result = gcp(tree, query_tree, k=k)
        expected = brute_force_gnn(data, GroupQuery(clustered, k=k))
        assert result.distances() == pytest.approx(expected.distances())

    def test_matches_brute_force_spread_queries(self, disk_setup):
        data, tree, _, spread = disk_setup
        query_tree = FlatRTree.bulk_load(spread, capacity=16)
        result = gcp(tree, query_tree, k=2)
        expected = brute_force_gnn(data, GroupQuery(spread, k=2))
        assert result.distances() == pytest.approx(expected.distances())

    def test_invalid_k_rejected(self, disk_setup):
        _, tree, clustered, _ = disk_setup
        with pytest.raises(ValueError):
            gcp(tree, FlatRTree.bulk_load(clustered), k=0)

    def test_empty_query_tree(self, disk_setup):
        _, tree, _, _ = disk_setup
        assert gcp(tree, EMPTY, k=1).neighbors == []

    def test_pair_cap_raises_with_the_runs_cost(self, disk_setup):
        _, tree, _, spread = disk_setup
        query_tree = FlatRTree.bulk_load(spread, capacity=16)
        with pytest.raises(PairCapExceeded, match="max_pairs=100") as capped:
            gcp(tree, query_tree, k=1, max_pairs=100)
        assert capped.value.max_pairs == 100
        assert capped.value.cost.algorithm == "GCP"
        assert capped.value.cost.node_accesses > 0

    @pytest.mark.parametrize("max_pairs", [20, 200, 800])
    def test_capped_engine_query_returns_no_answer(self, max_pairs):
        """A capped run's candidates are incomplete, so through
        ``engine.execute`` it must raise, not return ``[]`` or a wrong top-k."""
        from repro import GNNEngine, QuerySpec

        rng = np.random.default_rng(7)
        engine = GNNEngine(rng.uniform(0, 1000, size=(3000, 2)))
        spec = QuerySpec(
            group=rng.uniform(200, 800, size=(6, 2)),
            k=3,
            residency="disk",
            algorithm="gcp",
            options={"max_pairs": max_pairs},
        )
        with pytest.raises(PairCapExceeded):
            engine.execute(spec)

    def test_charges_node_accesses_on_both_trees(self, disk_setup):
        data, _, clustered, _ = disk_setup
        # Each tree's own buffer sees exactly that tree's reads.
        tree = FlatRTree.bulk_load(data, capacity=16, buffer=LRUBuffer(1000))
        query_tree = FlatRTree.bulk_load(clustered, capacity=16, buffer=LRUBuffer(1000))
        result = gcp(tree, query_tree, k=1)
        data_reads = tree.buffer.hits + tree.buffer.misses
        query_reads = query_tree.buffer.hits + query_tree.buffer.misses
        assert data_reads > 0
        assert query_reads > 0
        # The one record reports the union of both trees' accesses.
        assert result.cost.node_accesses == data_reads + query_reads

    def test_small_exhaustive_case(self):
        # A case small enough that the stream is fully enumerable by hand.
        data = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0], [2.0, 8.0]])
        queries = np.array([[1.0, 1.0], [9.0, 9.0]])
        tree = FlatRTree.bulk_load(data, capacity=4)
        query_tree = FlatRTree.bulk_load(queries, capacity=4)
        result = gcp(tree, query_tree, k=4)
        expected = brute_force_gnn(data, GroupQuery(queries, k=4))
        assert result.distances() == pytest.approx(expected.distances())


class TestFMQM:
    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_brute_force_clustered_queries(self, disk_setup, k):
        data, tree, clustered, _ = disk_setup
        result = fmqm(tree, _query_file(clustered), k=k)
        expected = brute_force_gnn(data, GroupQuery(clustered, k=k))
        assert result.distances() == pytest.approx(expected.distances())

    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_brute_force_spread_queries(self, disk_setup, k):
        data, tree, _, spread = disk_setup
        result = fmqm(tree, _query_file(spread), k=k)
        expected = brute_force_gnn(data, GroupQuery(spread, k=k))
        assert result.distances() == pytest.approx(expected.distances())

    def test_single_block_degenerates_to_group_search(self, disk_setup):
        data, tree, clustered, _ = disk_setup
        single_block = PointFile(clustered, points_per_page=50, block_pages=100)
        assert single_block.block_count == 1
        result = fmqm(tree, single_block, k=3)
        expected = brute_force_gnn(data, GroupQuery(clustered, k=3))
        assert result.distances() == pytest.approx(expected.distances())

    def test_block_reads_are_charged(self, disk_setup):
        _, tree, clustered, _ = disk_setup
        query_file = _query_file(clustered)
        result = fmqm(tree, query_file, k=1)
        assert result.cost.block_reads > 0
        assert result.cost.page_reads > 0

    def test_invalid_k_rejected(self, disk_setup):
        _, tree, clustered, _ = disk_setup
        with pytest.raises(ValueError):
            fmqm(tree, _query_file(clustered), k=0)

    def test_empty_tree(self, disk_setup):
        _, _, clustered, _ = disk_setup
        assert fmqm(EMPTY, _query_file(clustered), k=1).neighbors == []


class TestFMBM:
    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_brute_force_clustered_queries(self, disk_setup, k):
        data, tree, clustered, _ = disk_setup
        result = fmbm(tree, _query_file(clustered), k=k)
        expected = brute_force_gnn(data, GroupQuery(clustered, k=k))
        assert result.distances() == pytest.approx(expected.distances())

    @pytest.mark.parametrize("k", [1, 4])
    def test_matches_brute_force_spread_queries(self, disk_setup, k):
        data, tree, _, spread = disk_setup
        result = fmbm(tree, _query_file(spread), k=k)
        expected = brute_force_gnn(data, GroupQuery(spread, k=k))
        assert result.distances() == pytest.approx(expected.distances())

    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([2, 3]),
        count=st.integers(1, 250),
        points_per_page=st.integers(1, 20),
        block_pages=st.integers(1, 6),
        k=st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_point_reference(
        self, seed, dims, count, points_per_page, block_pages, k
    ):
        """The array leaf answers and charges exactly what the per-point loop does."""
        rng = np.random.default_rng(seed)
        data = rng.uniform(0, 1000, size=(int(rng.integers(1, 300)), dims))
        low = rng.uniform(0, 900, size=dims)
        queries = rng.uniform(low, low + rng.uniform(1, 600, size=dims), size=(count, dims))
        tree = FlatRTree.bulk_load(data, capacity=int(rng.choice([4, 8, 16])))
        results = []
        for run in (fmbm, fmbm_reference):
            query_file = PointFile(queries, points_per_page=points_per_page, block_pages=block_pages)
            results.append(run(tree, query_file, k=k))
        result, reference = results
        assert [nb.as_tuple() for nb in result.neighbors] == [
            nb.as_tuple() for nb in reference.neighbors
        ]
        for counter in ("node_accesses", "page_reads", "block_reads", "distance_computations"):
            assert getattr(result.cost, counter) == getattr(reference.cost, counter), counter

    def test_invalid_k_rejected(self, disk_setup):
        _, tree, clustered, _ = disk_setup
        with pytest.raises(ValueError):
            fmbm(tree, _query_file(clustered), k=-1)

    def test_empty_query_file_not_possible_but_empty_tree_is(self, disk_setup):
        _, _, clustered, _ = disk_setup
        assert fmbm(EMPTY, _query_file(clustered), k=1).neighbors == []


class TestDiskAlgorithmAgreement:
    def test_all_three_agree_on_the_same_input(self, disk_setup):
        data, tree, clustered, _ = disk_setup
        k = 5
        fmqm_result = fmqm(tree, _query_file(clustered), k=k)
        fmbm_result = fmbm(tree, _query_file(clustered), k=k)
        gcp_result = gcp(tree, FlatRTree.bulk_load(clustered, capacity=16), k=k)
        assert fmqm_result.distances() == pytest.approx(fmbm_result.distances())
        assert fmqm_result.distances() == pytest.approx(gcp_result.distances())

    def test_disk_algorithms_agree_with_memory_mbm(self, disk_setup):
        # When the query set happens to fit in memory, the disk algorithms
        # must return exactly what MBM returns.
        from repro.core.mbm import mbm

        data, tree, clustered, _ = disk_setup
        subset = clustered[:80]
        memory = mbm(tree, GroupQuery(subset, k=3))
        disk = fmbm(tree, _query_file(subset), k=3)
        assert memory.distances() == pytest.approx(disk.distances())
