"""Tests for repro.rtree.closest_pairs: the incremental closest-pair join."""

import numpy as np
import pytest

from repro.core.types import QueryCost
from repro.rtree.closest_pairs import incremental_closest_pairs
from repro.rtree.flat import FlatRTree
from repro.storage.buffer import LRUBuffer


@pytest.fixture(scope="module")
def pair_setup():
    rng = np.random.default_rng(17)
    data = rng.uniform(0, 100, size=(120, 2))
    queries = rng.uniform(0, 100, size=(40, 2))
    data_tree = FlatRTree.bulk_load(data, capacity=8)
    query_tree = FlatRTree.bulk_load(queries, capacity=8)
    return data, queries, data_tree, query_tree


def _all_pair_distances(data, queries):
    delta = data[:, None, :] - queries[None, :, :]
    return np.sqrt(np.sum(delta * delta, axis=2))


class TestClosestPairStream:
    def test_first_pair_is_the_global_closest_pair(self, pair_setup):
        data, queries, data_tree, query_tree = pair_setup
        first = next(incremental_closest_pairs(data_tree, query_tree))
        matrix = _all_pair_distances(data, queries)
        assert first.distance == pytest.approx(matrix.min())

    def test_stream_is_non_decreasing(self, pair_setup):
        _, _, data_tree, query_tree = pair_setup
        stream = incremental_closest_pairs(data_tree, query_tree)
        distances = [next(stream).distance for _ in range(200)]
        assert distances == sorted(distances)

    def test_exhausted_stream_enumerates_cartesian_product(self, pair_setup):
        data, queries, data_tree, query_tree = pair_setup
        pairs = list(incremental_closest_pairs(data_tree, query_tree))
        assert len(pairs) == len(data) * len(queries)
        seen = {(p.data_id, p.query_id) for p in pairs}
        assert len(seen) == len(pairs)

    def test_pair_distances_match_recomputation(self, pair_setup):
        data, queries, data_tree, query_tree = pair_setup
        stream = incremental_closest_pairs(data_tree, query_tree)
        for _ in range(50):
            pair = next(stream)
            expected = float(np.linalg.norm(data[pair.data_id] - queries[pair.query_id]))
            assert pair.distance == pytest.approx(expected)

    def test_prefix_matches_sorted_distance_matrix(self, pair_setup):
        data, queries, data_tree, query_tree = pair_setup
        matrix = _all_pair_distances(data, queries).ravel()
        matrix.sort()
        stream = incremental_closest_pairs(data_tree, query_tree)
        prefix = [next(stream).distance for _ in range(100)]
        assert prefix == pytest.approx(matrix[:100].tolist())

    def test_node_accesses_are_charged_to_both_trees(self, pair_setup):
        data, queries, _, _ = pair_setup
        # Each tree's own buffer sees exactly that tree's reads.
        data_tree = FlatRTree.bulk_load(data, capacity=8, buffer=LRUBuffer(1000))
        query_tree = FlatRTree.bulk_load(queries, capacity=8, buffer=LRUBuffer(1000))
        cost = QueryCost()
        stream = incremental_closest_pairs(data_tree, query_tree, cost)
        for _ in range(20):
            next(stream)
        data_reads = data_tree.buffer.hits + data_tree.buffer.misses
        query_reads = query_tree.buffer.hits + query_tree.buffer.misses
        assert data_reads > 0
        assert query_reads > 0
        assert cost.node_accesses == data_reads + query_reads

    def test_a_stream_without_a_record_matches_one_with_a_record(self, pair_setup):
        _, _, data_tree, query_tree = pair_setup
        cost = QueryCost()
        charged = list(incremental_closest_pairs(data_tree, query_tree, cost))
        bare = list(incremental_closest_pairs(data_tree, query_tree))
        assert [(p.data_id, p.query_id, p.distance) for p in bare] == [
            (p.data_id, p.query_id, p.distance) for p in charged
        ]
        again = QueryCost()
        list(incremental_closest_pairs(data_tree, query_tree, again))
        assert again.snapshot() == cost.snapshot()  # the bare run was charged to neither
        assert cost.node_accesses >= data_tree.num_nodes + query_tree.num_nodes

    def test_empty_trees_produce_empty_stream(self):
        empty = FlatRTree.bulk_load(np.zeros((0, 2)))
        other = FlatRTree.bulk_load(np.random.default_rng(0).uniform(0, 1, size=(10, 2)))
        assert list(incremental_closest_pairs(empty, other)) == []
        assert list(incremental_closest_pairs(other, empty)) == []

    def test_single_point_trees(self):
        data_tree = FlatRTree.bulk_load(np.array([[0.0, 0.0]]))
        query_tree = FlatRTree.bulk_load(np.array([[3.0, 4.0]]))
        pairs = list(incremental_closest_pairs(data_tree, query_tree))
        assert len(pairs) == 1
        assert pairs[0].distance == pytest.approx(5.0)
