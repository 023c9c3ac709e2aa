"""Tests for repro.rtree.traversal: the incremental NN stream, keyed by a point (the oracle) or by any key pair."""

import numpy as np
import pytest
from geometry_reference import mindist_point
from traversal_reference import as_tuple, best_first_nearest, incremental_nearest

from repro.core.types import QueryCost
from repro.geometry import kernels
from repro.rtree.flat import FlatRTree
from repro.rtree.traversal import flat_incremental_nearest_generic

EMPTY = FlatRTree.bulk_load(np.zeros((0, 2)))


def _true_knn(points, query, k):
    distances = np.linalg.norm(points - np.asarray(query), axis=1)
    order = np.argsort(distances, kind="stable")[:k]
    return [(int(i), float(distances[i])) for i in order]


class TestBestFirst:
    def test_single_nearest_neighbor_matches_linear_scan(self, uniform_points_1k, uniform_tree):
        query = [500.0, 500.0]
        result = best_first_nearest(uniform_tree, query, k=1)
        expected = _true_knn(uniform_points_1k, query, 1)
        assert as_tuple(result[0]) == pytest.approx(expected[0])

    def test_knn_distances_match_linear_scan(self, uniform_points_1k, uniform_tree):
        query = [123.0, 877.0]
        result = best_first_nearest(uniform_tree, query, k=10)
        expected = _true_knn(uniform_points_1k, query, 10)
        assert [r.distance for r in result] == pytest.approx([d for _, d in expected])

    def test_k_larger_than_dataset_returns_everything(self, small_tree, small_points):
        result = best_first_nearest(small_tree, [0.0, 0.0], k=10_000)
        assert len(result) == len(small_points)

    def test_invalid_k_rejected(self, small_tree):
        with pytest.raises(ValueError):
            best_first_nearest(small_tree, [0.0, 0.0], k=0)

    def test_empty_tree_returns_no_neighbors(self):
        assert best_first_nearest(EMPTY, [0.0, 0.0], k=3) == []

    def test_query_point_coinciding_with_data_point(self, small_points, small_tree):
        query = small_points[42]
        result = best_first_nearest(small_tree, query, k=1)
        assert result[0].distance == pytest.approx(0.0)


class TestIncremental:
    def test_stream_is_sorted_and_complete(self, small_points, small_tree):
        stream = list(incremental_nearest(small_tree, [500.0, 500.0]))
        distances = [neighbor.distance for neighbor in stream]
        assert distances == sorted(distances)
        assert sorted(n.record_id for n in stream) == list(range(len(small_points)))

    def test_stream_prefix_equals_knn(self, uniform_points_1k, uniform_tree):
        query = [10.0, 990.0]
        stream = incremental_nearest(uniform_tree, query)
        prefix = [next(stream) for _ in range(7)]
        expected = _true_knn(uniform_points_1k, query, 7)
        assert [p.distance for p in prefix] == pytest.approx([d for _, d in expected])

    def test_stream_is_lazy_about_node_accesses(self, uniform_tree):
        cost = QueryCost()
        stream = incremental_nearest(uniform_tree, [500.0, 500.0], cost)
        next(stream)
        partial_accesses = cost.node_accesses
        # Draining the stream costs many more accesses than the first item.
        for _ in stream:
            pass
        assert cost.node_accesses > partial_accesses

    def test_empty_tree_stream_is_empty(self):
        assert list(incremental_nearest(EMPTY, [0.0, 0.0])) == []


class TestIncrementalGeneric:
    def test_custom_keys_order_by_distance_to_mbr(self, small_points, small_tree):
        # Rank points by their distance to a query rectangle rather than to
        # a point: the generic traversal supports it as long as the node key
        # lower-bounds the point key.
        from repro.geometry.mbr import MBR

        region = MBR([100.0, 100.0], [200.0, 200.0])
        stream = flat_incremental_nearest_generic(
            small_tree,
            points_key=lambda pts: kernels.points_mindist_box(pts, region.low, region.high),
            mbrs_key=lambda lows, highs: kernels.boxes_mindist_box(
                lows, highs, region.low, region.high
            ),
        )
        results = list(stream)
        distances = [n.distance for n in results]
        assert distances == sorted(distances)
        expected_best = min(mindist_point(region, p) for p in small_points)
        assert distances[0] == pytest.approx(expected_best)

    def test_a_stream_without_a_record_matches_one_with_a_record(self, uniform_tree):
        centre = np.array([300.0, 700.0])

        def stream(cost=None):
            return flat_incremental_nearest_generic(
                uniform_tree,
                lambda points: kernels.point_distances(points, centre),
                lambda lows, highs: kernels.boxes_mindist_point(lows, highs, centre),
                cost=cost,
            )

        cost = QueryCost()
        charged = [as_tuple(n) for n in stream(cost)]
        assert [as_tuple(n) for n in stream()] == charged
        assert cost.node_accesses == uniform_tree.num_nodes

    def test_constant_keys_enumerate_everything(self, small_tree, small_points):
        stream = flat_incremental_nearest_generic(
            small_tree,
            points_key=lambda pts: np.zeros(len(pts)),
            mbrs_key=lambda lows, highs: np.zeros(len(lows)),
        )
        assert len(list(stream)) == len(small_points)
