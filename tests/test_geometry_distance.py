"""Tests for repro.geometry.distance."""

import numpy as np
import pytest

from repro.geometry import kernels
from repro.geometry.distance import (
    distances_to_group,
    euclidean,
    group_distance,
    group_mindist,
    squared_euclidean,
)
from repro.geometry.mbr import MBR


class TestPairwiseDistances:
    def test_euclidean_simple(self):
        assert euclidean([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_euclidean_is_symmetric(self):
        assert euclidean([1, 7], [4, 3]) == euclidean([4, 3], [1, 7])

    def test_euclidean_zero_for_identical_points(self):
        assert euclidean([2.5, -1.0], [2.5, -1.0]) == 0.0

    def test_squared_euclidean_matches_square_of_euclidean(self):
        a, b = [1.0, 2.0], [4.0, 6.0]
        assert squared_euclidean(a, b) == pytest.approx(euclidean(a, b) ** 2)

    def test_higher_dimensions(self):
        assert euclidean([0, 0, 0], [1, 2, 2]) == pytest.approx(3.0)


class TestGroupDistance:
    def test_distances_to_group_vector(self):
        group = np.array([[0.0, 0.0], [3.0, 4.0]])
        dists = distances_to_group([0.0, 0.0], group)
        assert np.allclose(dists, [0.0, 5.0])

    def test_sum_aggregate_is_default(self):
        group = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 10.0]])
        expected = 0.0 + 5.0 + 10.0
        assert group_distance([0.0, 0.0], group) == pytest.approx(expected)

    def test_max_and_min_aggregates(self):
        group = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 10.0]])
        assert group_distance([0.0, 0.0], group, aggregate="max") == pytest.approx(10.0)
        assert group_distance([0.0, 0.0], group, aggregate="min") == pytest.approx(0.0)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            group_distance([0.0, 0.0], np.array([[1.0, 1.0]]), aggregate="median")

    def test_weights_scale_contributions(self):
        group = np.array([[3.0, 4.0], [6.0, 8.0]])
        unweighted = group_distance([0.0, 0.0], group)
        weighted = group_distance([0.0, 0.0], group, weights=np.array([2.0, 1.0]))
        assert unweighted == pytest.approx(15.0)
        assert weighted == pytest.approx(2 * 5.0 + 10.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            group_distance([0.0, 0.0], np.array([[1.0, 1.0]]), weights=np.array([-1.0]))

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            group_distance([0.0, 0.0], np.array([[1.0, 1.0]]), weights=np.array([1.0, 2.0]))


class TestBulkGroupDistances:
    """``kernels.aggregate_distances`` scores many points in one call."""

    def test_bulk_matches_scalar_computation(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 10, size=(20, 2))
        group = rng.uniform(0, 10, size=(5, 2))
        bulk = kernels.aggregate_distances(points, group)
        scalar = [group_distance(p, group) for p in points]
        assert np.allclose(bulk, scalar)

    def test_bulk_max_aggregate(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 10, size=(10, 2))
        group = rng.uniform(0, 10, size=(4, 2))
        bulk = kernels.aggregate_distances(points, group, aggregate="max")
        scalar = [group_distance(p, group, aggregate="max") for p in points]
        assert np.allclose(bulk, scalar)

    def test_bulk_min_aggregate(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 10, size=(10, 2))
        group = rng.uniform(0, 10, size=(4, 2))
        bulk = kernels.aggregate_distances(points, group, aggregate="min")
        scalar = [group_distance(p, group, aggregate="min") for p in points]
        assert np.allclose(bulk, scalar)

    def test_bulk_weighted(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 10, size=(8, 2))
        group = rng.uniform(0, 10, size=(3, 2))
        weights = np.array([1.0, 2.0, 0.5])
        bulk = kernels.aggregate_distances(points, group, weights=weights)
        scalar = [group_distance(p, group, weights=weights) for p in points]
        assert np.allclose(bulk, scalar)

    def test_bulk_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            kernels.aggregate_distances(np.zeros((2, 2)), np.zeros((2, 2)) + 1, aggregate="avg")


class TestGroupMindist:
    def test_lower_bounds_every_contained_point(self):
        rng = np.random.default_rng(7)
        box = MBR([2.0, 2.0], [5.0, 6.0])
        group = rng.uniform(0, 10, size=(6, 2))
        bound = group_mindist(box, group)
        inside = rng.uniform(box.low, box.high, size=(50, 2))
        for p in inside:
            assert group_distance(p, group) >= bound - 1e-9

    def test_zero_when_group_inside_box(self):
        box = MBR([0.0, 0.0], [10.0, 10.0])
        group = np.array([[1.0, 1.0], [5.0, 5.0]])
        assert group_mindist(box, group) == 0.0

    def test_max_aggregate_bound_holds(self):
        rng = np.random.default_rng(8)
        box = MBR([3.0, 3.0], [4.0, 4.0])
        group = rng.uniform(0, 10, size=(5, 2))
        bound = group_mindist(box, group, aggregate="max")
        inside = rng.uniform(box.low, box.high, size=(50, 2))
        for p in inside:
            assert group_distance(p, group, aggregate="max") >= bound - 1e-9


class TestAggregateDistance:
    """``kernels.reduce_aggregate`` folds per-query-point distances."""

    def test_sum(self):
        assert kernels.reduce_aggregate(np.array([1.0, 2.0, 3.0])) == 6.0

    def test_max(self):
        assert kernels.reduce_aggregate(np.array([1.0, 2.0, 3.0]), aggregate="max") == 3.0

    def test_min(self):
        assert kernels.reduce_aggregate(np.array([1.0, 2.0, 3.0]), aggregate="min") == 1.0

    def test_weights_scale_each_distance_before_the_reduction(self):
        values = np.array([1.0, 2.0, 3.0])
        weights = np.array([3.0, 0.0, 1.0])
        assert kernels.reduce_aggregate(values, weights=weights) == 6.0
        assert kernels.reduce_aggregate(values, aggregate="max", weights=weights) == 3.0
