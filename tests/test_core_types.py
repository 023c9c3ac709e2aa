"""Tests for repro.core.types."""

import numpy as np
import pytest

from repro.core.types import BestList, GNNResult, GroupNeighbor, GroupQuery, QueryCost
from repro.geometry.mbr import MBR


class TestGroupQuery:
    def test_basic_properties(self):
        query = GroupQuery([[0.0, 0.0], [2.0, 2.0]], k=3)
        assert query.cardinality == 2
        assert query.dims == 2
        assert query.k == 3
        assert len(query) == 2

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            GroupQuery([[0.0, 0.0]], k=0)

    def test_mbr_is_cached_and_correct(self):
        query = GroupQuery([[0.0, 1.0], [4.0, -1.0]])
        assert query.mbr == MBR([0.0, -1.0], [4.0, 1.0])
        assert query.mbr is query.mbr  # cached instance

    def test_distance_to_sums_euclidean_distances(self):
        query = GroupQuery([[0.0, 0.0], [3.0, 4.0]])
        assert query.distances_to(np.zeros((1, 2))).tolist() == pytest.approx([5.0])

    def test_distance_respects_aggregate(self):
        query = GroupQuery([[0.0, 0.0], [3.0, 4.0]], aggregate="max")
        assert query.distances_to(np.zeros((1, 2))).tolist() == pytest.approx([5.0])
        query_min = GroupQuery([[0.0, 0.0], [3.0, 4.0]], aggregate="min")
        assert query_min.distances_to(np.zeros((1, 2))).tolist() == pytest.approx([0.0])

    def test_mindist_lower_bound_holds(self):
        rng = np.random.default_rng(0)
        group = rng.uniform(0, 10, size=(5, 2))
        query = GroupQuery(group)
        box = MBR([2.0, 2.0], [4.0, 4.0])
        (bound,) = query.mindist_lower_bounds(box.low[None], box.high[None])
        assert (query.distances_to(rng.uniform(2.0, 4.0, size=(30, 2))) >= bound - 1e-9).all()

    def test_total_weight_defaults_to_cardinality(self):
        query = GroupQuery([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert query.total_weight() == 3.0

    def test_total_weight_with_weights(self):
        query = GroupQuery([[0.0, 0.0], [1.0, 1.0]], weights=[2.0, 0.5])
        assert query.total_weight() == 2.5

    def test_single_point_group(self):
        query = GroupQuery([5.0, 5.0])
        assert query.cardinality == 1
        assert query.distances_to(np.array([[5.0, 8.0]])).tolist() == pytest.approx([3.0])


class TestGroupNeighbor:
    def test_as_tuple(self):
        neighbor = GroupNeighbor(3, np.array([1.0, 2.0]), 4.5)
        assert neighbor.as_tuple() == (3, 4.5)

    def test_repr(self):
        assert "id=3" in repr(GroupNeighbor(3, np.array([1.0, 2.0]), 4.5))


class TestBestList:
    def test_best_dist_is_infinite_until_full(self):
        best = BestList(2)
        assert best.best_dist == float("inf")
        best.offer(1, np.zeros(2), 5.0)
        assert best.best_dist == float("inf")
        best.offer(2, np.zeros(2), 7.0)
        assert best.best_dist == 7.0

    def test_offer_replaces_worst_when_better(self):
        best = BestList(2)
        best.offer(1, np.zeros(2), 5.0)
        best.offer(2, np.zeros(2), 7.0)
        assert best.offer(3, np.zeros(2), 6.0)
        assert best.best_dist == 6.0
        assert [n.record_id for n in best.neighbors()] == [1, 3]

    def test_offer_rejects_worse_candidate_when_full(self):
        best = BestList(1)
        best.offer(1, np.zeros(2), 5.0)
        assert not best.offer(2, np.zeros(2), 9.0)
        assert [n.record_id for n in best.neighbors()] == [1]

    def test_duplicate_record_ids_ignored(self):
        best = BestList(3)
        assert best.offer(1, np.zeros(2), 5.0)
        assert not best.offer(1, np.zeros(2), 4.0)
        assert len(best) == 1

    def test_membership(self):
        best = BestList(2)
        best.offer(9, np.zeros(2), 1.0)
        assert 9 in best
        assert 5 not in best

    def test_neighbors_sorted_by_distance(self):
        best = BestList(4)
        for record_id, distance in [(1, 4.0), (2, 1.0), (3, 3.0), (4, 2.0)]:
            best.offer(record_id, np.zeros(2), distance)
        assert [n.record_id for n in best.neighbors()] == [2, 4, 3, 1]

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            BestList(0)

    def test_eviction_frees_the_record_id(self):
        best = BestList(1)
        best.offer(1, np.zeros(2), 5.0)
        best.offer(2, np.zeros(2), 3.0)  # evicts 1
        assert best.offer(1, np.zeros(2), 2.0)  # 1 can re-enter
        assert [n.record_id for n in best.neighbors()] == [1]


class TestResultTypes:
    def test_query_cost_as_dict(self):
        cost = QueryCost(algorithm="MBM", node_accesses=10, cpu_time=0.5)
        as_dict = cost.as_dict()
        assert as_dict["algorithm"] == "MBM"
        assert as_dict["node_accesses"] == 10

    def test_result_accessors(self):
        neighbors = [
            GroupNeighbor(1, np.zeros(2), 1.0),
            GroupNeighbor(2, np.zeros(2), 2.0),
        ]
        result = GNNResult(neighbors=neighbors, cost=QueryCost(algorithm="SPM"))
        assert result.best.record_id == 1
        assert result.distances() == [1.0, 2.0]
        assert result.record_ids() == [1, 2]

    def test_empty_result_best_is_none(self):
        assert GNNResult().best is None
