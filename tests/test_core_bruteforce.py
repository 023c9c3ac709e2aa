"""Tests for repro.core.bruteforce (the ground-truth baseline itself)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force_gnn
from repro.core.types import GroupQuery
from repro.geometry import kernels
from repro.geometry.distance import group_distance

#: A cell of a 4 x 4 integer grid: a few dozen points on it are mostly twins.
_CELLS = st.tuples(st.integers(0, 3), st.integers(0, 3))


class TestBruteForce:
    def test_single_nn_on_tiny_example(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 1.0]])
        query = GroupQuery([[0.0, 0.0], [10.0, 0.0]], k=1)
        result = brute_force_gnn(points, query)
        # The middle point has summed distance ~10.2; each endpoint has 10.0.
        assert result.best.record_id in (0, 1)
        assert result.best.distance == pytest.approx(10.0)

    def test_k_results_are_sorted_and_distinct(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 100, size=(200, 2))
        query = GroupQuery(rng.uniform(0, 100, size=(5, 2)), k=10)
        result = brute_force_gnn(points, query)
        distances = result.distances()
        assert distances == sorted(distances)
        assert len(set(result.record_ids())) == 10

    def test_distances_match_direct_recomputation(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 100, size=(50, 2))
        group = rng.uniform(0, 100, size=(4, 2))
        result = brute_force_gnn(points, GroupQuery(group, k=3))
        for neighbor in result.neighbors:
            assert neighbor.distance == pytest.approx(
                group_distance(points[neighbor.record_id], group)
            )

    def test_k_larger_than_dataset_is_clamped(self):
        points = np.random.default_rng(2).uniform(0, 10, size=(5, 2))
        result = brute_force_gnn(points, GroupQuery([[1.0, 1.0]], k=50))
        assert len(result.neighbors) == 5

    def test_max_aggregate(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]])
        group = np.array([[0.0, 0.0], [10.0, 10.0]])
        result = brute_force_gnn(points, GroupQuery(group, k=1, aggregate="max"))
        # The centre point minimises the maximum distance to the two corners.
        assert result.best.record_id == 1

    def test_min_aggregate(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0], [100.0, 100.0]])
        group = np.array([[99.0, 99.0]])
        result = brute_force_gnn(points, GroupQuery(group, k=1, aggregate="min"))
        assert result.best.record_id == 2

    def test_weighted_query(self):
        points = np.array([[0.0, 0.0], [10.0, 0.0]])
        group = np.array([[0.0, 0.0], [10.0, 0.0]])
        # With a heavy weight on the first query point, the best data point is
        # the one sitting on it.
        result = brute_force_gnn(
            points, GroupQuery(group, k=1, weights=np.array([10.0, 1.0]))
        )
        assert result.best.record_id == 0

    def test_cost_records_distance_computations(self):
        points = np.random.default_rng(3).uniform(0, 1, size=(30, 2))
        query = GroupQuery(np.random.default_rng(4).uniform(0, 1, size=(6, 2)), k=1)
        result = brute_force_gnn(points, query)
        assert result.cost.distance_computations == 30 * 6
        assert result.cost.algorithm == "brute-force"


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(_CELLS, min_size=1, max_size=40),
    group=st.lists(_CELLS, min_size=1, max_size=4),
    k=st.integers(1, 12),
    data=st.data(),
)
def test_ties_are_broken_by_record_id(cells, group, k, data):
    """The answer is ``sorted((distance, record_id))[:k]``, cut at ``within``.

    Twins tie at every distance, so any pick among the records tied at
    the k-th distance other than the smallest ids shows; so does an id
    order that is not the row order.
    """
    points = np.array(cells, dtype=np.float64)
    record_ids = data.draw(
        st.one_of(st.none(), st.permutations(range(100, 100 + len(cells)))), label="ids"
    )
    within = data.draw(st.one_of(st.just(math.inf), st.integers(0, 12)), label="within")
    query = GroupQuery(np.array(group, dtype=np.float64), k=k)
    distances = kernels.aggregate_distances(points, query.points).tolist()
    ids = range(len(cells)) if record_ids is None else record_ids
    expected = [
        (distance, record_id)
        for distance, record_id in sorted(zip(distances, ids))[:k]
        if distance <= within
    ]
    result = brute_force_gnn(points, query, record_ids=record_ids, within=within)
    assert [(nb.distance, nb.record_id) for nb in result.neighbors] == expected
