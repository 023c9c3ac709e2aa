"""Correctness tests for the memory-resident algorithms: MQM, SPM, MBM.

Every algorithm is validated against the brute-force baseline over a
diverse set of query groups (the ``query_groups`` fixture) and against
the paper's qualitative claims about their costs.
"""

import numpy as np
import pytest

from repro.core.bruteforce import brute_force_gnn
from repro.core.mbm import mbm
from repro.core.mqm import mqm
from repro.core.spm import spm
from repro.core.types import GroupQuery
from repro.rtree.flat import FlatRTree
from repro.rtree.tree import RTree

EMPTY = FlatRTree.from_tree(RTree())


def _check_against_bruteforce(algorithm, tree, points, group, k, **kwargs):
    query = GroupQuery(group, k=k)
    result = algorithm(tree, query, **kwargs)
    expected = brute_force_gnn(points, GroupQuery(group, k=k))
    assert result.distances() == pytest.approx(expected.distances()), (
        f"{algorithm.__name__} returned wrong distances for k={k}"
    )
    return result


class TestMQM:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_brute_force(self, small_tree, small_points, query_groups, k):
        for group in query_groups:
            _check_against_bruteforce(mqm, small_tree, small_points, group, k)

    def test_k_larger_than_dataset(self, small_tree, small_points):
        group = np.array([[100.0, 100.0], [200.0, 300.0]])
        query = GroupQuery(group, k=len(small_points) + 10)
        result = mqm(small_tree, query)
        assert len(result.neighbors) == len(small_points)

    def test_rejects_non_sum_aggregates(self, small_tree):
        with pytest.raises(ValueError):
            mqm(small_tree, GroupQuery([[0.0, 0.0]], aggregate="max"))

    def test_rejects_weighted_queries(self, small_tree):
        with pytest.raises(ValueError):
            mqm(small_tree, GroupQuery([[0.0, 0.0], [1.0, 1.0]], weights=[1.0, 2.0]))

    def test_empty_tree(self):
        assert mqm(EMPTY, GroupQuery([[0.0, 0.0]])).neighbors == []

    def test_cost_grows_with_query_cardinality(self, small_tree, rng):
        small = rng.uniform(300, 700, size=(4, 2))
        large = rng.uniform(300, 700, size=(64, 2))
        cost_small = mqm(small_tree, GroupQuery(small, k=1)).cost
        cost_large = mqm(small_tree, GroupQuery(large, k=1)).cost
        assert cost_large.node_accesses > cost_small.node_accesses


class TestSPM:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_best_first_matches_brute_force(self, small_tree, small_points, query_groups, k):
        for group in query_groups:
            _check_against_bruteforce(spm, small_tree, small_points, group, k)

    @pytest.mark.parametrize("centroid_method", ["gradient", "weiszfeld", "mean"])
    def test_any_centroid_backend_is_exact(
        self, small_tree, small_points, query_groups, centroid_method
    ):
        # Lemma 1 holds for an arbitrary reference point, so SPM stays exact
        # regardless of how good the centroid approximation is.
        for group in query_groups[:4]:
            _check_against_bruteforce(
                spm, small_tree, small_points, group, 2, centroid_method=centroid_method
            )

    def test_rejects_non_sum_aggregates(self, small_tree):
        with pytest.raises(ValueError):
            spm(small_tree, GroupQuery([[0.0, 0.0]], aggregate="min"))

    def test_empty_tree(self):
        assert spm(EMPTY, GroupQuery([[0.0, 0.0]])).neighbors == []

    def test_node_accesses_do_not_explode_with_n(self, small_tree, rng):
        # The paper: the cardinality of Q has little effect on SPM's NA.
        small = rng.uniform(300, 700, size=(4, 2))
        large = rng.uniform(300, 700, size=(256, 2))
        na_small = spm(small_tree, GroupQuery(small, k=1)).cost.node_accesses
        na_large = spm(small_tree, GroupQuery(large, k=1)).cost.node_accesses
        assert na_large <= na_small * 5


class TestMBM:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_best_first_matches_brute_force(self, small_tree, small_points, query_groups, k):
        for group in query_groups:
            _check_against_bruteforce(mbm, small_tree, small_points, group, k)

    def test_heuristic2_only_variant_is_still_exact(
        self, small_tree, small_points, query_groups
    ):
        for group in query_groups:
            _check_against_bruteforce(
                mbm, small_tree, small_points, group, 3, use_heuristic3=False
            )

    def test_heuristic3_reduces_node_accesses(self, small_tree, rng):
        # Footnote 3 of the paper: heuristic 3 gives MBM its edge; disabling
        # it should never reduce the number of node accesses.
        group = rng.uniform(200, 800, size=(32, 2))
        with_h3 = mbm(small_tree, GroupQuery(group, k=4)).cost.node_accesses
        without_h3 = mbm(
            small_tree, GroupQuery(group, k=4), use_heuristic3=False
        ).cost.node_accesses
        assert with_h3 <= without_h3

    def test_weighted_query_matches_brute_force(self, small_tree, small_points, rng):
        group = rng.uniform(200, 800, size=(6, 2))
        weights = rng.uniform(0.5, 3.0, size=6)
        query = GroupQuery(group, k=4, weights=weights)
        result = mbm(small_tree, query)
        expected = brute_force_gnn(small_points, GroupQuery(group, k=4, weights=weights))
        assert result.distances() == pytest.approx(expected.distances())

    @pytest.mark.parametrize("aggregate", ["max", "min"])
    def test_other_aggregates_match_brute_force(
        self, small_tree, small_points, rng, aggregate
    ):
        group = rng.uniform(200, 800, size=(8, 2))
        query = GroupQuery(group, k=3, aggregate=aggregate)
        result = mbm(small_tree, query)
        expected = brute_force_gnn(small_points, GroupQuery(group, k=3, aggregate=aggregate))
        assert result.distances() == pytest.approx(expected.distances())

    def test_empty_tree(self):
        assert mbm(EMPTY, GroupQuery([[0.0, 0.0]])).neighbors == []

    def test_node_accesses_at_most_spm(self, small_tree, rng):
        # The paper's overall conclusion for memory-resident queries: MBM is
        # the most efficient method.  Check it holds on average over several
        # query groups (individual queries may tie).
        total_mbm = 0
        total_spm = 0
        for _ in range(10):
            group = rng.uniform(100, 900, size=(16, 2))
            total_mbm += mbm(small_tree, GroupQuery(group, k=8)).cost.node_accesses
            total_spm += spm(small_tree, GroupQuery(group, k=8)).cost.node_accesses
        assert total_mbm <= total_spm * 1.1


class TestCrossAlgorithmAgreement:
    def test_all_three_algorithms_agree(self, small_tree, query_groups):
        for group in query_groups:
            query_k = 6
            results = [
                algorithm(small_tree, GroupQuery(group, k=query_k))
                for algorithm in (mqm, spm, mbm)
            ]
            reference = results[0].distances()
            for result in results[1:]:
                assert result.distances() == pytest.approx(reference)

    def test_results_are_deterministic(self, small_tree, rng):
        group = rng.uniform(0, 1000, size=(10, 2))
        first = mbm(small_tree, GroupQuery(group, k=5))
        second = mbm(small_tree, GroupQuery(group, k=5))
        assert first.record_ids() == second.record_ids()
        assert first.distances() == pytest.approx(second.distances())
