"""Property-based tests for the GNN algorithms.

The central invariant of the whole reproduction: every algorithm of the
paper returns exactly the same k distances as the brute-force scan, for
arbitrary data points, query groups and k.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import aggregate_gnn
from repro.core.bruteforce import brute_force_gnn
from repro.core.fmbm import fmbm
from repro.core.fmqm import fmqm
from repro.core.gcp import gcp
from repro.core.mbm import mbm
from repro.core.mqm import mqm
from repro.core.spm import spm
from repro.core.types import GroupQuery
from repro.rtree.flat import FlatRTree
from repro.storage.pointfile import PointFile

coordinate = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32)


def array_strategy(min_count, max_count):
    return st.lists(
        st.tuples(coordinate, coordinate), min_size=min_count, max_size=max_count
    ).map(lambda rows: np.array(rows, dtype=np.float64))


class TestMemoryAlgorithmsMatchBruteForce:
    @given(
        data=array_strategy(1, 80),
        group=array_strategy(1, 10),
        k=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_mqm_spm_mbm_agree_with_bruteforce(self, data, group, k):
        tree = FlatRTree.bulk_load(data, capacity=8)
        expected = brute_force_gnn(data, GroupQuery(group, k=k)).distances()
        for algorithm in (mqm, spm, mbm):
            result = algorithm(tree, GroupQuery(group, k=k))
            assert result.distances() == pytest.approx(expected), algorithm.__name__

    @given(
        data=array_strategy(1, 60),
        group=array_strategy(1, 8),
        k=st.integers(min_value=1, max_value=3),
        aggregate=st.sampled_from(["sum", "max", "min"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_aggregate_best_first_matches_bruteforce(self, data, group, k, aggregate):
        tree = FlatRTree.bulk_load(data, capacity=8)
        query = GroupQuery(group, k=k, aggregate=aggregate)
        expected = brute_force_gnn(data, GroupQuery(group, k=k, aggregate=aggregate))
        assert aggregate_gnn(tree, query).distances() == pytest.approx(expected.distances())


class TestDiskAlgorithmsMatchBruteForce:
    @given(
        data=array_strategy(2, 60),
        queries=array_strategy(2, 40),
        k=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_fmqm_and_fmbm_agree_with_bruteforce(self, data, queries, k):
        tree = FlatRTree.bulk_load(data, capacity=8)
        expected = brute_force_gnn(data, GroupQuery(queries, k=k)).distances()
        for algorithm in (fmqm, fmbm):
            query_file = PointFile(queries, points_per_page=4, block_pages=2)
            result = algorithm(tree, query_file, k=k)
            assert result.distances() == pytest.approx(expected), algorithm.__name__

    @given(
        data=array_strategy(2, 40),
        queries=array_strategy(2, 25),
        k=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_gcp_agrees_with_bruteforce(self, data, queries, k):
        data_tree = FlatRTree.bulk_load(data, capacity=8)
        query_tree = FlatRTree.bulk_load(queries, capacity=8)
        expected = brute_force_gnn(data, GroupQuery(queries, k=k)).distances()
        result = gcp(data_tree, query_tree, k=k)
        assert result.distances() == pytest.approx(expected)
