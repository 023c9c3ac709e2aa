"""Property-based tests for the R-tree: structural invariants and search exactness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.mbr import MBR
from repro.rtree.flat import FlatRTree
from repro.rtree.traversal import best_first_nearest, incremental_nearest
from repro.rtree.tree import RTree

coordinate = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32)
point_list = st.lists(
    st.tuples(coordinate, coordinate), min_size=1, max_size=120
).map(lambda rows: np.array(rows, dtype=np.float64))


class TestStructuralInvariants:
    @given(points=point_list)
    @settings(max_examples=60, deadline=None)
    def test_bulk_loaded_tree_is_valid_and_complete(self, points):
        tree = RTree.bulk_load(points, capacity=8)
        tree.validate()
        stored = sorted(record_id for record_id, _ in tree.all_points())
        assert stored == list(range(len(points)))

    @given(points=point_list)
    @settings(max_examples=40, deadline=None)
    def test_incrementally_built_tree_is_valid(self, points):
        tree = RTree(capacity=6)
        for point in points:
            tree.insert(point)
        tree.validate()
        assert len(tree) == len(points)

    @given(points=point_list, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_tree_remains_valid_after_random_deletions(self, points, data):
        tree = RTree(capacity=6)
        for point in points:
            tree.insert(point)
        count = len(points)
        delete_count = data.draw(st.integers(min_value=0, max_value=count))
        victims = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=count - 1),
                min_size=delete_count,
                max_size=delete_count,
                unique=True,
            )
        )
        for record_id in victims:
            assert tree.delete(points[record_id], record_id)
        assert len(tree) == count - len(victims)
        tree.validate()
        # The snapshot taken after the mutation batch answers for the
        # surviving records only.
        stream = list(incremental_nearest(FlatRTree.from_tree(tree), points[0]))
        assert sorted(n.record_id for n in stream) == sorted(set(range(count)) - set(victims))
        assert [n.distance for n in stream] == sorted(n.distance for n in stream)


class TestSearchExactness:
    @given(points=point_list, query=st.tuples(coordinate, coordinate))
    @settings(max_examples=60, deadline=None)
    def test_best_first_nn_matches_linear_scan(self, points, query):
        tree = FlatRTree.bulk_load(points, capacity=8)
        query = np.array(query, dtype=np.float64)
        result = best_first_nearest(tree, query, k=1)[0]
        expected = np.min(np.linalg.norm(points - query, axis=1))
        assert result.distance == np.float64(expected) or abs(result.distance - expected) < 1e-6

    @given(points=point_list, query=st.tuples(coordinate, coordinate))
    @settings(max_examples=40, deadline=None)
    def test_incremental_stream_is_sorted_permutation(self, points, query):
        tree = FlatRTree.bulk_load(points, capacity=8)
        stream = list(incremental_nearest(tree, np.array(query, dtype=np.float64)))
        distances = [n.distance for n in stream]
        assert distances == sorted(distances)
        assert sorted(n.record_id for n in stream) == list(range(len(points)))

    @given(
        points=point_list,
        low=st.tuples(coordinate, coordinate),
        high=st.tuples(coordinate, coordinate),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_search_matches_linear_scan(self, points, low, high):
        region = MBR(np.minimum(low, high), np.maximum(low, high))
        tree = RTree.bulk_load(points, capacity=8)
        found = {entry.record_id for entry in tree.range_search(region)}
        expected = {i for i, p in enumerate(points) if region.contains_point(p)}
        assert found == expected
