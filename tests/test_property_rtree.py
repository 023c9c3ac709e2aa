"""Property-based tests for the R-tree: structural invariants and search exactness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from snapshot_invariants import assert_valid_snapshot
from traversal_reference import best_first_nearest, incremental_nearest

from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay

coordinate = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32)
point_list = st.lists(
    st.tuples(coordinate, coordinate), min_size=1, max_size=120
).map(lambda rows: np.array(rows, dtype=np.float64))


class TestStructuralInvariants:
    @given(
        points=point_list,
        capacity=st.integers(4, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_loaded_tree_is_valid_and_complete(self, points, capacity):
        tree = FlatRTree.bulk_load(points, capacity=capacity)
        assert_valid_snapshot(tree)
        assert sorted(tree.record_ids.tolist()) == list(range(len(points)))

    @given(points=point_list)
    @settings(max_examples=40, deadline=None)
    def test_incrementally_built_tree_is_valid(self, points):
        """Every record inserted through the overlay of an empty base
        lands in the compacted snapshot, under the id it was given."""
        overlay = DeltaOverlay(FlatRTree.bulk_load(np.zeros((0, 2)), capacity=6))
        for record_id, point in enumerate(points):
            overlay.insert(point, record_id)
        tree = overlay.compact()
        assert_valid_snapshot(tree)
        assert len(tree) == len(points)
        assert tree.generation == 1
        recovered, ids = tree.live_points()
        assert np.array_equal(recovered, points)
        assert ids.tolist() == list(range(len(points)))

    @given(points=point_list, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_tree_remains_valid_after_random_deletions(self, points, data):
        overlay = DeltaOverlay(FlatRTree.bulk_load(points, capacity=6))
        count = len(points)
        victims = data.draw(
            st.lists(st.integers(min_value=0, max_value=count - 1), max_size=count, unique=True)
        )
        for record_id in victims:
            assert overlay.delete(points[record_id], record_id)
        assert len(overlay) == count - len(victims)
        tree = overlay.compact()
        assert_valid_snapshot(tree)
        # The snapshot compacted after the mutation batch answers for the
        # surviving records only.
        stream = list(incremental_nearest(tree, points[0]))
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

    @given(points=point_list, query=st.tuples(coordinate, coordinate), k=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_knn_distances_match_linear_scan(self, points, query, k):
        tree = FlatRTree.bulk_load(points, capacity=8)
        query = np.array(query, dtype=np.float64)
        found = [n.distance for n in best_first_nearest(tree, query, k=k)]
        expected = np.sort(np.linalg.norm(points - query, axis=1))[:k]
        assert np.allclose(found, expected, rtol=0, atol=1e-6)
