"""Structural invariants of bulk-loaded snapshots, and their accounting.

Whatever the capacity, dimensionality or degeneracy of the
input, ``FlatRTree.bulk_load`` must produce a balanced R-tree in
breadth-first layout whose node rows are the tight MBRs of what they
hold (:func:`snapshot_invariants.assert_valid_snapshot`), with the
levels above the leaves packed full.  Traversals over a snapshot charge
one node access per node read, and an LRU buffer shared between
snapshots never confuses their pages.
"""

import math

import numpy as np
import pytest
from snapshot_invariants import assert_valid_snapshot, level_widths
from traversal_reference import as_tuple, best_first_nearest, incremental_nearest

from repro.api.spec import QuerySpec
from repro.core.engine import GNNEngine
from repro.core.types import QueryCost
from repro.datasets.real_like import pp_like
from repro.rtree.flat import FlatRTree
from repro.storage.buffer import LRUBuffer

#: STR tiles every axis: each structural check runs in 2-D and 3-D.
DIMS = [2, 3]


def _uniform(seed, size, dims=2):
    return np.random.default_rng(seed).uniform(0, 100, size=(size, dims))


def _leaf_depths(flat, node=0, depth=0):
    """Depth of every leaf under ``node``, walking the child slices."""
    if flat.levels[node] == 0:
        return [depth]
    start, count = int(flat.child_start[node]), int(flat.child_count[node])
    children = range(start, start + count)
    return [d for child in children for d in _leaf_depths(flat, child, depth + 1)]


class TestBulkLoad:
    @pytest.mark.parametrize("dims", DIMS)
    def test_bulk_load_indexes_every_point(self, dims):
        points = _uniform(0, 500, dims)
        flat = FlatRTree.bulk_load(points, capacity=10)
        assert len(flat) == 500
        assert sorted(flat.record_ids.tolist()) == list(range(500))
        recovered, ids = flat.live_points()
        assert np.array_equal(recovered, points)
        assert np.array_equal(ids, np.arange(500))
        assert_valid_snapshot(flat)

    @pytest.mark.parametrize("dims", DIMS)
    def test_bulk_load_respects_capacity(self, dims):
        flat = FlatRTree.bulk_load(_uniform(1, 300, dims), capacity=8)
        assert flat.capacity == 8
        assert int(flat.child_count.max()) <= 8
        assert_valid_snapshot(flat)

    @pytest.mark.parametrize("dims", DIMS)
    def test_bulk_load_builds_balanced_tree(self, dims):
        flat = FlatRTree.bulk_load(_uniform(2, 1000, dims), capacity=10)
        depths = _leaf_depths(flat)
        assert set(depths) == {flat.height - 1}
        assert len(depths) == level_widths(flat)[0]
        assert flat.height == 3

    def test_single_point_bulk_load(self):
        flat = FlatRTree.bulk_load(np.array([[1.0, 2.0]]), capacity=8)
        assert len(flat) == 1
        assert (flat.height, flat.num_nodes) == (1, 1)
        assert_valid_snapshot(flat)
        assert [as_tuple(n) for n in incremental_nearest(flat, [4.0, 6.0])] == [(0, 5.0)]


class TestLayoutMatrix:
    """Every dimensionality × capacity is a valid snapshot whose
    internal levels hold ``capacity`` children per parent."""

    @pytest.mark.parametrize("capacity", [4, 50])
    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
    def test_snapshot_is_valid_and_packed_full(self, dims, capacity):
        points = _uniform(dims * 100 + capacity, 2000, dims)
        flat = FlatRTree.bulk_load(points, capacity=capacity)
        assert_valid_snapshot(flat)
        assert flat.dims == dims
        widths = level_widths(flat)
        for below, above in zip(widths, widths[1:]):
            assert above == math.ceil(below / capacity)
        assert widths[-1] == 1
        assert np.array_equal(flat.live_points()[0], points)


class TestEveryAxisTiled:
    """STR cuts every axis, so no leaf is a strip across a whole axis."""

    @pytest.mark.parametrize("dims", [3, 5])
    def test_no_leaf_spans_half_of_any_axis(self, dims):
        points = np.random.default_rng(dims).uniform(0, 1, size=(20_000, dims))
        flat = FlatRTree.bulk_load(points, capacity=50)
        leaves = flat.levels == 0
        spans = (flat.highs[leaves] - flat.lows[leaves]) / np.ptp(points, axis=0)
        assert np.all(spans.max(axis=0) <= 0.5), spans.max(axis=0)


class TestEveryLevelTiled:
    """STR tiles the levels above the leaves too, so level-1 nodes are not strips.

    Grouping ``capacity`` consecutive STR leaves per parent runs each
    parent up one slab and into the next: every level-1 node then spans
    the whole of the leaves' last axis (and in 3-D the last two).
    """

    @staticmethod
    def _level1_spans(points):
        flat = FlatRTree.bulk_load(points, capacity=50)
        level1 = flat.levels == 1
        return (flat.highs[level1] - flat.lows[level1]) / np.ptp(points, axis=0)

    def test_no_level1_node_spans_half_of_any_axis_in_2d(self):
        spans = self._level1_spans(pp_like(100_000))
        assert np.all(spans.max(axis=0) <= 0.5), spans.max(axis=0)

    def test_no_level1_node_spans_most_of_two_axes_in_3d(self):
        """20k uniform points pack 448 leaves into 9 parents.  Half of every
        axis is out of reach there: STR's x-slabs hold 3 parents each, and
        3 boxes under half a side each cover at most 3/4 of a slab's
        (y, z) square, so one parent per slab spans all of z.  No parent
        spans most of two axes, as every one did with consecutive parents."""
        points = np.random.default_rng(3).uniform(0, 1, size=(20_000, 3))
        spans = self._level1_spans(points)
        assert len(spans) == 9
        assert np.all((spans > 0.8).sum(axis=1) <= 1), spans


class TestLevelBoundaries:
    """On one axis STR is a single run chopped into leaves, so it fills
    every leaf and the height steps exactly when the point count passes
    a power of the capacity."""

    @pytest.mark.parametrize(
        "size,height", [(1, 1), (4, 1), (5, 2), (16, 2), (17, 3), (64, 3), (65, 4)]
    )
    def test_height_steps_at_powers_of_the_capacity(self, size, height):
        flat = FlatRTree.bulk_load(_uniform(size, size, dims=1), capacity=4)
        assert flat.height == height
        assert level_widths(flat)[0] == math.ceil(size / 4)
        assert_valid_snapshot(flat)


class TestDegenerateInput:
    @pytest.mark.parametrize("dims", DIMS)
    def test_duplicate_points_pack_without_error(self, dims):
        points = np.full((200, dims), 7.0)
        flat = FlatRTree.bulk_load(points, capacity=6)
        assert_valid_snapshot(flat)
        assert np.array_equal(flat.lows, flat.highs)  # every MBR is the one point
        assert sorted(flat.record_ids.tolist()) == list(range(200))

    @pytest.mark.parametrize("dims", DIMS)
    def test_collinear_points_pack_without_error(self, dims):
        xs = np.random.default_rng(3).uniform(0, 100, size=150)
        points = np.column_stack([(axis + 1.0) * xs + axis for axis in range(dims)])
        flat = FlatRTree.bulk_load(points, capacity=6)
        assert_valid_snapshot(flat)
        nearest = best_first_nearest(flat, points[17], k=1)[0]
        assert nearest.distance == 0.0

    def test_separated_clusters_are_not_mixed(self):
        # 16 leaves in 4 x-slabs of 16 points: the slab cut falls between them.
        rng = np.random.default_rng(4)
        near = rng.uniform(0, 1, size=(32, 2))
        far = rng.uniform(100, 101, size=(32, 2))
        flat = FlatRTree.bulk_load(np.vstack([near, far]), capacity=4)
        assert_valid_snapshot(flat)
        for node in np.flatnonzero(flat.levels == 0):
            start, count = int(flat.child_start[node]), int(flat.child_count[node])
            clusters = set((flat.record_ids[start : start + count] >= 32).tolist())
            assert len(clusters) == 1, node


class TestEmptySnapshot:
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_empty_snapshot_properties(self, dims):
        flat = FlatRTree.bulk_load(np.zeros((0, dims)))
        assert len(flat) == 0
        assert (flat.dims, flat.height, flat.num_nodes) == (dims, 1, 1)
        assert_valid_snapshot(flat)
        assert list(incremental_nearest(flat, np.zeros(dims))) == []
        assert best_first_nearest(flat, np.zeros(dims), k=3) == []
        points, ids = flat.live_points()
        assert points.shape == (0, dims) and ids.shape == (0,)


class TestAccessAccounting:
    @pytest.mark.parametrize("dims", DIMS)
    def test_full_stream_reads_every_node_once(self, dims):
        flat = FlatRTree.bulk_load(_uniform(11, 400, dims), capacity=10)
        cost = QueryCost()
        assert len(list(incremental_nearest(flat, np.full(dims, 50.0), cost))) == 400
        assert cost.node_accesses == flat.num_nodes
        assert cost.leaf_accesses == level_widths(flat)[0]

    def test_selective_search_touches_few_nodes(self):
        flat = FlatRTree.bulk_load(_uniform(12, 2000), capacity=20)
        cost = QueryCost()
        next(incremental_nearest(flat, [50.5, 50.5], cost))  # best_first_nearest, k = 1
        assert cost.node_accesses < flat.num_nodes / 4

    def test_read_node_charges_leaves_separately(self):
        flat = FlatRTree.bulk_load(_uniform(13, 100), capacity=10)
        leaf = int(np.flatnonzero(flat.levels == 0)[0])
        cost = QueryCost()
        assert flat.read_node(0, cost) == 0
        assert flat.read_node(leaf, cost) == leaf
        assert (cost.node_accesses, cost.leaf_accesses) == (2, 1)
        assert cost.page_faults == 2  # no buffer: every read faults

    def test_a_read_without_a_record_is_not_counted_but_warms_the_buffer(self):
        flat = FlatRTree.bulk_load(_uniform(14, 300), capacity=10, buffer=LRUBuffer(1000))
        list(incremental_nearest(flat, [10.0, 90.0]))
        cost = QueryCost()
        list(incremental_nearest(flat, [10.0, 90.0], cost))
        assert cost.node_accesses == flat.num_nodes
        assert cost.page_faults == 0


class TestBufferIntegration:
    def test_buffer_hits_reduce_page_faults(self):
        flat = FlatRTree.bulk_load(_uniform(13, 500), capacity=10, buffer=LRUBuffer(10_000))
        cost = QueryCost()
        list(incremental_nearest(flat, [50.0, 50.0], cost))
        first_faults = cost.page_faults
        assert first_faults == flat.num_nodes
        list(incremental_nearest(flat, [50.0, 50.0], cost))
        assert cost.page_faults == first_faults  # second pass fully buffered
        assert cost.node_accesses == 2 * first_faults

    def test_a_buffer_smaller_than_the_tree_faults_again(self):
        flat = FlatRTree.bulk_load(_uniform(15, 500), capacity=10, buffer=LRUBuffer(4))
        cost = QueryCost()
        list(incremental_nearest(flat, [50.0, 50.0], cost))
        first_faults = cost.page_faults
        list(incremental_nearest(flat, [50.0, 50.0], cost))
        assert cost.page_faults > first_faults

    def test_snapshots_sharing_a_buffer_never_hit_each_others_pages(self):
        points = _uniform(16, 300)
        shared = LRUBuffer(10_000)
        first = FlatRTree.bulk_load(points, capacity=10, buffer=shared)
        second = FlatRTree.bulk_load(points, capacity=10, buffer=shared)
        assert not set(first.node_ids.tolist()) & set(second.node_ids.tolist())
        list(incremental_nearest(first, [50.0, 50.0]))
        cost = QueryCost()
        list(incremental_nearest(second, [50.0, 50.0], cost))
        assert cost.page_faults == second.num_nodes  # identical tree, cold pages

    def test_a_compacted_generation_gets_fresh_page_ids(self):
        points = _uniform(17, 400)
        engine = GNNEngine(points, capacity=10, buffer_pages=256)
        spec = QuerySpec(group=[[20.0, 20.0], [60.0, 70.0]], k=3)
        engine.execute(spec)
        old_pages = set(engine.flat.node_ids.tolist())
        engine.insert([50.0, 50.0])
        compacted = engine.compact()
        assert compacted.buffer is engine.buffer
        assert not old_pages & set(compacted.node_ids.tolist())
        assert_valid_snapshot(compacted)


class TestRootMbr:
    @pytest.mark.parametrize("dims", DIMS)
    def test_root_mbr_is_the_tight_box_of_the_points(self, dims):
        points = _uniform(18, 700, dims)
        low, high = FlatRTree.bulk_load(points, capacity=12).root_mbr()
        assert np.array_equal(low, points.min(axis=0))
        assert np.array_equal(high, points.max(axis=0))

    def test_root_mbr_returns_copies(self):
        flat = FlatRTree.bulk_load(_uniform(19, 50), capacity=8)
        low, high = flat.root_mbr()
        low[:] = -1.0
        high[:] = -1.0
        assert np.all(flat.lows[0] >= 0.0) and np.all(flat.highs[0] >= 0.0)


class TestRepr:
    def test_repr_mentions_the_shape(self):
        flat = FlatRTree.bulk_load(_uniform(20, 500), capacity=10)
        assert repr(flat) == f"FlatRTree(size=500, dims=2, height=3, nodes={flat.num_nodes})"

    def test_repr_marks_a_memory_mapped_snapshot(self, tmp_path):
        path = tmp_path / "snapshot.npz"
        FlatRTree.bulk_load(_uniform(21, 200), capacity=10).save(path)
        assert repr(FlatRTree.load(path, mmap_mode="r")).endswith(", mmap)")
        assert "mmap" not in repr(FlatRTree.load(path))
