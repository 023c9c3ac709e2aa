"""Property-based conformance suite for the vectorised kernel layer.

Every kernel in :mod:`repro.geometry.kernels` must agree bit for bit
with the scalar helper it accelerates across dimensionalities 1-7 (the
range the kernel module's bit-identity rule covers), singleton and
larger groups, empty and non-empty candidate arrays, and weighted
sum/max/min aggregates — the guarantee that lets the R-tree traversals
score whole leaves per heap pop without changing a single answer.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from geometry_reference import mindist_mbr, mindist_point, mindist_points
from hypothesis import strategies as st
from mbm_reference import (
    batched_aggregate_distances,
    boxes_group_tangent_bound,
    stacked_tangent_bounds,
)

from repro.core.centroid import weiszfeld_centroid
from repro.geometry import kernels
from repro.geometry.distance import (
    euclidean,
    group_distance,
    group_mindist,
    squared_euclidean,
)
from repro.geometry.mbr import MBR
from repro.geometry.point import GeometryError

coordinate = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=32
)
#: Up to seven axes NumPy's ``np.sum`` adds squared differences in order,
#: as the per-axis kernels do, so kernel and scalar helper agree exactly.
dims_strategy = st.integers(min_value=1, max_value=7)


def weight_vector(draw, n):
    """``n`` non-negative weights, not all zero (an all-zero vector is refused)."""
    weights = draw(st.lists(st.floats(0.0, 10.0, width=32), min_size=n, max_size=n))
    if not any(weights):
        weights[0] = 1.0
    return np.array(weights)


@st.composite
def workload(draw, min_candidates=0, max_candidates=10, min_group=1, max_group=8):
    """Draw (candidate points, query group, weights) of one dimensionality."""
    dims = draw(dims_strategy)

    def point_list(min_count, max_count):
        return draw(
            st.lists(
                st.tuples(*[coordinate] * dims), min_size=min_count, max_size=max_count
            )
        )

    candidates = np.array(point_list(min_candidates, max_candidates), dtype=np.float64)
    candidates = candidates.reshape(-1, dims)
    group = np.array(point_list(min_group, max_group), dtype=np.float64)
    return candidates, group, weight_vector(draw, group.shape[0])


@st.composite
def boxes_and_group(draw, max_boxes=8, min_group=1, max_group=8):
    """Draw (box lows, box highs, query group, weights) of one dimensionality."""
    dims = draw(dims_strategy)
    corners = draw(
        st.lists(
            st.tuples(st.tuples(*[coordinate] * dims), st.tuples(*[coordinate] * dims)),
            min_size=1,
            max_size=max_boxes,
        )
    )
    a = np.array([pair[0] for pair in corners], dtype=np.float64)
    b = np.array([pair[1] for pair in corners], dtype=np.float64)
    lows, highs = np.minimum(a, b), np.maximum(a, b)
    group = np.array(
        draw(st.lists(st.tuples(*[coordinate] * dims), min_size=min_group, max_size=max_group)),
        dtype=np.float64,
    )
    return lows, highs, group, weight_vector(draw, group.shape[0])


def _close(a, b):
    return np.allclose(a, b, rtol=1e-9, atol=1e-9)


def _same(a, b):
    return np.array_equal(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


class TestAggregateDistanceKernels:
    @given(data=workload(), aggregate=st.sampled_from(kernels.AGGREGATES))
    @settings(max_examples=150, deadline=None)
    def test_aggregate_distances_match_scalar_helper(self, data, aggregate):
        candidates, group, _ = data
        bulk = kernels.aggregate_distances(candidates, group, aggregate=aggregate)
        assert bulk.shape == (candidates.shape[0],)
        scalar = [group_distance(p, group, aggregate=aggregate) for p in candidates]
        assert _same(bulk, scalar)

    @given(data=workload(), aggregate=st.sampled_from(kernels.AGGREGATES))
    @settings(max_examples=150, deadline=None)
    def test_weighted_aggregates_match_scalar_helper(self, data, aggregate):
        candidates, group, weights = data
        bulk = kernels.aggregate_distances(
            candidates, group, weights=weights, aggregate=aggregate
        )
        scalar = [
            group_distance(p, group, weights=weights, aggregate=aggregate) for p in candidates
        ]
        assert _same(bulk, scalar)

    @given(data=workload(min_candidates=1))
    @settings(max_examples=100, deadline=None)
    def test_point_distances_match_euclidean(self, data):
        candidates, group, _ = data
        q = group[0]
        assert _same(
            kernels.point_distances(candidates, q), [euclidean(p, q) for p in candidates]
        )

    @given(data=workload(min_candidates=1))
    @settings(max_examples=100, deadline=None)
    def test_pairwise_matrix_columns_match_point_kernel(self, data):
        # The multi-stream MQM frontier reads stream i's leaf keys from
        # column i of one matrix.
        candidates, group, _ = data
        matrix = kernels.pairwise_distances(candidates, group)
        for i, q in enumerate(group):
            assert _same(matrix[:, i], kernels.point_distances(candidates, q))

    @given(data=workload(min_candidates=1, max_candidates=6), aggregate=st.sampled_from(kernels.AGGREGATES))
    @settings(max_examples=75, deadline=None)
    def test_batched_tensor_matches_per_group_kernel(self, data, aggregate):
        candidates, group, _ = data
        groups = np.stack([group, group + 1.0])
        batched = batched_aggregate_distances(candidates, groups, aggregate)
        for row, one_group in zip(batched, groups):
            expected = kernels.aggregate_distances(candidates, one_group, aggregate=aggregate)
            assert np.array_equal(row, expected)

    def test_empty_candidate_array(self):
        group = np.array([[1.0, 2.0], [3.0, 4.0]])
        empty = np.empty((0, 2))
        assert kernels.aggregate_distances(empty, group).shape == (0,)
        assert kernels.point_distances(empty, group[0]).shape == (0,)

    def test_singleton_group(self):
        group = np.array([[1.0, 2.0]])
        candidates = np.array([[4.0, 6.0], [1.0, 2.0]])
        for aggregate in kernels.AGGREGATES:
            assert _close(
                kernels.aggregate_distances(candidates, group, aggregate=aggregate),
                [5.0, 0.0],
            )

    def test_unknown_aggregate_and_metric_rejected(self):
        pts = np.zeros((2, 2))
        with pytest.raises(ValueError):
            kernels.aggregate_distances(pts, pts, aggregate="median")
        # Euclidean is the only metric: there is no option to name another.
        with pytest.raises(TypeError):
            kernels.pairwise_distances(pts, pts, metric="cosine")


class TestBoxKernels:
    @given(data=boxes_and_group(), aggregate=st.sampled_from(kernels.AGGREGATES))
    @settings(max_examples=150, deadline=None)
    def test_boxes_group_mindist_matches_scalar_helper(self, data, aggregate):
        lows, highs, group, weights = data
        bulk = kernels.boxes_group_mindist(lows, highs, group, aggregate=aggregate)
        scalar = [
            group_mindist(MBR(low, high), group, aggregate=aggregate)
            for low, high in zip(lows, highs)
        ]
        assert _same(bulk, scalar)
        weighted = kernels.boxes_group_mindist(
            lows, highs, group, weights=weights, aggregate=aggregate
        )
        scalar_weighted = [
            group_mindist(MBR(low, high), group, weights=weights, aggregate=aggregate)
            for low, high in zip(lows, highs)
        ]
        assert _same(weighted, scalar_weighted)

    @given(data=boxes_and_group())
    @settings(max_examples=100, deadline=None)
    def test_boxes_mindist_point_matches_mbr(self, data):
        lows, highs, group, _ = data
        q = group[0]
        bulk = kernels.boxes_mindist_point(lows, highs, q)
        scalar = [mindist_point(MBR(low, high), q) for low, high in zip(lows, highs)]
        assert _same(bulk, scalar)

    @given(data=boxes_and_group(min_group=2))
    @settings(max_examples=100, deadline=None)
    def test_points_mindist_box_matches_mbr(self, data):
        lows, highs, group, _ = data
        box = MBR(lows[0], highs[0])
        bulk = kernels.points_mindist_box(group, box.low, box.high)
        assert _same(bulk, mindist_points(box, group))

    @given(data=boxes_and_group())
    @settings(max_examples=100, deadline=None)
    def test_boxes_mindist_box_matches_mbr(self, data):
        lows, highs, group, _ = data
        other = MBR.from_points(group)
        bulk = kernels.boxes_mindist_box(lows, highs, other.low, other.high)
        scalar = [mindist_mbr(MBR(low, high), other) for low, high in zip(lows, highs)]
        assert _same(bulk, scalar)

    @given(data=st.data(), dims=st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_a_degenerate_box_is_its_point_bit_for_bit(self, data, dims):
        # SPM runs MBM's loop with Heuristic 1's key, ``n * mindist(., [c, c])
        # - dist(c, Q)``: its keys are the point kernels' only while these agree.
        def rows(count):
            cells = data.draw(st.lists(coordinate, min_size=count * dims, max_size=count * dims))
            return np.array(cells, dtype=np.float64).reshape(count, dims)

        count = data.draw(st.integers(1, 8))
        a, b, points, (c,) = rows(count), rows(count), rows(count), rows(1)
        lows, highs = np.minimum(a, b), np.maximum(a, b)
        boxes = kernels.boxes_mindist_box(lows, highs, c, c)
        assert boxes.tobytes() == kernels.boxes_mindist_point(lows, highs, c).tobytes()
        assert kernels.points_mindist_box(points, c, c).tobytes() == (
            kernels.point_distances(points, c).tobytes()
        )

    @given(data=boxes_and_group())
    @settings(max_examples=100, deadline=None)
    def test_weighted_summary_kernels_match_explicit_sum(self, data):
        lows, highs, group, _ = data
        cards = np.arange(1.0, lows.shape[0] + 1.0)
        boxes = [MBR(low, high) for low, high in zip(lows, highs)]
        target = MBR.from_points(group)
        bulk = kernels.boxes_weighted_group_mindist(
            target.low[None, :], target.high[None, :], lows, highs, cards
        )
        expected = sum(c * mindist_mbr(target, box) for c, box in zip(cards, boxes))
        assert _close(bulk[0], expected)
        point_terms = kernels.points_weighted_mindists(group, lows, highs, cards)
        point_expected = [[c * mindist_point(box, q) for c, box in zip(cards, boxes)] for q in group]
        assert _same(point_terms, point_expected)


class TestScalarWrapperFastPath:
    """Regression tests for the already-ndarray fast path (satellite fix)."""

    @given(
        pair=st.tuples(
            st.tuples(coordinate, coordinate, coordinate),
            st.tuples(coordinate, coordinate, coordinate),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_fast_and_validating_paths_agree(self, pair):
        a_list, b_list = list(pair[0]), list(pair[1])
        a_arr = np.array(a_list, dtype=np.float64)
        b_arr = np.array(b_list, dtype=np.float64)
        # list input takes the validating path, float64 arrays the fast path
        assert euclidean(a_list, b_list) == euclidean(a_arr, b_arr)
        assert squared_euclidean(a_list, b_list) == squared_euclidean(a_arr, b_arr)

    def test_fast_path_preserves_validation_for_bad_input(self):
        good = np.array([1.0, 2.0])
        with pytest.raises(GeometryError):
            euclidean(good, [1.0, np.nan])
        # non-finite float64 arrays must NOT slip through the fast path
        with pytest.raises(GeometryError):
            euclidean(good, np.array([1.0, np.nan]))
        with pytest.raises(GeometryError):
            group_distance(np.array([0.0, np.inf]), np.array([[1.0, 2.0]]))
        with pytest.raises(GeometryError):
            group_distance(np.array([0.0, 1.0]), np.array([[1.0, np.nan]]))
        with pytest.raises(GeometryError):
            euclidean(good, np.array([1.0, 2.0, 3.0]))  # dims mismatch
        with pytest.raises(GeometryError):
            euclidean(np.array([]), np.array([]))
        with pytest.raises(GeometryError):
            squared_euclidean(good, np.array([[1.0, 2.0]]))  # not a single point
        # non-float64 arrays flow through the validating path
        assert euclidean(np.array([0, 0]), np.array([3, 4])) == 5.0

    def test_group_wrapper_fast_path_agrees_with_validating_path(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-10, 10, size=(12, 3))
        group = rng.uniform(-10, 10, size=(4, 3))
        fast = [group_distance(p, group) for p in pts]
        validating = [group_distance(p.tolist(), group.tolist()) for p in pts]
        assert fast == validating


class TestBitIdentityHotPath:
    """The 2-D hot path must be *bit*-identical, not just close."""

    def test_leaf_scoring_matches_scalar_loop_exactly(self):
        rng = np.random.default_rng(42)
        leaf = rng.uniform(0, 1000, size=(50, 2))
        group = rng.uniform(0, 1000, size=(64, 2))
        bulk = kernels.aggregate_distances(leaf, group)
        scalar = np.array([group_distance(p, group) for p in leaf])
        assert np.array_equal(bulk, scalar)

    def test_box_scoring_matches_scalar_loop_exactly(self):
        rng = np.random.default_rng(43)
        a = rng.uniform(0, 1000, size=(50, 2))
        b = rng.uniform(0, 1000, size=(50, 2))
        lows, highs = np.minimum(a, b), np.maximum(a, b)
        group = rng.uniform(0, 1000, size=(64, 2))
        bulk = kernels.boxes_group_mindist(lows, highs, group)
        scalar = np.array(
            [group_mindist(MBR(low, high), group) for low, high in zip(lows, highs)]
        )
        assert np.array_equal(bulk, scalar)
        q = group[0]
        assert np.array_equal(
            kernels.boxes_mindist_point(lows, highs, q),
            [mindist_point(MBR(low, high), q) for low, high in zip(lows, highs)],
        )


class TestBatchKernels:
    """The ``(B, ·)`` batch kernels must be row-identical per query.

    Each batch kernel claims its row ``b`` equals the corresponding
    per-query kernel against ``groups[b]`` *bit for bit* — the property
    that lets the shared-traversal batch path and the multi-stream MQM
    frontier reuse one kernel call for many queries without changing a
    single answer.
    """

    @staticmethod
    def _stack(group, batch):
        """``batch`` shifted copies of ``group`` (same cardinality/dims)."""
        return np.stack([group + 0.37 * b for b in range(batch)])

    @given(data=workload(min_candidates=1), batch=st.integers(min_value=1, max_value=4))
    @settings(deadline=None, max_examples=40)
    def test_batched_aggregates_match_per_group_rows(self, data, batch):
        candidates, group, _ = data
        groups = self._stack(group, batch)
        stacked = batched_aggregate_distances(candidates, groups)
        for b in range(batch):
            assert np.array_equal(
                stacked[b], kernels.aggregate_distances(candidates, groups[b])
            )

    @given(data=boxes_and_group(), batch=st.integers(min_value=1, max_value=4))
    @settings(deadline=None, max_examples=40)
    def test_batched_box_kernels_match_per_query_rows(self, data, batch):
        lows, highs, group, _ = data
        groups = self._stack(group, batch)
        query_lows = groups.min(axis=1)
        query_highs = groups.max(axis=1)
        mindists = kernels.boxes_mindist_boxes(lows, highs, query_lows, query_highs)
        bounds = kernels.boxes_group_mindist(lows[None], highs[None], groups)
        anchors = groups.mean(axis=1)
        tangents = stacked_tangent_bounds(lows, highs, groups, anchors)
        for b in range(batch):
            assert np.array_equal(
                mindists[b],
                kernels.boxes_mindist_box(lows, highs, query_lows[b], query_highs[b]),
            )
            assert np.array_equal(
                bounds[b], kernels.boxes_group_mindist(lows, highs, groups[b])
            )
            assert np.array_equal(
                tangents[b], boxes_group_tangent_bound(lows, highs, groups[b], anchors[b])
            )

    @given(data=boxes_and_group(), batch=st.integers(min_value=1, max_value=4))
    @settings(deadline=None, max_examples=40)
    def test_pair_stacks_match_per_query_rows(self, data, batch):
        # A stack of (member, child) pairs: pair p is box
        # ``lows[p]`` against group ``groups[p]``.
        lows, highs, group, _ = data
        groups = self._stack(group, batch)
        pairs = np.arange(len(lows)) % batch
        stacked = groups[pairs]
        bounds = kernels.boxes_group_mindist(lows[:, None, :], highs[:, None, :], stacked)
        for p, member in enumerate(pairs):
            box = slice(p, p + 1)
            assert np.array_equal(
                bounds[p], kernels.boxes_group_mindist(lows[box], highs[box], groups[member])
            )

    @given(data=boxes_and_group())
    @settings(deadline=None, max_examples=40)
    def test_boxes_mindist_points_rows_match_per_point_kernel(self, data):
        lows, highs, group, _ = data
        matrix = kernels.boxes_mindist_points(lows, highs, group)
        for i, point in enumerate(group):
            assert np.array_equal(
                matrix[i], kernels.boxes_mindist_point(lows, highs, point)
            )


class TestProbeAdapter:
    """``Scorer2D`` survives only for gnnbench's probes; it must time the general kernels."""

    def test_methods_equal_the_general_kernels(self):
        rng = np.random.default_rng(77)
        group = rng.uniform(0, 1000, size=(64, 2))
        points = rng.uniform(0, 1000, size=(50, 2))
        lows = rng.uniform(0, 900, size=(50, 2))
        highs = lows + rng.uniform(0, 120, size=lows.shape)
        adapter = kernels.Scorer2D(group, 50)
        assert np.array_equal(
            adapter.group_sum_distances(points), kernels.aggregate_distances(points, group)
        )
        assert np.array_equal(
            adapter.boxes_group_sum_mindist(lows, highs),
            kernels.boxes_group_mindist(lows, highs, group),
        )


@st.composite
def tangent_case(draw):
    """Draw (lows, highs, group, weights, anchor) with the degenerate shapes mixed in."""
    dims = draw(st.sampled_from([2, 3, 5]))
    point = st.tuples(*[coordinate] * dims)
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        group = np.array(draw(st.lists(point, min_size=n, max_size=n)), dtype=np.float64)
    else:  # all-coincident group
        group = np.tile(np.array(draw(point), dtype=np.float64), (n, 1))
    weights = None
    if draw(st.booleans()):
        weights = np.array(
            draw(st.lists(st.floats(0.0, 10.0, width=32), min_size=n, max_size=n))
        )
    corners = np.array(
        draw(st.lists(st.tuples(point, point), min_size=1, max_size=6)), dtype=np.float64
    )
    lows, highs = corners.min(axis=1), corners.max(axis=1)
    shape = draw(st.sampled_from(["free", "zero-extent", "around the group"]))
    if shape == "zero-extent":
        highs = lows.copy()
    elif shape == "around the group":
        lows = np.minimum(lows, group.min(axis=0))
        highs = np.maximum(highs, group.max(axis=0))
    anchor = draw(
        st.sampled_from(
            [
                weiszfeld_centroid(group, max_iterations=3, weights=weights),
                group[draw(st.integers(0, n - 1))],  # exactly on a query point
                np.array(draw(point), dtype=np.float64),  # any point is a sound anchor
            ]
        )
    )
    fractions = np.array(
        draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * dims), min_size=1, max_size=6))
    )
    return lows, highs, group, weights, anchor, fractions


class TestTangentBound:
    """A box's tangent plane never exceeds a computed distance inside the box.

    ``boxes_group_tangent_bound`` (``tests/mbm_reference.py``) is the
    plane minimised over its own box; MBM also minimises it over the
    box's children and points.
    """

    @given(case=tangent_case())
    @settings(deadline=None, max_examples=300)
    def test_never_exceeds_the_distance_of_a_point_in_the_box(self, case):
        lows, highs, group, weights, anchor, fractions = case
        bounds = boxes_group_tangent_bound(lows, highs, group, anchor, weights)
        dims = group.shape[1]
        corners = np.array(list(itertools.product([0.0, 1.0], repeat=dims)))
        for low, high, bound in zip(lows, highs, bounds):
            inside = np.vstack(
                [
                    low + np.vstack([fractions, corners]) * (high - low),
                    np.clip(group, low, high),
                    np.clip(anchor, low, high)[None, :],
                ]
            )
            inside = np.clip(inside, low, high)  # low + 1.0 * (high - low) may round out
            distances = kernels.aggregate_distances(inside, group, weights=weights)
            assert np.all(bound <= distances), (bound, distances.min())

    @given(case=tangent_case())
    @settings(deadline=None, max_examples=300)
    def test_a_parents_plane_never_exceeds_a_distance_inside_it(self, case):
        # MBM pre-keys a read node's children, and a leaf's points, by the
        # node's own plane: it must stay below every child box and point.
        lows, highs, group, weights, anchor, fractions = case
        values, gradients, origins = kernels.group_tangent_planes(
            lows, highs, group, anchor, weights
        )
        dims = group.shape[1]
        unit = np.vstack([fractions, np.array(list(itertools.product([0.0, 1.0], repeat=dims)))])
        for row, (low, high) in enumerate(zip(lows, highs)):
            plane = values[row], gradients[row], origins[row]
            inside = np.vstack(
                [low + unit * (high - low), np.clip(group, low, high), origins[row][None, :]]
            )
            inside = np.clip(inside, low, high)  # low + 1.0 * (high - low) may round out
            at_points = kernels.plane_lower_bounds(*plane, inside, inside)
            distances = kernels.aggregate_distances(inside, group, weights=weights)
            assert np.all(at_points <= distances), (at_points - distances).max()
            # child boxes spanned by pairs of those points
            pairs = np.array(list(itertools.combinations(range(len(inside)), 2))[:40])
            child_lows = np.minimum(inside[pairs[:, 0]], inside[pairs[:, 1]])
            child_highs = np.maximum(inside[pairs[:, 0]], inside[pairs[:, 1]])
            bounds = kernels.plane_lower_bounds(*plane, child_lows, child_highs)
            for child_low, child_high, bound in zip(child_lows, child_highs, bounds):
                points = np.clip(child_low + unit * (child_high - child_low), child_low, child_high)
                assert np.all(bound <= kernels.aggregate_distances(points, group, weights=weights))

    def test_tight_at_the_box_nearest_the_median(self):
        # Anchored at the constrained minimiser the tangent plane is exact;
        # the paper's sum of mindists lets every q_i pick its own corner.
        group = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
        anchor = weiszfeld_centroid(group)
        lows, highs = np.array([[4.0, 20.0]]), np.array([[6.0, 22.0]])
        tangent = boxes_group_tangent_bound(lows, highs, group, anchor)[0]
        true_minimum = kernels.aggregate_distances(
            np.array([[anchor[0], 20.0]]), group
        )[0]
        assert kernels.boxes_group_mindist(lows, highs, group)[0] < tangent <= true_minimum
        assert tangent == pytest.approx(true_minimum, rel=1e-6)
