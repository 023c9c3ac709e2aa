"""Correctness tests for the memory-resident algorithms: MQM, SPM, MBM.

Every algorithm is validated against the brute-force baseline over a
diverse set of query groups (the ``query_groups`` fixture) and against
the paper's qualitative claims about their costs.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mbm_reference import mbm_batch_reference, mbm_reference
from spm_reference import spm_reference

from repro import GNNEngine, QuerySpec
from repro.core.aggregates import aggregate_gnn
from repro.core.bruteforce import brute_force_gnn
from repro.core.centroid import compute_centroid, weiszfeld_centroid
from repro.core.mbm import ANCHOR_STEPS, mbm
from repro.core.mqm import mqm
from repro.core.spm import spm
from repro.core.types import GroupQuery
from repro.datasets import pp_like
from repro.geometry import kernels
from repro.geometry.distance import group_distance
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay

EMPTY = FlatRTree.bulk_load(np.zeros((0, 2)))


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

    @pytest.mark.parametrize("dims", [4, 5])
    def test_matches_brute_force_beyond_three_dimensions(self, dims):
        """The Hilbert sort of the group picks an order whose keys fit int64."""
        rng = np.random.default_rng(dims)
        engine = GNNEngine(rng.uniform(0, 100, size=(1500, dims)), capacity=16)
        for _ in range(3):
            group = rng.uniform(30, 70, size=(6, dims))
            result = engine.execute(QuerySpec(group=group, k=5, algorithm="mqm"))
            expected = engine.execute(QuerySpec(group=group, k=5, algorithm="brute-force"))
            assert result.record_ids() == expected.record_ids()
            assert result.distances() == expected.distances()

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


def _kth_distance(points, query):
    expected = brute_force_gnn(points, query).distances()
    return (expected[-1] if len(expected) == query.k else np.inf), expected


def _anchor(query):
    return weiszfeld_centroid(query.points, max_iterations=ANCHOR_STEPS, weights=query.weights)


def _needed_nodes(flat, points, query):
    """Mask of the nodes whose deferred key is below the k-th distance.

    Computed from ``flat.lows/highs`` without a traversal.  Every node
    gets its own tangent plane at ``clip(anchor, N)``; its own bound is
    that plane's minimum over ``N`` (internal nodes: the larger of it
    and the paper's ``sum_i w_i mindist(N, q_i)``).  A child's cheap key
    is the largest of its parent's key, ``W * mindist(N, M)`` and the
    parent's plane minimised over the child (the root has no plane), and
    its key the larger of the cheap key and its own bound.  The root's
    key is 0.  No exact traversal pruned by these keys can skip a node
    whose key is below the k-th distance; MBM reads nothing else.
    Inputs where a key *equals* the k-th distance are rejected: whether
    such a node is read depends on the order ties are met in.
    """
    kth, expected = _kth_distance(points, query)
    values, gradients, origins = planes = kernels.group_tangent_planes(
        flat.lows, flat.highs, query.points, _anchor(query), query.weights
    )
    own = kernels.plane_lower_bounds(*planes, flat.lows, flat.highs)
    internal = flat.levels > 0
    own[internal] = np.maximum(
        own[internal], query.mindist_lower_bounds(flat.lows[internal], flat.highs[internal])
    )
    mbr = query.mbr
    cheap = query.total_weight() * kernels.boxes_mindist_box(
        flat.lows, flat.highs, mbr.low, mbr.high
    )
    keys = np.zeros(flat.num_nodes)
    # Nodes are numbered breadth-first, so a parent's key is final
    # before its children's slice is reached.
    for index in np.flatnonzero(internal):
        start = flat.child_start[index]
        children = slice(start, start + flat.child_count[index])
        bound = np.maximum(cheap[children], keys[index])
        if index > 0:
            bound = np.maximum(
                bound,
                kernels.plane_lower_bounds(
                    values[index], gradients[index], origins[index],
                    flat.lows[children], flat.highs[children],
                ),
            )
        keys[children] = np.maximum(bound, own[children])
    assume(not np.any(keys == kth))
    return keys < kth, expected


@st.composite
def _workloads(draw, max_batch=1):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(0, 1000, size=(draw(st.integers(1, 300)), 2))
    flat = FlatRTree.bulk_load(points, capacity=draw(st.sampled_from([4, 8, 16])))
    batch = draw(st.integers(1, max_batch))
    cardinality = draw(st.integers(1, 8))
    centers = rng.uniform(0, 1000, size=(batch, 1, 2))
    extents = rng.uniform(5, 300, size=(batch, 1, 1))
    groups = centers + extents * rng.uniform(-1, 1, size=(batch, cardinality, 2))
    return rng, points, flat, groups, draw(st.integers(1, 6))


def _scoped_mbm(flat, groups, k, **options):
    """Each group's solo ``mbm``, one after another in one read scope (a batch)."""
    with flat.read_scope():
        return [mbm(flat, GroupQuery(group, k=k), **options) for group in groups]


class TestMBMReadsOnlyTheNodesItsBoundsCannotExclude:
    @given(workload=_workloads(), weighted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_visited_set_is_the_minimum_for_its_key(self, workload, weighted):
        rng, points, flat, groups, k = workload
        weights = rng.uniform(0.5, 3.0, size=groups.shape[1]) if weighted else None
        query = GroupQuery(groups[0], k=k, weights=weights)
        needed, expected = _needed_nodes(flat, points, query)
        result = mbm(flat, query)
        assert result.distances() == expected
        assert result.cost.node_accesses == np.count_nonzero(needed)

    def test_reads_no_more_than_the_papers_heuristic3(self):
        # best-first keeps the paper's key, sum_i mindist(N, q_i).  One
        # query can go either way (the tangent bound is not pointwise
        # above it), a workload cannot.
        rng = np.random.default_rng(23)
        flat = FlatRTree.bulk_load(rng.uniform(0, 1000, size=(3000, 2)), capacity=16)
        tangent = paper = 0
        for cardinality in (1, 2, 4, 16, 64):
            for extent in (10, 80, 300):
                center = rng.uniform(100, 900, size=2)
                group = center + extent * rng.uniform(-1, 1, size=(cardinality, 2))
                query = GroupQuery(group, k=4)
                tangent += mbm(flat, query).cost.node_accesses
                paper += aggregate_gnn(flat, query).cost.node_accesses
        assert tangent <= paper

    @given(workload=_workloads(max_batch=5))
    @settings(max_examples=60, deadline=None)
    def test_shared_traversal_reads_the_union_of_the_solo_sets(self, workload):
        # Every member keeps its solo keys, so a node is read iff some
        # member's solo traversal reads it, and only once.
        _, points, flat, groups, k = workload
        needed = np.zeros(flat.num_nodes, dtype=bool)
        expected = []
        solo_accesses = 0
        for group in groups:
            query = GroupQuery(group, k=k)
            mask, distances = _needed_nodes(flat, points, query)
            needed |= mask
            expected.append(distances)
            solo = mbm(flat, query)
            assert solo.distances() == distances
            solo_accesses += solo.cost.node_accesses
        results = _scoped_mbm(flat, groups, k)
        assert [result.distances() for result in results] == expected
        read = sum(result.cost.node_accesses for result in results)
        assert read == np.count_nonzero(needed) <= solo_accesses

    @pytest.mark.parametrize("k", [1, 3])
    def test_batch_members_break_ties_as_solo_does(self, k):
        # Integer groups over the integer grid tie at the k-th distance
        # all the time; each member must still pick solo's record.
        points = np.stack(np.meshgrid(np.arange(30), np.arange(30)), axis=-1).reshape(-1, 2)
        flat = FlatRTree.bulk_load(points.astype(float), capacity=8)
        for seed in range(40):
            groups = np.random.default_rng(seed).integers(0, 30, size=(8, 2, 2)).astype(float)
            for group, result in zip(groups, _scoped_mbm(flat, groups, k)):
                assert result.record_ids() == mbm(flat, GroupQuery(group, k=k)).record_ids()

    @given(workload=_workloads(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_tombstones_keep_the_answer_exact(self, workload, data):
        _, points, flat, groups, k = workload
        dead = data.draw(st.sets(st.integers(0, len(points) - 1), max_size=len(points) - 1))
        live = np.array(sorted(set(range(len(points))) - dead))
        query = GroupQuery(groups[0], k=k)
        overlay = DeltaOverlay(flat)
        for rid in dead:
            assert overlay.delete(points[rid], rid)
        result = mbm(flat, query, overlay=overlay)
        expected = brute_force_gnn(points[live], query)
        assert result.distances() == expected.distances()
        assert result.record_ids() == [int(live[i]) for i in expected.record_ids()]


class TestDeferredKeysAgainstTheEagerReference:
    """``mbm``, alone and in a read scope, against ``tests/mbm_reference.py`` (eager keys).

    Deferring a bound never lowers a key, so the answers must be the
    reference's (solo: id for id and float for float; batch: float for
    float, the eager batch breaking k-th-distance ties by id), and the
    node accesses never more.
    """

    @given(workload=_workloads(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_same_answers_and_no_more_node_accesses(self, workload, data):
        rng, points, flat, groups, k = workload
        n = groups.shape[1]
        weights = rng.uniform(0.5, 3.0, size=n) if data.draw(st.booleans()) else None
        aggregate = data.draw(st.sampled_from(["sum", "sum", "max", "min"]))
        query = GroupQuery(groups[0], k=k, aggregate=aggregate, weights=weights)
        overlay = None
        if data.draw(st.booleans(), label="dirty"):
            overlay = DeltaOverlay(flat)
            dead = data.draw(st.sets(st.integers(0, len(points) - 1), max_size=len(points) // 2))
            for rid in dead:
                assert overlay.delete(points[rid], rid)
            fresh = rng.uniform(0, 1000, size=(data.draw(st.integers(0, 12)), 2))
            for offset, row in enumerate(fresh):
                overlay.insert(row, len(points) + offset)
        within = math.inf
        if data.draw(st.booleans(), label="within"):
            distances = np.sort(query.distances_to(points))
            within = float(distances[data.draw(st.integers(0, len(points) - 1))])
        options = {"overlay": overlay, "within": within}
        if aggregate == "sum":
            options["use_heuristic3"] = data.draw(st.booleans())
        expected = mbm_reference(flat, query, **options)
        result = mbm(flat, query, **options)
        assert result.record_ids() == expected.record_ids()
        assert result.distances() == expected.distances()
        assert result.cost.node_accesses <= expected.cost.node_accesses

    @given(workload=_workloads(max_batch=6), use_heuristic3=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_shared_traversal_against_the_eager_batch(self, workload, use_heuristic3):
        _, _, flat, groups, k = workload
        expected = mbm_batch_reference(flat, groups, k, use_heuristic3=use_heuristic3)
        results = _scoped_mbm(flat, groups, k, use_heuristic3=use_heuristic3)
        assert [r.distances() for r in results] == [e.distances() for e in expected]
        read = sum(result.cost.node_accesses for result in results)
        assert read <= expected[0].cost.node_accesses

    #: The replay below, summed: ``(node accesses, distance computations)``
    #: of ``mbm`` over the clean index and over the dirty overlay.  With
    #: each base leaf scanned to ``best_dist`` as soon as it was read the
    #: distances were 99584 and 124814; the eager reference charges
    #: 165520 and 192638.  Over consecutive parents they were (245, 92410)
    #: and (243, 118568); tiling every level cut the reads and, at this
    #: 20k size, raised the distances to (230, 97975) and (229, 124267),
    #: and keying a run of leaves in one call to these.
    REPLAY_PINS = {"clean": (230, 101579), "dirty": (229, 127191)}

    @pytest.mark.parametrize("state", sorted(REPLAY_PINS))
    def test_pinned_replay_at_the_shard_scatter_shape(self, state):
        """40 groups of 16 in boxes of 4% of a PP-like space, k = 8, capacity 50.

        Every answer is the reference's, id for id and float for float.
        The reference reads two nodes more, whose deferred cheap keys
        (their parent node's plane) are tighter than their eager keys.
        """
        points = pp_like(20000)
        flat = FlatRTree.bulk_load(points, capacity=50)
        rng = np.random.default_rng(2004)
        low, high = points.min(axis=0), points.max(axis=0)
        side = float(np.sqrt(0.04 * (high - low).prod()))
        corners = rng.uniform(low, high - side, size=(40, 2))
        groups = [rng.uniform(corner, corner + side, size=(16, 2)) for corner in corners]
        overlay = None
        if state == "dirty":
            overlay = DeltaOverlay(flat)
            for offset, row in enumerate(rng.choice(len(points), size=400)):
                moved = points[row] + rng.normal(scale=10.0, size=2)
                overlay.insert(moved, len(points) + offset)
            for rid in rng.choice(len(points), size=100, replace=False).tolist():
                assert overlay.delete(points[rid], rid)
        totals = [0, 0]
        for group in groups:
            query = GroupQuery(group, k=8)
            result = mbm(flat, query, overlay=overlay)
            expected = mbm_reference(flat, query, overlay=overlay)
            assert result.record_ids() == expected.record_ids()
            assert result.distances() == expected.distances()
            assert result.cost.node_accesses <= expected.cost.node_accesses
            totals[0] += result.cost.node_accesses
            totals[1] += result.cost.distance_computations
        assert tuple(totals) == self.REPLAY_PINS[state]

    def test_a_record_exactly_at_within_is_kept(self):
        # Heuristic 2 as a quotient, best_dist / W, rounded down onto this
        # point's mindist and pruned the one record at exactly ``within``.
        points = np.array([[833.41803049, 896.08140644], [885.43669631, 411.44882318]])
        flat = FlatRTree.bulk_load(points, capacity=4)
        query = GroupQuery([[354.15009417, 76.38575569]], k=1, weights=[0.5413190888213227])
        within = float(query.distances_to(points).min())
        for use_heuristic3 in (False, True):
            expected = mbm_reference(flat, query, use_heuristic3=use_heuristic3, within=within)
            result = mbm(flat, query, use_heuristic3=use_heuristic3, within=within)
            assert result.record_ids() == expected.record_ids() == [1]


def _heuristic1_keys(flat, query):
    """SPM's key of every node: Heuristic 1's ``n * mindist(N, c) - dist(c, Q)``.

    Computed from ``flat.lows/highs`` without a traversal, for the
    centroid ``c`` SPM computes.  A child's key is no less than its
    parent's, and the root's is ``-dist(c, Q)``.  The root is always
    read; any other node is read exactly when its key is below the k-th
    distance of the merged view.
    """
    centroid = compute_centroid(query.points)
    offset = group_distance(centroid, query.points)
    own = query.cardinality * kernels.boxes_mindist_point(flat.lows, flat.highs, centroid)
    own -= offset
    keys = np.full(flat.num_nodes, 0.0 - offset)
    # Nodes are numbered breadth-first, so a parent's key is final
    # before its children's slice is reached.
    for index in np.flatnonzero(flat.levels > 0):
        start = flat.child_start[index]
        children = slice(start, start + flat.child_count[index])
        keys[children] = np.maximum(own[children], keys[index])
    return keys


def _spm_read_set(flat, query, live_points):
    """The nodes SPM must read and the distances it must return, given the live records."""
    distances = np.sort(query.distances_to(live_points))[: query.k].tolist()
    kth = distances[-1] if len(distances) == query.k else math.inf
    keys = _heuristic1_keys(flat, query)
    needed = keys < kth
    needed[0] = True
    return needed, keys[1:] == kth, distances


class TestSPMReadsOnlyTheNodesHeuristic1CannotExclude:
    """SPM is MBM's loop under Heuristic 1's key: it stops at the key, not at the next point."""

    @given(workload=_workloads())
    @settings(max_examples=60, deadline=None)
    def test_visited_set_is_the_minimum_for_its_key(self, workload):
        _, points, flat, groups, k = workload
        query = GroupQuery(groups[0], k=k)
        needed, ties, expected = _spm_read_set(flat, query, points)
        assume(not np.any(ties))
        result = spm(flat, query)
        assert result.distances() == expected
        assert result.cost.node_accesses == np.count_nonzero(needed)

    @pytest.mark.parametrize("state", ["clean", "dirty"])
    def test_pinned_replay_at_the_shard_scatter_shape(self, state):
        """300 groups of 16 in boxes of 4% of a PP-like space, k = 8, capacity 50.

        Each query reads exactly the nodes whose Heuristic-1 key is below
        its k-th distance.  The stream consumer SPM ran before tested the
        heuristic on points only, so it also read every node that
        reached the stream's head before the next point: 8 of the 300
        clean queries, and 6 of the dirty ones, read nodes the key
        excludes.
        """
        points = pp_like(20000)
        flat = FlatRTree.bulk_load(points, capacity=50)
        rng = np.random.default_rng(2004)
        low, high = points.min(axis=0), points.max(axis=0)
        side = float(np.sqrt(0.04 * (high - low).prod()))
        corners = rng.uniform(low, high - side, size=(300, 2))
        groups = [rng.uniform(corner, corner + side, size=(16, 2)) for corner in corners]
        overlay, live = None, points
        if state == "dirty":
            overlay = DeltaOverlay(flat)
            for offset, row in enumerate(rng.choice(len(points), size=400)):
                overlay.insert(points[row] + rng.normal(scale=10.0, size=2), len(points) + offset)
            dead = rng.choice(len(points), size=100, replace=False).tolist()
            for rid in dead:
                assert overlay.delete(points[rid], rid)
            live = np.concatenate([np.delete(points, dead, axis=0), overlay.delta_points()[0]])
        over_read = []
        for number, group in enumerate(groups):
            query = GroupQuery(group, k=8)
            needed, ties, expected = _spm_read_set(flat, query, live)
            assert not np.any(ties)
            result = spm(flat, query, overlay=overlay)
            assert result.distances() == expected
            if result.cost.node_accesses != np.count_nonzero(needed):
                over_read.append(number)
        assert over_read == []


class TestSPMAgainstTheStreamReference:
    """``spm`` against ``tests/spm_reference.py``: the centroid stream, the delta scanned first.

    Stopping at the key reads no node the stream would not, and answers
    are the reference's, id for id and float for float.
    """

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_same_answers_and_no_more_node_accesses(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        dims = data.draw(st.integers(2, 5), label="dims")
        points = rng.uniform(0, 1000, size=(data.draw(st.integers(1, 300)), dims))
        flat = FlatRTree.bulk_load(points, capacity=data.draw(st.sampled_from([4, 8, 16])))
        cardinality = data.draw(st.integers(1, 8))
        center, extent = rng.uniform(0, 1000, size=dims), rng.uniform(5, 300)
        group = center + extent * rng.uniform(-1, 1, size=(cardinality, dims))
        query = GroupQuery(group, k=data.draw(st.integers(1, 6)))
        overlay = None
        if data.draw(st.booleans(), label="dirty"):
            overlay = DeltaOverlay(flat)
            dead = data.draw(st.sets(st.integers(0, len(points) - 1), max_size=len(points) // 2))
            for rid in dead:
                assert overlay.delete(points[rid], rid)
            fresh = rng.uniform(0, 1000, size=(data.draw(st.integers(0, 12)), dims))
            for offset, row in enumerate(fresh):
                overlay.insert(row, len(points) + offset)
            if dead:  # a tombstoned id returns in the delta, somewhere else
                overlay.insert(rng.uniform(0, 1000, size=dims), min(dead))
        within = math.inf
        if data.draw(st.booleans(), label="within"):
            distances = np.sort(query.distances_to(points))
            within = float(distances[data.draw(st.integers(0, len(points) - 1))])
        expected = spm_reference(flat, query, overlay=overlay, within=within)
        result = spm(flat, query, overlay=overlay, within=within)
        assert result.record_ids() == expected.record_ids()
        assert result.distances() == expected.distances()
        assert result.cost.node_accesses <= expected.cost.node_accesses


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
