"""Tests for repro.core.heuristics: the paper's pruning rules 1-6 and Lemma 1.

Lemma 1 (``dist(p, Q) >= n * |p q| - dist(q, Q)``) is what Heuristic 1
rearranges, so it is checked through ``heuristic1_prunes_point``/``_node``:
a point or node may be pruned only when the lemma's bound reaches
``best_dist``.

Heuristics 3 and 5 are computed by the batched kernels the traversals
call (``kernels.boxes_group_mindist``, ``kernels.boxes_weighted_group_mindist``
and the row sums of ``kernels.points_weighted_mindists``), so their
soundness is checked on those.  Heuristic 6 takes a leaf's surviving
points as arrays, as F-MBM calls it.
"""

import numpy as np
import pytest
from geometry_reference import mindist_mbr, mindist_point, mindist_points
from heuristics_reference import (
    heuristic1_prunes_node,
    heuristic1_prunes_point,
    heuristic2_prunes,
    heuristic3_prunes_precomputed,
)

from repro.core.heuristics import (
    gcp_candidate_threshold,
    heuristic4_prunes,
    heuristic5_prunes,
    heuristic5_prunes_batch,
    heuristic6_prunes,
)
from repro.geometry import kernels
from repro.geometry.distance import euclidean, group_distance
from repro.geometry.mbr import MBR


class TestLemma1:
    @pytest.mark.parametrize("dims", [2, 3, 5])
    def test_lower_bound_never_exceeds_true_distance(self, dims):
        # Heuristic 1 prunes p iff n*|pq| - dist(q, Q) >= best_dist, so with
        # best_dist just above dist(p, Q) it must keep p for any p and q.
        rng = np.random.default_rng(dims)
        for _ in range(50):
            group = rng.uniform(0, 100, size=(rng.integers(1, 10), dims))
            p = rng.uniform(-50, 150, size=dims)
            q = rng.uniform(-50, 150, size=dims)
            true_distance = group_distance(p, group)
            best = true_distance + 1e-9 * max(1.0, true_distance)
            assert not heuristic1_prunes_point(
                euclidean(p, q), best, group_distance(q, group), len(group)
            )

    def test_bound_is_tight_when_p_equals_q(self):
        # At p = q the bound is -dist(q, Q): pruned exactly at that best_dist.
        group = np.array([[0.0, 0.0], [2.0, 0.0]])
        q = np.array([1.0, 0.0])
        reference = group_distance(q, group)
        assert heuristic1_prunes_point(0.0, -reference, reference, 2)
        assert not heuristic1_prunes_point(0.0, -reference + 1e-9, reference, 2)

    def test_node_bound_never_exceeds_contained_distances(self):
        # The node form SPM's stream uses: mindist(N, q) from the box kernel.
        rng = np.random.default_rng(11)
        for _ in range(100):
            low = rng.uniform(0, 80, size=2)
            node = MBR(low, low + rng.uniform(1, 20, size=2))
            group = rng.uniform(0, 100, size=(rng.integers(1, 8), 2))
            q = rng.uniform(0, 100, size=2)
            best = rng.uniform(0, 300)
            mindist = kernels.boxes_mindist_point(node.low[None], node.high[None], q)[0]
            if heuristic1_prunes_node(mindist, best, group_distance(q, group), len(group)):
                for p in rng.uniform(node.low, node.high, size=(20, 2)):
                    assert group_distance(p, group) >= best - 1e-9


class TestHeuristic1:
    def test_example_from_figure_3_3(self):
        # Figure 3.3: best_dist = 5+4 = 9, dist(q, Q) = 1+2 = 3, n = 2, so the
        # pruning bound on mindist(N, q) is (9+3)/2 = 6; both example nodes
        # (at mindist 6 and 7) are pruned.
        assert heuristic1_prunes_node(6.0, 9.0, 3.0, 2)
        assert heuristic1_prunes_node(7.0, 9.0, 3.0, 2)
        assert not heuristic1_prunes_node(5.9, 9.0, 3.0, 2)

    def test_point_variant_matches_node_variant(self):
        assert heuristic1_prunes_point(6.0, 9.0, 3.0, 2) == heuristic1_prunes_node(
            6.0, 9.0, 3.0, 2
        )

    def test_invalid_cardinality_rejected(self):
        with pytest.raises(ValueError):
            heuristic1_prunes_node(1.0, 1.0, 1.0, 0)

    def test_never_prunes_a_point_better_than_best(self):
        # Soundness: if pruning triggers, the true distance cannot beat best.
        rng = np.random.default_rng(1)
        for _ in range(200):
            group = rng.uniform(0, 100, size=(rng.integers(1, 8), 2))
            q = rng.uniform(0, 100, size=2)
            p = rng.uniform(0, 100, size=2)
            best = rng.uniform(0, 400)
            dist_q_group = group_distance(q, group)
            if heuristic1_prunes_point(
                float(np.linalg.norm(p - q)), best, dist_q_group, len(group)
            ):
                assert group_distance(p, group) >= best - 1e-9


class TestHeuristics2And3:
    def test_example_from_figure_3_5(self):
        # Figure 3.5: best_dist = 5, n = 2.  N1 has mindist(N1, M) = 3 which
        # reaches 5/2, so Heuristic 2 prunes it; N2 has mindist 2 and is not
        # pruned by Heuristic 2 but its per-point mindists sum to 6 >= 5, so
        # Heuristic 3 prunes it.
        assert heuristic2_prunes(3.0, 5.0, 2)
        assert not heuristic2_prunes(2.0, 5.0, 2)
        assert heuristic3_prunes_precomputed(6.0, 5.0)

    def test_heuristic3_with_real_geometry(self):
        node = MBR([10.0, 10.0], [12.0, 12.0])
        query_points = np.array([[0.0, 0.0], [0.0, 20.0]])
        summed = float(mindist_points(node, query_points).sum())
        bound = kernels.boxes_group_mindist(node.low[None], node.high[None], query_points)[0]
        assert bound == pytest.approx(summed)
        assert heuristic3_prunes_precomputed(bound, summed - 0.1)
        assert not heuristic3_prunes_precomputed(bound, summed + 0.1)

    def test_heuristic2_invalid_cardinality(self):
        with pytest.raises(ValueError):
            heuristic2_prunes(1.0, 1.0, 0)

    def test_heuristic3_is_sound(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            low = rng.uniform(0, 80, size=2)
            node = MBR(low, low + rng.uniform(1, 20, size=2))
            group = rng.uniform(0, 100, size=(rng.integers(1, 6), 2))
            best = rng.uniform(0, 300)
            bound = kernels.boxes_group_mindist(node.low[None], node.high[None], group)[0]
            if heuristic3_prunes_precomputed(bound, best):
                probe = rng.uniform(node.low, node.high, size=(20, 2))
                for p in probe:
                    assert group_distance(p, group) >= best - 1e-9


class TestHeuristic4AndThreshold:
    def test_example_from_figure_4_1(self):
        # Figure 4.1(a): after the pair <p2, q2> (distance 5) completes p2
        # with best_dist = 11, candidate p3 has one pair (distance 4) and two
        # missing distances; 2*5 + 4 = 14 >= 11, so p3 is discarded.
        assert heuristic4_prunes(3, 1, 5.0, 4.0, 11.0)

    def test_candidate_kept_when_completion_could_improve(self):
        assert not heuristic4_prunes(3, 2, 1.0, 4.0, 11.0)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            heuristic4_prunes(2, 3, 1.0, 1.0, 1.0)

    def test_threshold_from_figure_4_1(self):
        # t1 = (11 - 4) / (3 - 2) = 7 for p1 with curr_dist 4 and 2 pairs seen.
        assert gcp_candidate_threshold(3, 2, 4.0, 11.0) == pytest.approx(7.0)

    def test_threshold_requires_incomplete_candidate(self):
        with pytest.raises(ValueError):
            gcp_candidate_threshold(3, 3, 4.0, 11.0)


def _summaries(blocks):
    """The (lows, highs, cardinalities) F-MBM keeps for a list of blocks."""
    lows = np.array([block.min(axis=0) for block in blocks])
    highs = np.array([block.max(axis=0) for block in blocks])
    return lows, highs, np.array([float(len(block)) for block in blocks])


class TestHeuristics5And6:
    #: Two blocks: M1 = [0, 10]^2 with n1 = 2 and M2 = [50, 60]^2 with n2 = 3.
    SUMMARIES = (
        np.array([[0.0, 0.0], [50.0, 50.0]]),
        np.array([[10.0, 10.0], [60.0, 60.0]]),
        np.array([2.0, 3.0]),
    )

    def test_weighted_mindist_of_node(self):
        lows, highs, _ = self.SUMMARIES
        node = MBR([20.0, 0.0], [30.0, 10.0])
        expected = 2 * mindist_mbr(node, MBR(lows[0], highs[0])) + 3 * mindist_mbr(
            node, MBR(lows[1], highs[1])
        )
        bound = kernels.boxes_weighted_group_mindist(
            node.low[None], node.high[None], *self.SUMMARIES
        )
        assert float(bound[0]) == pytest.approx(expected)

    def test_weighted_mindist_of_point(self):
        lows, highs, _ = self.SUMMARIES
        point = np.array([20.0, 5.0])
        terms = kernels.points_weighted_mindists(point[None], *self.SUMMARIES)
        expected = [
            2 * mindist_point(MBR(lows[0], highs[0]), point),
            3 * mindist_point(MBR(lows[1], highs[1]), point),
        ]
        assert terms[0].tolist() == pytest.approx(expected)
        node_form = kernels.boxes_weighted_group_mindist(point[None], point[None], *self.SUMMARIES)
        assert float(np.add.reduce(terms, axis=1)[0]) == pytest.approx(float(node_form[0]))

    def test_example_from_figure_4_5(self):
        # Figure 4.5: two blocks with n1=2, n2=3, best_dist=20; the node's
        # weighted mindist is 2*mindist(N,M1) + 3*mindist(N,M2) = 20, so it
        # is pruned.
        assert heuristic5_prunes(20.0, 20.0)
        assert not heuristic5_prunes(19.9, 20.0)
        assert heuristic5_prunes_batch(np.array([20.0, 19.9]), 20.0).tolist() == [True, False]

    def test_heuristic5_soundness(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            groups = [
                rng.uniform(0, 100, size=(rng.integers(1, 6), 2))
                for _ in range(rng.integers(1, 4))
            ]
            summaries = _summaries(groups)
            low = rng.uniform(0, 80, size=2)
            node = MBR(low, low + rng.uniform(1, 20, size=2))
            best = rng.uniform(0, 500)
            bound = kernels.boxes_weighted_group_mindist(node.low[None], node.high[None], *summaries)
            inside = rng.uniform(node.low, node.high, size=(20, 2))
            terms = kernels.points_weighted_mindists(inside, *summaries)
            point_bounds = np.add.reduce(terms, axis=1)
            totals = np.array([sum(group_distance(p, g) for g in groups) for p in inside])
            if heuristic5_prunes(float(bound[0]), best):
                assert np.all(totals >= best - 1e-9)
            assert np.all(totals[heuristic5_prunes_batch(point_bounds, best)] >= best - 1e-9)

    def test_example_from_figure_4_6(self):
        # Figure 4.6: curr_dist(p) = 8 after the first block; the remaining
        # block has n=3 and mindist(p, M2) = 4, so 8 + 3*4 = 20 >= best_dist
        # = 20 and the point is dropped.
        point = np.array([[6.0, 5.0]])  # mindist to the block MBR is 4
        remaining = kernels.points_weighted_mindists(
            point, np.array([[10.0, 0.0]]), np.array([[20.0, 10.0]]), np.array([3.0])
        )
        assert remaining.tolist() == [[12.0]]
        pruned = heuristic6_prunes(np.array([8.0, 7.9]), np.repeat(remaining, 2, axis=0), 20.0)
        assert pruned.tolist() == [True, False]

    def test_heuristic6_adds_the_remaining_blocks_left_to_right(self):
        # (0.1 + 0.2) + 0.3 rounds to 0.6000000000000001, 0.1 + (0.2 + 0.3)
        # to 0.6: only the per-point running sum's order prunes here.
        best = (0.1 + 0.2) + 0.3
        assert best > 0.1 + (0.2 + 0.3)
        assert heuristic6_prunes(np.array([0.1]), np.array([[0.2, 0.3]]), best).tolist() == [True]

    def test_heuristic6_with_nothing_left_compares_the_exact_distance(self):
        pruned = heuristic6_prunes(np.array([5.0, 4.0]), np.zeros((2, 0)), 5.0)
        assert pruned.tolist() == [True, False]

    def test_heuristic6_soundness(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            groups = [rng.uniform(0, 100, size=(rng.integers(1, 5), 2)) for _ in range(3)]
            points = rng.uniform(0, 100, size=(10, 2))
            terms = kernels.points_weighted_mindists(points, *_summaries(groups))
            accumulated = np.array([group_distance(p, groups[0]) for p in points])
            best = rng.uniform(0, 600)
            pruned = heuristic6_prunes(accumulated, terms[:, 1:], best)
            totals = accumulated + [sum(group_distance(p, g) for g in groups[1:]) for p in points]
            assert np.all(totals[pruned] >= best - 1e-9)
