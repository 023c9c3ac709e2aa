"""Property-based tests (hypothesis) for the geometric substrate.

These check the invariants listed in DESIGN.md Section 6: mindist is a
true lower bound, Lemma 1 holds for arbitrary points, the Hilbert curve
is a bijection, and the aggregate lower bounds never exceed the true
aggregate distances.
"""

import numpy as np
from heuristics_reference import heuristic1_prunes_point
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import kernels
from repro.geometry.distance import euclidean, group_distance, group_mindist
from repro.geometry.hilbert import cell_key
from repro.geometry.mbr import MBR

coordinate = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=32
)


def points_strategy(min_count=1, max_count=12, dims=2):
    return st.lists(
        st.tuples(*[coordinate] * dims), min_size=min_count, max_size=max_count
    ).map(lambda rows: np.array(rows, dtype=np.float64))


@st.composite
def mbr_strategy(draw, dims=2):
    a = np.array(draw(st.tuples(*[coordinate] * dims)), dtype=np.float64)
    b = np.array(draw(st.tuples(*[coordinate] * dims)), dtype=np.float64)
    return MBR(np.minimum(a, b), np.maximum(a, b))


def _mindist_point(box, point):
    """``mindist(box, point)`` from the box kernel every traversal scores with."""
    return float(kernels.boxes_mindist_point(box.low[None], box.high[None], point)[0])


def _mindist_mbr(box, other):
    """``mindist(box, other)`` from the box-to-box kernel."""
    return float(kernels.boxes_mindist_box(box.low[None], box.high[None], other.low, other.high)[0])


def _union(a, b):
    """The tightest box covering boxes ``a`` and ``b``."""
    return MBR(np.minimum(a.low, b.low), np.maximum(a.high, b.high))


class TestMBRProperties:
    @given(box=mbr_strategy(), point=st.tuples(coordinate, coordinate))
    @settings(max_examples=200, deadline=None)
    def test_mindist_lower_bounds_distance_to_any_inside_point(self, box, point):
        point = np.array(point, dtype=np.float64)
        bound = _mindist_point(box, point)
        # Sample deterministic interior points: corners and centre.
        candidates = [box.low, box.high, box.center, np.array([box.low[0], box.high[1]])]
        for candidate in candidates:
            assert np.linalg.norm(candidate - point) >= bound - 1e-6

    @given(box=mbr_strategy(), point=st.tuples(coordinate, coordinate))
    @settings(max_examples=200, deadline=None)
    def test_mindist_zero_iff_point_inside(self, box, point):
        point = np.array(point, dtype=np.float64)
        if np.all((box.low <= point) & (point <= box.high)):
            assert _mindist_point(box, point) == 0.0
        else:
            assert _mindist_point(box, point) > 0.0

    @given(a=mbr_strategy(), b=mbr_strategy())
    @settings(max_examples=200, deadline=None)
    def test_mbr_mindist_symmetry_and_union_containment(self, a, b):
        assert _mindist_mbr(a, b) == _mindist_mbr(b, a)
        union = _union(a, b)
        for part in (a, b):
            assert np.all(union.low <= part.low) and np.all(part.high <= union.high)
        assert union.area() >= max(a.area(), b.area()) - 1e-9

    @given(a=mbr_strategy(), b=mbr_strategy())
    @settings(max_examples=200, deadline=None)
    def test_mindist_mbr_is_zero_iff_boxes_overlap(self, a, b):
        overlap = np.all(a.low <= b.high) and np.all(b.low <= a.high)
        assert (_mindist_mbr(a, b) == 0.0) == overlap

    @given(a=mbr_strategy(), b=mbr_strategy(), point=st.tuples(coordinate, coordinate))
    @settings(max_examples=200, deadline=None)
    def test_union_mindist_never_exceeds_its_parts(self, a, b, point):
        # A parent box's key lower-bounds its children's: best-first relies on it.
        point = np.array(point, dtype=np.float64)
        union = _union(a, b)
        assert _mindist_point(union, point) <= min(
            _mindist_point(a, point), _mindist_point(b, point)
        )


class TestLemma1Property:
    @given(
        group=points_strategy(min_count=1, max_count=10),
        p=st.tuples(coordinate, coordinate),
        q=st.tuples(coordinate, coordinate),
    )
    @settings(max_examples=300, deadline=None)
    def test_lemma1_bound_never_exceeds_true_distance(self, group, p, q):
        # Heuristic 1 is Lemma 1 rearranged: it may not prune p at any
        # best_dist above p's true aggregate distance.
        p = np.array(p, dtype=np.float64)
        q = np.array(q, dtype=np.float64)
        true_distance = group_distance(p, group)
        best = true_distance + 1e-6 * max(1.0, true_distance)
        assert not heuristic1_prunes_point(
            euclidean(p, q), best, group_distance(q, group), len(group)
        )


class TestGroupMindistProperty:
    @given(group=points_strategy(min_count=1, max_count=8), box=mbr_strategy())
    @settings(max_examples=200, deadline=None)
    def test_group_mindist_lower_bounds_corner_distances(self, group, box):
        for aggregate in ("sum", "max", "min"):
            bound = group_mindist(box, group, aggregate=aggregate)
            for corner in (box.low, box.high, box.center):
                value = group_distance(corner, group, aggregate=aggregate)
                assert value >= bound - 1e-6 * max(1.0, abs(bound))


class TestHilbertProperty:
    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_sorted_grid_is_a_path_through_every_cell(self, order):
        side = 1 << order
        cells = np.array([(x, y) for x in range(side) for y in range(side)])
        indices = np.array([cell_key((x, y), order) for x, y in cells])
        rank = np.argsort(indices)
        assert indices[rank].tolist() == list(range(4**order))
        steps = np.abs(np.diff(cells[rank], axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    @given(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=300, deadline=None)
    def test_index_in_range(self, x, y):
        index = cell_key((x, y), 5)
        assert 0 <= index < 32 * 32
