"""Tests for repro.geometry.mbr."""

import numpy as np
import pytest

from repro.geometry import kernels
from repro.geometry.mbr import MBR
from repro.geometry.point import GeometryError


@pytest.fixture
def unit_square():
    return MBR([0.0, 0.0], [1.0, 1.0])


@pytest.fixture
def shifted_square():
    return MBR([2.0, 0.0], [3.0, 1.0])


class TestConstruction:
    def test_low_must_not_exceed_high(self):
        with pytest.raises(GeometryError):
            MBR([1.0, 0.0], [0.0, 1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            MBR([0.0, 0.0], [1.0, 1.0, 1.0])

    def test_single_point_box_is_degenerate(self):
        box = MBR.from_points([[2.0, 3.0]])
        assert box.low.tolist() == box.high.tolist() == [2.0, 3.0]
        assert box.extents.tolist() == [0.0, 0.0]
        assert box.area() == 0.0

    def test_from_points_covers_all(self):
        points = np.array([[0.0, 5.0], [2.0, 1.0], [-1.0, 3.0]])
        box = MBR.from_points(points)
        assert box.low.tolist() == [-1.0, 1.0]
        assert box.high.tolist() == [2.0, 5.0]
        assert np.all((box.low <= points) & (points <= box.high))

    def test_union_of_requires_at_least_one(self):
        with pytest.raises(GeometryError):
            MBR.union_of([])

    def test_union_of_covers_every_member(self, unit_square, shifted_square):
        union = MBR.union_of([unit_square, shifted_square])
        assert union.contains(unit_square)
        assert union.contains(shifted_square)


class TestBasicProperties:
    def test_center(self, unit_square):
        assert unit_square.center.tolist() == [0.5, 0.5]

    def test_area(self):
        box = MBR([0.0, 0.0], [2.0, 3.0])
        assert box.area() == 6.0

    def test_extents(self):
        box = MBR([1.0, 2.0], [4.0, 6.0])
        assert box.extents.tolist() == [3.0, 4.0]

    def test_higher_dimensional_area(self):
        box = MBR([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        assert box.area() == 8.0


class TestPredicates:
    def test_contains_point_box_inside_and_on_boundary(self, unit_square):
        assert unit_square.contains(MBR.from_points([[0.5, 0.5]]))
        assert unit_square.contains(MBR.from_points([[0.0, 1.0]]))
        assert not unit_square.contains(MBR.from_points([[1.5, 0.5]]))

    def test_contains_mbr(self, unit_square):
        inner = MBR([0.2, 0.2], [0.8, 0.8])
        assert unit_square.contains(inner)
        assert not inner.contains(unit_square)

    def test_touching_boxes_intersect_in_their_shared_edge(self, unit_square):
        touching = MBR([1.0, 0.0], [2.0, 1.0])
        assert unit_square.intersection(touching) == MBR([1.0, 0.0], [1.0, 1.0])

    def test_disjoint_boxes_do_not_intersect(self, unit_square, shifted_square):
        # the batched box kernel agrees: disjoint boxes are a positive gap apart
        gap = kernels.boxes_mindist_box(
            unit_square.low[None], unit_square.high[None], shifted_square.low, shifted_square.high
        )
        assert gap.tolist() == [1.0]
        assert unit_square.intersection(shifted_square) is None

    def test_intersection_of_overlapping_boxes(self, unit_square):
        other = MBR([0.5, 0.5], [2.0, 2.0])
        overlap = unit_square.intersection(other)
        assert overlap == MBR([0.5, 0.5], [1.0, 1.0])
        assert overlap.area() == pytest.approx(0.25)

    def test_intersection_of_disjoint_boxes_is_none(self, unit_square, shifted_square):
        assert unit_square.intersection(shifted_square) is None


class TestCombining:
    def test_union_covers_both(self, unit_square, shifted_square):
        union = unit_square.union(shifted_square)
        assert union == MBR([0.0, 0.0], [3.0, 1.0])


    def test_union_with_point_box_extends_box(self, unit_square):
        extended = unit_square.union(MBR.from_points([[2.0, -1.0]]))
        assert extended == MBR([0.0, -1.0], [2.0, 1.0])
        assert extended.contains(unit_square)

    def test_union_with_contained_box_is_unchanged(self, unit_square):
        inner = MBR([0.1, 0.1], [0.9, 0.9])
        assert unit_square.union(inner) == unit_square

    def test_union_with_external_box_grows(self, unit_square, shifted_square):
        assert unit_square.union(shifted_square).area() > unit_square.area()


class TestDistances:
    def test_mindist_point_zero_inside(self, unit_square):
        assert unit_square.mindist_point([0.3, 0.7]) == 0.0

    def test_mindist_point_axis_aligned(self, unit_square):
        assert unit_square.mindist_point([2.0, 0.5]) == pytest.approx(1.0)

    def test_mindist_point_corner(self, unit_square):
        assert unit_square.mindist_point([2.0, 2.0]) == pytest.approx(np.sqrt(2.0))

    def test_mindist_points_vectorised_matches_scalar(self, unit_square):
        pts = np.array([[2.0, 0.5], [0.5, 0.5], [-1.0, -1.0]])
        vector = unit_square.mindist_points(pts)
        scalar = [unit_square.mindist_point(p) for p in pts]
        assert np.allclose(vector, scalar)

    def test_mindist_mbr_zero_when_intersecting(self, unit_square):
        other = MBR([0.5, 0.5], [2.0, 2.0])
        assert unit_square.mindist_mbr(other) == 0.0

    def test_mindist_mbr_between_disjoint_boxes(self, unit_square, shifted_square):
        assert unit_square.mindist_mbr(shifted_square) == pytest.approx(1.0)

    def test_mindist_mbr_is_symmetric(self, unit_square, shifted_square):
        assert unit_square.mindist_mbr(shifted_square) == shifted_square.mindist_mbr(unit_square)


class TestDunder:
    def test_equality_and_hash(self, unit_square):
        clone = MBR([0.0, 0.0], [1.0, 1.0])
        assert unit_square == clone
        assert hash(unit_square) == hash(clone)

    def test_inequality_with_other_types(self, unit_square):
        assert unit_square != "not an MBR"

    def test_repr_mentions_corners(self, unit_square):
        assert "low" in repr(unit_square) and "high" in repr(unit_square)
