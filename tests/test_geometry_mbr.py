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
    def test_disjoint_boxes_do_not_intersect(self, unit_square, shifted_square):
        # the batched box kernel agrees: disjoint boxes are a positive gap apart
        gap = kernels.boxes_mindist_box(
            unit_square.low[None], unit_square.high[None], shifted_square.low, shifted_square.high
        )
        assert gap.tolist() == [1.0]


def _mindist_point(box, point):
    """``mindist(box, point)`` from the box kernel."""
    point = np.asarray(point, dtype=np.float64)
    return float(kernels.boxes_mindist_point(box.low[None], box.high[None], point)[0])


def _mindist_mbr(box, other):
    """``mindist(box, other)`` from the box-to-box kernel."""
    return float(kernels.boxes_mindist_box(box.low[None], box.high[None], other.low, other.high)[0])


class TestDistances:
    """An MBR's ``mindist`` to a point or a box, as the kernels score it."""

    def test_mindist_point_zero_inside(self, unit_square):
        assert _mindist_point(unit_square, [0.3, 0.7]) == 0.0

    def test_mindist_point_axis_aligned(self, unit_square):
        assert _mindist_point(unit_square, [2.0, 0.5]) == pytest.approx(1.0)

    def test_mindist_point_corner(self, unit_square):
        assert _mindist_point(unit_square, [2.0, 2.0]) == pytest.approx(np.sqrt(2.0))

    def test_mindist_points_vectorised_matches_scalar(self, unit_square):
        pts = np.array([[2.0, 0.5], [0.5, 0.5], [-1.0, -1.0]])
        vector = kernels.points_mindist_box(pts, unit_square.low, unit_square.high)
        scalar = [_mindist_point(unit_square, p) for p in pts]
        assert np.allclose(vector, scalar)

    def test_mindist_mbr_zero_when_intersecting(self, unit_square):
        other = MBR([0.5, 0.5], [2.0, 2.0])
        assert _mindist_mbr(unit_square, other) == 0.0

    def test_mindist_mbr_between_disjoint_boxes(self, unit_square, shifted_square):
        assert _mindist_mbr(unit_square, shifted_square) == pytest.approx(1.0)

    def test_mindist_mbr_is_symmetric(self, unit_square, shifted_square):
        assert _mindist_mbr(unit_square, shifted_square) == _mindist_mbr(shifted_square, unit_square)


class TestDunder:
    def test_equality_and_hash(self, unit_square):
        clone = MBR([0.0, 0.0], [1.0, 1.0])
        assert unit_square == clone
        assert hash(unit_square) == hash(clone)

    def test_inequality_with_other_types(self, unit_square):
        assert unit_square != "not an MBR"

    def test_repr_mentions_corners(self, unit_square):
        assert "low" in repr(unit_square) and "high" in repr(unit_square)
