"""Tests for repro.geometry.point."""

import numpy as np
import pytest

from repro.geometry.point import GeometryError, as_point, as_points


class TestAsPoint:
    def test_list_is_converted_to_float_array(self):
        point = as_point([1, 2])
        assert point.dtype == np.float64
        assert point.tolist() == [1.0, 2.0]

    def test_tuple_and_array_inputs_are_equivalent(self):
        assert np.array_equal(as_point((3.5, -1.0)), as_point(np.array([3.5, -1.0])))

    def test_dimensionality_is_enforced_when_requested(self):
        with pytest.raises(GeometryError):
            as_point([1.0, 2.0, 3.0], dims=2)

    def test_matching_dims_accepted(self):
        assert as_point([1.0, 2.0], dims=2).shape == (2,)

    def test_two_dimensional_input_is_rejected(self):
        with pytest.raises(GeometryError):
            as_point([[1.0, 2.0]])

    def test_empty_input_is_rejected(self):
        with pytest.raises(GeometryError):
            as_point([])

    def test_nan_coordinates_are_rejected(self):
        with pytest.raises(GeometryError):
            as_point([1.0, float("nan")])

    def test_infinite_coordinates_are_rejected(self):
        with pytest.raises(GeometryError):
            as_point([float("inf"), 0.0])


class TestAsPoints:
    def test_single_point_is_promoted_to_one_row(self):
        points = as_points([1.0, 2.0])
        assert points.shape == (1, 2)

    def test_list_of_points_keeps_shape(self):
        points = as_points([[1, 2], [3, 4], [5, 6]])
        assert points.shape == (3, 2)
        assert points.dtype == np.float64

    def test_empty_collection_is_rejected(self):
        with pytest.raises(GeometryError):
            as_points(np.empty((0, 2)))

    def test_zero_dimensional_points_are_rejected(self):
        with pytest.raises(GeometryError):
            as_points(np.empty((3, 0)))

    def test_dims_mismatch_is_rejected(self):
        with pytest.raises(GeometryError):
            as_points([[1, 2, 3]], dims=2)

    def test_three_dimensional_array_is_rejected(self):
        with pytest.raises(GeometryError):
            as_points(np.zeros((2, 2, 2)))

    def test_nan_rejected(self):
        with pytest.raises(GeometryError):
            as_points([[1.0, np.nan]])
