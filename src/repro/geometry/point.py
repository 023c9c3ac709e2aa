"""Point helpers.

Points are represented throughout the library as 1-D ``numpy`` arrays of
``float64`` (a single point) or 2-D arrays of shape ``(count, dims)``
(a point collection).  These helpers normalise arbitrary user input
(lists, tuples, arrays) into that canonical representation and perform
the small amount of validation the rest of the code relies on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


class GeometryError(ValueError):
    """Raised when input cannot be interpreted as point data."""


def as_point(value: Sequence[float] | np.ndarray, dims: int | None = None) -> np.ndarray:
    """Return ``value`` as a 1-D float64 array representing a single point.

    Parameters
    ----------
    value:
        Any sequence of coordinates (list, tuple, array).
    dims:
        Optional expected dimensionality; a mismatch raises
        :class:`GeometryError`.
    """
    point = np.asarray(value, dtype=np.float64)
    if point.ndim != 1:
        raise GeometryError(f"expected a single point, got array of shape {point.shape}")
    if point.size == 0:
        raise GeometryError("a point must have at least one coordinate")
    if not np.all(np.isfinite(point)):
        raise GeometryError(f"point coordinates must be finite, got {point!r}")
    if dims is not None and point.size != dims:
        raise GeometryError(f"expected a {dims}-dimensional point, got {point.size} coordinates")
    return point


def as_points(values: Iterable[Sequence[float]] | np.ndarray, dims: int | None = None) -> np.ndarray:
    """Return ``values`` as a 2-D ``(count, dims)`` float64 array.

    A single point is promoted to a one-row collection.  Empty input is
    rejected because none of the algorithms in the paper are defined for
    an empty query group or dataset.
    """
    points = np.asarray(values, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(1, -1)
    if points.ndim != 2:
        raise GeometryError(f"expected a collection of points, got array of shape {points.shape}")
    if points.shape[0] == 0 or points.shape[1] == 0:
        raise GeometryError("point collections must be non-empty")
    if not np.all(np.isfinite(points)):
        raise GeometryError("point coordinates must be finite")
    if dims is not None and points.shape[1] != dims:
        raise GeometryError(
            f"expected {dims}-dimensional points, got {points.shape[1]} coordinates"
        )
    return points
