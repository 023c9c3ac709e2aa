"""Axis-aligned minimum bounding rectangles (MBRs).

The R-tree stores an MBR per entry; the GNN pruning heuristics of the
paper are all phrased in terms of ``mindist`` between MBRs, points and
other MBRs (Table 3.1 of the paper).  The batched box kernels of
:mod:`repro.geometry.kernels` compute them, an array of boxes per call;
the class below describes one box, such as a query group's MBR.  It is
dimension agnostic — the paper uses 2-D data but explicitly notes the
techniques apply to higher dimensionalities.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.point import GeometryError, as_point, as_points


class MBR:
    """An axis-aligned hyper-rectangle described by its low/high corners.

    Instances are treated as immutable.  ``low`` and ``high`` are float64 arrays of equal length
    with ``low <= high`` in every dimension.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: Sequence[float], high: Sequence[float]):
        low_arr = as_point(low)
        high_arr = as_point(high)
        if low_arr.size != high_arr.size:
            raise GeometryError("low and high corners must have the same dimensionality")
        if np.any(low_arr > high_arr):
            raise GeometryError(f"invalid MBR: low {low_arr} exceeds high {high_arr}")
        self.low = low_arr
        self.high = high_arr

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]] | np.ndarray) -> "MBR":
        """Return the tightest MBR covering ``points``."""
        pts = as_points(points)
        return cls(pts.min(axis=0), pts.max(axis=0))

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        """Dimensionality of the rectangle."""
        return self.low.size

    @property
    def center(self) -> np.ndarray:
        """Geometric centre of the rectangle."""
        return (self.low + self.high) / 2.0

    @property
    def extents(self) -> np.ndarray:
        """Side length along each dimension."""
        return self.high - self.low

    def area(self) -> float:
        """Hyper-volume of the rectangle (area in 2-D)."""
        return float(np.prod(self.extents))

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(np.array_equal(self.low, other.low) and np.array_equal(self.high, other.high))

    def __hash__(self) -> int:
        return hash((self.low.tobytes(), self.high.tobytes()))

    def __repr__(self) -> str:
        low = ", ".join(f"{v:g}" for v in self.low)
        high = ", ".join(f"{v:g}" for v in self.high)
        return f"MBR(low=[{low}], high=[{high}])"
