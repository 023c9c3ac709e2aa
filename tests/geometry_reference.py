"""Scalar ``mindist`` of one box: the oracle the box kernels are proven against.

These were ``MBR``'s own ``mindist_point``/``mindist_points``/
``mindist_mbr`` methods, the classic per-box lower bounds of [RKV95]
(Table 3.1 of the paper).  Every query scores boxes through the batched
kernels of :mod:`repro.geometry.kernels` instead; ``test_kernels``
checks those bit for bit against these (dims 1-7), and
``fmbm_reference`` orders and bounds blocks one summary at a time with
them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geometry.mbr import MBR
from repro.geometry.point import as_point, as_points


def mindist_point(box: MBR, point: Sequence[float]) -> float:
    """Minimum Euclidean distance from ``point`` to any point of the MBR.

    This is the classic ``mindist(N, q)`` lower bound of [RKV95]; it is
    zero when the point lies inside the rectangle.
    """
    p = as_point(point, dims=box.dims)
    delta = np.maximum(0.0, np.maximum(box.low - p, p - box.high))
    # np.sum (not np.dot) so the scalar value is bit-identical to the
    # batched kernels in repro.geometry.kernels.
    return float(np.sqrt(np.sum(delta * delta)))


def mindist_points(box: MBR, points: np.ndarray) -> np.ndarray:
    """Vectorised :func:`mindist_point` for a ``(count, dims)`` array."""
    pts = as_points(points, dims=box.dims)
    delta = np.maximum(0.0, np.maximum(box.low - pts, pts - box.high))
    return np.sqrt(np.sum(delta * delta, axis=1))


def mindist_mbr(box: MBR, other: MBR) -> float:
    """Minimum distance between any two points of the two rectangles.

    ``mindist(N1, N2)`` in the paper's terminology; zero when the
    rectangles intersect.
    """
    delta = np.maximum(0.0, np.maximum(box.low - other.high, other.low - box.high))
    return float(np.sqrt(np.sum(delta * delta)))
