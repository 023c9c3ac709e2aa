"""Distance functions.

The paper defines the group distance of a data point ``p`` to a query
group ``Q`` as the *sum* of Euclidean distances (Section 1).  The
functions here implement that definition plus the ``max``/``min``
aggregate generalisations flagged as future work in Section 6 (and
pursued by the authors' follow-up TODS paper on aggregate nearest
neighbors).  Every GNN algorithm in :mod:`repro.core` is written against
these helpers so the aggregate can be swapped without touching the
traversal logic.

Since the kernel layer landed, these helpers are thin *validating*
wrappers over the one-candidate case of :mod:`repro.geometry.kernels`:
they normalise arbitrary user input once, then delegate to the same
vectorised arithmetic the hot paths use, so scalar and batched
evaluation agree bit for bit (up to seven dimensions; see the kernel
module's bit-identity rule for why).  Inputs that are already canonical
``float64`` arrays skip re-validation entirely (the fast path).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geometry import kernels
from repro.geometry.kernels import AGGREGATES, MAX, MIN, SUM  # noqa: F401  (re-exported API)
from repro.geometry.mbr import MBR
from repro.geometry.point import as_point, as_points


def _fast_point(value, dims: int | None = None) -> np.ndarray:
    """Return ``value`` as a canonical point, skipping re-normalisation when possible.

    The fast path accepts only what the library itself produces — a 1-D
    non-empty *finite* ``float64`` array (of the expected dimensionality,
    when given) — and skips the ``asarray`` conversion and shape
    branching; anything else, including non-finite arrays, flows through
    :func:`repro.geometry.point.as_point` and raises the same errors as
    before.
    """
    if (
        type(value) is np.ndarray
        and value.dtype == np.float64
        and value.ndim == 1
        and value.size
        and (dims is None or value.size == dims)
        and np.isfinite(value).all()
    ):
        return value
    return as_point(value, dims=dims)


def _fast_points(values, dims: int | None = None) -> np.ndarray:
    """Collection counterpart of :func:`_fast_point`."""
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.ndim == 2
        and values.shape[0]
        and values.shape[1]
        and (dims is None or values.shape[1] == dims)
        and np.isfinite(values).all()
    ):
        return values
    return as_points(values, dims=dims)


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance between two points.

    Uses ``np.sum`` rather than ``np.dot`` so the scalar value is
    bit-identical to the one-candidate row of the batched kernels.
    """
    pa = _fast_point(a)
    pb = _fast_point(b, dims=pa.size)
    delta = pa - pb
    return float(np.sqrt(np.sum(delta * delta)))


def squared_euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Squared Euclidean distance (avoids the square root when only ordering matters)."""
    pa = _fast_point(a)
    pb = _fast_point(b, dims=pa.size)
    delta = pa - pb
    return float(np.sum(delta * delta))


def minkowski(a: Sequence[float], b: Sequence[float], p: float = 2.0) -> float:
    """Minkowski ``L_p`` distance between two points (``p = inf`` is Chebyshev)."""
    pa = _fast_point(a)
    pb = _fast_point(b, dims=pa.size)
    return float(kernels.point_distances(pa.reshape(1, -1), pb, metric=kernels.MINKOWSKI, p=p)[0])


def distances_to_group(point: Sequence[float], group: np.ndarray) -> np.ndarray:
    """Vector of Euclidean distances from ``point`` to every point of ``group``."""
    p = _fast_point(point)
    pts = _fast_points(group, dims=p.size)
    return kernels.point_distances(pts, p)


def group_distance(
    point: Sequence[float],
    group: np.ndarray,
    weights: np.ndarray | None = None,
    aggregate: str = SUM,
) -> float:
    """Aggregate distance ``dist(p, Q)`` between a point and a query group.

    With the default ``sum`` aggregate and no weights this is exactly the
    paper's ``dist(p, Q) = sum_i |p q_i|``.

    Parameters
    ----------
    point:
        The data point ``p``.
    group:
        The query group ``Q`` as a ``(n, dims)`` array.
    weights:
        Optional positive per-query-point weights (extension feature).
    aggregate:
        One of ``"sum"`` (paper), ``"max"`` or ``"min"``.
    """
    dists = distances_to_group(point, group)
    if weights is not None:
        weights = kernels.check_weights(weights, dists.size)
    return float(kernels.reduce_aggregate(dists, aggregate, weights))


def group_distances_bulk(
    points: np.ndarray,
    group: np.ndarray,
    weights: np.ndarray | None = None,
    aggregate: str = SUM,
) -> np.ndarray:
    """Aggregate distance from each of ``points`` to the group ``Q``.

    Vectorised over the data points; the validating entry point of
    :func:`repro.geometry.kernels.aggregate_distances`.
    """
    pts = _fast_points(points)
    grp = _fast_points(group, dims=pts.shape[1])
    if weights is not None:
        weights = kernels.check_weights(weights, grp.shape[0])
    return kernels.aggregate_distances(pts, grp, weights=weights, aggregate=aggregate)


def group_mindist(
    mbr: MBR,
    group: np.ndarray,
    weights: np.ndarray | None = None,
    aggregate: str = SUM,
) -> float:
    """Lower bound of the aggregate distance between any point in ``mbr`` and ``Q``.

    For the ``sum`` aggregate this is Heuristic 3 of the paper:
    ``sum_i mindist(N, q_i)``.  For ``max``/``min`` the corresponding
    aggregate of the per-query mindists is still a valid lower bound,
    because each ``mindist(N, q_i)`` lower-bounds ``|p q_i|`` for every
    ``p`` in ``N``.
    """
    pts = _fast_points(group, dims=mbr.dims)
    dists = kernels.points_mindist_box(pts, mbr.low, mbr.high)
    if weights is not None:
        weights = kernels.check_weights(weights, dists.size)
    return float(kernels.reduce_aggregate(dists, aggregate, weights))


def aggregate_distance(values: Sequence[float], aggregate: str = SUM) -> float:
    """Combine already-computed per-query distances with the chosen aggregate."""
    return float(kernels.reduce_aggregate(np.asarray(values, dtype=np.float64), aggregate))


def _aggregate(values: np.ndarray, aggregate: str) -> float:
    """Backwards-compatible alias for the kernel reduction."""
    return float(kernels.reduce_aggregate(values, aggregate))
