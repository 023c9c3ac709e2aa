"""Vectorised aggregate-distance kernels.

Every GNN algorithm in the paper bottoms out in per-point aggregate
distance evaluation; this module is the array-at-a-time engine behind
those evaluations.  Each kernel scores a whole *array* of candidates
(data points, R-tree node rectangles, or stacked query groups) against a
query group in a single NumPy call, instead of one Python-level call per
candidate.

Layering contract
-----------------
Kernels sit *below* the scalar helpers of :mod:`repro.geometry.distance`
and assume well-formed ``float64`` arrays: callers on the hot paths
(R-tree traversal, the GNN algorithms, the batch executor) pass arrays
that were validated once at the API boundary.  The scalar helpers remain
the validating public entry points and are now thin wrappers over the
one-candidate case of these kernels.

Bit-identity
------------
Each kernel mirrors the arithmetic of the scalar helper it accelerates
axis for axis (same subtraction direction up to sign, same ``x * x``
squaring, same reduction order), so replacing a Python loop of scalar
calls with one kernel call produces bit-identical floats.  The
conformance suite in ``tests/test_kernels.py`` pins this down.

Supported metrics are Euclidean (the paper's), squared Euclidean (for
order-only comparisons) and Minkowski ``L_p``; supported aggregates are
``sum`` (the paper's), ``max`` and ``min``, each optionally weighted.
"""

from __future__ import annotations

import numpy as np

#: Aggregate identifiers accepted throughout the library.
SUM = "sum"
MAX = "max"
MIN = "min"
AGGREGATES = (SUM, MAX, MIN)

#: Metric identifiers accepted by the pairwise kernels.
EUCLIDEAN = "euclidean"
SQUARED = "squared"
MINKOWSKI = "minkowski"
METRICS = (EUCLIDEAN, SQUARED, MINKOWSKI)


def check_weights(weights: np.ndarray, expected: int) -> np.ndarray:
    """Validate a per-query-point weight vector and return it as float64."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size != expected:
        raise ValueError(f"weights must be a vector of length {expected}, got shape {w.shape}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    return w


def reduce_aggregate(
    values: np.ndarray,
    aggregate: str = SUM,
    weights: np.ndarray | None = None,
    axis: int = -1,
) -> np.ndarray:
    """Apply optional weights, then the aggregate reduction along ``axis``.

    ``values`` holds per-query-point distances with the query axis last
    (shape ``(..., n)``); the result drops that axis.
    """
    if weights is not None:
        values = values * weights
    if aggregate == SUM:
        return values.sum(axis=axis)
    if aggregate == MAX:
        return values.max(axis=axis)
    if aggregate == MIN:
        return values.min(axis=axis)
    raise ValueError(f"unknown aggregate {aggregate!r}; expected one of {AGGREGATES}")


# ----------------------------------------------------------------------
# point-array metric kernels
# ----------------------------------------------------------------------
def point_distances(points: np.ndarray, q: np.ndarray, metric: str = EUCLIDEAN, p: float = 2.0) -> np.ndarray:
    """Distances from each row of ``points`` (``(m, d)``) to the single point ``q``."""
    delta = points - q
    if metric == EUCLIDEAN:
        return np.sqrt(np.sum(delta * delta, axis=1))
    if metric == SQUARED:
        return np.sum(delta * delta, axis=1)
    if metric == MINKOWSKI:
        return _minkowski_reduce(delta, p, axis=1)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def pairwise_distances(
    points: np.ndarray, group: np.ndarray, metric: str = EUCLIDEAN, p: float = 2.0
) -> np.ndarray:
    """The ``(m, n)`` matrix of distances between ``points`` and ``group`` rows."""
    delta = points[:, None, :] - group[None, :, :]
    if metric == EUCLIDEAN:
        return np.sqrt(np.sum(delta * delta, axis=2))
    if metric == SQUARED:
        return np.sum(delta * delta, axis=2)
    if metric == MINKOWSKI:
        return _minkowski_reduce(delta, p, axis=2)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _minkowski_reduce(delta: np.ndarray, p: float, axis: int) -> np.ndarray:
    if not p > 0:
        raise ValueError(f"Minkowski order p must be positive, got {p}")
    if np.isinf(p):
        return np.abs(delta).max(axis=axis)
    return np.sum(np.abs(delta) ** p, axis=axis) ** (1.0 / p)


def aggregate_distances(
    points: np.ndarray,
    group: np.ndarray,
    weights: np.ndarray | None = None,
    aggregate: str = SUM,
    metric: str = EUCLIDEAN,
    p: float = 2.0,
) -> np.ndarray:
    """Aggregate distance ``dist(p_i, Q)`` for every row of ``points`` at once.

    The core kernel of the library: one call scores an entire R-tree leaf
    (or any candidate array) against the query group.
    """
    return reduce_aggregate(pairwise_distances(points, group, metric, p), aggregate, weights)


def point_aggregate_distance(
    point: np.ndarray,
    group: np.ndarray,
    weights: np.ndarray | None = None,
    aggregate: str = SUM,
) -> float:
    """The one-candidate case of :func:`aggregate_distances` as a scalar.

    Mirrors the historical scalar helper exactly: per-query distances via
    a single ``(n, d)`` difference, then the weighted reduction.
    """
    dists = point_distances(group, point)
    return float(reduce_aggregate(dists, aggregate, weights))


def batched_aggregate_distances(
    points: np.ndarray, groups: np.ndarray, aggregate: str = SUM
) -> np.ndarray:
    """Aggregate distances of ``(N, d)`` points against ``(g, n, d)`` stacked groups.

    Returns a ``(g, N)`` array; used by the batch executor to answer many
    brute-force specs through one shared distance tensor.  The arithmetic
    matches :func:`aggregate_distances` axis for axis so batched answers
    are bitwise identical to per-query answers.
    """
    delta = points[None, :, None, :] - groups[:, None, :, :]
    matrix = np.sqrt(np.sum(delta * delta, axis=3))
    return reduce_aggregate(matrix, aggregate)


# ----------------------------------------------------------------------
# MBR (box) kernels — batched lower bounds for arrays of node rectangles
# ----------------------------------------------------------------------
def boxes_mindist_point(lows: np.ndarray, highs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``mindist(N_j, q)`` for ``m`` boxes (``(m, d)`` corners) and one point."""
    delta = np.maximum(0.0, np.maximum(lows - q, q - highs))
    return np.sqrt(np.sum(delta * delta, axis=1))


def points_mindist_box(points: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``mindist(p_i, M)`` for ``m`` points against one box ``[low, high]``."""
    delta = np.maximum(0.0, np.maximum(low - points, points - high))
    return np.sqrt(np.sum(delta * delta, axis=1))


def boxes_mindist_box(
    lows: np.ndarray, highs: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """``mindist(N_j, M)`` for ``m`` boxes against one box ``[low, high]``."""
    delta = np.maximum(0.0, np.maximum(lows - high, low - highs))
    return np.sqrt(np.sum(delta * delta, axis=1))


def boxes_mindist_points(lows: np.ndarray, highs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``mindist(N_j, q_i)`` matrix for ``m`` boxes against ``n`` points.

    Returns an ``(n, m)`` array whose row ``i`` equals
    :func:`boxes_mindist_point` for ``points[i]`` — the same subtraction
    and max operations applied per element, so the matrix rows are
    bit-identical to the per-point kernel.  The multi-stream MQM
    frontier scores an internal node against every query point in this
    single call.
    """
    delta = np.maximum(
        0.0,
        np.maximum(lows[None, :, :] - points[:, None, :], points[:, None, :] - highs[None, :, :]),
    )
    return np.sqrt(np.sum(delta * delta, axis=2))


def boxes_mindist_boxes(
    lows: np.ndarray, highs: np.ndarray, query_lows: np.ndarray, query_highs: np.ndarray
) -> np.ndarray:
    """``mindist(N_j, M_b)`` for ``m`` boxes against ``B`` query rectangles.

    Returns a ``(B, m)`` array whose row ``b`` equals
    :func:`boxes_mindist_box` for ``[query_lows[b], query_highs[b]]``
    (same elementwise arithmetic, hence bit-identical rows).  The shared
    batch executor scores one child slice against every query MBR of a
    bucket in this single call.
    """
    delta = np.maximum(
        0.0,
        np.maximum(
            lows[None, :, :] - query_highs[:, None, :],
            query_lows[:, None, :] - highs[None, :, :],
        ),
    )
    return np.sqrt(np.sum(delta * delta, axis=2))


def boxes_groups_mindist(lows: np.ndarray, highs: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Aggregate lower bound ``amindist(N_j, Q_b)`` for ``B`` stacked groups.

    ``groups`` is a ``(B, n, dims)`` stack; the result is ``(B, m)`` and
    row ``b`` equals :func:`boxes_group_mindist` (sum, unweighted) for
    ``groups[b]``: the per-element max/subtract arithmetic is identical
    and each reduction runs over its own contiguous ``n`` axis, so rows
    are bit-identical to the per-query kernel.
    """
    delta = np.maximum(
        0.0,
        np.maximum(
            lows[None, :, None, :] - groups[:, None, :, :],
            groups[:, None, :, :] - highs[None, :, None, :],
        ),
    )
    matrix = np.sqrt(np.sum(delta * delta, axis=3))
    return reduce_aggregate(matrix, SUM)


def groups_aggregate_distances_2d(points: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """2-D fast path of :func:`batched_aggregate_distances` (sum, unweighted).

    Flattens the ``(B, n, 2)`` group stack into per-axis ``(m, B*n)``
    operations (the same arithmetic :class:`Scorer2D` uses — summing a
    length-2 axis is exactly ``x + y``) and reduces each group's
    contiguous ``n`` block, so row ``b`` of the ``(B, m)`` result is
    bit-identical to :func:`aggregate_distances` against ``groups[b]``
    while avoiding the 4-D broadcast temporaries.
    """
    count, batch, n = points.shape[0], groups.shape[0], groups.shape[1]
    gx = np.ascontiguousarray(groups[:, :, 0]).reshape(-1)
    gy = np.ascontiguousarray(groups[:, :, 1]).reshape(-1)
    dx = points[:, None, 0] - gx[None, :]
    dx *= dx
    dy = points[:, None, 1] - gy[None, :]
    dy *= dy
    dx += dy
    np.sqrt(dx, out=dx)
    return np.ascontiguousarray(np.add.reduce(dx.reshape(count, batch, n), axis=2).T)


def boxes_groups_mindist_2d(lows: np.ndarray, highs: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """2-D fast path of :func:`boxes_groups_mindist` (sum, unweighted).

    Same flattening as :func:`groups_aggregate_distances_2d`; row ``b``
    of the ``(B, m)`` result is bit-identical to
    :func:`boxes_group_mindist` against ``groups[b]``.
    """
    count, batch, n = lows.shape[0], groups.shape[0], groups.shape[1]
    gx = np.ascontiguousarray(groups[:, :, 0]).reshape(-1)
    gy = np.ascontiguousarray(groups[:, :, 1]).reshape(-1)
    ax = np.maximum(lows[:, None, 0] - gx[None, :], gx[None, :] - highs[:, None, 0])
    np.maximum(ax, 0.0, out=ax)
    ax *= ax
    ay = np.maximum(lows[:, None, 1] - gy[None, :], gy[None, :] - highs[:, None, 1])
    np.maximum(ay, 0.0, out=ay)
    ay *= ay
    ax += ay
    np.sqrt(ax, out=ax)
    return np.ascontiguousarray(np.add.reduce(ax.reshape(count, batch, n), axis=2).T)


def boxes_group_mindist(
    lows: np.ndarray,
    highs: np.ndarray,
    group: np.ndarray,
    weights: np.ndarray | None = None,
    aggregate: str = SUM,
) -> np.ndarray:
    """Aggregate lower bound ``amindist(N_j, Q)`` for ``m`` boxes at once.

    For the ``sum`` aggregate this is the paper's Heuristic 3 bound
    ``sum_i mindist(N, q_i)`` evaluated for a whole child list in one
    call; ``max``/``min`` (optionally weighted) generalise it the same
    way :func:`repro.geometry.distance.group_mindist` does.
    """
    delta = np.maximum(
        0.0,
        np.maximum(lows[:, None, :] - group[None, :, :], group[None, :, :] - highs[:, None, :]),
    )
    matrix = np.sqrt(np.sum(delta * delta, axis=2))
    return reduce_aggregate(matrix, aggregate, weights)


#: Relative rounding allowance of the tangent bound.  Unlike a sum of
#: mindists, ``f(a) + g . (p - a)`` cancels: its rounding error scales
#: with ``f(a) + W * extent`` (about ``n * 2**-53`` of it), not with the
#: result, so the bound is lowered by this fraction of that scale —
#: orders of magnitude above the error for any ``n`` below ~10**6 and
#: orders below the gaps pruning decides on.
TANGENT_MARGIN = 1e-9


def boxes_group_tangent_bound(
    lows: np.ndarray,
    highs: np.ndarray,
    group: np.ndarray,
    anchor: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Convexity lower bound of ``sum_i w_i |p - q_i|`` over ``m`` boxes.

    ``f = dist(., Q)`` is convex, so the tangent plane at any point
    ``a`` lies below it: ``f(p) >= f(a) + g . (p - a)`` with ``g`` a
    subgradient at ``a`` (``sum_i w_i (a - q_i) / |a - q_i|``, terms at
    distance 0 dropped).  Minimising the right-hand side over a box is
    closed-form per axis, which bounds ``f`` over the whole box from
    ``n`` distance evaluations — the price of :func:`boxes_group_mindist`
    — and is near-exact when ``a`` is close to the box's own minimiser:
    each box is anchored at ``clip(anchor, low, high)``, its point
    nearest the caller's estimate of the group's geometric median.
    The result is lowered by :data:`TANGENT_MARGIN` so that it never
    exceeds the computed distance of a point inside the box.

    ``group`` is ``(n, dims)`` with an ``(dims,)`` anchor, or a stack
    ``(B, n, dims)`` with ``(B, dims)`` anchors (unweighted) giving a
    ``(B, m)`` result whose rows are bit-identical to the per-group call.
    """
    a = np.minimum(np.maximum(anchor[..., None, :], lows), highs)
    # (..., m, dims, n) with the query axis last *in memory* (broadcast
    # results inherit a strided operand's layout), so the reductions over
    # it run pairwise over contiguous rows exactly as Scorer2D's do.
    delta = a[..., None] - np.ascontiguousarray(np.swapaxes(group, -1, -2))[..., None, :, :]
    dist = np.sqrt(np.sum(delta * delta, axis=-2))
    value = reduce_aggregate(dist, SUM, weights)
    unit = delta / np.where(dist > 0.0, dist, np.inf)[..., None, :]
    if weights is not None:
        unit = unit * weights
    gradient = unit.sum(axis=-1)
    linear = np.minimum(gradient * (lows - a), gradient * (highs - a)).sum(axis=-1)
    total = float(group.shape[-2]) if weights is None else float(weights.sum())
    margin = TANGENT_MARGIN * (value + total * (highs - lows).sum(axis=-1))
    return value + linear - margin


# ----------------------------------------------------------------------
# workspace-backed 2-D kernels (the flat snapshot's hot path)
# ----------------------------------------------------------------------
class Scorer2D:
    """Reusable evaluation buffers for one 2-D query over a flat index.

    The flat traversals score one child/leaf slice per heap pop; at that
    rate the general kernels above spend much of their time allocating
    broadcast temporaries and dispatching through ``np.sum``.  This
    scorer preallocates every intermediate once per query and evaluates
    the same arithmetic through explicit ufunc calls with ``out=``:

    * per-axis subtraction and squaring instead of a ``(m, n, 2)``
      difference tensor — summing a length-2 axis is exactly
      ``x + y``, so the per-axis form is bit-identical;
    * ``np.add.reduce`` instead of ``np.sum`` / ``ndarray.sum`` — which
      is the reduction those helpers dispatch to internally.

    Every method returns a **view into a reused buffer**: the caller
    must consume (or copy) the result before the next scorer call.
    Results are bit-identical to the corresponding general kernels for
    the unweighted ``sum`` aggregate in two dimensions; callers fall
    back to the general kernels for anything else.
    """

    __slots__ = (
        "group_x", "group_y", "_mn_a", "_mn_b", "_mn_c", "_mn_d", "_m_a", "_m_b", "_m_out"
    )

    def __init__(self, group: np.ndarray, capacity: int):
        if group.ndim != 2 or group.shape[1] != 2:
            raise ValueError("Scorer2D requires a 2-D query group")
        capacity = max(1, int(capacity))
        n = group.shape[0]
        self.group_x = np.ascontiguousarray(group[:, 0])
        self.group_y = np.ascontiguousarray(group[:, 1])
        self._mn_a = np.empty((capacity, n), dtype=np.float64)
        self._mn_b = np.empty((capacity, n), dtype=np.float64)
        self._mn_c = np.empty((capacity, n), dtype=np.float64)
        self._mn_d = np.empty((capacity, n), dtype=np.float64)
        self._m_a = np.empty(capacity, dtype=np.float64)
        self._m_b = np.empty(capacity, dtype=np.float64)
        self._m_out = np.empty(capacity, dtype=np.float64)

    # -- point/box kernels against a single reference ------------------
    def point_distances(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        """:func:`point_distances` (Euclidean) into reused buffers."""
        m = points.shape[0]
        a, b = self._m_a[:m], self._m_b[:m]
        np.subtract(points[:, 0], q[0], out=a)
        np.multiply(a, a, out=a)
        np.subtract(points[:, 1], q[1], out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        return np.sqrt(a, out=a)

    def points_mindist_box(self, points: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """:func:`points_mindist_box` into reused buffers."""
        m = points.shape[0]
        a, b = self._m_a[:m], self._m_b[:m]
        x, y = points[:, 0], points[:, 1]
        np.subtract(low[0], x, out=a)
        np.subtract(x, high[0], out=b)
        np.maximum(a, b, out=a)
        np.maximum(a, 0.0, out=a)
        np.multiply(a, a, out=a)
        np.subtract(low[1], y, out=b)
        np.subtract(y, high[1], out=self._m_out[:m])
        np.maximum(b, self._m_out[:m], out=b)
        np.maximum(b, 0.0, out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        return np.sqrt(a, out=a)

    def boxes_mindist_point(self, lows: np.ndarray, highs: np.ndarray, q: np.ndarray) -> np.ndarray:
        """:func:`boxes_mindist_point` into reused buffers."""
        m = lows.shape[0]
        a, b = self._m_a[:m], self._m_b[:m]
        np.subtract(lows[:, 0], q[0], out=a)
        np.subtract(q[0], highs[:, 0], out=b)
        np.maximum(a, b, out=a)
        np.maximum(a, 0.0, out=a)
        np.multiply(a, a, out=a)
        np.subtract(lows[:, 1], q[1], out=b)
        np.subtract(q[1], highs[:, 1], out=self._m_out[:m])
        np.maximum(b, self._m_out[:m], out=b)
        np.maximum(b, 0.0, out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        return np.sqrt(a, out=a)

    def boxes_mindist_box(
        self, lows: np.ndarray, highs: np.ndarray, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        """:func:`boxes_mindist_box` into reused buffers."""
        m = lows.shape[0]
        a, b = self._m_a[:m], self._m_b[:m]
        np.subtract(lows[:, 0], high[0], out=a)
        np.subtract(low[0], highs[:, 0], out=b)
        np.maximum(a, b, out=a)
        np.maximum(a, 0.0, out=a)
        np.multiply(a, a, out=a)
        np.subtract(lows[:, 1], high[1], out=b)
        np.subtract(low[1], highs[:, 1], out=self._m_out[:m])
        np.maximum(b, self._m_out[:m], out=b)
        np.maximum(b, 0.0, out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        return np.sqrt(a, out=a)

    # -- group kernels (unweighted sum aggregate) ----------------------
    def group_distance_matrix(self, points: np.ndarray) -> np.ndarray:
        """The ``(m, n)`` distance matrix behind :meth:`group_sum_distances`.

        Column ``i`` is bit-identical to :meth:`point_distances` against
        query point ``i`` (per-axis subtract/square/add/sqrt — summing a
        length-2 axis is exactly ``x + y``).  The multi-stream MQM
        frontier consumes the whole matrix: every active stream's leaf
        keys come from one call.  The view aliases the workspace — copy
        before the next scorer call.
        """
        m = points.shape[0]
        a, b = self._mn_a[:m], self._mn_b[:m]
        np.subtract(points[:, None, 0], self.group_x[None, :], out=a)
        np.multiply(a, a, out=a)
        np.subtract(points[:, None, 1], self.group_y[None, :], out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        return np.sqrt(a, out=a)

    def group_mindist_matrix(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """The ``(m, n)`` mindist matrix behind :meth:`boxes_group_sum_mindist`.

        Column ``i`` is bit-identical to :meth:`boxes_mindist_point`
        against query point ``i``; used by the multi-stream MQM frontier
        to bound an internal node's children for every stream at once.
        The view aliases the workspace — copy before the next call.
        """
        m = lows.shape[0]
        a, b = self._mn_a[:m], self._mn_b[:m]
        np.subtract(lows[:, None, 0], self.group_x[None, :], out=a)
        np.subtract(self.group_x[None, :], highs[:, None, 0], out=b)
        np.maximum(a, b, out=a)
        np.maximum(a, 0.0, out=a)
        np.multiply(a, a, out=a)
        c = self._mn_c[:m]
        np.subtract(lows[:, None, 1], self.group_y[None, :], out=b)
        np.subtract(self.group_y[None, :], highs[:, None, 1], out=c)
        np.maximum(b, c, out=b)
        np.maximum(b, 0.0, out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        return np.sqrt(a, out=a)

    def group_sum_distances(self, points: np.ndarray) -> np.ndarray:
        """:func:`aggregate_distances` (sum, unweighted) into reused buffers."""
        m = points.shape[0]
        a, b = self._mn_a[:m], self._mn_b[:m]
        np.subtract(points[:, None, 0], self.group_x[None, :], out=a)
        np.multiply(a, a, out=a)
        np.subtract(points[:, None, 1], self.group_y[None, :], out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        np.sqrt(a, out=a)
        return np.add.reduce(a, axis=1, out=self._m_out[:m])

    def boxes_group_sum_mindist(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """:func:`boxes_group_mindist` (sum, unweighted) into reused buffers."""
        m = lows.shape[0]
        a, b = self._mn_a[:m], self._mn_b[:m]
        np.subtract(lows[:, None, 0], self.group_x[None, :], out=a)
        np.subtract(self.group_x[None, :], highs[:, None, 0], out=b)
        np.maximum(a, b, out=a)
        np.maximum(a, 0.0, out=a)
        np.multiply(a, a, out=a)
        c = self._mn_c[:m]
        np.subtract(lows[:, None, 1], self.group_y[None, :], out=b)
        np.subtract(self.group_y[None, :], highs[:, None, 1], out=c)
        np.maximum(b, c, out=b)
        np.maximum(b, 0.0, out=b)
        np.multiply(b, b, out=b)
        np.add(a, b, out=a)
        np.sqrt(a, out=a)
        return np.add.reduce(a, axis=1, out=self._m_out[:m])

    def boxes_group_tangent_bound(
        self, lows: np.ndarray, highs: np.ndarray, anchor: np.ndarray
    ) -> np.ndarray:
        """:func:`boxes_group_tangent_bound` (unweighted); returns a fresh array."""
        m = lows.shape[0]
        dx, dy, dist, squared = self._mn_a[:m], self._mn_b[:m], self._mn_c[:m], self._mn_d[:m]
        a = np.minimum(np.maximum(anchor, lows), highs)
        np.subtract(a[:, 0, None], self.group_x[None, :], out=dx)
        np.subtract(a[:, 1, None], self.group_y[None, :], out=dy)
        np.multiply(dx, dx, out=dist)
        np.multiply(dy, dy, out=squared)
        np.add(dist, squared, out=dist)
        np.sqrt(dist, out=dist)
        value = np.add.reduce(dist, axis=1)
        np.putmask(dist, dist == 0.0, np.inf)
        gradient = np.empty_like(a)
        np.add.reduce(np.divide(dx, dist, out=dx), axis=1, out=gradient[:, 0])
        np.add.reduce(np.divide(dy, dist, out=dy), axis=1, out=gradient[:, 1])
        linear = np.minimum(gradient * (lows - a), gradient * (highs - a))
        extent = highs - lows
        margin = TANGENT_MARGIN * (
            value + float(self.group_x.size) * (extent[:, 0] + extent[:, 1])
        )
        return value + (linear[:, 0] + linear[:, 1]) - margin


def scorer_for(group: np.ndarray, weights, aggregate: str, capacity: int) -> Scorer2D | None:
    """A :class:`Scorer2D` when the query qualifies for the 2-D fast path.

    The scorer's group kernels specialise the unweighted ``sum``
    aggregate in two dimensions — exactly the paper's setting; any other
    combination returns ``None`` and callers use the general kernels.
    """
    if group.ndim == 2 and group.shape[1] == 2 and weights is None and aggregate == SUM:
        return Scorer2D(group, capacity)
    return None


# ----------------------------------------------------------------------
# weighted-summary kernels (F-MBM's Heuristics 5/6 bounds)
# ----------------------------------------------------------------------
def boxes_weighted_group_mindist(
    lows: np.ndarray,
    highs: np.ndarray,
    summary_lows: np.ndarray,
    summary_highs: np.ndarray,
    cardinalities: np.ndarray,
) -> np.ndarray:
    """Heuristic-5 weighted mindist ``sum_i n_i * mindist(N_j, M_i)`` per box."""
    delta = np.maximum(
        0.0,
        np.maximum(
            lows[:, None, :] - summary_highs[None, :, :],
            summary_lows[None, :, :] - highs[:, None, :],
        ),
    )
    matrix = np.sqrt(np.sum(delta * delta, axis=2))
    return (matrix * cardinalities).sum(axis=1)


def points_weighted_group_mindist(
    points: np.ndarray,
    summary_lows: np.ndarray,
    summary_highs: np.ndarray,
    cardinalities: np.ndarray,
) -> np.ndarray:
    """Heuristic-5 weighted mindist for ``m`` points against the block summaries."""
    delta = np.maximum(
        0.0,
        np.maximum(
            summary_lows[None, :, :] - points[:, None, :],
            points[:, None, :] - summary_highs[None, :, :],
        ),
    )
    matrix = np.sqrt(np.sum(delta * delta, axis=2))
    return (matrix * cardinalities).sum(axis=1)
