"""Vectorised aggregate-distance kernels.

Every GNN algorithm in the paper bottoms out in two evaluations: the
aggregate distance ``dist(p, Q)`` of every point of a leaf, and a lower
bound of it over every box of a child slice.  This module is the
array-at-a-time engine behind both.  Each kernel scores a whole *array*
of candidates (data points, R-tree node rectangles, or stacked query
groups) against a query group in a single call, instead of one
Python-level call per candidate.

One form
--------
Every Euclidean kernel is written the same way, whatever the query's
dimensionality, weights or aggregate.  Coordinates are taken axis-major:
one broadcast subtraction builds a C-ordered ``(dims, m, n)`` stack of
differences (or box gaps) that holds one contiguous ``(m, n)`` slab per
axis.  The slabs are squared in place and added over the leading axis —
the column loop ``total += d_j * d_j``, axis by axis, done by one NumPy
reduction — then rooted in place, and :func:`reduce_aggregate` runs over
the contiguous query axis.  There is no coordinates-last ``(m, n, dims)``
tensor, no reusable workspace (a result never aliases another call's)
and no special case: the paper's 2-D unweighted sums run the same code
as every other query at the same per-call price.

Layering contract
-----------------
Kernels sit *below* the scalar helpers of :mod:`repro.geometry.distance`
and assume well-formed ``float64`` arrays: callers on the hot paths
(R-tree traversal, the GNN algorithms, the batch executor) pass arrays
that were validated once at the API boundary.  The scalar helpers remain
the validating public entry points.

Bit-identity
------------
The scalar helpers (:mod:`repro.geometry.distance`, ``MBR.mindist_*``)
sum squared differences with ``np.sum`` over the coordinate axis.  Below
eight terms NumPy adds them one after the other, exactly as the per-axis
accumulation does, so for ``dims <= 7`` every kernel returns the floats
of the scalar loop it replaces, and row ``b`` of every stacked
``(B, ...)`` kernel the floats of the solo kernel on group ``b`` (each
reduction over the query axis runs over its own contiguous ``n``
values).  From eight dimensions ``np.sum`` switches to pairwise
summation, so a scalar helper may differ from a kernel in the last ulp;
every algorithm, brute force included, scores through these kernels, so
answers stay exact against each other.  ``tests/test_kernels.py`` pins
the rule for dims 1–7.

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
    """Validate a per-query-point weight vector and return it as float64.

    Weights must be finite and non-negative, one per query point, and
    not all zero: a group with no weight puts every point at aggregate
    distance 0, so it has no nearest neighbour.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"weights must be a 1-d vector, got shape {w.shape}")
    if w.size != expected:
        raise ValueError(
            f"weights length {w.size} does not match the group cardinality {expected}"
        )
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    if not w.sum() > 0:
        raise ValueError("weights must not all be zero: the group would have no nearest neighbour")
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
        return np.add.reduce(values, axis=axis)
    if aggregate == MAX:
        return np.maximum.reduce(values, axis=axis)
    if aggregate == MIN:
        return np.minimum.reduce(values, axis=axis)
    raise ValueError(f"unknown aggregate {aggregate!r}; expected one of {AGGREGATES}")


# ----------------------------------------------------------------------
# the axis-major building blocks
# ----------------------------------------------------------------------
def _axis_major(x: np.ndarray) -> np.ndarray:
    """A view of ``x`` with its coordinate (last) axis moved to the front."""
    return x.transpose((x.ndim - 1, *range(x.ndim - 1)))


def _norms(terms: np.ndarray, metric: str = EUCLIDEAN) -> np.ndarray:
    """Norms over a fresh C-ordered ``(dims, ...)`` stack of per-axis terms.

    The slabs are squared in place and added over the leading axis in
    axis order, then rooted in place when ``metric`` is Euclidean.
    """
    terms *= terms
    total = np.add.reduce(terms, axis=0)
    if metric == EUCLIDEAN:
        return np.sqrt(total, out=total)
    if metric == SQUARED:
        return total
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _gap(low_a, high_a, low_b, high_b) -> np.ndarray:
    """Axis-major ``mindist`` terms between boxes: ``max(low_a - high_b, low_b - high_a, 0)``.

    A point is the box whose corners coincide.  The result is fresh and
    C-ordered; so is the second difference, because NumPy's default
    layout for broadcast strided operands makes the ``max`` several
    times slower.
    """
    gap = np.subtract(low_a, high_b, order="C")
    np.maximum(gap, np.subtract(low_b, high_a, order="C"), out=gap)
    return np.maximum(gap, 0.0, out=gap)


def _minkowski_reduce(delta: np.ndarray, p: float, axis: int) -> np.ndarray:
    if not p > 0:
        raise ValueError(f"Minkowski order p must be positive, got {p}")
    if np.isinf(p):
        return np.abs(delta).max(axis=axis)
    return np.sum(np.abs(delta) ** p, axis=axis) ** (1.0 / p)


# ----------------------------------------------------------------------
# point-array metric kernels
# ----------------------------------------------------------------------
def point_distances(
    points: np.ndarray, q: np.ndarray, metric: str = EUCLIDEAN, p: float = 2.0
) -> np.ndarray:
    """Distances from each row of ``points`` (``(m, d)``) to the single point ``q``."""
    if metric == MINKOWSKI:
        return _minkowski_reduce(points - q, p, axis=1)
    return _norms(np.subtract(points.T, q[:, None], order="C"), metric)


def pairwise_distances(
    points: np.ndarray, group: np.ndarray, metric: str = EUCLIDEAN, p: float = 2.0
) -> np.ndarray:
    """The ``(m, n)`` matrix of distances between ``points`` and ``group`` rows."""
    if metric == MINKOWSKI:
        return _minkowski_reduce(points[:, None, :] - group[None, :, :], p, axis=2)
    return _norms(np.subtract(points.T[:, :, None], group.T[:, None, :], order="C"), metric)


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


def batched_aggregate_distances(
    points: np.ndarray, groups: np.ndarray, aggregate: str = SUM
) -> np.ndarray:
    """Aggregate distances of ``(N, d)`` points against ``(B, n, d)`` stacked groups.

    Returns a ``(B, N)`` array whose row ``b`` equals
    :func:`aggregate_distances` against ``groups[b]``; used by the batch
    executor and the shared MBM traversal to score many specs in one
    call.
    """
    columns = groups.transpose(2, 0, 1)[:, :, None, :]
    terms = np.subtract(points.T[:, None, :, None], columns, order="C")
    return reduce_aggregate(_norms(terms), aggregate)


# ----------------------------------------------------------------------
# MBR (box) kernels — batched lower bounds for arrays of node rectangles
# ----------------------------------------------------------------------
def boxes_mindist_point(lows: np.ndarray, highs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``mindist(N_j, q)`` for ``m`` boxes (``(m, d)`` corners) and one point."""
    q = q[:, None]
    return _norms(_gap(lows.T, highs.T, q, q))


def points_mindist_box(points: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``mindist(p_i, M)`` for ``m`` points against one box ``[low, high]``."""
    return _norms(_gap(low[:, None], high[:, None], points.T, points.T))


def boxes_mindist_box(
    lows: np.ndarray, highs: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """``mindist(N_j, M)`` for ``m`` boxes against one box ``[low, high]``."""
    return _norms(_gap(lows.T, highs.T, low[:, None], high[:, None]))


def boxes_mindist_points(lows: np.ndarray, highs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``mindist(N_j, q_i)`` matrix for ``m`` boxes against ``n`` points.

    Returns an ``(n, m)`` array whose row ``i`` equals
    :func:`boxes_mindist_point` for ``points[i]``.  The multi-stream MQM
    frontier scores an internal node against every query point in this
    single call.
    """
    columns = points.T[:, :, None]
    return _norms(_gap(lows.T[:, None, :], highs.T[:, None, :], columns, columns))


def boxes_mindist_boxes(
    lows: np.ndarray, highs: np.ndarray, query_lows: np.ndarray, query_highs: np.ndarray
) -> np.ndarray:
    """``mindist(N_j, M_b)`` for ``m`` boxes against ``B`` query rectangles.

    Returns a ``(B, m)`` array whose row ``b`` equals
    :func:`boxes_mindist_box` for ``[query_lows[b], query_highs[b]]``.
    The shared batch traversal scores one child slice against every
    query MBR of a bucket in this single call.
    """
    return _norms(
        _gap(
            lows.T[:, None, :],
            highs.T[:, None, :],
            query_lows.T[:, :, None],
            query_highs.T[:, :, None],
        )
    )


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
    columns = group.T[:, None, :]
    matrix = _norms(_gap(lows.T[:, :, None], highs.T[:, :, None], columns, columns))
    return reduce_aggregate(matrix, aggregate, weights)


def boxes_groups_mindist(lows: np.ndarray, highs: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Aggregate lower bound ``amindist(N_j, Q_b)`` for ``B`` stacked groups.

    ``groups`` is a ``(B, n, dims)`` stack; the result is ``(B, m)`` and
    row ``b`` equals :func:`boxes_group_mindist` (sum, unweighted) for
    ``groups[b]``.
    """
    columns = groups.transpose(2, 0, 1)[:, :, None, :]
    box_lows, box_highs = lows.T[:, None, :, None], highs.T[:, None, :, None]
    return reduce_aggregate(_norms(_gap(box_lows, box_highs, columns, columns)), SUM)


#: Relative rounding allowance of a tangent plane.  Unlike a sum of
#: mindists, ``f(a) + g . (p - a)`` cancels: evaluated anywhere in a box
#: around ``a``, its rounding error scales with ``f(a) + W * extent``
#: (about ``n * 2**-53`` of it), not with the result, so each plane is
#: lowered by this fraction of that scale — orders of magnitude above
#: the error for any ``n`` below ~10**6 and orders below the gaps
#: pruning decides on.
TANGENT_MARGIN = 1e-9


def group_tangent_planes(
    lows: np.ndarray,
    highs: np.ndarray,
    group: np.ndarray,
    anchor: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tangent planes of ``f = sum_i w_i |. - q_i|``, one per box: ``(values, gradients, origins)``.

    ``f`` is convex, so the plane at any origin ``a`` lies below it:
    ``f(p) >= f(a) + g . (p - a)`` with ``g`` a subgradient at ``a``
    (``sum_i w_i (a - q_i) / |a - q_i|``, terms at distance 0 dropped).
    Each box's plane is taken at ``clip(anchor, low, high)`` — its point
    nearest the caller's estimate of the group's geometric median, where
    the plane is near-exact — for the ``n`` distances of ``f(a)``, and
    its value is lowered by :data:`TANGENT_MARGIN` of
    ``f(a) + W * |high - low|_1``, so that :func:`plane_lower_bounds`
    never exceeds the computed distance of a point inside that box.

    ``group`` is ``(n, dims)`` with an ``(dims,)`` anchor, or a stack
    ``(B, n, dims)`` with ``(B, dims)`` anchors (unweighted): values are
    ``(..., m)``, gradients and origins ``(..., m, dims)``, each row
    bit-identical to the per-group call.
    """
    origins = np.minimum(np.maximum(anchor[..., None, :], lows), highs)
    # (dims, ..., m, n) differences, kept past the norms for the gradient.
    deltas = np.subtract(
        _axis_major(origins)[..., None], _axis_major(group)[..., None, :], order="C"
    )
    dist = np.add.reduce(deltas * deltas, axis=0)  # _norms, keeping ``deltas``
    np.sqrt(dist, out=dist)
    values = reduce_aggregate(dist, SUM, weights)
    np.putmask(dist, dist == 0.0, np.inf)  # a query point at the origin adds no direction
    deltas /= dist
    if weights is not None:
        deltas *= weights
    gradients = np.add.reduce(deltas, axis=-1)
    total = float(group.shape[-2]) if weights is None else float(weights.sum())
    values *= 1.0 - TANGENT_MARGIN
    values -= (TANGENT_MARGIN * total) * np.add.reduce(highs - lows, axis=-1)
    return values, gradients.transpose((*range(1, gradients.ndim), 0)), origins


def plane_lower_bounds(values, gradients, origins, lows: np.ndarray, highs: np.ndarray):
    """Minimum of each plane ``value + g . (p - origin)`` over a box, or at a point.

    ``O(dims)`` per box: the minimum sits at the corner that takes
    ``high`` on the axes where ``g`` is negative and ``low`` elsewhere.
    Broadcasts: one plane against ``m`` boxes, or ``m`` planes against
    their own boxes.  Pass the same array as ``lows`` and ``highs`` for
    points.  Sound only inside the box each plane was taken for (see
    :func:`group_tangent_planes`).
    """
    corners = lows if highs is lows else np.where(gradients < 0.0, highs, lows)
    return values + np.add.reduce((corners - origins) * gradients, axis=-1)


def boxes_group_tangent_bound(
    lows: np.ndarray,
    highs: np.ndarray,
    group: np.ndarray,
    anchor: np.ndarray,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Convexity lower bound of ``sum_i w_i |p - q_i|`` over each of ``m`` boxes.

    Each box's own plane (:func:`group_tangent_planes`) minimised over
    it (:func:`plane_lower_bounds`): ``n`` distance evaluations per box,
    the price of :func:`boxes_group_mindist`.  Shapes as
    :func:`group_tangent_planes`; the result is ``(..., m)``.
    """
    planes = group_tangent_planes(lows, highs, group, anchor, weights)
    return plane_lower_bounds(*planes, lows, highs)


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
    matrix = _norms(
        _gap(
            lows.T[:, :, None],
            highs.T[:, :, None],
            summary_lows.T[:, None, :],
            summary_highs.T[:, None, :],
        )
    )
    return reduce_aggregate(matrix, SUM, cardinalities)


def points_weighted_group_mindist(
    points: np.ndarray,
    summary_lows: np.ndarray,
    summary_highs: np.ndarray,
    cardinalities: np.ndarray,
) -> np.ndarray:
    """Heuristic-5 weighted mindist for ``m`` points against the block summaries."""
    columns = points.T[:, :, None]
    matrix = _norms(_gap(summary_lows.T[:, None, :], summary_highs.T[:, None, :], columns, columns))
    return reduce_aggregate(matrix, SUM, cardinalities)


class Scorer2D:
    """A query group bound to two general kernels, kept for gnnbench's frozen probes.

    ``benchmarks/gnnbench/probes.py`` is frozen and times
    ``Scorer2D(group, capacity).group_sum_distances`` and
    ``.boxes_group_sum_mindist`` by name; those probes are this class's
    only user.  Nothing in ``src/`` constructs it, and ``capacity`` is
    ignored: the kernels need no workspace.
    """

    def __init__(self, group: np.ndarray, capacity: int = 0):
        self.group = group

    def group_sum_distances(self, points: np.ndarray) -> np.ndarray:
        return aggregate_distances(points, self.group)

    def boxes_group_sum_mindist(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return boxes_group_mindist(lows, highs, self.group)
