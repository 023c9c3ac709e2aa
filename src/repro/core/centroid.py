"""Query-group centroid computation (Section 3.2 of the paper).

SPM needs a point ``q`` with small ``dist(q, Q)``; the ideal choice is
the geometric median, which has no closed form for ``n > 2`` and must be
approximated numerically.  The paper uses gradient descent; this module
provides that method plus Weiszfeld's algorithm (the standard fixed-point
iteration for the geometric median) and the arithmetic mean, so the
ablation benchmark can compare how the choice affects SPM.

Any approximation keeps SPM correct — Lemma 1 holds for an *arbitrary*
point ``q`` — a better centroid merely tightens the pruning bound.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import kernels
from repro.geometry.point import as_points

#: Convergence tolerance on the movement of the iterate between steps.
DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_ITERATIONS = 200


def arithmetic_mean(points) -> np.ndarray:
    """The coordinate-wise mean of the query points.

    This is the starting point the paper uses for gradient descent; it
    already minimises the sum of *squared* distances.
    """
    pts = as_points(points)
    return pts.mean(axis=0)


def gradient_descent_centroid(
    points,
    step_size: float | None = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """Approximate the geometric median by gradient descent, as in the paper.

    The objective is ``dist(q, Q) = sum_i |q - q_i|`` whose gradient is
    ``sum_i (q - q_i) / |q - q_i|``.  Starting from the arithmetic mean,
    the iterate moves against the gradient with a step size proportional
    to the data spread; the step is halved whenever it fails to decrease
    the objective, which makes the iteration robust without tuning.
    """
    pts = as_points(points)
    q = arithmetic_mean(pts)
    if pts.shape[0] == 1:
        return pts[0].copy()
    spread = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    if spread == 0.0:
        return q
    eta = step_size if step_size is not None else spread / max(4, pts.shape[0])

    # The loop below runs a few hundred small numpy calls per query, so
    # it evaluates through preallocated buffers and np.add.reduce — the
    # reduction np.sum dispatches to — instead of the validating helper
    # functions.  The arithmetic is identical op for op (subtract,
    # square, reduce, sqrt on the same operands in the same order), so
    # the returned centroid is bit-for-bit the one the helpers produce;
    # SPM's pruning bounds and pinned counters depend on that.
    delta = np.empty_like(pts)
    squared = np.empty(pts.shape[0], dtype=np.float64)

    def distances_from(reference: np.ndarray) -> np.ndarray:
        np.subtract(pts, reference, out=delta)
        np.multiply(delta, delta, out=delta)
        np.add.reduce(delta, axis=1, out=squared)
        return np.sqrt(squared, out=squared)

    value = float(distances_from(q).sum(axis=-1))

    for _ in range(max_iterations):
        dists = distances_from(q)
        # Guard against a zero distance (q coincides with a query point):
        # that point contributes no well-defined gradient direction.
        safe = np.where(dists > 0.0, dists, np.inf)
        np.subtract(q, pts, out=delta)
        np.divide(delta, safe[:, None], out=delta)
        gradient = np.add.reduce(delta, axis=0)
        grad_norm = float(np.sqrt(np.dot(gradient, gradient)))
        if grad_norm <= tolerance:
            break
        candidate = q - eta * gradient
        candidate_value = float(distances_from(candidate).sum(axis=-1))
        if candidate_value < value:
            if np.all(np.abs(candidate - q) <= tolerance * max(1.0, spread)):
                q = candidate
                break
            q = candidate
            value = candidate_value
        else:
            eta /= 2.0
            if eta * grad_norm <= tolerance:
                break
    return q


def weiszfeld_centroid(
    points,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
    weights=None,
) -> np.ndarray:
    """Approximate the geometric median with Weiszfeld's fixed-point iteration.

    Converges faster than plain gradient descent on most inputs and is
    provided as an alternative centroid backend for SPM.  With
    ``weights`` the iteration minimises ``sum_i w_i |q - q_i|`` instead;
    a small ``max_iterations`` gives MBM's tangent-bound anchor.
    """
    pts = as_points(points)
    if pts.shape[0] == 1:
        return pts[0].copy()
    q = arithmetic_mean(pts)
    for _ in range(max_iterations):
        dists = kernels.point_distances(pts, q)
        at_point = dists <= tolerance
        if np.any(at_point):
            # The iterate sits on a query point; that point is either the
            # median itself or the standard perturbation applies.  Moving
            # on from the unperturbed average of the rest is sufficient
            # for SPM's purposes.
            others = pts[~at_point]
            if others.shape[0] == 0:
                return q
            dists = np.where(at_point, np.inf, dists)
        pull = 1.0 / dists if weights is None else weights / dists
        total = pull.sum()
        if total == 0.0:
            return q
        candidate = (pts * pull[:, None]).sum(axis=0) / total
        if np.all(np.abs(candidate - q) <= tolerance):
            return candidate
        q = candidate
    return q


_METHODS = {
    "gradient": gradient_descent_centroid,
    "weiszfeld": weiszfeld_centroid,
    "mean": lambda points: arithmetic_mean(points),
}


def compute_centroid(points, method: str = "gradient") -> np.ndarray:
    """Compute the SPM centroid with the chosen backend.

    ``method`` is ``"gradient"`` (the paper's choice, default),
    ``"weiszfeld"`` or ``"mean"``.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown centroid method {method!r}; expected one of {sorted(_METHODS)}")
    return _METHODS[method](points)
