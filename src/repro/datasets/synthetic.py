"""Basic synthetic point distributions.

These are the building blocks for the "real-like" datasets and for
property-based tests that need controllable inputs.  All generators are
deterministic given a seed and return ``(count, dims)`` float64 arrays.
"""

from __future__ import annotations

import numpy as np

#: The workspace every generator uses by default: a square matching the
#: order of magnitude of projected geographic coordinates.
DEFAULT_WORKSPACE = (0.0, 10_000.0)


def _rng(seed):
    return np.random.default_rng(seed)


def uniform_points(
    count: int,
    dims: int = 2,
    workspace: tuple[float, float] = DEFAULT_WORKSPACE,
    seed: int | None = 0,
) -> np.ndarray:
    """Points drawn uniformly at random from the workspace hyper-cube."""
    if count < 1:
        raise ValueError("count must be positive")
    low, high = workspace
    return _rng(seed).uniform(low, high, size=(count, dims))


def gaussian_clusters(
    count: int,
    clusters: int = 10,
    dims: int = 2,
    spread_fraction: float = 0.03,
    workspace: tuple[float, float] = DEFAULT_WORKSPACE,
    seed: int | None = 0,
    cluster_weights: np.ndarray | None = None,
) -> np.ndarray:
    """A mixture of isotropic Gaussian clusters, clipped to the workspace.

    Parameters
    ----------
    count:
        Total number of points.
    clusters:
        Number of mixture components; centres are uniform in the workspace.
    spread_fraction:
        Cluster standard deviation as a fraction of the workspace side.
    cluster_weights:
        Optional relative sizes of the clusters (normalised internally);
        by default sizes follow a skewed (Dirichlet) split so that some
        clusters dominate, as real population data does.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if clusters < 1:
        raise ValueError("clusters must be positive")
    rng = _rng(seed)
    low, high = workspace
    side = high - low
    centers = rng.uniform(low, high, size=(clusters, dims))
    if cluster_weights is None:
        cluster_weights = rng.dirichlet(np.full(clusters, 0.7))
    else:
        cluster_weights = np.asarray(cluster_weights, dtype=np.float64)
        cluster_weights = cluster_weights / cluster_weights.sum()
    assignments = rng.choice(clusters, size=count, p=cluster_weights)
    noise = rng.normal(scale=spread_fraction * side, size=(count, dims))
    points = centers[assignments] + noise
    return np.clip(points, low, high)


def _line_parts(
    count: int, segments: int, dims: int, workspace: tuple[float, float], seed: int | None
) -> list[np.ndarray]:
    """``count`` points sampled along random poly-lines, one ``(steps, dims)`` array each.

    Mimics datasets derived from linear features such as rivers or
    roads: points are dense along one-dimensional structures rather
    than spread over areas.
    """
    rng = _rng(seed)
    low, high = workspace
    side = high - low
    per_segment = max(1, count // segments)
    parts = []
    remaining = count
    while remaining > 0:
        start = rng.uniform(low, high, size=dims)
        direction = rng.normal(size=dims)
        direction /= np.sqrt((direction * direction).sum())
        length = rng.uniform(0.02, 0.15) * side
        steps = min(per_segment, remaining)
        t = np.sort(rng.uniform(0.0, 1.0, size=steps))
        jitter = rng.normal(scale=0.002 * side, size=(steps, dims))
        segment_points = start[None, :] + t[:, None] * direction[None, :] * length + jitter
        parts.append(np.clip(segment_points, low, high, out=segment_points))
        remaining -= steps
    return parts
