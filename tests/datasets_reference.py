"""The PP/TS stand-ins ``repro.datasets.real_like`` is proven against.

These are :func:`pp_like` and :func:`ts_like` as they stood before the
generators shuffled a row index: the parts are stacked into one array
and ``Generator.shuffle`` permutes its rows in place.  The stacked
:func:`line_segments` they relied on is kept with them, so the reference
shares no assembly code with what it checks — only the public
``gaussian_clusters`` and NumPy's ``Generator``.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.real_like import PP_CARDINALITY, TS_CARDINALITY
from repro.datasets.synthetic import DEFAULT_WORKSPACE, gaussian_clusters


def line_segments(
    count: int,
    segments: int = 200,
    dims: int = 2,
    workspace: tuple[float, float] = DEFAULT_WORKSPACE,
    seed: int | None = 0,
) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    low, high = workspace
    side = high - low
    per_segment = max(1, count // segments)
    points = []
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
        points.append(segment_points)
        remaining -= steps
    stacked = np.vstack(points)[:count]
    return np.clip(stacked, low, high)


def pp_like(
    count: int = PP_CARDINALITY,
    workspace: tuple[float, float] = DEFAULT_WORKSPACE,
    seed: int = 7,
) -> np.ndarray:
    if count < 10:
        raise ValueError("count must be at least 10 to mix clusters and background")
    rng = np.random.default_rng(seed)
    background = max(1, count // 20)
    clustered = count - background
    clusters = max(5, min(120, clustered // 150))
    cluster_points = gaussian_clusters(
        clustered,
        clusters=clusters,
        spread_fraction=0.02,
        workspace=workspace,
        seed=seed,
    )
    low, high = workspace
    background_points = rng.uniform(low, high, size=(background, 2))
    points = np.vstack([cluster_points, background_points])
    rng.shuffle(points)
    return points


def ts_like(
    count: int = TS_CARDINALITY,
    workspace: tuple[float, float] = DEFAULT_WORKSPACE,
    seed: int = 11,
) -> np.ndarray:
    if count < 10:
        raise ValueError("count must be at least 10")
    segments = max(50, count // 300)
    points = line_segments(count, segments=segments, workspace=workspace, seed=seed)
    rng = np.random.default_rng(seed)
    rng.shuffle(points)
    return points
