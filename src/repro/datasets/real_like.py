"""Stand-ins for the paper's real datasets.

The paper evaluates on:

* **PP** — 24,493 populated places in North America ([Web1]), a heavily
  clustered point set (cities cluster along coasts and rivers);
* **TS** — 194,971 centroids of MBRs of streams (poly-lines) in Iowa,
  Kansas, Missouri and Nebraska ([Web2]), i.e. points that are dense
  along linear features.

Both download locations are long gone, so this module generates
synthetic datasets with the same cardinalities and qualitatively similar
spatial skew (documented as a substitution in DESIGN.md).  The
generators accept a ``count`` override so tests and CI-speed benchmarks
can run on proportionally smaller instances: what matters for the
reproduction is the *ratio* of the two cardinalities (TS is roughly 8x
PP, which drives the number of query blocks in Section 5.2) and the
clustered, non-uniform distribution.

Both stand-ins end in one ``Generator.shuffle`` of their stacked parts
(clusters and background; the poly-lines).  On an ``(N, 2)`` array
NumPy runs that as a Python-level loop of row swaps — most of an
engine's set-up at 100k points.  So :func:`_shuffled` shuffles a 1-D
row index instead, which takes NumPy's fast path through the *same*
Fisher–Yates draws, and scatters each part straight to the rows the
shuffle sends it: the same bytes as before, without the stacked copy.
A gather (``stack[order]``) would give the same bytes too, but it
builds and frees a dataset-sized temporary, and that memory stays
resident in a process that later forks serving workers or shard nodes.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.synthetic import DEFAULT_WORKSPACE, _line_parts, gaussian_clusters

#: Cardinalities of the original datasets.
PP_CARDINALITY = 24_493
TS_CARDINALITY = 194_971


def _shuffled(parts: list[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """``parts`` stacked, with rows as ``rng.shuffle`` of the stack leaves them.

    Row ``j`` of the stack lands at ``slots[j]``, where ``order`` — the
    shuffled row index — lists the stack's rows in output order.
    """
    count = sum(part.shape[0] for part in parts)
    order = np.arange(count)
    rng.shuffle(order)
    slots = np.empty_like(order)
    slots[order] = np.arange(count)
    points = np.empty((count, parts[0].shape[1]))
    start = 0
    for part in parts:
        stop = start + part.shape[0]
        points[slots[start:stop]] = part
        start = stop
    return points


def pp_like(
    count: int = PP_CARDINALITY,
    workspace: tuple[float, float] = DEFAULT_WORKSPACE,
    seed: int = 7,
) -> np.ndarray:
    """A PP-like dataset: strongly clustered "populated places".

    Produced as a mixture of many Gaussian clusters with skewed sizes
    (large metropolitan clusters plus many small towns) over a sparse
    uniform background.
    """
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
    return _shuffled([cluster_points, background_points], rng)


def ts_like(
    count: int = TS_CARDINALITY,
    workspace: tuple[float, float] = DEFAULT_WORKSPACE,
    seed: int = 11,
) -> np.ndarray:
    """A TS-like dataset: points dense along linear (stream-like) features."""
    if count < 10:
        raise ValueError("count must be at least 10")
    segments = max(50, count // 300)
    parts = _line_parts(count, segments, 2, workspace, seed)
    return _shuffled(parts, np.random.default_rng(seed))
