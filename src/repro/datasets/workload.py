"""Query-workload generation for the paper's experiments.

Section 5.1: "we use workloads of 100 queries.  Each query has a number
``n`` of points, distributed uniformly in a MBR of area ``M``, which is
randomly generated in the workspace of ``P``."  Section 5.2 varies the
*relative workspaces* of the data and query datasets: either the query
workspace is a centred, scaled-down copy of the data workspace, or the
two workspaces have equal size and a controlled overlap fraction.

The helpers here implement exactly those placements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.mbr import MBR
from repro.geometry.point import as_points


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one experimental setting (one x-axis position of a figure).

    Attributes
    ----------
    n:
        Number of query points per group.
    mbr_fraction:
        Area of the query MBR as a fraction of the data workspace area
        (the paper's ``M``, e.g. 0.08 for "8%").
    k:
        Number of group nearest neighbors retrieved.
    queries:
        Number of query groups in the workload (100 in the paper).
    """

    n: int
    mbr_fraction: float
    k: int
    queries: int = 100


def _place_query_box(
    data_mbr: MBR, mbr_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """A random cube query box inside the workspace: ``(low corner, side)``.

    The cube's volume is ``mbr_fraction`` of the workspace's (its area in
    2-D), so its side is the ``dims``-th root of that, clamped so it
    fits, and its position is uniform over the placements that keep it
    inside the workspace.
    """
    extents = data_mbr.extents
    volume = mbr_fraction * data_mbr.area()
    # sqrt is correctly rounded, so 2-D boxes stay bit-for-bit where they were.
    side = float(np.sqrt(volume) if data_mbr.dims == 2 else volume ** (1.0 / data_mbr.dims))
    side = min(side, float(extents.min()))
    low = np.array(
        [
            rng.uniform(data_mbr.low[d], data_mbr.high[d] - side)
            if data_mbr.high[d] - side > data_mbr.low[d]
            else data_mbr.low[d]
            for d in range(data_mbr.dims)
        ]
    )
    return low, side


def generate_query_group(
    data_mbr: MBR,
    n: int,
    mbr_fraction: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generate one query group: ``n`` uniform points in a random query MBR.

    The query MBR is a square of area ``mbr_fraction * area(data_mbr)``
    placed uniformly at random inside the data workspace (clamped so it
    fits).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < mbr_fraction <= 1.0:
        raise ValueError("mbr_fraction must be in (0, 1]")
    low, side = _place_query_box(data_mbr, mbr_fraction, rng)
    return rng.uniform(low, low + side, size=(n, data_mbr.dims))


def generate_workload(
    data_points: np.ndarray,
    spec: WorkloadSpec,
    seed: int = 0,
) -> list[np.ndarray]:
    """Generate the full workload (a list of query groups) for one setting."""
    pts = as_points(data_points)
    data_mbr = MBR.from_points(pts)
    rng = np.random.default_rng(seed)
    return [
        generate_query_group(data_mbr, spec.n, spec.mbr_fraction, rng)
        for _ in range(spec.queries)
    ]


@dataclass(frozen=True)
class TraceRequest:
    """One request of a serving trace: when it arrives and what it asks.

    Attributes
    ----------
    arrival_s:
        Arrival time in seconds since the start of the trace.
    group:
        The ``(n, dims)`` query group.
    k:
        Number of group nearest neighbors requested.
    hotspot:
        Index of the popularity hotspot the group was drawn from (useful
        to verify cache behaviour against the Zipf skew).
    """

    arrival_s: float
    group: np.ndarray
    k: int
    hotspot: int


def generate_request_trace(
    data_points: np.ndarray | None = None,
    *,
    requests: int,
    rate_per_s: float,
    n: int,
    mbr_fraction: float,
    k: int,
    hotspots: int = 16,
    zipf_exponent: float = 1.1,
    seed: int = 0,
    extent: MBR | tuple | None = None,
) -> list[TraceRequest]:
    """Seeded Poisson/Zipf request trace for serving experiments.

    Models how user traffic actually reaches a GNN server rather than
    the paper's fixed 100-query workloads: arrival times follow a
    homogeneous Poisson process of ``rate_per_s`` requests per second
    (i.i.d. exponential inter-arrivals), and spatial popularity is
    skewed — ``hotspots`` query boxes are placed like the Figure-5
    workloads (:func:`generate_query_group`'s placement, each of volume
    ``mbr_fraction`` of the workspace), and each request picks hotspot
    ``i`` with probability proportional to ``(i + 1) ** -zipf_exponent``
    (a Zipf law, so a few boxes receive most of the traffic), then draws
    its ``n`` points uniformly inside that box.

    The workspace the hotspots are placed in defaults to the bounding
    box of ``data_points``; ``extent`` overrides it with an explicit
    :class:`~repro.geometry.mbr.MBR` (or ``(low, high)`` pair), which is
    how per-shard-skewed traces are generated — pass one shard's root
    MBR from a :class:`repro.shard.ShardManifest` and every hotspot
    lands inside that shard's territory.  Exactly one of ``data_points``
    and ``extent`` is required (both together use ``extent``); traces
    generated without ``extent`` are byte-identical to those of earlier
    versions for the same ``seed``.

    The trace is fully determined by ``seed``: replaying it against two
    server configurations compares them on identical work.
    """
    if requests < 1:
        raise ValueError("requests must be positive")
    if rate_per_s <= 0.0:
        raise ValueError("rate_per_s must be positive")
    if hotspots < 1:
        raise ValueError("hotspots must be positive")
    if zipf_exponent < 0.0:
        raise ValueError("zipf_exponent must be non-negative")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < mbr_fraction <= 1.0:
        raise ValueError("mbr_fraction must be in (0, 1]")
    if extent is not None:
        data_mbr = extent if isinstance(extent, MBR) else MBR(extent[0], extent[1])
    elif data_points is not None:
        data_mbr = MBR.from_points(as_points(data_points))
    else:
        raise ValueError(
            "generate_request_trace needs a workspace: pass data_points "
            "(its bounding box is used) or an explicit extent"
        )
    rng = np.random.default_rng(seed)

    arrivals = np.cumsum(rng.exponential(1.0 / rate_per_s, size=requests))
    boxes = [_place_query_box(data_mbr, mbr_fraction, rng) for _ in range(hotspots)]
    weights = np.arange(1, hotspots + 1, dtype=np.float64) ** -zipf_exponent
    choices = rng.choice(hotspots, size=requests, p=weights / weights.sum())

    trace = []
    for arrival, choice in zip(arrivals, choices):
        low, side = boxes[choice]
        group = rng.uniform(low, low + side, size=(n, data_mbr.dims))
        trace.append(
            TraceRequest(
                arrival_s=float(arrival), group=group, k=k, hotspot=int(choice)
            )
        )
    return trace


def scale_into_workspace(
    query_points: np.ndarray,
    data_points: np.ndarray,
    area_fraction: float,
) -> np.ndarray:
    """Affinely map a query dataset into a centred sub-workspace of the data.

    Used by Figures 5.4 and 5.5: the workspaces of ``P`` and ``Q`` share
    the same centroid but the MBR of ``Q`` covers ``area_fraction`` of
    the workspace of ``P``.
    """
    if not 0.0 < area_fraction <= 1.0:
        raise ValueError("area_fraction must be in (0, 1]")
    q = as_points(query_points)
    data_mbr = MBR.from_points(as_points(data_points))
    query_mbr = MBR.from_points(q)
    scale = float(np.sqrt(area_fraction))
    target_extents = data_mbr.extents * scale
    target_low = data_mbr.center - target_extents / 2.0
    source_extents = np.where(query_mbr.extents > 0, query_mbr.extents, 1.0)
    normalised = (q - query_mbr.low) / source_extents
    return target_low + normalised * target_extents


def place_with_overlap(
    query_points: np.ndarray,
    data_points: np.ndarray,
    overlap_fraction: float,
) -> np.ndarray:
    """Place the query workspace so it overlaps the data workspace by a fraction.

    Used by Figures 5.6 and 5.7: both workspaces have the same size; an
    overlap of 100% means they coincide, 0% means they are disjoint
    (meeting at a corner).  Intermediate values are obtained by shifting
    the query workspace diagonally, exactly as described in the paper:
    a shift of ``s`` times the side length on both axes leaves an overlap
    area of ``(1 - s)^2``, hence ``s = 1 - sqrt(overlap_fraction)``.
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError("overlap_fraction must be in [0, 1]")
    q = as_points(query_points)
    data_mbr = MBR.from_points(as_points(data_points))
    query_mbr = MBR.from_points(q)
    # First, map the query workspace onto the data workspace (same size,
    # same position), then shift diagonally.
    source_extents = np.where(query_mbr.extents > 0, query_mbr.extents, 1.0)
    normalised = (q - query_mbr.low) / source_extents
    aligned = data_mbr.low + normalised * data_mbr.extents
    shift_fraction = 1.0 - float(np.sqrt(overlap_fraction))
    return aligned + shift_fraction * data_mbr.extents
