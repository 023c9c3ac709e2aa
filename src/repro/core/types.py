"""Shared result and query types for the GNN algorithms.

The symbols mirror Table 3.1 of the paper:

=====================  =====================================================
``Q``                  set of query points (:class:`GroupQuery`)
``n``                  number of query points (``GroupQuery.cardinality``)
``M``                  MBR of Q (``GroupQuery.mbr``)
``q``                  centroid of Q (``GroupQuery.centroid``)
``dist(p, Q)``         aggregate distance (``GroupQuery.distance_to``)
``best_dist``          k-th best distance found so far (``BestList.best_dist``)
=====================  =====================================================
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import kernels
from repro.geometry.distance import SUM, _fast_point
from repro.geometry.kernels import check_weights
from repro.geometry.mbr import MBR
from repro.geometry.point import as_points
from repro.storage.counters import CounterSet


class GroupQuery:
    """A group nearest neighbor query.

    Parameters
    ----------
    points:
        The query group ``Q`` as an ``(n, dims)`` array.
    k:
        Number of group nearest neighbors to retrieve.
    aggregate:
        ``"sum"`` (the paper's definition), ``"max"`` or ``"min"``.
    weights:
        Optional per-query-point weights (extension feature).
    """

    def __init__(self, points, k: int = 1, aggregate: str = SUM, weights=None):
        self.points = as_points(points)
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = int(k)
        self.aggregate = aggregate
        # Validate once here so the per-candidate kernel calls can skip it.
        self.weights = None if weights is None else check_weights(weights, self.points.shape[0])
        self._mbr: MBR | None = None
        self._centroid: np.ndarray | None = None

    @property
    def cardinality(self) -> int:
        """Number of query points ``n``."""
        return self.points.shape[0]

    @property
    def dims(self) -> int:
        """Dimensionality of the query points."""
        return self.points.shape[1]

    @property
    def mbr(self) -> MBR:
        """Minimum bounding rectangle ``M`` of the query group (cached)."""
        if self._mbr is None:
            self._mbr = MBR.from_points(self.points)
        return self._mbr

    def distance_to(self, point) -> float:
        """Aggregate distance ``dist(p, Q)`` from a data point to the group."""
        point = _fast_point(point, dims=self.dims)
        return self.distance_to_canonical(point)

    def distance_to_canonical(self, point: np.ndarray) -> float:
        """:meth:`distance_to` for a point that is already canonical.

        The caller vouches that ``point`` is a finite float64 ``(dims,)``
        array — e.g. one stored in an R-tree leaf, which was validated on
        insertion.  The algorithms use this on their per-candidate hot
        path; user-facing code should call :meth:`distance_to`.
        """
        dists = kernels.point_distances(self.points, point)
        return float(kernels.reduce_aggregate(dists, self.aggregate, self.weights))

    def distances_to(self, points: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`distance_to` for a ``(count, dims)`` candidate array."""
        return kernels.aggregate_distances(
            points, self.points, weights=self.weights, aggregate=self.aggregate
        )

    def mindist_lower_bound(self, mbr: MBR) -> float:
        """Lower bound of ``dist(p, Q)`` over all points ``p`` inside ``mbr``."""
        dists = kernels.points_mindist_box(self.points, mbr.low, mbr.high)
        return float(kernels.reduce_aggregate(dists, self.aggregate, self.weights))

    def mindist_lower_bounds(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`mindist_lower_bound` for arrays of node rectangles."""
        return kernels.boxes_group_mindist(
            lows, highs, self.points, weights=self.weights, aggregate=self.aggregate
        )

    def total_weight(self) -> float:
        """Sum of weights (``n`` when the query is unweighted)."""
        if self.weights is None:
            return float(self.cardinality)
        return float(self.weights.sum())

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:
        return (
            f"GroupQuery(n={self.cardinality}, k={self.k}, dims={self.dims}, "
            f"aggregate={self.aggregate!r})"
        )


class GroupNeighbor:
    """One GNN result: a data point and its aggregate distance to ``Q``."""

    __slots__ = ("record_id", "point", "distance")

    def __init__(self, record_id: int, point: np.ndarray, distance: float):
        self.record_id = int(record_id)
        self.point = point
        self.distance = float(distance)

    def as_tuple(self) -> tuple[int, float]:
        """Return ``(record_id, distance)``; convenient for comparisons in tests."""
        return (self.record_id, self.distance)

    def __repr__(self) -> str:
        return f"GroupNeighbor(id={self.record_id}, distance={self.distance:.6g})"


class BestList:
    """Running list of the ``k`` best group neighbors found so far.

    ``best_dist`` is the distance of the k-th best neighbor, or the
    ceiling while fewer than ``k`` neighbors have been seen — exactly the
    pruning bound every heuristic of the paper compares against.

    ``within`` admits only neighbors at aggregate distance ``<= within``
    (the ceiling is the next float above it, so a record exactly at
    ``within`` still enters).  The default, infinity, is the paper's
    setting: the bound stays infinite until ``k`` neighbors exist.
    """

    def __init__(self, k: int, within: float = math.inf):
        if k < 1:
            raise ValueError("k must be at least 1")
        if math.isnan(within):
            raise ValueError("within must be a number, not NaN")
        self.k = int(k)
        self._ceiling = math.nextafter(float(within), math.inf)
        # max-heap on distance, emulated by negating distances; each
        # entry's GroupNeighbor is only built by neighbors()
        self._heap: list[tuple[float, int, np.ndarray]] = []
        self._members: set[int] = set()

    @property
    def best_dist(self) -> float:
        """Distance of the k-th best neighbor (the ceiling until k have been found)."""
        if len(self._heap) < self.k:
            return self._ceiling
        return -self._heap[0][0]

    def offer(self, record_id: int, point: np.ndarray, distance: float) -> bool:
        """Consider a candidate; return True when it enters the current top-k.

        Duplicate record ids are ignored (a point encountered through two
        different search paths must not occupy two result slots).
        """
        heap = self._heap
        full = len(heap) >= self.k
        if distance >= (-heap[0][0] if full else self._ceiling) or record_id in self._members:
            return False
        entry = (-distance, record_id, point)
        if full:
            self._members.discard(heapq.heapreplace(heap, entry)[1])
        else:
            heapq.heappush(heap, entry)
        self._members.add(record_id)
        return True

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._members

    def is_full(self) -> bool:
        """True once ``k`` neighbors have been collected."""
        return len(self._heap) >= self.k

    def neighbors(self) -> list[GroupNeighbor]:
        """Return the collected neighbors sorted by ascending distance."""
        ordered = sorted(self._heap, key=lambda item: (-item[0], item[1]))
        return [GroupNeighbor(record_id, point, -negated) for negated, record_id, point in ordered]


@dataclass
class QueryCost(CounterSet):
    """Cost metrics of one executed query, matching the paper's reporting.

    ``node_accesses`` and ``cpu_time`` are the two series plotted in every
    figure of Section 5; the remaining counters add detail that helps
    explain them (and are used by the ablation benches).  Costs fold
    with ``merge`` (another cost, or the delta of any counter set that
    shares field names); the ``algorithm`` label is not a counter.
    """

    algorithm: str = ""
    node_accesses: int = 0
    leaf_accesses: int = 0
    page_faults: int = 0
    distance_computations: int = 0
    page_reads: int = 0
    block_reads: int = 0
    cpu_time: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Return the metrics as a plain dictionary (used by the report writer)."""
        return {"algorithm": self.algorithm, **self.snapshot()}


@dataclass
class GNNResult:
    """The outcome of a GNN query: the neighbors plus the cost of finding them.

    ``plan`` is attached by the executor when the spec asked for tracing
    (``QuerySpec(trace=True)``); it carries the planner's algorithm
    choice, rationale and cost estimate alongside the measured cost.
    ``trace_id`` is set by the executor and the shard coordinator when
    distributed tracing (:mod:`repro.obs.trace`) is enabled, linking the
    result to its span tree.
    """

    neighbors: list[GroupNeighbor] = field(default_factory=list)
    cost: QueryCost = field(default_factory=QueryCost)
    plan: object | None = None
    trace_id: str | None = None

    @property
    def best(self) -> GroupNeighbor | None:
        """The single best group nearest neighbor (None for an empty dataset)."""
        return self.neighbors[0] if self.neighbors else None

    def distances(self) -> list[float]:
        """Distances of the returned neighbors in ascending order."""
        return [neighbor.distance for neighbor in self.neighbors]

    def record_ids(self) -> list[int]:
        """Record ids of the returned neighbors in ascending distance order."""
        return [neighbor.record_id for neighbor in self.neighbors]

    def __repr__(self) -> str:
        return (
            f"GNNResult(k={len(self.neighbors)}, best={self.best}, "
            f"algorithm={self.cost.algorithm!r})"
        )
