"""Declarative query specifications.

A :class:`QuerySpec` is the immutable, validated description of one group
nearest neighbor query: *what* to retrieve (group, ``k``, aggregate,
weights), *where* the group lives (memory- or disk-resident), and *how*
the caller wants it answered (an algorithm hint plus per-algorithm
options).  It deliberately contains no execution state, so the same spec
can be planned (:class:`repro.api.planner.QueryPlanner`), explained, and
executed any number of times — including in batches through
``GNNEngine.execute_many``.

All input validation that used to be scattered across ``GroupQuery`` and
the engine's keyword plumbing happens here, up front, with explicit
error messages: ``k < 1``, empty groups, weight vectors whose length
does not match the group cardinality or that are all zero, unknown
aggregates and residencies are all rejected at construction time.  A
spec with raw points carries the resulting :class:`GroupQuery` as
:attr:`QuerySpec.query`, built once there and handed to the
memory-resident algorithms on every execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np

from repro.core.types import GroupQuery
from repro.geometry.distance import AGGREGATES, SUM
from repro.geometry.kernels import check_weights
from repro.storage.pointfile import PointFile

#: Sentinel used for ``algorithm``, ``residency`` and ``index`` to
#: request planner-driven selection.
AUTO = "auto"

#: Valid residency declarations.
MEMORY = "memory"
DISK = "disk"
RESIDENCIES = (AUTO, MEMORY, DISK)

#: Valid index declarations: ``auto`` answers from the engine's own
#: index (its flat snapshot plus any pending delta overlay) and
#: ``sharded`` routes through a federation of shard snapshots (requires
#: a coordinator-backed engine, :class:`repro.shard.ShardedEngine`;
#: planning fails actionably on any other engine).  A spec names *where*
#: the data lives, never a physical structure: every query traverses a
#: :class:`~repro.rtree.flat.FlatRTree`.
SHARDED = "sharded"
INDEXES = (AUTO, SHARDED)

#: The option every memory-resident algorithm accepts: only records with
#: aggregate distance ``<= within`` are returned (fewer than ``k`` when
#: fewer qualify), and the bound prunes from the traversal's first pop.
WITHIN = "within"


@dataclass(frozen=True, eq=False)
class QuerySpec:
    """Immutable description of one GNN query.

    Parameters
    ----------
    group:
        The query group ``Q`` as an ``(n, dims)`` array-like, or ``None``
        when only ``group_file`` is supplied.  The stored array is a
        read-only ``float64`` copy, so a spec can never be mutated
        through the original input.
    group_file:
        An existing disk-resident :class:`~repro.storage.pointfile.PointFile`
        holding the group (Section 4 of the paper).  ``group`` and
        ``group_file`` may both be given; algorithms that need raw
        points (GCP) use ``group``, file-based ones use ``group_file``.
    k:
        Number of group nearest neighbors to retrieve (``>= 1``).
    aggregate:
        ``"sum"`` (the paper's definition), ``"max"`` or ``"min"``.
    weights:
        Optional per-query-point weights; must match the group size.
    residency:
        ``"auto"`` (infer from the inputs), ``"memory"`` or ``"disk"``.
    algorithm:
        ``"auto"`` (let the planner choose) or a registry name such as
        ``"mbm"`` or ``"fmqm"``; case-insensitive.
    options:
        Per-algorithm options forwarded by the executor (for example
        ``use_heuristic3=False``, ``centroid_method="mean"``,
        ``block_pages=200`` or ``max_pairs=10_000``).
    index:
        ``"auto"`` (default: the engine's flat snapshot — and, when
        pending writes have made that snapshot stale, the merged
        delta-overlay view, which stays bit-identical to a rebuilt
        index) or ``"sharded"`` (scatter-gather over a shard
        federation; only a coordinator-backed
        :class:`repro.shard.ShardedEngine` can plan it).
    trace:
        When True the executor attaches the full :class:`QueryPlan`
        (algorithm choice, rationale, options) to the result as
        ``result.plan``; when False ``result.plan`` stays ``None``.
    label:
        Optional caller-supplied tag, carried through to plans untouched
        (useful to correlate batch results with business objects).

    The validated group, ``k``, aggregate and weights are also carried
    as :attr:`query`, the :class:`GroupQuery` the algorithms take
    (``None`` when the spec holds only a ``group_file``).
    """

    group: np.ndarray | None = None
    group_file: PointFile | None = None
    k: int = 1
    aggregate: str = SUM
    weights: np.ndarray | None = None
    residency: str = AUTO
    algorithm: str = AUTO
    options: Mapping[str, Any] = field(default_factory=dict)
    index: str = AUTO
    trace: bool = False
    label: str | None = None
    query: GroupQuery | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.group is None and self.group_file is None:
            raise ValueError(
                "a QuerySpec needs a query group: pass 'group' (points) and/or "
                "'group_file' (a disk-resident PointFile)"
            )
        if self.group_file is not None and self.group_file.point_count == 0:
            raise ValueError("the query group file must contain at least one point")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        if self.aggregate not in AGGREGATES:
            raise ValueError(
                f"unknown aggregate {self.aggregate!r}; expected one of {AGGREGATES}"
            )
        # Copies, so a spec can never be mutated through the caller's arrays.
        weights = None if self.weights is None else np.array(self.weights, dtype=np.float64)
        if self.group is not None:
            # The GroupQuery validates the points and the weights against them.
            query = GroupQuery(
                np.array(self.group, dtype=np.float64),
                k=self.k,
                aggregate=self.aggregate,
                weights=weights,
            )
            query.points.setflags(write=False)
            object.__setattr__(self, "group", query.points)
            object.__setattr__(self, "query", query)
            weights = query.weights
        elif weights is not None:
            weights = check_weights(weights, self.cardinality)
        if weights is not None:
            weights.setflags(write=False)
            object.__setattr__(self, "weights", weights)
        residency = str(self.residency).lower()
        if residency not in RESIDENCIES:
            raise ValueError(
                f"unknown residency {self.residency!r}; expected one of {RESIDENCIES}"
            )
        object.__setattr__(self, "residency", residency)
        index = str(self.index).lower()
        if index not in INDEXES:
            raise ValueError(
                f"unknown index preference {self.index!r}; expected one of {INDEXES}"
            )
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "algorithm", str(self.algorithm).lower())
        object.__setattr__(
            self, "options", MappingProxyType(dict(self.options or {}))
        )

    # ------------------------------------------------------------------
    # derived shape
    # ------------------------------------------------------------------
    @property
    def cardinality(self) -> int:
        """Number of query points ``n`` (from ``group`` or ``group_file``)."""
        if self.group is not None:
            return int(self.group.shape[0])
        return int(self.group_file.point_count)

    @property
    def dims(self) -> int:
        """Dimensionality of the query points."""
        if self.group is not None:
            return int(self.group.shape[1])
        return int(self.group_file.dims)

    def resolved_residency(self) -> str:
        """The declared residency, or the inferred one when ``"auto"``.

        ``auto`` resolves to ``disk`` when a :class:`PointFile` was
        supplied; otherwise the group is in memory by construction.
        """
        if self.residency != AUTO:
            return self.residency
        return DISK if self.group_file is not None else MEMORY

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def replace(self, **changes) -> "QuerySpec":
        """Return a copy of this spec with the given fields replaced."""
        return replace(self, **changes)

    def __repr__(self) -> str:
        source = "file" if self.group is None else f"n={self.cardinality}"
        return (
            f"QuerySpec({source}, k={self.k}, aggregate={self.aggregate!r}, "
            f"residency={self.residency!r}, algorithm={self.algorithm!r})"
        )
