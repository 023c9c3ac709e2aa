"""Query planning: from a declarative spec to an executable plan.

:class:`QueryPlanner` replaces the engine's old inline ``"auto"``
dispatch with an explicit, testable step: ``plan(spec)`` returns a
:class:`QueryPlan` naming the chosen algorithm, a human-readable
rationale grounded in the paper's experimental findings (Section 5), and
a coarse cost estimate derived from the index shape.  Explicit algorithm
requests are validated against the registry's capability metadata, so a
spec asking MBM for a ``max`` aggregate fails at planning time with a
message that names the mismatch instead of deep inside a traversal.

The auto policy encodes the paper's recommendations:

* memory-resident groups → **MBM** (the clear winner of Figures 5.1-5.3)
  for the sum aggregate, the generalised best-first traversal otherwise;
* disk-resident files with few blocks → **F-MQM**, otherwise **F-MBM**
  (Figures 5.4-5.7 and the summary of Section 5.2).
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Mapping

from repro.api.registry import (
    AlgorithmInfo,
    FILE_GEOMETRY_OPTIONS,
    available_algorithms,
    get_algorithm,
)
from repro.api.spec import AUTO, MEMORY, SHARDED, WITHIN, QuerySpec

#: Block-count threshold below which the auto policy prefers F-MQM; the
#: paper's PP-as-query experiments (3 blocks) favour F-MQM while the
#: TS-as-query experiments (20 blocks) favour F-MBM.
AUTO_FMQM_MAX_BLOCKS = 6

#: Default simulated-disk geometry (the paper's 1 KByte pages of 50
#: points, blocks of 10,000 points).
DEFAULT_POINTS_PER_PAGE = 50
DEFAULT_BLOCK_PAGES = 200


@dataclass(frozen=True)
class CostEstimate:
    """Coarse, index-shape-based cost prediction for one plan.

    The numbers are order-of-magnitude guidance (useful to compare plans
    and to schedule batches), not measurements; ``basis`` spells out the
    model that produced them.
    """

    node_accesses: float
    distance_computations: float
    io_reads: float
    basis: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "node_accesses": self.node_accesses,
            "distance_computations": self.distance_computations,
            "io_reads": self.io_reads,
            "basis": self.basis,
        }


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one spec: algorithm, rationale, estimate."""

    spec: QuerySpec
    algorithm: AlgorithmInfo
    residency: str
    options: Mapping[str, Any]
    rationale: str
    estimate: CostEstimate | None = None

    def for_spec(self, spec: QuerySpec) -> "QueryPlan":
        """Rebind a cached plan to another spec with the same signature (and its ``within``)."""
        options = self.options
        if WITHIN in options:
            options = MappingProxyType({**options, WITHIN: spec.options[WITHIN]})
        return replace(self, spec=spec, options=options)

    def describe(self) -> str:
        """Human-readable multi-line explanation (what ``explain`` prints)."""
        lines = [
            f"QueryPlan for {self.spec!r}",
            f"  algorithm : {self.algorithm.name} — {self.algorithm.description}",
            f"  residency : {self.residency}",
            f"  rationale : {self.rationale}",
        ]
        if self.options:
            rendered = ", ".join(f"{k}={v!r}" for k, v in sorted(self.options.items()))
            lines.append(f"  options   : {rendered}")
        if self.estimate is not None:
            lines.append(
                "  estimate  : "
                f"~{self.estimate.node_accesses:.0f} node accesses, "
                f"~{self.estimate.distance_computations:.0f} distance computations, "
                f"~{self.estimate.io_reads:.0f} I/O reads "
                f"({self.estimate.basis})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QueryPlan(algorithm={self.algorithm.name!r}, "
            f"residency={self.residency!r}, rationale={self.rationale!r})"
        )


class QueryPlanner:
    """Chooses and justifies an algorithm for each :class:`QuerySpec`.

    Parameters
    ----------
    engine:
        Optional :class:`~repro.core.engine.GNNEngine` (or any object
        with a ``flat`` attribute).  When given, plans carry a
        :class:`CostEstimate` derived from the index shape; planning
        works without it, just without estimates.
    fmqm_max_blocks:
        Auto-policy threshold between F-MQM and F-MBM.
    """

    def __init__(self, engine=None, fmqm_max_blocks: int = AUTO_FMQM_MAX_BLOCKS):
        self.engine = engine
        self.fmqm_max_blocks = int(fmqm_max_blocks)

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def plan(self, spec: QuerySpec) -> QueryPlan:
        """Resolve ``spec`` into an executable :class:`QueryPlan`.

        Raises ``ValueError`` for unknown algorithm names and for
        capability mismatches (wrong residency, unsupported aggregate or
        weights) — planning is where a bad spec fails, not execution.
        """
        residency = spec.resolved_residency()
        if spec.index == SHARDED and getattr(self.engine, "coordinator", None) is None:
            # Only a coordinator-backed engine (repro.shard.ShardedEngine)
            # can plan a federated spec.
            raise ValueError(
                "index='sharded' needs a coordinator-backed engine, but "
                "this engine serves a single index (the valid index value "
                "here is 'auto'); partition the dataset with "
                "repro.shard.partition_dataset, start shard nodes, and "
                "query through repro.shard.ShardedEngine"
            )
        if spec.algorithm == AUTO:
            info, rationale = self._choose(spec, residency)
        else:
            info = get_algorithm(spec.algorithm)
            errors = info.capability_errors(spec)
            if errors:
                raise ValueError(
                    f"algorithm {info.name!r} cannot answer this spec: "
                    + "; ".join(errors)
                )
            rationale = f"explicitly requested by the spec ({info.name})"
        # File geometry shapes the simulated disk file (built by the
        # executor), not the algorithm call itself.
        options = {
            key: value
            for key, value in spec.options.items()
            if key not in FILE_GEOMETRY_OPTIONS
        }
        unknown = sorted(set(options) - set(info.options))
        if unknown:
            valid = sorted(set(info.options) | set(FILE_GEOMETRY_OPTIONS))
            suggestions = [
                close[0]
                for name in unknown
                if (close := difflib.get_close_matches(name, valid, n=1))
            ]
            hint = f" (did you mean {sorted(set(suggestions))}?)" if suggestions else ""
            raise ValueError(
                f"algorithm {info.name!r} does not understand option(s) "
                f"{unknown}{hint}; options valid for {info.name!r}: "
                f"{sorted(info.options)}; file-geometry options "
                f"{sorted(FILE_GEOMETRY_OPTIONS)} are accepted on any spec"
            )
        return QueryPlan(
            spec=spec,
            algorithm=info,
            residency=residency,
            options=MappingProxyType(options),
            rationale=rationale,
            estimate=self._estimate(spec, info, residency),
        )

    # ------------------------------------------------------------------
    # auto policy
    # ------------------------------------------------------------------
    def _choose(self, spec: QuerySpec, residency: str) -> tuple[AlgorithmInfo, str]:
        if residency == MEMORY:
            if spec.aggregate == "sum" and spec.weights is None:
                return (
                    get_algorithm("mbm"),
                    "memory-resident sum query: MBM is the paper's overall winner "
                    "(Figures 5.1-5.3)",
                )
            flavour = (
                f"{spec.aggregate} aggregate"
                if spec.weights is None
                else f"weighted {spec.aggregate} aggregate"
            )
            return (
                get_algorithm("best-first"),
                f"{flavour}: only the generalised best-first traversal is exact "
                "for non-sum/weighted groups",
            )
        blocks = self._block_count(spec)
        if blocks <= self.fmqm_max_blocks:
            return (
                get_algorithm("fmqm"),
                f"disk-resident group in {blocks} block(s) <= {self.fmqm_max_blocks}: "
                "F-MQM wins for few blocks (Figure 5.4, Section 5.2)",
            )
        return (
            get_algorithm("fmbm"),
            f"disk-resident group in {blocks} blocks > {self.fmqm_max_blocks}: "
            "F-MBM scales better with many blocks (Figures 5.5-5.7)",
        )

    def _block_count(self, spec: QuerySpec) -> int:
        """Number of disk blocks the group occupies (exact or from geometry)."""
        if spec.group_file is not None:
            return spec.group_file.block_count
        points_per_page = int(spec.options.get("points_per_page", DEFAULT_POINTS_PER_PAGE))
        block_pages = int(spec.options.get("block_pages", DEFAULT_BLOCK_PAGES))
        pages = math.ceil(spec.cardinality / max(1, points_per_page))
        return max(1, math.ceil(pages / max(1, block_pages)))

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def _estimate(
        self, spec: QuerySpec, info: AlgorithmInfo, residency: str
    ) -> CostEstimate | None:
        tree = getattr(self.engine, "flat", None)
        if tree is None or len(tree) == 0:
            return None
        size = len(tree)
        capacity = max(2, tree.capacity)
        height = max(1, tree.height)
        n = spec.cardinality
        # One root-to-leaf descent plus per-neighbor refinement: the
        # backbone of every best-first search over the index.
        descent = height * (1 + spec.k)
        if info.name == "brute-force":
            return CostEstimate(0.0, float(size * n), 0.0, "exhaustive scan: N*n")
        if residency == MEMORY:
            factor = {"mqm": float(n)}.get(info.name, 1.0)
            node_accesses = factor * descent
            return CostEstimate(
                node_accesses,
                node_accesses * capacity * (n + 1),
                0.0,
                "descents " + ("per query point (MQM)" if factor > 1 else "per query"),
            )
        pages = math.ceil(n / int(spec.options.get("points_per_page", DEFAULT_POINTS_PER_PAGE)))
        blocks = self._block_count(spec)
        if info.name == "gcp":
            return CostEstimate(
                float(descent * math.ceil(n / capacity)),
                float(size * math.isqrt(max(1, n))),
                0.0,
                "closest-pair frontier over both trees (coarse)",
            )
        traversals = blocks if info.name == "fmqm" else 1
        return CostEstimate(
            float(traversals * descent),
            float(traversals * descent * capacity * (min(n, capacity) + 1)),
            float(pages + blocks),
            f"{traversals} index traversal(s) + {pages} query pages",
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def candidates(self, spec: QuerySpec) -> list[AlgorithmInfo]:
        """Registered algorithms capable of answering ``spec``."""
        return [
            info
            for info in available_algorithms(spec.resolved_residency())
            if info.supports(spec)
        ]
