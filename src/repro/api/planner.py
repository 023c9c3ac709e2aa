"""Query planning: from a declarative spec to an executable plan.

:class:`QueryPlanner` replaces the engine's old inline ``"auto"``
dispatch with an explicit, testable step: ``plan(spec)`` returns a
:class:`QueryPlan` naming the chosen algorithm and a human-readable
rationale grounded in the paper's experimental findings (Section 5).
Every plan, chosen or requested, is validated against the registry's
capability metadata, so a spec asking SPM for a ``max`` aggregate fails
at planning time with a message that names the mismatch instead of deep
inside a traversal.

Planning keeps no state: the policy is a few comparisons on the spec's
shape, so ``plan`` decides afresh on every call (a few microseconds
against a query of about a millisecond), and no ``insert`` or
``compact()`` can leave a stale plan behind.

The auto policy encodes the paper's recommendations:

* memory-resident groups → **MBM** (the clear winner of Figures 5.1-5.3)
  for every aggregate, weighted or not;
* disk-resident files with few blocks → **F-MQM**, otherwise **F-MBM**
  (Figures 5.4-5.7 and the summary of Section 5.2).
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping

from repro.api.registry import (
    DEFAULT_BLOCK_PAGES,
    DEFAULT_POINTS_PER_PAGE,
    FILE_GEOMETRY_OPTIONS,
    AlgorithmInfo,
    get_algorithm,
)
from repro.api.spec import AUTO, MEMORY, SHARDED, QuerySpec

#: Block-count threshold below which the auto policy prefers F-MQM; the
#: paper's PP-as-query experiments (3 blocks) favour F-MQM while the
#: TS-as-query experiments (20 blocks) favour F-MBM.  This reproduction
#: does not measure that F-MQM win: at 4 blocks F-MBM does fewer node
#: accesses, page reads and distance computations at every M of Figure
#: 5.4 (``benchmarks/test_figures.py``, ``fig5_4``).
AUTO_FMQM_MAX_BLOCKS = 6


@dataclass(frozen=True)
class QueryPlan:
    """The planner's decision for one spec: algorithm, residency, options, rationale."""

    spec: QuerySpec
    algorithm: AlgorithmInfo
    residency: str
    options: Mapping[str, Any]
    rationale: str

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
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QueryPlan(algorithm={self.algorithm.name!r}, "
            f"residency={self.residency!r}, rationale={self.rationale!r})"
        )


class QueryPlanner:
    """Chooses and justifies an algorithm for each :class:`QuerySpec`.

    ``engine`` is the engine the planner serves, if any; the one thing
    read from it is whether it carries a ``coordinator`` (only a
    coordinator-backed :class:`repro.shard.ShardedEngine` can plan
    ``index="sharded"``).
    """

    def __init__(self, engine=None):
        self.engine = engine

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def plan(self, spec: QuerySpec) -> QueryPlan:
        """Resolve ``spec`` into an executable :class:`QueryPlan`.

        Raises ``ValueError`` for unknown algorithm names and for
        capability mismatches (wrong residency, unsupported aggregate or
        weights, missing raw points) — planning is where a bad spec
        fails, not execution.
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
            rationale = f"explicitly requested by the spec ({info.name})"
        errors = info.capability_errors(spec)
        if errors:
            raise ValueError(
                f"algorithm {info.name!r} cannot answer this spec: " + "; ".join(errors)
            )
        # File geometry shapes the simulated disk file (built by the
        # disk runners), not the algorithm call itself.
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
        )

    # ------------------------------------------------------------------
    # auto policy
    # ------------------------------------------------------------------
    def _choose(self, spec: QuerySpec, residency: str) -> tuple[AlgorithmInfo, str]:
        if residency == MEMORY:
            return (
                get_algorithm("mbm"),
                "memory-resident group: MBM is the paper's overall winner (Figures 5.1-5.3)",
            )
        blocks = self._block_count(spec)
        if blocks <= AUTO_FMQM_MAX_BLOCKS:
            return (
                get_algorithm("fmqm"),
                f"disk-resident group in {blocks} block(s) <= {AUTO_FMQM_MAX_BLOCKS}: "
                "F-MQM wins for few blocks (Figure 5.4, Section 5.2)",
            )
        return (
            get_algorithm("fmbm"),
            f"disk-resident group in {blocks} blocks > {AUTO_FMQM_MAX_BLOCKS}: "
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
