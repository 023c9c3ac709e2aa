"""A drop-in engine facade over a shard federation.

:class:`ShardedEngine` gives scatter-gather execution the same surface
application code already programs against —
``execute`` / ``execute_many`` / ``explain`` over declarative
:class:`~repro.api.spec.QuerySpec`\\ s — so swapping a single-process
:class:`~repro.core.engine.GNNEngine` for a federation is a one-line
change.  Planning still happens client-side (through the planner and
the serving admission filter), so malformed or unservable specs
fail here, immediately and with the planner's message, instead of as a
remote error from some shard.

The engine exposes its coordinator as ``.coordinator`` — that is the
attribute the planner checks before accepting ``index="sharded"``
specs, and the handle to the federation's stats and lifecycle.
"""

from __future__ import annotations

from concurrent.futures import Future

from repro.api.planner import QueryPlan, QueryPlanner
from repro.api.spec import QuerySpec
from repro.core.types import GNNResult
from repro.serve.protocol import check_servable
from repro.shard.coordinator import ShardCoordinator


class ShardedEngine:
    """Execute query specs by scatter-gather over a shard federation.

    Parameters
    ----------
    coordinator:
        The :class:`ShardCoordinator` holding the manifest and the links
        to the shard nodes.  The engine does not take ownership unless
        it created the coordinator itself (:meth:`connect`); call
        :meth:`close` to shut whichever you hold down.
    """

    def __init__(self, coordinator: ShardCoordinator):
        self.coordinator = coordinator
        self.planner = QueryPlanner(self)

    @classmethod
    def connect(cls, manifest, addresses, **coordinator_options) -> "ShardedEngine":
        """Build a coordinator for ``manifest``/``addresses`` and wrap it."""
        return cls(ShardCoordinator(manifest, addresses, **coordinator_options))

    # ------------------------------------------------------------------
    # the engine surface
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec) -> GNNResult:
        """Plan, validate, and scatter-gather one spec."""
        plan = self._plan(spec)
        result = self.coordinator.execute(spec)
        if spec.trace:
            result.plan = plan
        return result

    def execute_many(self, specs) -> list[GNNResult]:
        """Execute a batch of specs; results come back in input order.

        All specs are validated first, then submitted together — the
        coordinator keeps every sub-query of the whole batch in flight
        over its pipelined per-shard connections.
        """
        specs = list(specs)
        plans = [self._plan(spec) for spec in specs]
        futures = [self.coordinator.submit(spec) for spec in specs]
        results = [future.result() for future in futures]
        for spec, plan, result in zip(specs, plans, results):
            if spec.trace:
                result.plan = plan
        return results

    def submit(self, spec: QuerySpec) -> Future:
        """Validate one spec and scatter-gather it asynchronously."""
        self._plan(spec)
        return self.coordinator.submit(spec)

    def explain(self, spec: QuerySpec) -> QueryPlan:
        """The client-side plan for ``spec`` (nothing is executed)."""
        return self._plan(spec)

    def _plan(self, spec: QuerySpec) -> QueryPlan:
        plan = self.planner.plan(spec)
        check_servable(spec, plan)
        return plan

    # ------------------------------------------------------------------
    # federation introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The unified stats shape: counters nested under ``coordinator``."""
        return {"coordinator": self.coordinator.stats()}

    def close(self) -> None:
        """Close the underlying coordinator (idempotent)."""
        self.coordinator.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return self.coordinator.manifest.size

    def __repr__(self) -> str:
        manifest = self.coordinator.manifest
        return (
            f"ShardedEngine(shards={manifest.shard_count}, "
            f"size={manifest.size}, dims={manifest.dims})"
        )
