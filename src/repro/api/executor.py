"""Plan execution, single and batched.

The executor hands each planned :class:`~repro.api.spec.QuerySpec` to
the runner of its algorithm together with the
:class:`ExecutionContext` (index, pending writes).  A batch is one
read scope, not an algorithm: the memory-resident specs of a batch run,
in input order, inside one
:meth:`~repro.rtree.flat.FlatRTree.read_scope`.  Each runs its own
algorithm's per-query traversal, keying and pruning as it would alone
(under its own ``within`` ceiling, if any), but the first reader of a
node pays for it and later readers read it free, so the batch reads the
union of its members' solo read sets, each node once, whatever their
order.

Every plan runs over the context's one index, a
:class:`~repro.rtree.flat.FlatRTree`.  When the context also carries a
*dirty* delta overlay (:class:`~repro.rtree.overlay.DeltaOverlay` — the
engine's mutable write path), every memory-resident algorithm's driver
reads the delta as pages of leaf size — MBM merged by key into its
traversal of the frozen base, the others before their traversal — skips
tombstones and prunes against the merged view's k-th distance; answers
are bit-identical to a from-scratch rebuild (an exact tie at the k-th
distance aside: see :mod:`repro.rtree.overlay`).  Delta pages are not
node reads, so a batch over a dirty overlay shares its base reads all
the same.  Disk-resident plans have no overlay form: the engine folds
the overlay (``compact()``) before handing such a plan a context; a
batch runs them after the scope, in input order, so each keeps the
paper's per-block accounting.

Batching never changes answers: a member runs the per-query traversal
itself, record ids included, which ``execute_many`` equivalence tests
pin down.

Every runner charges the query's own
:class:`~repro.core.types.QueryCost` where the work happens; the record
is the only counter, so costs are exact per query however many threads
share the index.  A batch member's record keeps its algorithm's label
and holds its distance computations and CPU time, and the node reads it
paid for as the first member (in input order) to reach them, so a
batch's results sum to the nodes the batch read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.api.planner import QueryPlan, QueryPlanner
from repro.api.spec import MEMORY, QuerySpec
from repro.core.bruteforce import brute_force_gnn
from repro.core.types import GNNResult, GroupQuery, QueryCost
from repro.obs import trace as obs_trace
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay

@dataclass
class ExecutionContext:
    """Everything a runner may need: the index and its pending writes.

    ``flat`` is the one index every plan traverses — memory- and
    disk-resident alike.  ``overlay`` carries the engine's *dirty* delta
    overlay — when set, every memory-resident runner answers from the
    merged view (base + delta − tombstones) instead of the stale frozen
    arrays.
    """

    flat: FlatRTree
    overlay: DeltaOverlay | None = None

    def live_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The live dataset as id-ordered ``(points, record_ids)`` — what brute force scans."""
        source = self.flat if self.overlay is None else self.overlay
        return source.live_points()

    def brute_force(self, query: GroupQuery, within: float = math.inf) -> GNNResult:
        """Exhaustive scan of the live records (those ``<= within``).

        With zero live records the answer is ``[]`` at zero cost, like
        every tree algorithm's (the scan kernel itself rejects an empty
        point collection).
        """
        points, ids = self.live_points()
        if not len(ids):
            return GNNResult(cost=QueryCost(algorithm="brute-force"))
        return brute_force_gnn(points, query, record_ids=ids, within=within)


def execute_spec(
    context: ExecutionContext,
    spec: QuerySpec,
    planner: QueryPlanner | None = None,
    plan: QueryPlan | None = None,
) -> GNNResult:
    """Plan (unless a plan is supplied) and execute one spec.

    With a tracer enabled (:mod:`repro.obs.trace`) the call is wrapped in
    a ``query`` span tree; the common disabled path pays exactly one
    module-global ``is None`` read on top of the classic code.
    """
    tracer = obs_trace.get()
    if tracer is None:
        if plan is None:
            plan = (planner or QueryPlanner()).plan(spec)
        return _run_planned(context, plan)
    return _execute_traced(context, spec, planner, plan, tracer)


def _run_planned(context: ExecutionContext, plan: QueryPlan) -> GNNResult:
    """The classic execution core: route one planned spec to its runner.

    Over a dirty overlay a memory-resident runner answers the merged
    view itself (see the module docstring); its counters are the base
    index's, and the algorithm label gains an ``+overlay`` suffix.
    """
    result = plan.algorithm.runner(context, plan)
    if _overlay_routed(context, plan):
        result.cost.algorithm += "+overlay"
    if plan.spec.trace:
        result.plan = plan
    return result


def _execute_traced(
    context: ExecutionContext,
    spec: QuerySpec,
    planner: QueryPlanner | None,
    plan: QueryPlan | None,
    tracer,
) -> GNNResult:
    """:func:`execute_spec` with tracing on: the ``query`` span tree.

    The ``query`` root carries the spec's label, the plan's algorithm
    and rationale (also for a plan handed in, which has no
    ``query.plan`` span) and every field of ``result.cost``, copied
    *after* execution — so its counters reconcile exactly, by
    construction, with the result's cost (pinned by the obs test suite).
    """
    attrs = {"k": spec.k, "group_size": spec.cardinality, "aggregate": spec.aggregate}
    if spec.label is not None:
        attrs["label"] = spec.label
    root = tracer.start("query", **attrs)
    try:
        if plan is None:
            plan_span = tracer.start("query.plan", parent=root)
            plan = (planner or QueryPlanner()).plan(spec)
            tracer.finish(
                plan_span,
                algorithm=plan.algorithm.name,
                residency=plan.residency,
                rationale=plan.rationale,
            )
        execute_span = tracer.start("query.execute", parent=root)
        result = _run_planned(context, plan)
        tracer.finish(execute_span, algorithm=result.cost.algorithm)
    except BaseException as error:
        tracer.finish(root, outcome="error", error=str(error))
        raise
    tracer.finish(
        root,
        outcome="ok",
        plan=plan.algorithm.name,
        rationale=plan.rationale,
        **result.cost.as_dict(),
    )
    result.trace_id = root["trace_id"]
    return result


# ----------------------------------------------------------------------
# delta-overlay execution
# ----------------------------------------------------------------------
def _overlay_routed(context: ExecutionContext, plan: QueryPlan) -> bool:
    """Whether this plan must answer from the merged overlay view.

    Every memory-resident plan over a dirty overlay does.
    """
    overlay = context.overlay
    return overlay is not None and overlay.dirty and plan.residency == MEMORY


def execute_batch(
    context: ExecutionContext,
    specs: Sequence[QuerySpec],
    planner: QueryPlanner | None = None,
) -> list[GNNResult]:
    """Execute many specs, sharing their node reads.

    The memory-resident specs run in input order inside one read scope
    of the index (module docstring), the disk-resident ones after it.
    Results are returned in the order of ``specs``.  Answers are
    identical to calling :func:`execute_spec` once per spec.
    """
    planner = planner or QueryPlanner()
    specs = list(specs)
    plans = [planner.plan(spec) for spec in specs]
    results: list[GNNResult | None] = [None] * len(specs)
    with context.flat.read_scope():
        for index, (spec, plan) in enumerate(zip(specs, plans)):
            if plan.residency == MEMORY and spec.group is not None:
                results[index] = execute_spec(context, spec, plan=plan)
    for index, result in enumerate(results):
        if result is None:
            results[index] = execute_spec(context, specs[index], plan=plans[index])
    return results  # type: ignore[return-value]

