"""Plan execution, single and batched.

The executor hands each planned :class:`~repro.api.spec.QuerySpec` to
the runner of its algorithm together with the
:class:`ExecutionContext` (index, buffer, pending writes), and (for
batches) amortises work across queries:

* **plan caching** — the planner plans specs with equal plan signatures
  once (its cache outlives the batch);
* **locality scheduling** — memory-resident queries are executed in
  Hilbert order of their group centroids, so consecutive queries touch
  overlapping parts of the R-tree and an LRU buffer serves far more
  requests from memory (results are returned in input order regardless);
* **shared reads** — MBM specs are bucketed by
  ``(cardinality, k, heuristics)``, Hilbert-ordered, and answered by
  :func:`repro.core.mbm.mbm_batch`: each member runs its own solo
  traversal, keying and pruning as it would alone (under its own
  ``within`` ceiling, if any), over one set of nodes already read, so a
  bucket reads the union of its members' nodes, each once.

Every plan runs over the context's one index, a
:class:`~repro.rtree.flat.FlatRTree`.  When the context also carries a
*dirty* delta overlay (:class:`~repro.rtree.overlay.DeltaOverlay` — the
engine's mutable write path), every memory-resident algorithm's driver
reads the delta as pages of leaf size — MBM merged by key into its
traversal of the frozen base, the others before their traversal — skips
tombstones and prunes against the merged view's k-th distance; answers
are bit-identical to a from-scratch rebuild (an exact tie at the k-th
distance aside: see :mod:`repro.rtree.overlay`).  Shared buckets
are disabled while dirty (they see only the base arrays).
Disk-resident plans have no overlay form: the engine folds the overlay
(``compact()``) before handing such a plan a context.

Batching never changes answers: a bucket member runs the per-query
traversal itself, record ids included, which ``execute_many``
equivalence tests pin down.

Every runner charges the query's own
:class:`~repro.core.types.QueryCost` where the work happens and adds it
once, when the query finishes, to the index's ``flat.stats``, so costs
are exact per query however many threads share the index.  A bucket
member's record (``MBM-batch``) holds its distance computations and CPU
time, and the node reads it paid for as the first member to reach them,
so a bucket's results sum to what the bucket adds to the index's stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.api.planner import QueryPlan, QueryPlanner
from repro.api.spec import MEMORY, WITHIN, QuerySpec
from repro.core.bruteforce import brute_force_gnn
from repro.core.mbm import mbm_batch
from repro.core.types import GNNResult, GroupQuery, QueryCost
from repro.geometry import kernels
from repro.geometry.hilbert import hilbert_indices
from repro.obs import trace as obs_trace
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.storage.buffer import LRUBuffer

#: Upper bound on the members of one :func:`mbm_batch` call (and the
#: serving micro-batch's default size).  Buckets are Hilbert-ordered
#: before chunking, so each chunk covers a spatially tight neighborhood
#: whose members share most of their reads.
SHARED_BUCKET_MAX_MEMBERS = 32


@dataclass
class ExecutionContext:
    """Everything a runner may need: the index, the buffer, pending writes.

    ``flat`` is the one index every plan traverses — memory- and
    disk-resident alike.  ``overlay`` carries the engine's *dirty* delta
    overlay — when set, every memory-resident runner answers from the
    merged view (base + delta − tombstones) instead of the stale frozen
    arrays.
    """

    flat: FlatRTree
    buffer: LRUBuffer | None = None
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
    *after* execution — so for a single query its counters reconcile
    exactly, by construction, with both the result's cost and what the
    query added to the index's stats (pinned by the obs test suite).
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
    """Execute many specs, amortising planning, locality and shared reads.

    Results are returned in the order of ``specs``.  Answers are
    identical to calling :func:`execute_spec` once per spec.
    """
    planner = planner or QueryPlanner()
    specs = list(specs)
    plans = [planner.plan(spec) for spec in specs]

    results: list[GNNResult | None] = [None] * len(specs)

    # A dirty overlay disables the shared buckets wholesale — the
    # frozen arrays alone no longer describe the live data; the per-spec
    # path below answers from the merged overlay view instead.
    if context.overlay is None:
        shared_indices = [
            i for i in range(len(specs)) if shared_traversal_eligible(specs[i], plans[i])
        ]
        for index, result in _shared_traversal_mbm(
            context.flat, specs, plans, shared_indices
        ):
            if specs[index].trace:
                result.plan = plans[index]
            results[index] = result

    remaining = [i for i in range(len(specs)) if results[i] is None]
    for index in _locality_order(specs, plans, remaining):
        results[index] = execute_spec(context, specs[index], plan=plans[index])
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# shared-traversal batches (MBM)
# ----------------------------------------------------------------------
def shared_traversal_eligible(spec: QuerySpec, plan: QueryPlan) -> bool:
    """Whether a spec can join a shared-traversal MBM bucket.

    A shared bucket specialises the paper's setting — best-first MBM
    over an unweighted sum group held in memory, with or without a
    ``within`` ceiling — which is exactly what the auto policy plans for
    such specs.  Everything else stays on the per-query path (with
    identical answers either way).

    This predicate is the public batch-eligibility contract: the serving
    scheduler (:mod:`repro.serve.scheduler`) uses it to decide which
    incoming requests may be coalesced into one micro-batch.
    """
    return (
        plan.algorithm.name == "mbm"
        and spec.group is not None
        and spec.weights is None
        and spec.aggregate == kernels.SUM
    )


def shared_bucket_key(spec: QuerySpec, plan: QueryPlan) -> tuple | None:
    """The shared-traversal bucket ``spec`` coalesces into, or ``None``.

    Specs with equal keys can be answered by *one* :func:`mbm_batch`
    call (they stack along the batch dimensions: group cardinality,
    ``k`` and the Heuristic-3 toggle).  ``None`` means the spec is not
    shared-traversal eligible and must run on the per-query path.
    """
    if not shared_traversal_eligible(spec, plan):
        return None
    return (
        spec.cardinality,
        spec.k,
        bool(plan.options.get("use_heuristic3", True)),
    )


def _shared_traversal_mbm(
    flat: FlatRTree, specs: Sequence[QuerySpec], plans: Sequence[QueryPlan], indices: list[int]
):
    """Answer MBM specs through shared-read buckets.

    Specs are bucketed by ``(cardinality, k, use_heuristic3)`` — the
    stacking dimensions of :func:`repro.core.mbm.mbm_batch` — and each
    bucket runs in Hilbert order of the group centroids, in chunks of
    :data:`SHARED_BUCKET_MAX_MEMBERS`, so consecutive members read
    overlapping nodes.  Single-spec buckets stay on the per-query path
    (a batch of one amortises nothing).
    """
    if len(indices) < 2:
        return
    buckets: dict[tuple, list[int]] = {}
    for i in indices:
        key = shared_bucket_key(specs[i], plans[i])
        if key is None:
            # Defensive: the caller prefilters with the same predicate;
            # an ineligible spec must fall back to the per-query path,
            # never join a shared bucket.
            continue
        buckets.setdefault(key, []).append(i)
    for (_, k, use_heuristic3), bucket in buckets.items():
        if len(bucket) < 2:
            continue
        bucket = _hilbert_order(specs, bucket)
        for start in range(0, len(bucket), SHARED_BUCKET_MAX_MEMBERS):
            members = bucket[start : start + SHARED_BUCKET_MAX_MEMBERS]
            if len(members) < 2:
                continue  # leftover singleton: the per-query path is cheaper
            outcomes = mbm_batch(
                flat,
                np.stack([specs[i].group for i in members]),
                k,
                use_heuristic3=use_heuristic3,
                within=[plans[i].options.get(WITHIN, math.inf) for i in members],
            )
            yield from zip(members, outcomes)


# ----------------------------------------------------------------------
# locality scheduling
# ----------------------------------------------------------------------
def _hilbert_order(specs: Sequence[QuerySpec], indices: list[int]) -> list[int]:
    """``indices`` reordered along the Hilbert curve of the group centroids."""
    if len(indices) < 2:
        return indices
    keys = hilbert_indices(np.vstack([specs[i].group.mean(axis=0) for i in indices]))
    return [indices[j] for j in np.argsort(keys, kind="stable")]


def _locality_order(
    specs: Sequence[QuerySpec], plans: Sequence[QueryPlan], indices: list[int]
) -> list[int]:
    """Order memory-resident queries along the Hilbert curve of their centroids.

    Nearby groups explore overlapping R-tree regions; executing them
    consecutively keeps those nodes hot in the LRU buffer.  Disk-resident
    specs keep their input order (their cost is dominated by their own
    query file, not by inter-query locality).
    """
    memory = [
        i for i in indices if plans[i].residency == MEMORY and specs[i].group is not None
    ]
    memory_set = set(memory)
    other = [i for i in indices if i not in memory_set]
    return _hilbert_order(specs, memory) + other
