"""The worker process: a read-only engine over the shared mmap snapshot.

Every worker runs :func:`worker_main`: it maps the published snapshot
with ``FlatRTree.load(path, mmap_mode="r")`` — N workers mapping the
*same* ``.npz`` share its pages through the OS page cache, so the index
is held in physical memory once, not N times — wraps it in a read-only
:class:`~repro.core.engine.GNNEngine`, and drains the shared request
queue.  Each popped :class:`~repro.serve.protocol.BatchRequest` is
answered with one ``engine.execute_many`` call, which runs every member
on its ordinary per-query path inside one read scope of the index (each
node is charged to the first member to read it) — answers are identical
to sequential ``engine.execute``.

Hot-swap: a batch stamped with a newer epoch than the worker's mapped
snapshot makes the worker remap *before* executing it; the previous
batch always finishes on the snapshot it started with, so in-flight
work is never torn.

Failure containment: a request that fails to decode or execute turns
into an error string for that request id; the worker itself keeps
serving.  Only the shutdown sentinel (``None``) ends the loop.
"""

from __future__ import annotations

import time
import traceback

from repro.core.engine import GNNEngine
from repro.obs import trace as obs_trace
from repro.rtree.flat import FlatRTree
from repro.serve.protocol import (
    SHUTDOWN,
    BatchClaim,
    BatchReply,
    BatchRequest,
    decode_spec,
    encode_result,
)
from repro.serve.stats import ServingCounters
from repro.testing import faults


def _load_engine(snapshot_path: str) -> tuple[GNNEngine, int]:
    """Map the snapshot read-only and wrap it in a snapshot-only engine."""
    flat = FlatRTree.load(snapshot_path, mmap_mode="r")
    return GNNEngine.from_index(flat), flat.generation


def execute_batch_message(
    engine: GNNEngine,
    message: BatchRequest,
    io_stall_s_per_access: float = 0.0,
    worker_id: int = -1,
    swapped: bool = False,
) -> tuple[tuple, ServingCounters, tuple]:
    """Answer one batch message; returns (reply items, batch counters, spans).

    Split out of the process loop so tests can drive a worker's
    execution path in-process.  ``io_stall_s_per_access`` optionally
    charges a simulated disk stall per R-tree node access (the paper's
    I/O cost model made temporal) — the
    stall is slept *after* the batch, which preserves throughput
    semantics without perturbing the measured CPU path.

    When the batch carries trace contexts (``message.trace``), one
    ``serve.worker`` span is built per traced request — parented under
    the server's request span, stamped with the batch identity, the
    hot-swap flag and the request's own measured cost — and returned
    for the server to export.  An untraced batch pays one ``is None``
    check.
    """
    counters = ServingCounters()
    decoded: list[tuple[int, object]] = []
    failures: dict[int, str] = {}
    for request_id, payload in message.items:
        try:
            decoded.append((request_id, decode_spec(payload)))
        except Exception:
            failures[request_id] = traceback.format_exc(limit=2)

    contexts = dict(message.trace) if message.trace is not None else None
    spans: dict[int, dict] = {}
    outcomes: dict[int, object] = {}
    if decoded:
        if contexts:
            queue_wait_s = (
                max(0.0, time.monotonic() - message.dispatched_s)
                if message.dispatched_s
                else 0.0
            )
            for request_id, _ in decoded:
                context = contexts.get(request_id)
                if context is not None:
                    spans[request_id] = obs_trace.start_span(
                        "serve.worker",
                        trace_id=context[0],
                        parent_id=context[1],
                        worker_id=worker_id,
                        batch_id=message.batch_id,
                        batch_size=len(decoded),
                        epoch=message.epoch,
                        swapped=swapped,
                        queue_wait_s=round(queue_wait_s, 6),
                    )
        specs = [spec for _, spec in decoded]
        try:
            started = time.perf_counter()
            results = engine.execute_many(specs)
            elapsed = time.perf_counter() - started
            # Each result carries its own query's work (the batch's read
            # scope charges each node read to one member), so their sum
            # is the batch's physical index work.
            costs = [result.cost for result in results]
            for (request_id, _), result in zip(decoded, results):
                span = spans.get(request_id)
                if span is not None:
                    obs_trace.finish_span(
                        span,
                        node_accesses=result.cost.node_accesses,
                        distance_computations=result.cost.distance_computations,
                        cpu_time=result.cost.cpu_time,
                    )
                outcomes[request_id] = encode_result(result)
            stall = io_stall_s_per_access * sum(cost.node_accesses for cost in costs)
            counters.record_batch(costs, cpu_time=elapsed, io_stall_s=stall)
            if stall > 0.0:
                time.sleep(stall)
        except Exception:
            error = traceback.format_exc(limit=4)
            for request_id, _ in decoded:
                failures[request_id] = error
                span = spans.get(request_id)
                if span is not None and span["end_s"] is None:
                    obs_trace.finish_span(span, error=error.splitlines()[-1])

    items = tuple(
        (request_id, outcomes.get(request_id), failures.get(request_id))
        for request_id, _ in list(message.items)
    )
    return items, counters, tuple(spans.values())


def worker_main(
    worker_id: int,
    request_queue,
    reply_queue,
    snapshot_path: str,
    epoch: int,
    io_stall_s_per_access: float = 0.0,
) -> None:
    """Process entry point: map the snapshot, drain batches until shutdown."""
    # A forked worker traces nothing itself: its spans reach the front's
    # tracer only on the reply, never through the inherited sink.
    obs_trace.drop_inherited()
    engine, generation = _load_engine(snapshot_path)
    current_epoch = epoch
    while True:
        message = request_queue.get()
        if message is SHUTDOWN:
            break
        # Claim the batch before touching it: if this process dies from
        # here on, the server knows exactly which requests died with it.
        reply_queue.put(BatchClaim(worker_id=worker_id, batch_id=message.batch_id))
        # ``worker.execute`` fires *after* the claim — a kill here is the
        # "worker died mid-batch" scenario the server must detect.  An
        # injected ``os._exit`` would race the queue's feeder thread and
        # could lose the claim it is about to simulate dying *after*, so
        # give the feeder a moment — only when a plan is armed.
        if faults.is_active():
            time.sleep(0.05)
        faults.fire("worker.execute")
        if message.epoch != current_epoch:
            # Finish-then-remap: the previous batch already completed on
            # the old mapping; this one demands the newer snapshot.
            engine, generation = _load_engine(message.snapshot_path)
            current_epoch = message.epoch
            swapped = True
        else:
            swapped = False
        items, counters, spans = execute_batch_message(
            engine, message, io_stall_s_per_access, worker_id=worker_id, swapped=swapped
        )
        if swapped:
            counters.record_swap()
        reply_queue.put(
            BatchReply(
                worker_id=worker_id,
                epoch=current_epoch,
                generation=generation,
                items=items,
                counters=counters.snapshot(),
                batch_id=message.batch_id,
                spans=spans,
            )
        )
