"""Wire protocol between the server process and its worker processes.

Workers communicate with the server exclusively through two
``multiprocessing`` queues carrying the message types defined here:

* the server puts :class:`BatchRequest` messages (and a plain ``None``
  shutdown sentinel) on the request queue;
* workers put :class:`BatchReply` messages on the reply queue.

Everything that crosses the boundary must pickle.  Results do —
:class:`~repro.core.types.GNNResult` is plain data once the (process-
local) plan attachment is stripped — but :class:`~repro.api.spec.QuerySpec`
does not (its options live in a ``mappingproxy``), so specs are encoded
to plain-dictionary payloads with :func:`encode_spec` and re-validated
by :func:`decode_spec` on the worker side.

:func:`check_servable` is the admission filter: serving workers hold
*only* the shared flat snapshot, so any spec that needs resources of the
submitting process (a simulated-disk query file) — or a disk-resident
plan, which serving does not offer — is rejected up front, at submit
time, with the reason named — not deep inside a worker.
"""

from __future__ import annotations

import pickle
import socket
import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.api.planner import QueryPlan
from repro.api.spec import MEMORY, QuerySpec
from repro.core.types import GNNResult

#: Shutdown sentinel put on the request queue, one per worker.
SHUTDOWN = None

#: Ceiling on one network frame (header-declared payload length).  A
#: frame carries one encoded spec or one k-result reply, both tiny; the
#: cap turns a corrupted or hostile length prefix into a clean error
#: instead of an attempted multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Big-endian unsigned 32-bit length prefix of every frame.
_FRAME_HEADER = struct.Struct(">I")


@dataclass(frozen=True)
class BatchRequest:
    """One micro-batch dispatched to whichever worker pops it first.

    ``epoch`` and ``snapshot_path`` name the snapshot the batch must be
    answered from: a worker whose mapped snapshot is older remaps before
    executing (the hot-swap path).  ``items`` pairs each server-side
    request id with its encoded spec payload.  ``batch_id`` is the
    server-side identity of the batch; workers claim it before executing
    (:class:`BatchClaim`) and echo it in the reply, which is what lets
    the server attribute an in-flight batch to a worker that died.
    """

    epoch: int
    snapshot_path: str
    items: tuple[tuple[int, dict], ...]
    batch_id: int = -1
    #: Trace contexts for the traced requests of the batch: a tuple of
    #: ``(request_id, (trace_id, parent_span_id))`` pairs, or ``None``
    #: when nothing in the batch is traced (the common, zero-cost case).
    trace: tuple | None = None
    #: ``time.monotonic()`` at dispatch (CLOCK_MONOTONIC is shared
    #: across processes on one host): the gap to worker pickup is the
    #: queue wait, stamped on traced ``serve.worker`` spans.
    dispatched_s: float = 0.0


@dataclass(frozen=True)
class BatchClaim:
    """A worker's declaration that it is about to execute a batch.

    Sent on the reply queue *before* execution starts.  If the claiming
    worker dies before its :class:`BatchReply` arrives, the server knows
    exactly which requests died with it and can fail them immediately
    (``WorkerDiedError``) instead of leaving their futures hanging.
    """

    worker_id: int
    batch_id: int


@dataclass(frozen=True)
class BatchReply:
    """A worker's answer to one :class:`BatchRequest`.

    ``items`` carries ``(request_id, result, error)`` triples — exactly
    one of ``result``/``error`` is set per request.  ``counters`` is the
    worker's mergeable counters for this batch alone
    (:meth:`repro.serve.stats.ServingCounters.snapshot`), and
    ``generation`` the token of the snapshot that answered it.
    ``batch_id`` echoes the request's id so the server can retire the
    matching :class:`BatchClaim`.
    """

    worker_id: int
    epoch: int
    generation: int
    items: tuple[tuple[int, GNNResult | None, str | None], ...]
    counters: dict
    batch_id: int = -1
    #: Span dicts built worker-side for the batch's traced requests
    #: (each carries the trace_id it belongs to); empty when untraced.
    spans: tuple = ()


def check_servable(spec: QuerySpec, plan: QueryPlan) -> None:
    """Reject specs the serving workers do not execute.

    Raises ``ValueError`` naming the first blocking reason; returns
    silently for memory-resident plans, which run over the shared flat
    snapshot (or the snapshot-reconstructed dataset, for brute force).
    """
    if spec.group_file is not None:
        raise ValueError(
            "specs carrying a group_file cannot be served: the simulated "
            "disk file lives in the submitting process, not in the workers"
        )
    if plan.residency != MEMORY:
        raise ValueError(
            "disk-resident specs are not served: workers answer "
            "memory-resident groups only; execute them on a local engine"
        )


def encode_spec(spec: QuerySpec) -> dict[str, Any]:
    """Encode a (servable) spec as a picklable plain-dictionary payload."""
    return {
        "group": np.asarray(spec.group),
        "k": spec.k,
        "aggregate": spec.aggregate,
        "weights": None if spec.weights is None else np.asarray(spec.weights),
        "residency": spec.residency,
        "algorithm": spec.algorithm,
        "options": dict(spec.options),
        "index": spec.index,
        "label": spec.label,
    }


def decode_spec(payload: dict[str, Any]) -> QuerySpec:
    """Rebuild (and re-validate) a :class:`QuerySpec` from its payload."""
    return QuerySpec(**payload)


# ----------------------------------------------------------------------
# length-prefixed frames (the network transport of repro.shard)
# ----------------------------------------------------------------------
def pack_frame(message: Any) -> bytes:
    """Serialise one message as a length-prefixed pickle frame.

    The shard subsystem speaks this framing over TCP: a 4-byte
    big-endian payload length followed by the pickled message (specs
    cross as :func:`encode_spec` payloads, results as
    :func:`encode_result`-stripped :class:`GNNResult`\\ s).  Pickle is
    appropriate because both ends of a federation are trusted peers of
    the same deployment — this is an internal scatter-gather fabric,
    not a public API surface.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame cap"
        )
    return _FRAME_HEADER.pack(len(payload)) + payload


def unpack_frame(data: bytes) -> Any:
    """Inverse of :func:`pack_frame` for a complete in-memory frame."""
    if len(data) < _FRAME_HEADER.size:
        raise ValueError("truncated frame: missing length prefix")
    (length,) = _FRAME_HEADER.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    if len(data) != _FRAME_HEADER.size + length:
        raise ValueError(
            f"frame length prefix says {length} payload bytes, got "
            f"{len(data) - _FRAME_HEADER.size}"
        )
    return pickle.loads(data[_FRAME_HEADER.size :])


async def read_frame(reader) -> Any:
    """Read one frame from an ``asyncio.StreamReader``.

    Returns the decoded message, or ``None`` on a clean end-of-stream
    (the peer closed between frames).  A connection torn mid-frame
    raises ``ConnectionError`` — the caller must treat the stream as
    dead either way.
    """
    import asyncio

    try:
        header = await reader.readexactly(_FRAME_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ConnectionError("connection closed mid-frame (truncated header)") from error
    (length,) = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ConnectionError("connection closed mid-frame (truncated payload)") from error
    return pickle.loads(payload)


def set_nodelay(writer) -> None:
    """Send a stream's frames at once: turn Nagle's algorithm off on its socket.

    asyncio does this by itself only for sockets made with protocol
    ``IPPROTO_TCP``; the connections a ``socket.create_server`` listener
    accepts have protocol 0, and with Nagle on a small reply written
    behind an unacknowledged one waits out the peer's delayed ACK.
    """
    writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def encode_result(result: GNNResult) -> GNNResult:
    """Strip the process-local plan attachment so the result pickles.

    A :class:`~repro.api.planner.QueryPlan` holds the registry's runner
    callables and a ``mappingproxy``; neither crosses the process
    boundary, so served results never carry ``result.plan`` (re-plan
    with ``engine.explain`` client-side when the rationale is needed).
    """
    if result.plan is not None:
        result.plan = None
    return result
