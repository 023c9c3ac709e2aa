"""Per-query trace contexts: span trees across process and shard hops.

A *span* here is deliberately a plain ``dict`` — it must cross
multiprocessing queues (server → worker → server) and TCP frames
(coordinator → shard node → coordinator) with nothing but pickle, and
it must be buildable in a forked worker process that has no
:class:`Tracer` installed at all.  The shape::

    {"trace_id": str, "span_id": str, "parent_id": str | None,
     "name": str, "start_s": float, "end_s": float | None,
     "attrs": {...}}

Timestamps are ``time.monotonic()`` — on Linux that is CLOCK_MONOTONIC,
which is shared across processes on one host, so worker- and node-side
spans order correctly against the parent span that spawned them.

The enable/disable protocol copies the fault-injection template from
:mod:`repro.testing.faults`: the module-global tracer is ``None`` in
production and every instrumentation site guards with a single
``is None`` test, so disabled tracing costs one global read per query.
Spans are exported into a bounded in-memory ring (newest win) and,
optionally, appended as JSON lines to a sink file.

The span tree is the one per-query record: a tracer given a
``slow_threshold_s`` keeps the assembled tree of every trace whose
outermost root lasted at least that long (:meth:`Tracer.slow_traces`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque

#: Default capacity of the in-memory span ring.
DEFAULT_RING = 4096

#: Most slow traces a tracer keeps (newest win).
SLOW_TRACES = 256

#: The slow threshold :func:`repro.obs.enable_all` installs by default:
#: 50 ms, far above any healthy memory query.
DEFAULT_SLOW_THRESHOLD_S = 0.050

# ``next`` on an ``itertools.count`` is atomic under the GIL, so ids need
# no lock — and a lock here could be held by another thread at fork time,
# deadlocking the forked worker's first span.
_ids = itertools.count(1)


def new_id() -> str:
    """A process-unique hex id (pid-prefixed so forked workers never collide)."""
    return f"{os.getpid():x}-{next(_ids):x}"


def start_span(
    name: str,
    *,
    trace_id: str | None = None,
    parent_id: str | None = None,
    **attrs,
) -> dict:
    """Create a started span dict (usable with no tracer installed).

    With no ``trace_id`` the span starts a new trace and becomes its
    root.  ``attrs`` seed the span's attribute dict.
    """
    return {
        "trace_id": trace_id if trace_id is not None else new_id(),
        "span_id": new_id(),
        "parent_id": parent_id,
        "name": name,
        "start_s": time.monotonic(),
        "end_s": None,
        "attrs": dict(attrs),
    }


def child_span(parent: dict, name: str, **attrs) -> dict:
    """A span parented under ``parent`` (same trace)."""
    return start_span(
        name, trace_id=parent["trace_id"], parent_id=parent["span_id"], **attrs
    )


def finish_span(span: dict, **attrs) -> dict:
    """Stamp ``end_s`` and merge ``attrs``; returns the span for chaining."""
    span["end_s"] = time.monotonic()
    if attrs:
        span["attrs"].update(attrs)
    return span


def span_duration_s(span: dict) -> float:
    """Elapsed seconds of a finished span (0.0 while still open)."""
    end = span.get("end_s")
    return 0.0 if end is None else end - span["start_s"]


def _assemble(spans) -> dict | None:
    """One trace's spans as a tree rooted at its single true root, or ``None``.

    Every span is copied with a ``"children"`` list (ordered by start
    time); a span exported twice appears once.
    """
    by_id = {span["span_id"]: dict(span, children=[]) for span in spans}
    roots = []
    for node in by_id.values():
        parent = by_id.get(node["parent_id"])
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in by_id.values():
        node["children"].sort(key=lambda child: child["start_s"])
    true_roots = [node for node in roots if node["parent_id"] is None]
    return true_roots[0] if len(true_roots) == 1 else None


class Tracer:
    """Bounded in-memory span ring with an optional JSONL sink.

    Spans are *exported* (not merely created) into the tracer — a span
    built remotely (in a worker or on a shard node) is exported by
    whichever process owns the tracer once it arrives back over the
    wire.  Export order is arbitrary; :meth:`tree` reassembles by
    parent links.

    With ``slow_threshold_s`` set, exporting an outermost root
    (``parent_id is None``) that lasted at least that long keeps the
    trace's assembled tree, built from that trace's buffered spans only;
    :meth:`slow_traces` returns the newest :data:`SLOW_TRACES` of them.
    """

    def __init__(self, ring: int = DEFAULT_RING, jsonl_path=None, slow_threshold_s=None):
        self._capacity = int(ring)
        self._ring: deque = deque()
        # trace_id -> that trace's buffered spans, in export order.
        self._by_trace: dict[str, list] = {}
        self.slow_threshold_s = None if slow_threshold_s is None else float(slow_threshold_s)
        self._slow: deque = deque(maxlen=SLOW_TRACES)
        self._lock = threading.Lock()
        self._sink = None
        if jsonl_path is not None:
            self._sink = open(os.fspath(jsonl_path), "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # creating and exporting
    # ------------------------------------------------------------------
    def start(self, name: str, parent: dict | None = None, **attrs) -> dict:
        """Create a started span, optionally under ``parent``."""
        if parent is None:
            return start_span(name, **attrs)
        return child_span(parent, name, **attrs)

    def finish(self, span: dict, **attrs) -> dict:
        """Finish ``span`` and export it."""
        finish_span(span, **attrs)
        self.export(span)
        return span

    def export(self, *spans) -> None:
        """Record finished spans (local or arrived from another process)."""
        threshold = self.slow_threshold_s
        with self._lock:
            for span in spans:
                self._buffer(span)
                if self._sink is not None:
                    self._sink.write(json.dumps(span, sort_keys=True) + "\n")
            if self._sink is not None and spans:
                self._sink.flush()
            if threshold is None:
                return
            # After the whole batch is buffered: a served request's root
            # arrives in the same call as its worker spans.
            for span in spans:
                if span["parent_id"] is None and span_duration_s(span) >= threshold:
                    tree = _assemble(self._by_trace.get(span["trace_id"], ()))
                    if tree is not None:
                        self._slow.append(tree)

    def _buffer(self, span: dict) -> None:
        """Append to the ring and the trace index, evicting the oldest span."""
        self._ring.append(span)
        self._by_trace.setdefault(span["trace_id"], []).append(span)
        if len(self._ring) > self._capacity:
            oldest = self._ring.popleft()
            # The ring's oldest span is also the oldest of its trace.
            kin = self._by_trace[oldest["trace_id"]]
            del kin[0]
            if not kin:
                del self._by_trace[oldest["trace_id"]]

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------
    def spans(self, trace_id: str | None = None) -> list[dict]:
        """All buffered spans, optionally filtered to one trace."""
        with self._lock:
            if trace_id is None:
                return list(self._ring)
            return list(self._by_trace.get(trace_id, ()))

    def tree(self, trace_id: str) -> dict | None:
        """Reassemble one trace's span tree; ``None`` if unknown.

        Returns the root span dict with a ``"children"`` list added
        recursively (children ordered by start time).  A trace with no
        root or more than one root has no well-formed tree — callers
        wanting to *validate* trees should use :func:`orphan_spans`.
        """
        return _assemble(self.spans(trace_id))

    def slow_traces(self) -> list[dict]:
        """Assembled trees of the slow traces kept so far, newest last."""
        with self._lock:
            return list(self._slow)

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None


def orphan_spans(spans) -> list[dict]:
    """Spans whose ``parent_id`` names no span in ``spans`` (roots excluded).

    An empty return is the "complete span tree" property the chaos suite
    asserts: every non-root span's parent made it into the trace.
    """
    known = {span["span_id"] for span in spans}
    return [
        span
        for span in spans
        if span["parent_id"] is not None and span["parent_id"] not in known
    ]


# ----------------------------------------------------------------------
# the active tracer (process-global; the faults.py `is None` template)
# ----------------------------------------------------------------------
_active: Tracer | None = None


def get() -> Tracer | None:
    """The installed tracer, or ``None`` (production default)."""
    return _active


def enable(ring: int = DEFAULT_RING, jsonl_path=None, slow_threshold_s=None) -> Tracer:
    """Install and return a fresh process-global tracer."""
    global _active
    _active = Tracer(ring=ring, jsonl_path=jsonl_path, slow_threshold_s=slow_threshold_s)
    return _active


def disable() -> None:
    """Uninstall the tracer (back to the zero-cost path)."""
    global _active
    if _active is not None:
        _active.close()
    _active = None


def drop_inherited() -> None:
    """Forget a tracer inherited through ``fork``, without touching it.

    Called first thing in every forked child (serving workers, shard
    node processes).  The inherited tracer shares the parent's sink
    file, so the child would write its own spans into the parent's
    trace; and its lock may have been held by another parent thread at
    fork time, so it stays held in the child forever.  Neither is
    closed or locked here — the reference is simply dropped.
    """
    global _active
    _active = None


class active:
    """Context manager: ``with trace.active() as tracer: ...``."""

    def __init__(self, ring: int = DEFAULT_RING, jsonl_path=None):
        self._ring = ring
        self._jsonl_path = jsonl_path

    def __enter__(self) -> Tracer:
        return enable(ring=self._ring, jsonl_path=self._jsonl_path)

    def __exit__(self, *exc) -> None:
        disable()
