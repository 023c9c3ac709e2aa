"""Benchmark-side span recorder for the traced run.

The harness wraps every call it makes into a layer in a span (name,
start, end, parent, request id), keeps the spans in memory and writes
them out when the run ends.  The program's own span trees (PR 10's
``repro.obs.trace``) are harvested into the same file; both use
``time.monotonic()``, so they line up on one clock.

A span's *self time* is its duration minus the part its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


class _NullSpan:
    """The do-nothing span untraced runs get (one shared instance)."""

    enabled = False

    def child(self, name, request_id=None):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder used with tracing off: every span is the shared no-op."""

    def span(self, name):
        return _NULL_SPAN


class _Span:
    __slots__ = ("recorder", "name", "parent_id", "request_id", "span_id", "start_s")

    enabled = True

    def __init__(self, recorder, name, parent_id, request_id):
        self.recorder = recorder
        self.name = name
        self.parent_id = parent_id
        self.request_id = request_id
        self.span_id = next(recorder._ids)

    def child(self, name, request_id=None) -> "_Span":
        """A span caused by this one; it inherits the request id unless given one."""
        if request_id is None:
            request_id = self.request_id
        return _Span(self.recorder, name, self.span_id, request_id)

    def __enter__(self):
        self.start_s = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        end_s = time.monotonic()
        # list.append is atomic under the GIL: client threads share it.
        self.recorder.spans.append(
            {
                "source": "harness",
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "request_id": self.request_id,
                "start_s": self.start_s,
                "end_s": end_s,
                "thread": threading.get_ident(),
                "error": exc_type.__name__ if exc_type is not None else None,
            }
        )
        return False


class SpanRecorder:
    """In-memory span store: ``with recorder.span("client") as root:`` then ``root.child(...)``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def span(self, name) -> _Span:
        """A parentless span."""
        return _Span(self, name, None, None)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name (seconds) over harness spans."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent_id"] is not None:
            child_time[span["parent_id"]] += span["end_s"] - span["start_s"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        duration = span["end_s"] - span["start_s"]
        totals[span["name"]] += duration - child_time.get(span["span_id"], 0.0)
    return dict(totals)


def program_span_durations(spans: list[dict], name: str) -> list[float]:
    """Durations (seconds) of the program's finished spans called ``name``."""
    return [
        span["end_s"] - span["start_s"]
        for span in spans
        if span["name"] == name and span.get("end_s") is not None
    ]


def write_jsonl(path, records) -> None:
    """Write span records (harness and harvested program spans), one per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
