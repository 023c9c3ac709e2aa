"""Observability: tracing, metrics, exposition, logging.

The repo's cost accounting (node accesses, distance computations, CPU
time — the paper's reported metrics) lives in counter dataclasses that
share one protocol (:class:`repro.storage.counters.CounterSet`).  This
package is the cross-cutting layer that exports and follows them:

* :mod:`repro.obs.trace` — per-query span trees that follow a request
  through planner → micro-batcher → worker → shard fan-out.  The tree is
  the one per-query record: its root carries the query's counters (and,
  for an engine query, the plan's algorithm and rationale), and a
  tracer with a slow threshold keeps the trees of slow queries;
* :mod:`repro.obs.metrics` — the scrape-time collectors that export
  ``stats()`` surfaces and counter sets under the ``repro_*`` namespace;
* :mod:`repro.obs.exposition` — Prometheus text rendering, the admin
  HTTP endpoint, and the ``python -m repro.obs`` federation scraper;
* :mod:`repro.obs.logging` — structured JSON event logging for
  lifecycle transitions (swaps, worker deaths, compactions, recovery,
  breaker trips).

Tracing and logging are **off by default** and gated by the
module-global ``is None`` pattern borrowed from
:mod:`repro.testing.faults`, so the disabled cost on a query hot path is
one global read.  Collectors cost nothing until scraped.
"""

from __future__ import annotations

from repro.obs import logging, metrics, trace
from repro.obs.trace import Tracer, orphan_spans
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MetricsRegistry",
    "Tracer",
    "disable_all",
    "enable_all",
    "logging",
    "metrics",
    "orphan_spans",
    "trace",
]


def enable_all(
    *,
    ring: int = trace.DEFAULT_RING,
    trace_jsonl=None,
    slow_threshold_s: float = trace.DEFAULT_SLOW_THRESHOLD_S,
    log_stream=None,
) -> Tracer:
    """Switch tracing (with slow-trace capture) and logging on; returns the tracer."""
    tracer = trace.enable(ring=ring, jsonl_path=trace_jsonl, slow_threshold_s=slow_threshold_s)
    logging.enable(stream=log_stream)
    return tracer


def disable_all() -> None:
    """Back to the production default: everything off."""
    trace.disable()
    logging.disable()
