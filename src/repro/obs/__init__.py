"""Observability: tracing, metrics, exposition, slow-query log, logging.

The repo's cost accounting (node accesses, distance computations, CPU
time — the paper's reported metrics) lives in counter dataclasses that
share one protocol (:class:`repro.storage.counters.CounterSet`).  This
package is the cross-cutting layer that exports and follows them:

* :mod:`repro.obs.trace` — per-query span trees that follow a request
  through planner → micro-batcher → worker → shard fan-out;
* :mod:`repro.obs.metrics` — the metrics registry and the scrape-time
  collectors that export ``stats()`` surfaces and counter sets under
  the ``repro_*`` namespace;
* :mod:`repro.obs.exposition` — Prometheus text rendering, the admin
  HTTP endpoint, and the ``python -m repro.obs`` federation scraper;
* :mod:`repro.obs.slowlog` — threshold-triggered structured records of
  slow queries (spec, plan rationale, counter deltas, shard timings);
* :mod:`repro.obs.logging` — structured JSON event logging for
  lifecycle transitions (swaps, worker deaths, compactions, recovery,
  breaker trips).

Everything is **off by default** and gated by the module-global
``is None`` pattern borrowed from :mod:`repro.testing.faults`, so the
disabled cost on a query hot path is one global read per subsystem.
"""

from __future__ import annotations

from repro.obs import logging, metrics, slowlog, trace
from repro.obs.trace import Tracer, orphan_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog

__all__ = [
    "MetricsRegistry",
    "SlowQueryLog",
    "Tracer",
    "disable_all",
    "enable_all",
    "logging",
    "metrics",
    "orphan_spans",
    "slowlog",
    "trace",
]


def enable_all(
    *,
    ring: int = trace.DEFAULT_RING,
    trace_jsonl=None,
    slow_threshold_s: float = slowlog.DEFAULT_THRESHOLD_S,
    slow_jsonl=None,
    log_stream=None,
) -> tuple[Tracer, MetricsRegistry, SlowQueryLog]:
    """Switch every observability subsystem on (tests and examples)."""
    tracer = trace.enable(ring=ring, jsonl_path=trace_jsonl)
    registry = metrics.enable()
    slow = slowlog.enable(threshold_s=slow_threshold_s, jsonl_path=slow_jsonl)
    logging.enable(stream=log_stream)
    return tracer, registry, slow


def disable_all() -> None:
    """Back to the production default: everything off."""
    trace.disable()
    metrics.disable()
    slowlog.disable()
    logging.disable()
