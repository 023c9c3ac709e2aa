"""Metrics registry and the scrape-time collectors over the stats surfaces.

The paper's cost accounting lives in counter dataclasses that all speak
one protocol (:class:`~repro.storage.counters.CounterSet`).  This module
exports them under one ``repro_*`` namespace:

==============================================  =========================
``repro_serve_requests_total{outcome=...}``,    :func:`server_collector`
``repro_serve_latency_seconds`` (histogram),    over ``server.stats()`` —
``repro_serve_*_total``, scheduler and worker   mounted by
gauges, ``repro_serve_worker_*_total``          ``start_exposition()``
``repro_shard_*_total``,                        :func:`coordinator_collector`
``repro_shard_cost_*_total``,                   over ``coordinator.stats()``
``repro_shard_breaker_state{shard,replica}``    and the replica breakers
``<prefix>_<field>_total``, e.g.                :func:`counters_collector`
``repro_tree_node_accesses_total``,             over any ``CounterSet``
``repro_storage_page_reads_total``              (mounted by the caller)
==============================================  =========================

Collectors are zero-hot-path-cost adapters registered with
:meth:`MetricsRegistry.register`, sampled only at scrape time from the
live ``stats()`` snapshots the subsystems already maintain.

Rendering to the Prometheus text format lives in
:mod:`repro.obs.exposition`.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field

#: Fixed buckets (seconds) of ``repro_serve_latency_seconds`` — query
#: latencies range from tens of microseconds (memory) to whole seconds
#: (degraded shard fan-outs).
SERVE_LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


@dataclass
class Sample:
    """One exposition sample: a metric name, its labels and a value."""

    name: str
    labels: dict
    value: float


@dataclass
class MetricFamily:
    """A named metric with its type, help string and current samples."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str = ""
    samples: list = field(default_factory=list)


def histogram_family(
    name: str, buckets, counts, summed: float, total: int, help: str = "", labels=None
) -> MetricFamily:
    """Build a histogram family from per-bucket (non-cumulative) counts.

    ``counts`` may carry one extra trailing entry: the overflow past the
    last bound, counted only by the ``+Inf`` bucket.
    """
    labels = dict(labels or {})
    samples = []
    cumulative = 0
    for bound, count in zip(buckets, counts):
        cumulative += count
        samples.append(
            Sample(name + "_bucket", dict(labels, le=format_float(bound)), cumulative)
        )
    cumulative += counts[len(buckets)] if len(counts) > len(buckets) else 0
    samples.append(Sample(name + "_bucket", dict(labels, le="+Inf"), cumulative))
    samples.append(Sample(name + "_sum", labels, summed))
    samples.append(Sample(name + "_count", labels, total))
    return MetricFamily(name, "histogram", help, samples)


def format_float(value: float) -> str:
    """Prometheus-friendly float formatting (no trailing zeros)."""
    as_int = int(value)
    if value == as_int:
        return str(as_int) + ".0"
    return repr(value)


class MetricsRegistry:
    """The scrape-time collectors one exposition endpoint renders.

    Collectors are callables returning an iterable of
    :class:`MetricFamily`; they are invoked only by :meth:`collect`, so
    registering one adds nothing to any query hot path.
    """

    def __init__(self):
        self._collectors: list = []
        self._lock = threading.Lock()

    def register(self, collector) -> None:
        """Add a scrape-time collector (``() -> iterable[MetricFamily]``)."""
        with self._lock:
            self._collectors.append(collector)

    def collect(self) -> list[MetricFamily]:
        """Every collector's families, in registration order."""
        with self._lock:
            collectors = list(self._collectors)
        return [family for collector in collectors for family in collector()]


# ----------------------------------------------------------------------
# collectors: scrape-time adapters over the live stats() surfaces
# ----------------------------------------------------------------------
def _families(prefix: str, kind: str, help_prefix: str, values: dict, keys=None):
    """One unlabelled single-sample family per key of ``values``.

    ``keys`` fixes which entries are exported (a missing one reads 0);
    by default every numeric entry is, in sorted order.  Counters get
    the conventional ``_total`` suffix.
    """
    if keys is None:
        keys = sorted(k for k, v in values.items() if isinstance(v, (int, float)))
    suffix = "_total" if kind == "counter" else ""
    for key in keys:
        name = f"{prefix}_{key}{suffix}"
        yield MetricFamily(
            name, kind, f"{help_prefix} {key}", [Sample(name, {}, values.get(key, 0))]
        )


def counters_collector(prefix: str, source):
    """Export any :class:`~repro.storage.counters.CounterSet` as counters.

    ``source`` is the counter object (``MappedPageCounters``,
    ``ServingCounters``, ...) or a zero-argument callable returning
    one — engines swap their flat index on compaction, so a provider
    keeps the collector pointed at the live object.  Each counter
    becomes ``<prefix>_<field>_total``, e.g.
    ``counters_collector("repro_mmap", lambda: engine.flat.mmap_io)``.
    """

    def collect():
        counters = source() if callable(source) else source
        return list(_families(prefix, "counter", prefix, counters.snapshot()))

    return collect


#: ``server.stats()`` entries exported one family each:
#: ``(section, name prefix, kind, help prefix, keys)``.
_SERVER_FAMILIES = (
    ("server", "repro_serve", "counter", "Server", ("submitted", "swaps", "worker_deaths")),
    ("server", "repro_serve", "gauge", "Server", ("pending", "workers_alive")),
    ("scheduler", "repro_serve_scheduler", "gauge", "Scheduler", ("queued", "in_flight", "epoch")),
)

#: Worker totals that are high-water marks (gauges); the rest sum (counters).
_WORKER_PEAKS = ("largest_batch",)


def server_collector(server):
    """Adapter for a :class:`~repro.serve.server.GNNServer`.

    Samples ``server.stats()`` (the unified nested shape) and, when the
    server exposes its raw latency reservoir (``latency_seconds()``),
    derives a fixed-bucket ``repro_serve_latency_seconds`` histogram at
    scrape time.
    """

    def collect():
        stats = server.stats()
        served = stats.get("server", {})
        name = "repro_serve_requests_total"
        families = [
            MetricFamily(
                name,
                "counter",
                "Requests by outcome",
                [
                    Sample(name, {"outcome": outcome}, served.get(outcome, 0))
                    for outcome in ("completed", "failed", "shed")
                ],
            )
        ]
        for section, prefix, kind, help_prefix, keys in _SERVER_FAMILIES:
            families += _families(prefix, kind, help_prefix, stats.get(section, {}), keys)
        # The cross-worker execution totals get their own "worker"
        # segment so e.g. ``requests`` cannot collide with the labelled
        # ``repro_serve_requests_total`` family above.
        total = stats.get("total", {})
        summed = sorted(set(total) - set(_WORKER_PEAKS))
        families += _families("repro_serve_worker", "counter", "Across workers:", total, summed)
        families += _families(
            "repro_serve_worker", "gauge", "Across workers:", total, _WORKER_PEAKS
        )
        latency_seconds = getattr(server, "latency_seconds", None)
        if latency_seconds is not None:
            values = latency_seconds()
            counts = [0] * (len(SERVE_LATENCY_BUCKETS) + 1)  # + overflow (+Inf)
            for value in values:
                counts[bisect.bisect_left(SERVE_LATENCY_BUCKETS, value)] += 1
            families.append(
                histogram_family(
                    "repro_serve_latency_seconds",
                    SERVE_LATENCY_BUCKETS,
                    counts,
                    float(sum(values)),
                    len(values),
                    "Request latency (reservoir)",
                )
            )
        return families

    return collect


_BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}


def coordinator_collector(coordinator):
    """Adapter for a :class:`~repro.shard.coordinator.ShardCoordinator`."""

    def collect():
        stats = coordinator.stats()
        # Top-level numbers are the coordinator's counters; the nested
        # cost's non-numeric "algorithm" label is skipped by _families.
        families = list(_families("repro_shard", "counter", "Coordinator", stats))
        families += _families(
            "repro_shard_cost", "counter", "Merged query cost", stats.get("cost", {})
        )
        breaker_states = getattr(coordinator, "breaker_states", None)
        if breaker_states is not None:
            name = "repro_shard_breaker_state"
            families.append(
                MetricFamily(
                    name,
                    "gauge",
                    "Replica breaker state (0=closed, 1=half-open, 2=open)",
                    [
                        Sample(
                            name,
                            {"shard": str(shard_id), "replica": address},
                            _BREAKER_STATE_VALUES.get(state, -1),
                        )
                        for (shard_id, address), state in sorted(breaker_states().items())
                    ],
                )
            )
        return families

    return collect
