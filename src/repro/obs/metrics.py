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

Two mechanisms coexist:

* **direct metrics** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` objects created via the registry, updated by
  callers, snapshottable and *mergeable* exactly like counter snapshot
  dicts (:func:`MetricsRegistry.merge` is key-wise addition, the same
  contract as :func:`repro.storage.counters.merge_snapshots`);
* **collectors** — zero-hot-path-cost adapters registered with
  :meth:`MetricsRegistry.register`, sampled only at scrape time from
  the live ``stats()`` snapshots the subsystems already maintain.

Rendering to the Prometheus text format lives in
:mod:`repro.obs.exposition`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: Default histogram buckets (seconds) — tuned for query latencies that
#: range from tens of microseconds (memory) to whole seconds (degraded
#: shard fan-outs).
DEFAULT_BUCKETS = (
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


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def family(self) -> MetricFamily:
        return MetricFamily(
            self.name, self.kind, self.help, [Sample(self.name, {}, self._value)]
        )

    def state(self):
        return self._value

    def merge_state(self, state) -> None:
        with self._lock:
            self._value += float(state)


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def family(self) -> MetricFamily:
        return MetricFamily(
            self.name, self.kind, self.help, [Sample(self.name, {}, self._value)]
        )

    def state(self):
        return self._value

    def merge_state(self, state) -> None:
        # Merging gauges across workers sums them (pending depths add).
        with self._lock:
            self._value += float(state)


class Histogram:
    """Fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # + overflow (+Inf)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def family(self) -> MetricFamily:
        with self._lock:
            counts = list(self._counts)
            total, summed = self._count, self._sum
        return histogram_family(
            self.name, self.buckets, counts, summed, total, self.help
        )

    def state(self):
        with self._lock:
            return {
                "buckets": list(self._counts),
                "sum": self._sum,
                "count": self._count,
            }

    def merge_state(self, state) -> None:
        counts = state["buckets"]
        if len(counts) != len(self._counts):
            raise ValueError(f"bucket mismatch merging histogram {self.name!r}")
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += int(count)
            self._sum += float(state["sum"])
            self._count += int(state["count"])


def histogram_family(
    name: str, buckets, counts, summed: float, total: int, help: str = "", labels=None
) -> MetricFamily:
    """Build a histogram family from per-bucket (non-cumulative) counts.

    Shared by :class:`Histogram` and collectors that derive histograms
    from raw samples at scrape time (e.g. the server latency reservoir).
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
    """Owns direct metrics and scrape-time collectors.

    Direct metrics are created with :meth:`counter` / :meth:`gauge` /
    :meth:`histogram` (get-or-create by name).  Collectors are callables
    returning an iterable of :class:`MetricFamily`; they are invoked
    only by :meth:`collect`, so registering one adds nothing to any
    query hot path.
    """

    def __init__(self):
        self._metrics: dict = {}
        self._collectors: list = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # direct metrics
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # ------------------------------------------------------------------
    # collectors
    # ------------------------------------------------------------------
    def register(self, collector) -> None:
        """Add a scrape-time collector (``() -> iterable[MetricFamily]``)."""
        with self._lock:
            self._collectors.append(collector)

    def unregister(self, collector) -> None:
        with self._lock:
            self._collectors.remove(collector)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def collect(self) -> list[MetricFamily]:
        """Every family: direct metrics first, then collector output."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        families = [metric.family() for metric in metrics]
        for collector in collectors:
            families.extend(collector())
        return families

    # ------------------------------------------------------------------
    # snapshot / merge — the existing counter-dict contract
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Direct metrics as a plain dict (counters/gauges: numbers;
        histograms: ``{"buckets": [...], "sum": s, "count": n}``).

        Collector-backed families are intentionally excluded — their
        sources (worker counters, coordinator stats) already have their
        own mergeable snapshots.
        """
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metric.state() for name, metric in metrics.items()}

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict in by key-wise addition.

        Unknown names are created as counters (numeric state) or
        histograms with default buckets (dict state) so merging across
        heterogeneous workers carries the union of keys, mirroring
        :func:`repro.storage.counters.merge_snapshots`.
        """
        for name, state in snapshot.items():
            with self._lock:
                metric = self._metrics.get(name)
            if metric is None:
                if isinstance(state, dict):
                    buckets = DEFAULT_BUCKETS
                    if len(state["buckets"]) != len(buckets) + 1:
                        raise ValueError(
                            f"cannot infer buckets for unknown histogram {name!r}"
                        )
                    metric = self.histogram(name)
                else:
                    metric = self.counter(name)
            metric.merge_state(state)


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

    ``source`` is the counter object (``TreeStats``, ``IOCounters``,
    ``MappedPageCounters``, ...) or a zero-argument callable returning
    one — engines swap their flat index on compaction, so a provider
    keeps the collector pointed at the live object.  Each counter
    becomes ``<prefix>_<field>_total``, e.g.
    ``counters_collector("repro_tree", lambda: engine.flat.stats)``.
    """

    def collect():
        counters = source() if callable(source) else source
        return list(_families(prefix, "counter", prefix, counters.snapshot()))

    return collect


#: Fixed buckets for ``repro_serve_latency_seconds``.
SERVE_LATENCY_BUCKETS = DEFAULT_BUCKETS

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
            histogram = Histogram(
                "repro_serve_latency_seconds",
                "Request latency (reservoir)",
                SERVE_LATENCY_BUCKETS,
            )
            for value in latency_seconds():
                histogram.observe(value)
            families.append(histogram.family())
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


# ----------------------------------------------------------------------
# the process-default registry (faults.py-style gate)
# ----------------------------------------------------------------------
_active: MetricsRegistry | None = None


def get() -> MetricsRegistry | None:
    """The installed process-default registry, or ``None``."""
    return _active


def enable() -> MetricsRegistry:
    """Install (or return the existing) process-default registry."""
    global _active
    if _active is None:
        _active = MetricsRegistry()
    return _active


def disable() -> None:
    global _active
    _active = None
