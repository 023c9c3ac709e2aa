"""Serving statistics: per-worker counters merged into a server-wide view.

Each worker accumulates nothing globally — it attaches a small
:class:`ServingCounters` for the batch to every
:class:`~repro.serve.protocol.BatchReply` (a plain snapshot dictionary
on the wire), summing the index work its results' own cost records
charged.  The server folds these into one :class:`ServingCounters` per
worker and exposes the merged
picture through :meth:`ServerStats.snapshot`, alongside scheduler-side
counts (submitted / completed / shed / failed / swaps) and request
latency percentiles over a bounded reservoir of recent requests.
:class:`ServingCounters` is a :class:`~repro.storage.counters.CounterSet`:
its snapshot/merge come from the field declarations.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

from repro.storage.counters import CounterSet

#: How many recent request latencies the percentile reservoir keeps.
LATENCY_RESERVOIR = 8192

#: Percentiles reported by :meth:`ServerStats.snapshot`.
LATENCY_PERCENTILES = (50.0, 95.0, 99.0)


def _nearest_rank(ordered, q: float) -> float:
    """Nearest-rank lookup into an already-sorted sequence."""
    if not ordered:
        return float("nan")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(len * q / 100)
    return float(ordered[int(rank) - 1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100])."""
    return _nearest_rank(sorted(values), q)


def percentiles(values, qs) -> list[float]:
    """Nearest-rank percentiles for every ``q`` in ``qs``, sorting once.

    Bit-identical to calling :func:`percentile` per ``q`` — the reservoir
    is just not re-sorted for each of them.
    """
    ordered = sorted(values)
    return [_nearest_rank(ordered, q) for q in qs]


@dataclass
class ServingCounters(CounterSet):
    """Mergeable execution counters of one worker (or one batch).

    All fields sum under ``merge`` except ``largest_batch``, which takes
    the maximum — exactly the semantics a server-wide rollup needs.
    ``snapshot()`` dictionaries are the wire format; they merge with the
    same rules, so per-batch counters can be folded in any order.
    """

    MAXIMA = ("largest_batch",)

    requests: int = 0
    batches: int = 0
    largest_batch: int = 0
    node_accesses: int = 0
    leaf_accesses: int = 0
    distance_computations: int = 0
    cpu_time: float = 0.0
    io_stall_s: float = 0.0
    snapshot_swaps: int = 0

    def record_batch(self, costs, cpu_time: float = 0.0, io_stall_s: float = 0.0) -> None:
        """Fold one executed batch, given its results' cost records, into the counters.

        The index work of the batch is the sum of its results' costs: a
        member reports its own distance computations and the node reads
        it paid for as the first member to reach them.
        ``cpu_time`` is the batch's measured execution time (the
        records' own CPU clocks are not summed in).
        """
        self.requests += len(costs)
        self.batches += 1
        self.largest_batch = max(self.largest_batch, len(costs))
        self.cpu_time += float(cpu_time)
        self.io_stall_s += float(io_stall_s)
        for cost in costs:
            self.node_accesses += cost.node_accesses
            self.leaf_accesses += cost.leaf_accesses
            self.distance_computations += cost.distance_computations

    def record_swap(self) -> None:
        """Charge one snapshot remap (hot-swap observed by the worker)."""
        self.snapshot_swaps += 1


class ServerStats:
    """Thread-safe server-wide statistics.

    The scheduler side counts request outcomes (submitted, completed,
    failed, shed) and snapshot swaps; the execution side keeps one
    merged :class:`ServingCounters` per worker, folded from the per-batch
    counters each :class:`~repro.serve.protocol.BatchReply` carries.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0
        self.swaps = 0
        self._workers: dict[int, ServingCounters] = {}
        self._latencies: deque[float] = deque(maxlen=LATENCY_RESERVOIR)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_submit(self, count: int = 1) -> None:
        with self._lock:
            self.submitted += count

    def record_shed(self, count: int = 1) -> None:
        with self._lock:
            self.shed += count

    def record_outcome(self, latency_s: float, failed: bool = False) -> None:
        with self._lock:
            if failed:
                self.failed += 1
            else:
                self.completed += 1
            self._latencies.append(latency_s)

    def record_swap(self) -> None:
        with self._lock:
            self.swaps += 1

    def record_reply(self, worker_id: int, counters: dict) -> None:
        with self._lock:
            mine = self._workers.setdefault(worker_id, ServingCounters())
            mine.merge(counters)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def latency_seconds(self) -> list[float]:
        """The raw latency reservoir (for scrape-time histogramming)."""
        with self._lock:
            return list(self._latencies)

    def snapshot(self) -> dict:
        """Server-wide view: scheduler counts, latencies, per-worker + total."""
        with self._lock:
            workers = {wid: c.snapshot() for wid, c in sorted(self._workers.items())}
            latencies = list(self._latencies)
            # Shed requests are rejected before admission, so they never
            # count as submitted (and never show up as pending).
            server = {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "shed": self.shed,
                "swaps": self.swaps,
                "pending": self.submitted - self.completed - self.failed,
            }
        total = ServingCounters()
        for counters in workers.values():
            total.merge(counters)
        ranks = percentiles(latencies, LATENCY_PERCENTILES)
        latency_ms = {
            f"p{percent:g}": round(rank * 1000.0, 3)
            for percent, rank in zip(LATENCY_PERCENTILES, ranks)
        }
        return {
            "server": server,
            "latency_ms": latency_ms if latencies else {},
            "workers": workers,
            "total": total.snapshot(),
        }
