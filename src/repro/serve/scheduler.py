"""Micro-batching: coalesce requests within a time/size window.

:class:`MicroBatcher` is the pure scheduling core of the serving
subsystem — no threads, no queues, no clock of its own, which is what
makes it unit-testable.  The caller feeds it ``(key, item)`` pairs and
asks, against an explicit ``now``, which batches are ready:

* requests accumulate per key, each key its own bucket (the server
  passes one key, so any requests may share a batch: ``execute_many``
  runs a flushed batch's members in one read scope of the index, where
  they pay for each node once);
* a bucket flushes when it reaches ``max_batch`` items (size trigger,
  reported by :meth:`offer` so the caller can dispatch immediately) or
  when its *oldest* item has waited ``window_s`` (time trigger, polled
  via :meth:`due` / :meth:`next_deadline`).

``window_s = 0`` degenerates to per-request dispatch: every offer
returns its item immediately, which is the latency-first configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable


@dataclass
class _Bucket:
    deadline: float
    items: list = field(default_factory=list)


class MicroBatcher:
    """Time/size-windowed request coalescing, bucketed by compatibility key.

    Parameters
    ----------
    window_s:
        How long the oldest request of a bucket may wait before the
        bucket is flushed regardless of size.
    max_batch:
        Size at which a bucket flushes immediately.
    """

    def __init__(self, window_s: float, max_batch: int):
        if window_s < 0.0:
            raise ValueError("window_s must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self._buckets: dict[Hashable, _Bucket] = {}
        self._pending = 0

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def offer(self, key: Hashable, item: Any, now: float) -> list | None:
        """Queue ``item`` under ``key``; return a batch if one is ready.

        A non-``None`` return is a full bucket (size trigger) — or, with
        a zero window, the item itself — that the caller should dispatch
        right away.
        """
        if self.window_s == 0.0:
            return [item]
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(deadline=now + self.window_s)
        bucket.items.append(item)
        self._pending += 1
        if len(bucket.items) >= self.max_batch:
            return self._flush(key)
        return None

    # ------------------------------------------------------------------
    # time trigger
    # ------------------------------------------------------------------
    def due(self, now: float) -> list[list]:
        """Flush and return every bucket whose window has expired."""
        expired = [key for key, bucket in self._buckets.items() if bucket.deadline <= now]
        return [self._flush(key) for key in expired]

    def next_deadline(self) -> float | None:
        """The earliest pending bucket deadline, or None when empty."""
        if not self._buckets:
            return None
        return min(bucket.deadline for bucket in self._buckets.values())

    def drain(self) -> list[list]:
        """Flush everything (shutdown path)."""
        return [self._flush(key) for key in list(self._buckets)]

    def _flush(self, key: Hashable) -> list:
        bucket = self._buckets.pop(key)
        self._pending -= len(bucket.items)
        return bucket.items

    def __len__(self) -> int:
        """Number of requests currently waiting in buckets."""
        return self._pending
