"""Micro-batching: coalesce requests within a time/size window.

:class:`MicroBatcher` is the pure scheduling core of the serving
subsystem — no threads, no queues, no clock of its own, which is what
makes it unit-testable.  The caller feeds it items and asks, against an
explicit ``now``, which batches are ready:

* requests accumulate in one pending batch (any requests may share a
  batch: ``execute_many`` runs a flushed batch's members in one read
  scope of the index, where they pay for each node once);
* the batch flushes when it reaches ``max_batch`` items (size trigger,
  reported by :meth:`offer` so the caller can dispatch immediately) or
  when its *oldest* item has waited ``window_s`` (time trigger, polled
  via :meth:`due` / :meth:`next_deadline`).

``window_s = 0`` degenerates to per-request dispatch: every offer
returns its item immediately, which is the latency-first configuration.
"""

from __future__ import annotations

from typing import Any, Hashable


class MicroBatcher:
    """Time/size-windowed request coalescing into one pending batch.

    Parameters
    ----------
    window_s:
        How long the oldest pending request may wait before the batch
        is flushed regardless of size.
    max_batch:
        Size at which the batch flushes immediately.
    """

    def __init__(self, window_s: float, max_batch: int):
        if window_s < 0.0:
            raise ValueError("window_s must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.window_s = float(window_s)
        self.max_batch = int(max_batch)
        self._items: list = []
        self._deadline: float | None = None

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def offer(self, key: Hashable, item: Any, now: float) -> list | None:
        """Queue ``item``; return a batch if one is ready.

        ``key`` is accepted and ignored: every request may share a
        batch.  A non-``None`` return is a full batch (size trigger) —
        or, with a zero window, the item itself — that the caller should
        dispatch right away.
        """
        if self.window_s == 0.0:
            return [item]
        if not self._items:
            self._deadline = now + self.window_s
        self._items.append(item)
        if len(self._items) >= self.max_batch:
            return self._flush()
        return None

    # ------------------------------------------------------------------
    # time trigger
    # ------------------------------------------------------------------
    def due(self, now: float) -> list[list]:
        """Flush and return the pending batch if its window has expired."""
        if self._items and self._deadline <= now:
            return [self._flush()]
        return []

    def next_deadline(self) -> float | None:
        """The pending batch's deadline, or None when empty."""
        return self._deadline

    def drain(self) -> list[list]:
        """Flush everything (shutdown path)."""
        return [self._flush()] if self._items else []

    def _flush(self) -> list:
        items, self._items, self._deadline = self._items, [], None
        return items

    def __len__(self) -> int:
        """Number of requests currently waiting."""
        return len(self._items)
