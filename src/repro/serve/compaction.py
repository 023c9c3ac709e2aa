"""Background compaction: fold engine overlays into served snapshots.

:class:`CompactingWriter` closes the loop between the engine's LSM-style
write path and the serving hot-swap.  It owns the *write side* of one
:class:`~repro.core.engine.GNNEngine`: inserts and deletes go through it
(lock-protected, so a background compaction never races a writer), and
once the overlay's dirty ratio crosses a threshold it compacts — the
live dataset (base minus tombstones plus delta inserts) is bulk-loaded
into a generation-``N+1`` :class:`~repro.rtree.flat.FlatRTree` and, when
a :class:`~repro.serve.server.GNNServer` is attached, swapped in so the
worker pool remaps to the new file between batches: the file the
generation store just published durably, or, without a store, one
:meth:`GNNServer.publish_snapshot` writes.  Readers never block: queries
served before the swap answer from the old generation, queries after it
from the new one, and both views contain exactly the records that were
live when their batch was dispatched.

The writer can run its trigger loop on a daemon thread
(:meth:`start` / :meth:`stop`, or the context manager) or be driven
manually with :meth:`maybe_compact` / :meth:`compact_now` — the
benchmark and the tests use the manual mode for determinism.
"""

from __future__ import annotations

import threading
import time

from repro.core.engine import GNNEngine
from repro.obs.logging import get_logger
from repro.rtree.flat import FlatRTree

_log = get_logger("serve.compaction")

#: Default dirty-ratio trigger: compact once overlay writes reach 10% of
#: the base snapshot's size (the benchmark's reference operating point).
DEFAULT_DIRTY_RATIO = 0.10

#: Default background poll interval (seconds).
DEFAULT_INTERVAL_S = 0.05


class CompactingWriter:
    """Apply writes to an engine and compact/publish when dirty enough.

    Parameters
    ----------
    engine:
        The engine absorbing the writes.  Any engine with a flat base
        works; a snapshot-only :meth:`GNNEngine.from_index` engine is
        the usual shape (one writer per served snapshot).
    server:
        Optional :class:`~repro.serve.server.GNNServer`; every
        compaction is then hot-swapped into its dispatch (from the
        store's file when a ``store`` is attached, else from one
        :meth:`~repro.serve.server.GNNServer.publish_snapshot` writes
        under the next generation token).  Without a server the
        compaction still folds the overlay locally.
    dirty_ratio_trigger:
        Compact when the engine overlay's ``dirty_ratio`` (overlay writes
        over base size) reaches this; ``None`` disables ratio triggering.
    min_writes:
        Never trigger below this many overlay writes, whatever the
        ratio (protects tiny bases from compacting on every write).
    interval_s:
        Poll period of the background thread.
    store:
        Optional :class:`~repro.storage.generations.GenerationStore`;
        every compaction is then *durably published* as a new snapshot
        generation (atomic rename + manifest) before anything else
        observes it.  After a durable publication the engine's
        write-ahead log, if any, is truncated — and only then: a crash
        between publish and truncate leaves a stale log recovery
        recognises and discards, never a window where folded writes
        exist nowhere durable.
    """

    def __init__(
        self,
        engine: GNNEngine,
        server=None,
        *,
        dirty_ratio_trigger: float | None = DEFAULT_DIRTY_RATIO,
        min_writes: int = 1,
        interval_s: float = DEFAULT_INTERVAL_S,
        store=None,
    ):
        if dirty_ratio_trigger is not None and dirty_ratio_trigger <= 0:
            raise ValueError("dirty_ratio_trigger must be positive (or None)")
        if min_writes < 1:
            raise ValueError("min_writes must be at least 1")
        self.engine = engine
        self.server = server
        self.store = store
        self.dirty_ratio_trigger = dirty_ratio_trigger
        self.min_writes = int(min_writes)
        self.interval_s = float(interval_s)
        self.compactions = 0
        self._lock = threading.RLock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # the write side
    # ------------------------------------------------------------------
    def insert(self, point, record_id: int | None = None) -> int:
        """Insert one point (see :meth:`GNNEngine.insert`); wakes the loop."""
        with self._lock:
            assigned = self.engine.insert(point, record_id=record_id)
        self._wake.set()
        return assigned

    def delete(self, point, record_id: int) -> bool:
        """Delete one record (see :meth:`GNNEngine.delete`); wakes the loop."""
        with self._lock:
            removed = self.engine.delete(point, record_id)
        if removed:
            self._wake.set()
        return removed

    @property
    def should_compact(self) -> bool:
        """Whether the trigger condition currently holds."""
        with self._lock:
            if not self.engine.dirty:
                return False
            overlay = self.engine.overlay
            if overlay.write_count < self.min_writes:
                return False
            if self.dirty_ratio_trigger is None:
                return False
            return overlay.dirty_ratio >= self.dirty_ratio_trigger

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact_now(self) -> FlatRTree | None:
        """Compact unconditionally; publish to the store and swap the server in.

        Returns the new base snapshot, or ``None`` when the engine had
        no pending writes (nothing was folded or published).
        """
        with self._lock:
            if not self.engine.dirty:
                return None
            started = time.perf_counter()
            writes = self.engine.overlay.write_count
            flat = self.engine.compact()
            self.compactions += 1
            _log.info(
                "compaction.completed",
                generation=flat.generation,
                writes_folded=writes,
                size=flat.size,
                elapsed_s=round(time.perf_counter() - started, 6),
            )
            if self.store is not None:
                # Durable-first ordering: snapshot + manifest hit disk,
                # *then* the WAL is truncated.  The writer lock spans
                # both, so no insert/delete can land in the window and
                # be dropped by the truncation.
                path = self.store.publish(flat, collect=False)
                if self.engine.wal is not None:
                    self.engine.wal.reset(flat.generation)
                if self.server is not None:
                    # Serve the durable file itself: saving it again would
                    # write it a second time, without fsync.
                    self.server.swap_snapshot(path)
                # Only now drop older generations: no batch dispatched
                # from here on names them.
                self.store.collect_garbage(flat.generation)
            elif self.server is not None:
                self.server.publish_snapshot(flat)
            return flat

    def maybe_compact(self) -> FlatRTree | None:
        """Compact only if :attr:`should_compact`; the loop's body."""
        with self._lock:
            if not self.should_compact:
                return None
            return self.compact_now()

    # ------------------------------------------------------------------
    # background lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "CompactingWriter":
        """Start the trigger loop on a daemon thread (idempotent)."""
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._loop, name="gnn-compactor", daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop (pending writes stay in the overlay)."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=self.interval_s)
            self._wake.clear()
            if self._stop.is_set():
                return
            self.maybe_compact()

    def __enter__(self) -> "CompactingWriter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"CompactingWriter(compactions={self.compactions}, "
            f"dirty={self.engine.dirty}, "
            f"trigger={self.dirty_ratio_trigger}, "
            f"running={self._thread is not None and self._thread.is_alive()})"
        )
