"""Delta overlay: a mutable view over a frozen flat snapshot.

The write path follows the LSM pattern the ROADMAP names: the big,
read-optimised :class:`~repro.rtree.flat.FlatRTree` stays immutable
(and memory-mappable), while writes land in a small side structure —

* **inserts** go into ``delta``, a :class:`PointStore`: an append-only
  point array holding only the post-snapshot records (the memtable);
* **deletes** of snapshot-resident records become **tombstones**, a set
  of record ids the read path must skip (deletes of delta-resident
  records drop the row from the delta's live set).

Queries answer from the *merged* view: the delta's live rows, paged
like leaves (:meth:`DeltaOverlay.delta_pages`), share MBM's best-first
heap with the base's nodes (MBM, SPM and best-first; MQM reads them
first, :func:`repro.core.mbm.seed_from_delta`); the base traversal skips the
tombstones and prunes against the merged view's k-th distance.  Answers
are bit-identical to a from-scratch rebuild over the live dataset: the
same kernels on the same coordinates.  The one caveat is the one a
single tree already has: an exact tie at the k-th distance, here between
a delta and a base record, resolves by the order the two are reached (in
MBM, heap order).  :meth:`DeltaOverlay.compact` folds the whole overlay
into a generation ``N+1`` snapshot — the artifact a background
compactor publishes to the serving hot-swap.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.geometry.hilbert import cell_key
from repro.rtree.flat import DEFAULT_CAPACITY, FlatRTree

#: Rows allocated for an empty store; the buffer doubles from here.
_INITIAL_ROWS = 16


class DeltaPages(NamedTuple):
    """The delta's live rows in page order: page ``j`` is rows ``starts[j]:starts[j + 1]``."""

    points: np.ndarray  # (rows, dims)
    record_ids: np.ndarray  # (rows,)
    starts: np.ndarray  # (pages + 1,)
    lows: np.ndarray  # (pages, dims): each page's MBR
    highs: np.ndarray


class PointStore:
    """Append-only ``(rows, dims)`` point array keyed by record id.

    The one place written points are stored.  Rows are immutable once
    appended (amortised O(1), capacity doubling); a delete only drops
    the id from the live map, so dead rows stay in the buffer but are
    never handed to a scan.  ``len(store)`` counts live records.

    A row's Hilbert key is taken at append, on a grid fixed over
    ``extent`` (rows outside it share its border cells), so paging a new
    version is one ``argsort`` cut into pages of ``page_rows`` rows.
    """

    def __init__(self, dims: int, page_rows: int = DEFAULT_CAPACITY, extent=None):
        self.dims = int(dims)
        self.page_rows = int(page_rows)
        low, high = np.asarray(extent if extent is not None else ([0.0], [1.0]), dtype=float)
        low, span = np.broadcast_to(low, self.dims), np.broadcast_to(high - low, self.dims)
        span = np.where(span > 0, span, 1.0)
        self._key_order = order = min(8, 63 // max(1, self.dims))  # the page keys' Hilbert grid
        self._key_low, self._key_scale = low.tolist(), (((1 << order) - 1) / span).tolist()
        self._data = np.empty((_INITIAL_ROWS, self.dims), dtype=np.float64)
        self._meta = np.empty((_INITIAL_ROWS, 2), dtype=np.int64)  # id, key (-1: dead)
        self._count = 0
        self._rows: dict[int, int] = {}  # live record id -> row
        self._view: tuple[np.ndarray, np.ndarray, DeltaPages] | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._rows

    def append(self, point, record_id: int) -> None:
        """Append one live record; the caller guarantees the id is not live."""
        row = self._count
        if row == self._data.shape[0]:
            self._data = np.concatenate([self._data, np.empty_like(self._data)])
            self._meta = np.concatenate([self._meta, np.empty_like(self._meta)])
        self._data[row] = point
        side = (1 << self._key_order) - 1
        cell = [
            int(min(side, max(0.0, (value - low) * scale)))  # NaN lands in cell 0
            for value, low, scale in zip(self._data[row].tolist(), self._key_low, self._key_scale)
        ]
        self._meta[row] = record_id, cell_key(cell, self._key_order)
        self._count = row + 1
        self._rows[record_id] = row
        self._view = None

    def delete(self, point, record_id: int) -> bool:
        """Drop a live record; False when the id is not live or the point differs."""
        row = self._rows.get(record_id)
        if row is None or not np.array_equal(self._data[row], point):
            return False
        del self._rows[record_id]
        self._meta[row, 1] = -1
        self._view = None
        return True

    def live_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The live records as ``(points, record_ids)`` copies, id-ordered.

        Cached until the next write; a pair handed out earlier is never
        touched by later appends.
        """
        return self.version()[:2]

    def version(self) -> tuple[np.ndarray, np.ndarray, DeltaPages]:
        """:meth:`live_points` and the same rows paged in Hilbert order, built together."""
        view = self._view
        if view is None:
            rows = np.flatnonzero(self._meta[: self._count, 1] >= 0)
            ids, keys = self._meta.take(rows, axis=0).T
            by_id, paged = ids.argsort(kind="stable"), keys.argsort(kind="stable")
            points = self._data.take(rows.take(paged), axis=0)
            starts = np.append(np.arange(0, len(rows), self.page_rows), len(rows))
            lows = np.minimum.reduceat(points, starts[:-1], axis=0)
            highs = np.maximum.reduceat(points, starts[:-1], axis=0)
            pages = DeltaPages(points, ids.take(paged), starts, lows, highs)
            view = self._view = (self._data.take(rows.take(by_id), axis=0), ids.take(by_id), pages)
        return view


class DeltaOverlay:
    """Inserts and tombstones layered over a frozen :class:`FlatRTree`.

    The overlay never mutates ``base``; it only grows ``delta`` and
    ``tombstones``.  ``dirty_ratio`` — pending writes over the base size
    — is the compaction trigger knob used by
    :class:`repro.serve.compaction.CompactingWriter`.
    """

    def __init__(self, base: FlatRTree):
        if not isinstance(base, FlatRTree):
            raise TypeError(f"DeltaOverlay expects a FlatRTree base, got {type(base).__name__}")
        self.base = base
        self.delta = PointStore(base.dims, base.capacity, base.root_mbr())
        self.tombstones: set[int] = set()
        self._live_cache: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The generation of the frozen base this overlay shadows."""
        return self.base.generation

    def __len__(self) -> int:
        """Number of live records in the merged view."""
        return self.base.size - len(self.tombstones) + len(self.delta)

    @property
    def dirty(self) -> bool:
        """True when the overlay holds any pending write."""
        return bool(self.tombstones) or len(self.delta) > 0

    @property
    def write_count(self) -> int:
        """Pending writes: delta inserts plus base tombstones."""
        return len(self.delta) + len(self.tombstones)

    @property
    def dirty_ratio(self) -> float:
        """Pending writes relative to the base size (compaction trigger)."""
        return self.write_count / max(1, self.base.size)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def is_live(self, record_id: int) -> bool:
        """Whether the merged view currently holds ``record_id``."""
        return record_id in self.delta or (
            record_id not in self.tombstones and self.base_row(record_id) is not None
        )

    def insert(self, point, record_id: int) -> None:
        """Record a post-snapshot insert in the delta."""
        record_id = int(record_id)
        if self.is_live(record_id):
            raise ValueError(f"record id {record_id} is already live")
        self.delta.append(np.asarray(point, dtype=np.float64), record_id)
        self._live_cache = None

    def delete(self, point, record_id: int) -> bool:
        """Delete a record from the merged view; returns True when it was live.

        Both the id and the coordinates must match.  Delta-resident
        records leave the delta's live set; base-resident records become
        tombstones (the base arrays stay untouched — they may be a
        read-only memory map shared with serving workers).
        """
        record_id = int(record_id)
        point = np.asarray(point, dtype=np.float64)
        if record_id in self.delta:
            removed = self.delta.delete(point, record_id)
        else:
            row = None if record_id in self.tombstones else self.base_row(record_id)
            removed = row is not None and np.array_equal(
                np.asarray(self.base.points[row], dtype=np.float64), point
            )
            if removed:
                self.tombstones.add(record_id)
        if removed:
            self._live_cache = None
        return removed

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def base_row(self, record_id: int) -> int | None:
        """The base-snapshot row holding ``record_id``, tombstoned or not.

        A binary search in the base's id index, the one
        :meth:`FlatRTree.live_points` reads in (no per-record map).
        """
        rows, ids = self.base._id_order()
        at = int(ids.searchsorted(record_id))
        if at < ids.shape[0] and ids[at] == record_id:
            return int(rows[at])
        return None

    def delta_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The delta's live records as ``(points, record_ids)``, id-ordered.

        Cached with :meth:`delta_pages`, the form queries read.
        """
        return self.delta.live_points()

    def delta_pages(self) -> DeltaPages:
        """The delta's live records, ``base.capacity`` rows a page, cached with the rows."""
        return self.delta.version()[2]

    def live_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The merged live dataset as ``(points, record_ids)``, id-ordered.

        Record-id order makes the output deterministic and — because ids
        are allocated monotonically — identical to the append order of
        the original ingest, so bulk-loading it reproduces exactly the
        tree a from-scratch rebuild would build.  Cached until the next
        write.
        """
        if self._live_cache is None:
            points, ids = self.base.live_points()
            if self.tombstones:
                dead = np.fromiter(self.tombstones, dtype=np.int64, count=len(self.tombstones))
                keep = ~np.isin(ids, dead)
                points, ids = points[keep], ids[keep]
            if len(self.delta):
                delta_points, delta_ids = self.delta_points()
                points = np.concatenate([points, delta_points], axis=0)
                ids = np.concatenate([ids, delta_ids], axis=0)
                order = np.argsort(ids)  # unique ids: any argsort is the stable one
                points, ids = points[order], ids[order]
            self._live_cache = (points, ids)
        return self._live_cache

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, *, capacity: int | None = None, buffer=None) -> FlatRTree:
        """Fold base + delta − tombstones into a generation ``N+1`` snapshot.

        The result is bulk-loaded from the id-ordered live dataset with
        the original record ids preserved, so it is structurally
        identical to a from-scratch rebuild over the live points — and
        its ``generation`` is one above the base's, which is what the
        serving hot-swap (:meth:`repro.serve.server.GNNServer.swap_snapshot`)
        keys its epochs on.  Its ``next_record_id`` is at least the
        base's.  The overlay itself is left untouched.
        """
        points, ids = self.live_points()
        flat = FlatRTree.bulk_load(
            points,
            capacity=capacity or self.base.capacity,
            buffer=buffer,
            record_ids=ids,
        )
        flat.generation = self.base.generation + 1
        flat.next_record_id = max(flat.next_record_id, self.base.next_record_id)
        return flat

    def __repr__(self) -> str:
        return (
            f"DeltaOverlay(base={self.base.size} pts gen{self.generation}, "
            f"delta={len(self.delta)}, tombstones={len(self.tombstones)})"
        )
