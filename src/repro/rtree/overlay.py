"""Delta overlay: a mutable view over a frozen flat snapshot.

The write path follows the LSM pattern the ROADMAP names: the big,
read-optimised :class:`~repro.rtree.flat.FlatRTree` stays immutable
(and memory-mappable), while writes land in a small side structure —

* **inserts** go into ``delta``, a :class:`PointStore`: an append-only
  point array holding only the post-snapshot records (the memtable);
* **deletes** of snapshot-resident records become **tombstones**, a set
  of record ids the read path must skip (deletes of delta-resident
  records drop the row from the delta's live set).

Queries answer from the *merged* view: each built-in algorithm scans the
delta's live rows (:meth:`DeltaOverlay.delta_points`) first, as its
traversal's first leaf — the delta seeds the best list through
Heuristic 2 (:func:`repro.core.mbm.seed_from_delta`) — and then
traverses the base snapshot with the tombstone set excluded, pruning
against the merged view's k-th distance.  Answers are bit-identical to
a from-scratch rebuild over the live dataset: the distances come from
the same kernels applied to the same coordinates.  The one caveat is
the one a single tree already has: an exact tie at the k-th distance,
here between a delta record and a base record, resolves by scan order
(the delta is scanned first).  :meth:`DeltaOverlay.compact` folds the
whole overlay into a generation ``N+1`` snapshot — the artifact a
background compactor publishes to the serving hot-swap.
"""

from __future__ import annotations

import numpy as np

from repro.rtree.flat import FlatRTree

#: Rows allocated for an empty store; the buffer doubles from here.
_INITIAL_ROWS = 16


class PointStore:
    """Append-only ``(rows, dims)`` point array keyed by record id.

    The one place written points are stored.  Rows are immutable once
    appended (amortised O(1), capacity doubling); a delete only drops
    the id from the live map, so dead rows stay in the buffer but are
    never handed to a scan.  ``len(store)`` counts live records.
    """

    def __init__(self, dims: int):
        self.dims = int(dims)
        self._data = np.empty((_INITIAL_ROWS, self.dims), dtype=np.float64)
        self._count = 0
        self._rows: dict[int, int] = {}  # live record id -> row
        self._view: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, record_id: int) -> bool:
        return record_id in self._rows

    def append(self, point, record_id: int) -> None:
        """Append one live record; the caller guarantees the id is not live."""
        row = self._count
        if row == self._data.shape[0]:
            self._data = np.concatenate([self._data, np.empty_like(self._data)])
        self._data[row] = point
        self._count = row + 1
        self._rows[record_id] = row
        self._view = None

    def delete(self, point, record_id: int) -> bool:
        """Drop a live record; False when the id is not live or the point differs."""
        row = self._rows.get(record_id)
        if row is None or not np.array_equal(self._data[row], point):
            return False
        del self._rows[record_id]
        self._view = None
        return True

    def live_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The live records as ``(points, record_ids)`` copies, id-ordered.

        Cached until the next write; a pair handed out earlier is never
        touched by later appends.
        """
        if self._view is None:
            count = len(self._rows)
            ids = np.fromiter(self._rows, dtype=np.int64, count=count)
            rows = np.fromiter(self._rows.values(), dtype=np.intp, count=count)
            order = np.argsort(ids, kind="stable")
            self._view = (self._data[rows[order]], ids[order])
        return self._view


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
        self.delta = PointStore(base.dims)
        self.tombstones: set[int] = set()
        self._base_rows: dict[int, int] | None = None
        self._base_identity: bool | None = None
        self._live_cache: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return self.base.dims

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
        """The base-snapshot row holding ``record_id``, tombstoned or not."""
        if self._base_identity is None:
            base_ids = np.asarray(self.base.record_ids)
            self._base_identity = bool(
                np.array_equal(base_ids, np.arange(self.base.size, dtype=np.int64))
            )
        if self._base_identity:
            return record_id if 0 <= record_id < self.base.size else None
        if self._base_rows is None:
            self._base_rows = {
                int(rid): row for row, rid in enumerate(np.asarray(self.base.record_ids))
            }
        return self._base_rows.get(record_id)

    def delta_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The delta's live records as ``(points, record_ids)``, id-ordered.

        Cached until the next delta write.  This is the read path's
        memtable scan: queries score it as the traversal's first leaf,
        ``|delta|`` mindists to the group MBR plus ``n`` distances per
        row Heuristic 2 cannot prune — the same kernels the base
        traversal uses, so merged answers equal a rebuild's.
        """
        return self.delta.live_points()

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
                order = np.argsort(ids, kind="stable")
                points, ids = points[order], ids[order]
            self._live_cache = (points, ids)
        return self._live_cache

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(
        self, *, capacity: int | None = None, method: str = "str", buffer=None
    ) -> FlatRTree:
        """Fold base + delta − tombstones into a generation ``N+1`` snapshot.

        The result is bulk-loaded from the id-ordered live dataset with
        the original record ids preserved, so it is structurally
        identical to a from-scratch rebuild over the live points — and
        its ``generation`` is one above the base's, which is what the
        serving hot-swap (:meth:`repro.serve.server.GNNServer.swap_snapshot`)
        keys its epochs on.  The overlay itself is left untouched.
        """
        points, ids = self.live_points()
        flat = FlatRTree.bulk_load(
            points,
            capacity=capacity or self.base.capacity,
            method=method,
            buffer=buffer,
            record_ids=ids,
        )
        flat.generation = self.base.generation + 1
        return flat

    def __repr__(self) -> str:
        return (
            f"DeltaOverlay(base={self.base.size} pts gen{self.generation}, "
            f"delta={len(self.delta)}, tombstones={len(self.tombstones)})"
        )
