"""Delta overlay: a mutable view over a frozen flat snapshot.

The write path follows the LSM pattern the ROADMAP names: the big,
read-optimised :class:`~repro.rtree.flat.FlatRTree` stays immutable
(and memory-mappable), while writes land in a small side structure —

* **inserts** go into ``delta``, a dynamic R*-tree holding only the
  post-snapshot points (write-only storage: it is never traversed);
* **deletes** of snapshot-resident records become **tombstones**, a set
  of record ids the read path must skip (deletes of delta-resident
  records are removed from the delta physically).

Queries answer from the *merged* view: the algorithms traverse the base
snapshot with the tombstone set excluded and scan the delta's points
(:meth:`DeltaOverlay.delta_points` — no query traverses the delta tree)
as a second candidate source, producing answers bit-identical to a
from-scratch rebuild over the live dataset (the distances come from the
same kernels applied to the same coordinates, and ties resolve by the
library-wide ``(distance, record_id)`` rule).  :meth:`DeltaOverlay.compact` folds the
whole overlay into a generation ``N+1`` snapshot — the artifact a
background compactor publishes to the serving hot-swap.
"""

from __future__ import annotations

import numpy as np

from repro.rtree.flat import FlatRTree
from repro.rtree.tree import RTree


class DeltaOverlay:
    """Inserts and tombstones layered over a frozen :class:`FlatRTree`.

    The overlay never mutates ``base``; it only grows ``delta`` and
    ``tombstones``.  ``dirty_ratio`` — pending writes over the base size
    — is the compaction trigger knob used by
    :class:`repro.serve.compaction.CompactingWriter`.
    """

    def __init__(self, base: FlatRTree, capacity: int | None = None):
        if not isinstance(base, FlatRTree):
            raise TypeError(f"DeltaOverlay expects a FlatRTree base, got {type(base).__name__}")
        self.base = base
        self.delta = RTree(dims=base.dims, capacity=capacity or base.capacity)
        self.tombstones: set[int] = set()
        self._delta_ids: set[int] = set()
        self._delta_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._base_rows: dict[int, int] | None = None
        self._base_identity: bool | None = None
        self._max_id: int | None = None

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

    @property
    def next_record_id(self) -> int:
        """Smallest id strictly above every id the merged view has seen."""
        if self._max_id is None:
            base_ids = np.asarray(self.base.record_ids)
            self._max_id = int(base_ids.max()) if base_ids.size else -1
        bound = self._max_id + 1
        if self._delta_ids:
            bound = max(bound, max(self._delta_ids) + 1)
        if self.tombstones:
            bound = max(bound, max(self.tombstones) + 1)
        return bound

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, point, record_id: int) -> None:
        """Record a post-snapshot insert in the delta tree."""
        record_id = int(record_id)
        if record_id in self._delta_ids:
            raise ValueError(f"record id {record_id} is already live in the delta tree")
        if record_id not in self.tombstones and self.base_row(record_id) is not None:
            raise ValueError(f"record id {record_id} is already live in the base snapshot")
        self.delta.insert(np.asarray(point, dtype=np.float64), record_id=record_id)
        self._delta_ids.add(record_id)
        self._delta_cache = None
        if self._max_id is not None:
            self._max_id = max(self._max_id, record_id)

    def delete(self, point, record_id: int) -> bool:
        """Delete a record from the merged view; returns True when it was live.

        Delta-resident records are removed physically; base-resident
        records become tombstones (the base arrays stay untouched — they
        may be a read-only memory map shared with serving workers).
        """
        record_id = int(record_id)
        if record_id in self._delta_ids:
            removed = self.delta.delete(np.asarray(point, dtype=np.float64), record_id)
            if removed:
                self._delta_ids.discard(record_id)
                self._delta_cache = None
            return removed
        if record_id in self.tombstones:
            return False
        row = self.base_row(record_id)
        if row is None:
            return False
        if not np.array_equal(
            np.asarray(self.base.points[row], dtype=np.float64),
            np.asarray(point, dtype=np.float64),
        ):
            return False
        self.tombstones.add(record_id)
        return True

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
        """The delta tree's live records as ``(points, record_ids)``, id-ordered.

        Cached until the next delta write.  This is the read path's
        memtable scan: the delta stays small between compactions, so
        queries score it with one vectorised kernel call instead of a
        second tree traversal — the distances are computed by the same
        kernels either way, so the merged answers do not change.
        """
        if self._delta_cache is None:
            items = sorted(self.delta.all_points(), key=lambda item: item[0])
            if items:
                ids = np.array([rid for rid, _ in items], dtype=np.int64)
                points = np.vstack([point for _, point in items])
            else:
                ids = np.empty(0, dtype=np.int64)
                points = np.empty((0, self.dims), dtype=np.float64)
            self._delta_cache = (points, ids)
        return self._delta_cache

    def live_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The merged live dataset as ``(points, record_ids)``, id-ordered.

        Record-id order makes the output deterministic and — because ids
        are allocated monotonically — identical to the append order of
        the original ingest, so bulk-loading it reproduces exactly the
        tree a from-scratch rebuild would build.
        """
        base_ids = np.asarray(self.base.record_ids)
        base_points = np.asarray(self.base.points)
        if self.tombstones:
            dead = np.fromiter(self.tombstones, dtype=np.int64, count=len(self.tombstones))
            keep = ~np.isin(base_ids, dead)
            base_points = base_points[keep]
            base_ids = base_ids[keep]
        parts_points = [base_points]
        parts_ids = [base_ids]
        if len(self.delta):
            delta_points, delta_ids = self.delta_points()
            parts_points.append(delta_points)
            parts_ids.append(delta_ids)
        points = np.concatenate(parts_points, axis=0)
        ids = np.concatenate(parts_ids, axis=0)
        order = np.argsort(ids, kind="stable")
        return np.ascontiguousarray(points[order]), ids[order]

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
