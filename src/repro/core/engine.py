"""High-level facade over the GNN algorithms.

:class:`GNNEngine` owns the index for a dataset ``P`` — one flat R-tree
snapshot (:class:`~repro.rtree.flat.FlatRTree`) plus, between
compactions, a delta overlay of pending writes (the only place a
written point is stored; the engine keeps no copy of the dataset and
allocates record ids from one counter) — and answers declarative
:class:`~repro.api.spec.QuerySpec` queries through the planner-based
API:

* :meth:`GNNEngine.execute` — plan and run one spec;
* :meth:`GNNEngine.explain` — return the :class:`~repro.api.planner.QueryPlan`
  (algorithm, rationale, options) without running anything;
* :meth:`GNNEngine.execute_many` — the batch path: memory-resident
  queries run in input order inside one read scope of the index, so
  each node is paid for once, by its first reader.

All three plan through the engine's :class:`~repro.api.planner.QueryPlanner`,
which keeps no state and plans every spec afresh.

The ``"auto"`` policy lives in :class:`~repro.api.planner.QueryPlanner`
and encodes the recommendations of the paper's experimental study
(Section 5): MBM for memory-resident groups, F-MQM for disk-resident
files in few blocks, F-MBM otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.api.executor import ExecutionContext, execute_batch, execute_spec
from repro.api.planner import AUTO_FMQM_MAX_BLOCKS, QueryPlan, QueryPlanner
from repro.api.spec import DISK, QuerySpec
from repro.core.types import GNNResult
from repro.rtree.flat import DEFAULT_CAPACITY, FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.storage.buffer import LRUBuffer

__all__ = ["AUTO_FMQM_MAX_BLOCKS", "GNNEngine"]


class GNNEngine:
    """Query engine for group nearest neighbor search over a dataset.

    Parameters
    ----------
    data_points:
        The dataset ``P`` as an ``(N, dims)`` array-like; row indices
        become record ids.
    capacity:
        R-tree node capacity (the paper's 1 KByte pages hold 50 entries).
    buffer_pages:
        Optional LRU buffer size in pages; when set, the engine reports
        buffer-aware page faults in addition to logical node accesses,
        and the buffer stays reachable as :attr:`buffer`.

    The dataset is bulk-loaded straight into a flat array-backed
    snapshot, the one index every query traverses.  Writes never touch
    it: :meth:`insert` / :meth:`delete` land in a
    :class:`~repro.rtree.overlay.DeltaOverlay` (delta plus tombstones)
    and queries answer from the merged view; :meth:`compact` folds the
    overlay into a generation-``N+1`` snapshot.
    """

    def __init__(
        self,
        data_points,
        capacity: int = DEFAULT_CAPACITY,
        buffer_pages: int | None = None,
    ):
        self.buffer = LRUBuffer(buffer_pages) if buffer_pages else None
        self._flat = FlatRTree.bulk_load(data_points, capacity=capacity, buffer=self.buffer)
        self._overlay: DeltaOverlay | None = None
        self._next_id: int | None = None
        self._wal = None
        self.planner = QueryPlanner(self)

    @classmethod
    def from_index(cls, index: FlatRTree) -> "GNNEngine":
        """Build an engine around an existing flat snapshot.

        This is the deserialisation path: save a snapshot once, then
        ``GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))``
        serves queries without rebuilding anything.  Nothing is copied
        up front — a memory-mapped snapshot stays memory-mapped;
        brute-force specs and :attr:`points` read the dataset out of the
        snapshot lazily on first use.  :meth:`insert` / :meth:`delete`
        work: writes land in a delta overlay on top of the (untouched,
        possibly read-only) snapshot — the per-shard write path uses
        exactly this.
        """
        if not isinstance(index, FlatRTree):
            raise TypeError(f"from_index expects a FlatRTree, got {type(index).__name__}")
        engine = cls.__new__(cls)
        engine.buffer = index.buffer
        engine._flat = index
        engine._overlay = None
        engine._next_id = None
        engine._wal = None
        engine.planner = QueryPlanner(engine)
        return engine

    @classmethod
    def recover(
        cls,
        directory,
        *,
        mmap_mode: str | None = "r",
        fsync: str = "interval",
        interval_s: float = 0.05,
    ) -> "GNNEngine":
        """Rebuild an engine from a generation directory after a crash.

        Loads the newest *complete* snapshot generation (see
        :class:`~repro.storage.generations.GenerationStore`), replays the
        write-ahead log tail on top of it, and re-attaches the log so new
        writes keep appending to the same file.  The merged view is
        bit-identical to the pre-crash engine: overlay state was pure
        process memory, so the snapshot plus a full WAL replay *is* the
        pre-crash state up to the last durable record.

        A WAL whose ``base_generation`` is older than the recovered
        snapshot is a truncation that never landed — every record in it
        was already folded into the snapshot, so it is discarded rather
        than replayed twice.
        """
        from repro.obs.logging import get_logger
        from repro.storage.generations import GenerationStore
        from repro.storage.wal import WriteAheadLog

        log = get_logger("core.engine")
        store = GenerationStore(directory)
        flat = store.latest(mmap_mode=mmap_mode)
        if flat is None:
            raise FileNotFoundError(
                f"no complete snapshot generation under {store.directory}"
            )
        engine = cls.from_index(flat)
        replayed = 0
        wal_path = store.wal_path
        if wal_path.exists():
            scan = WriteAheadLog.scan(wal_path)
            if scan.base_generation > flat.generation:
                raise RuntimeError(
                    f"WAL base generation {scan.base_generation} is newer than "
                    f"any complete snapshot ({flat.generation}); the generation "
                    "directory lost files outside this store's control"
                )
            if scan.base_generation == flat.generation:
                for record in scan.records:
                    if record.op == "insert":
                        engine.insert(record.point, record_id=record.record_id)
                    else:
                        engine.delete(record.point, record.record_id)
                    replayed += 1
        wal = WriteAheadLog(
            wal_path, fsync=fsync, interval_s=interval_s,
            base_generation=flat.generation,
        )
        if wal.base_generation != flat.generation:
            wal.reset(flat.generation)  # stale, fully-folded log: discard
        engine.attach_wal(wal)
        log.info(
            "engine.recovered",
            directory=str(store.directory),
            generation=flat.generation,
            size=flat.size,
            wal_records_replayed=replayed,
        )
        return engine

    # ------------------------------------------------------------------
    # dataset views
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The *live* dataset as an ``(N, dims)`` array in record-id order.

        The snapshot's own points when clean, the overlay's merged view
        when dirty — on every engine kind — so it always matches what
        queries can return.
        """
        source = self._overlay if self.dirty else self._flat
        return source.live_points()[0]

    # ------------------------------------------------------------------
    # flat snapshot and overlay management
    # ------------------------------------------------------------------
    @property
    def flat(self) -> FlatRTree:
        """The current flat base snapshot (pending writes live in :attr:`overlay`)."""
        return self._flat

    @property
    def overlay(self) -> DeltaOverlay | None:
        """The delta overlay holding post-snapshot writes, or None when clean."""
        return self._overlay

    @property
    def dirty(self) -> bool:
        """True when the overlay holds writes the base snapshot has not absorbed."""
        return self._overlay is not None and self._overlay.dirty

    def snapshot(self) -> FlatRTree:
        """The flat snapshot of the *current* data — compacting when dirty.

        On a clean engine this is the base snapshot itself; on a dirty
        one the overlay is folded via :meth:`compact` first, so the
        returned snapshot always reflects every applied write.  Call
        ``snapshot().save(path)`` to persist it.
        """
        return self.compact()

    def compact(self, *, capacity: int | None = None) -> FlatRTree:
        """Fold the overlay into a generation-``N+1`` base snapshot.

        The live dataset (base minus tombstones plus delta inserts) is
        bulk-loaded into a fresh :class:`FlatRTree` with record ids
        preserved and ``generation = base.generation + 1``; the overlay
        is then discarded.  This is the LSM compaction step — a
        :class:`repro.serve.compaction.CompactingWriter` runs it in the
        background and publishes the result to a live server.  A clean
        engine returns its base snapshot unchanged.
        """
        if self.dirty:
            # The largest id ever allocated may have been deleted: the
            # new snapshot keeps the high-water mark, so ids never
            # restart below it, not even after a publish and recover.
            self._seed_next_id()
            self._flat = self._overlay.compact(capacity=capacity, buffer=self.buffer)
            self._flat.next_record_id = self._next_id
        self._overlay = None
        return self._flat

    def _seed_next_id(self) -> None:
        """Start the id counter at the base's high-water mark, once per engine."""
        if self._next_id is None:
            self._next_id = self._flat.next_record_id

    def _ensure_overlay(self) -> DeltaOverlay:
        if self._overlay is None:
            self._overlay = DeltaOverlay(self._flat)
        return self._overlay

    # ------------------------------------------------------------------
    # planner-based API
    # ------------------------------------------------------------------
    def execute(self, spec: QuerySpec) -> GNNResult:
        """Plan and execute one declarative query spec."""
        return execute_spec(self._context((spec,)), spec, planner=self.planner)

    def explain(self, spec: QuerySpec) -> QueryPlan:
        """Return the plan for ``spec`` (algorithm, rationale, options).

        Nothing is executed; ``plan.describe()`` renders the decision as
        human-readable text.
        """
        return self.planner.plan(spec)

    def execute_many(self, specs) -> list[GNNResult]:
        """Execute a batch of specs; results come back in input order.

        The batch path shares node reads across queries — memory-resident
        groups run in input order inside one
        :meth:`~repro.rtree.flat.FlatRTree.read_scope`, where a node is
        charged (and touches the LRU buffer) only for its first reader,
        clean or dirty engine alike — while returning exactly the results
        of per-spec :meth:`execute` calls.
        """
        specs = list(specs)
        return execute_batch(self._context(specs), specs, planner=self.planner)

    def _context(self, specs) -> ExecutionContext:
        # Disk-resident plans have no overlay form: fold pending writes
        # first (the rule snapshot() follows) so they run over a base
        # that is exact on the live data.
        if self.dirty and any(spec.resolved_residency() == DISK for spec in specs):
            self.compact()
        # One read of the overlay: a dirty overlay runs over its own base,
        # even while a compact() on another thread replaces the snapshot.
        overlay = self._overlay
        if overlay is not None and overlay.dirty:
            return ExecutionContext(flat=overlay.base, overlay=overlay)
        return ExecutionContext(flat=self._flat)

    # ------------------------------------------------------------------
    # maintenance (the mutable write path)
    # ------------------------------------------------------------------
    @property
    def wal(self):
        """The attached write-ahead log, or None when writes are volatile."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Log every subsequent :meth:`insert`/:meth:`delete` to ``wal``.

        The record is appended (durably, per the log's fsync policy)
        *before* any in-memory structure mutates — the write-ahead
        invariant :meth:`recover` depends on.  Pass ``None`` to detach.
        """
        self._wal = wal

    @property
    def dims(self) -> int:
        return self._flat.dims

    def _validated_point(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=np.float64)
        dims = self.dims
        if point.ndim != 1 or point.shape[0] != dims:
            raise ValueError(
                f"point must be a flat vector of dimension {dims}, "
                f"got shape {point.shape}"
            )
        if not np.all(np.isfinite(point)):
            raise ValueError("point must have finite coordinates")
        return point

    def insert(self, point, record_id: int | None = None) -> int:
        """Insert a new data point into the index; returns its record id.

        Record ids come from a monotonic counter and are never reused,
        so a record deleted yesterday can never collide with one
        inserted today.  Writes never touch the flat snapshot: the
        insert is appended to the overlay's delta and queries answer
        from the merged (base + delta − tombstones) view, bit-identical
        to a from-scratch rebuild; a memory-mapped base stays untouched.

        An explicit ``record_id`` overrides the allocator — the shard
        write path assigns federation-global ids this way, and WAL
        replay restores the logged ones.  It must not be live here
        (``ValueError``, raised before anything is logged); the counter
        advances past it, so later automatic ids never collide; the
        caller owns uniqueness against records this engine cannot see.
        """
        point = self._validated_point(point)
        overlay = self._ensure_overlay()
        self._seed_next_id()
        if record_id is None:
            record_id = self._next_id
        else:
            record_id = int(record_id)
            # Checked before the log sees it: a logged record that the
            # overlay rejects would fail every later recover().
            if overlay.is_live(record_id):
                raise ValueError(f"record id {record_id} is already live")
        self._next_id = max(self._next_id, record_id + 1)
        if self._wal is not None:
            # Write-ahead: the record must be on disk before any
            # in-memory structure reflects it, or a crash in between
            # loses an applied write.
            self._wal.append("insert", record_id, point)
        overlay.insert(point, record_id)
        return record_id

    def delete(self, point, record_id: int) -> bool:
        """Delete the record with the given point and id; True when removed.

        A delete of a base-snapshot record becomes a tombstone; a delete
        of a not-yet-compacted insert drops it from the delta.
        """
        point = self._validated_point(point)
        record_id = int(record_id)
        if self._wal is not None:
            # Logged before the mutation (write-ahead); a logged delete
            # that turns out to be a miss replays as the same no-op.
            self._wal.append("delete", record_id, point)
        return self._ensure_overlay().delete(point, record_id)

    def __len__(self) -> int:
        if self.dirty:
            return len(self._overlay)
        return len(self._flat)

    def __repr__(self) -> str:
        return f"GNNEngine(points={len(self)}, index={self._flat!r})"
