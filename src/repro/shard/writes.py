"""The federation's write path: per-shard overlays and compaction.

:class:`ShardWriter` extends the LSM-style write path of a single
engine (:class:`~repro.rtree.overlay.DeltaOverlay` plus
:meth:`~repro.core.engine.GNNEngine.compact`) across a partitioned
dataset.  It opens one snapshot-only engine per shard (memory-mapped,
nothing copied), routes every insert to the shard whose root MBR is
nearest the point — a point inside a shard's box lands in that shard,
so compaction does not grow the boxes and the federation-level pruning
stays tight — and allocates *federation-global* record ids, so a
sharded top-k and a single-index top-k keep speaking the same
identifier space after any number of writes.

Compaction is per shard: each dirty overlay folds into a
generation-``N+1`` ``shard-XXX-genNNNNNN.npz`` and the manifest row is
rebuilt (count, root MBR, record sample) from the live points.  The new
``manifest.json`` is written *last*, mirroring the partitioner's
discipline — a manifest on disk never names snapshot files that do not
exist yet, so a coordinator (re)connecting mid-write always finds a
consistent federation.  Live :class:`ShardNode`\\ s pick the new files
up through :meth:`ShardNode.swap_snapshot`.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.engine import GNNEngine
from repro.geometry.hilbert import hilbert_indices, rank_keys
from repro.rtree.flat import FlatRTree
from repro.shard.manifest import ShardInfo, ShardManifest
from repro.shard.partition import describe_shard, shard_snapshot_name


class ShardWriter:
    """Route inserts/deletes into per-shard overlays; compact per shard.

    Parameters
    ----------
    directory:
        A partition directory written by
        :func:`~repro.shard.partition.partition_dataset` (holds the
        shard ``.npz`` files and ``manifest.json``).
    manifest:
        Optional already-loaded :class:`ShardManifest`; loaded from
        ``directory`` when omitted.
    fsync:
        When True, compaction fsyncs every published shard snapshot and
        the manifest — crash-durable publication at the cost of a disk
        flush per file.  Publication is *atomic* either way.
    """

    def __init__(self, directory, manifest: ShardManifest | None = None, *,
                 fsync: bool = False):
        self.directory = Path(directory)
        self.manifest = manifest or ShardManifest.load(self.directory)
        self.fsync = bool(fsync)
        self._engines: dict[int, GNNEngine] = {}
        self._next_id: int | None = None

    # ------------------------------------------------------------------
    # per-shard engines
    # ------------------------------------------------------------------
    def engine(self, shard_id: int) -> GNNEngine:
        """The shard's snapshot-only engine (opened lazily, mmap'd)."""
        engine = self._engines.get(shard_id)
        if engine is None:
            path = self.directory / self.manifest.shards[shard_id].path
            flat = FlatRTree.load(path, mmap_mode="r")
            engine = self._engines[shard_id] = GNNEngine.from_index(flat)
        return engine

    def dirty_shards(self) -> list[int]:
        """Shard ids with uncompacted overlay writes."""
        return [
            shard_id
            for shard_id, engine in sorted(self._engines.items())
            if engine.dirty
        ]

    # ------------------------------------------------------------------
    # routing and id allocation
    # ------------------------------------------------------------------
    def route(self, point) -> int:
        """The non-empty shard whose root MBR is nearest ``point``.

        A point inside a root MBR (mindist 0) routes to that shard, so
        folding it in leaves the box as it was; a point outside every
        box goes to the nearest one.  Ties — overlapping boxes — go to
        the shard with fewer records, then the lower id.  Root MBRs are
        what the manifest keeps exact through every compaction; with
        every shard empty the point goes to shard 0.
        """
        point = np.asarray(point, dtype=np.float64).reshape(1, -1)
        if point.shape[1] != self.manifest.dims:
            raise ValueError(
                f"point is {point.shape[1]}-d; the federation is "
                f"{self.manifest.dims}-d"
            )
        # A group of one: amindist is the plain point-to-box mindist,
        # and empty shards come back at infinity.
        distances = self.manifest.group_mindist_bounds(point)
        counts = [shard.count for shard in self.manifest.shards]
        # lexsort's last key is the primary one; its stable order makes
        # the lower shard id win whatever is still tied.
        return int(np.lexsort((counts, distances))[0])

    @property
    def next_record_id(self) -> int:
        """The next federation-global record id (monotonic, never reused).

        Seeded from the largest of the shard snapshots' id high-water marks.
        """
        if self._next_id is None:
            self._next_id = max(
                FlatRTree.load(self.directory / shard.path, mmap_mode="r").next_record_id
                for shard in self.manifest.shards
            )
        return self._next_id

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, point) -> tuple[int, int]:
        """Insert one point; returns ``(shard_id, record_id)``.

        The id comes from the federation-global allocator, the point
        lands in the overlay of the shard :meth:`route` picks.
        """
        shard_id = self.route(point)
        record_id = self.next_record_id
        self.engine(shard_id).insert(point, record_id=record_id)
        self._next_id = record_id + 1
        return shard_id, record_id

    def delete(self, point, record_id: int) -> int | None:
        """Delete one record; returns its shard id, or ``None`` if absent.

        The routed shard is tried first; a record that lives elsewhere
        (overlapping root MBRs, or a shard that has grown since the
        record was written) is found by probing the remaining shards —
        deletion verifies coordinates *and* id, so a probe can never
        remove the wrong record.
        """
        first = self.route(point)
        order = [first] + [
            shard.shard_id
            for shard in self.manifest.shards
            if shard.shard_id != first
        ]
        for shard_id in order:
            if self.engine(shard_id).delete(point, record_id):
                return shard_id
        return None

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, shard_ids=None) -> ShardManifest:
        """Fold dirty overlays into generation-``N+1`` shard snapshots.

        ``shard_ids`` restricts compaction (default: every dirty
        shard).  Untouched shards keep their existing files; the new
        manifest mixes generations by design — each row's ``path`` is
        authoritative.  Returns (and installs) the new manifest, written
        to disk after every named snapshot exists.
        """
        targets = self.dirty_shards() if shard_ids is None else sorted(shard_ids)
        if not targets:
            return self.manifest
        generation = self.manifest.generation + 1
        rows = list(self.manifest.shards)
        for shard_id in targets:
            engine = self.engine(shard_id)
            if not engine.dirty:
                continue
            flat = engine.compact(capacity=self.manifest.capacity)
            flat.generation = generation
            # The federation's high-water mark, which the next writer
            # seeds from: an id inserted and deleted elsewhere counts.
            flat.next_record_id = self.next_record_id
            name = shard_snapshot_name(shard_id, generation)
            flat.save(self.directory / name, generation=generation, fsync=self.fsync)
            rows[shard_id] = self._describe(shard_id, name, flat)
        manifest = ShardManifest(
            dims=self.manifest.dims,
            size=sum(row.count for row in rows),
            capacity=self.manifest.capacity,
            generation=generation,
            shards=tuple(rows),
        )
        manifest.save(self.directory, fsync=self.fsync)
        self.manifest = manifest
        return manifest

    def _describe(self, shard_id: int, name: str, flat: FlatRTree) -> ShardInfo:
        """Rebuild one manifest row from a compacted shard snapshot.

        Count, root MBR and record sample follow the live points.  The
        Hilbert range stays the partition-time one: keys computed over
        one shard's points alone are normalised to that shard's own box
        and would not be comparable across shards.
        """
        previous = self.manifest.shards[shard_id]
        if flat.size == 0:
            # Nothing to sample or bound: a placeholder root row.
            low, high = flat.root_mbr()
            return replace(
                previous,
                path=name,
                count=0,
                root_low=tuple(low.tolist()),
                root_high=tuple(high.tolist()),
                sample=(),
            )
        points = np.asarray(flat.points, dtype=np.float64)
        keys = hilbert_indices(points)
        ranked = rank_keys(keys)
        return replace(
            describe_shard(shard_id, name, flat, points, keys, ranked),
            hilbert_low=previous.hilbert_low,
            hilbert_high=previous.hilbert_high,
        )

    def __repr__(self) -> str:
        return (
            f"ShardWriter(shards={self.manifest.shard_count}, "
            f"generation={self.manifest.generation}, "
            f"dirty={self.dirty_shards()})"
        )
