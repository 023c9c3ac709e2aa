"""The federation manifest: what the coordinator knows about each shard.

A :class:`ShardManifest` is the shared, persisted description of one
partitioned dataset: per shard its snapshot filename, point count, root
MBR and Hilbert-key range, plus the federation-wide dimensionality,
total size, node capacity and publication generation.  It is exactly
the metadata the scatter-gather coordinator needs to play the paper's
pruning game one level up — the shard root MBRs take the role of R-tree
node MBRs, so ``amindist(root_j, Q)`` (Definition 3 / Heuristic 2 of
the paper) lower-bounds every record shard ``j`` could contribute and a
shard whose bound cannot beat the global k-th distance is never
contacted.

The manifest round-trips as plain JSON (``manifest.json`` next to the
shard ``.npz`` files) so any process — a coordinator on another
machine, an operator's shell — can read it without numpy or pickle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.geometry import kernels
from repro.geometry.mbr import MBR
from repro.storage.atomicio import write_json_atomic

#: Filename of the persisted manifest inside a partition directory.
MANIFEST_FILENAME = "manifest.json"

#: Manifest format version (bump on layout changes).
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class ShardInfo:
    """One shard's row of the manifest.

    ``path`` is the snapshot filename *relative to the manifest's
    directory*, so a partition directory can be copied or mounted
    elsewhere wholesale.  ``hilbert_low``/``hilbert_high`` record the
    (inclusive) Hilbert-key range the partitioner cut for the shard —
    adjacent shards own adjacent ranges, which is what makes their root
    MBRs spatially tight and the federation-level pruning effective.
    They describe the partition; writes route on the root MBRs.

    ``sample`` holds a few of the shard's *actual* records (coordinate
    tuples, picked evenly along the shard's Hilbert order by the
    partitioner).  Because every sample is a real record, its aggregate
    distance to any query group is a true *upper* bound on an answer
    the federation can produce (see
    :meth:`ShardManifest.sample_kth_distance`).  The coordinator does
    not read them: it routes on a pilot shard's real k-th distance.
    Empty samples are legal (hand-built manifests).
    """

    shard_id: int
    path: str
    count: int
    root_low: tuple[float, ...]
    root_high: tuple[float, ...]
    hilbert_low: int
    hilbert_high: int
    sample: tuple[tuple[float, ...], ...] = ()

    def root_mbr(self) -> MBR:
        """The shard's root MBR as a geometry object."""
        return MBR(np.asarray(self.root_low), np.asarray(self.root_high))

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "path": self.path,
            "count": self.count,
            "root_low": list(self.root_low),
            "root_high": list(self.root_high),
            "hilbert_low": self.hilbert_low,
            "hilbert_high": self.hilbert_high,
            "sample": [list(point) for point in self.sample],
        }

    @classmethod
    def from_dict(cls, row: dict) -> "ShardInfo":
        return cls(
            shard_id=int(row["shard_id"]),
            path=str(row["path"]),
            count=int(row["count"]),
            root_low=tuple(float(v) for v in row["root_low"]),
            root_high=tuple(float(v) for v in row["root_high"]),
            hilbert_low=int(row["hilbert_low"]),
            hilbert_high=int(row["hilbert_high"]),
            sample=tuple(
                tuple(float(v) for v in point) for point in row.get("sample", ())
            ),
        )


@dataclass(frozen=True)
class ShardManifest:
    """The persisted description of one partitioned dataset."""

    dims: int
    size: int
    capacity: int
    generation: int
    shards: tuple[ShardInfo, ...]

    def __post_init__(self):
        if not self.shards:
            raise ValueError("a manifest needs at least one shard")
        ids = [shard.shard_id for shard in self.shards]
        if ids != list(range(len(ids))):
            raise ValueError(f"shard ids must be 0..{len(ids) - 1} in order, got {ids}")
        if sum(shard.count for shard in self.shards) != self.size:
            raise ValueError("shard counts do not sum to the manifest size")

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # the federation-level pruning bound
    # ------------------------------------------------------------------
    def root_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """All shard root MBRs stacked as ``(K, dims)`` low/high matrices."""
        lows = np.array([shard.root_low for shard in self.shards], dtype=np.float64)
        highs = np.array([shard.root_high for shard in self.shards], dtype=np.float64)
        return lows, highs

    def group_mindist_bounds(
        self, group: np.ndarray, weights=None, aggregate: str = "sum"
    ) -> np.ndarray:
        """``amindist(root_j, Q)`` for every shard in one kernel call.

        This is the same aggregate lower bound the in-tree traversals
        prune on (:meth:`repro.core.types.GroupQuery.mindist_lower_bounds`),
        evaluated over shard roots instead of node MBRs: any record of
        shard ``j`` has aggregate distance ``>= bounds[j]``, so a shard
        with ``bounds[j] >= best_dist`` can be skipped outright
        (Heuristic 2, one level up).
        """
        lows, highs = self.root_bounds()
        bounds = kernels.boxes_group_mindist(
            lows, highs, np.asarray(group, dtype=np.float64),
            weights=weights, aggregate=aggregate,
        )
        # A shard compacted down to nothing has a placeholder root row and
        # no record to bound: it is never worth contacting.
        for shard in self.shards:
            if shard.count == 0:
                bounds[shard.shard_id] = np.inf
        return bounds

    def sample_points(self, shard_id: int | None = None) -> np.ndarray:
        """Sample records stacked as one ``(S, dims)`` array.

        ``shard_id=None`` stacks every shard's samples; an id restricts
        to that shard's.  Arrays are built once and cached.
        """
        cache = getattr(self, "_sample_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_sample_cache", cache)
        cached = cache.get(shard_id)
        if cached is None:
            if shard_id is None:
                rows = [point for shard in self.shards for point in shard.sample]
            else:
                rows = list(self.shards[shard_id].sample)
            cached = (
                np.array(rows, dtype=np.float64)
                if rows
                else np.empty((0, self.dims), dtype=np.float64)
            )
            cache[shard_id] = cached
        return cached

    def sample_kth_distance(
        self,
        group: np.ndarray,
        k: int,
        weights=None,
        aggregate: str = "sum",
        shard_id: int | None = None,
    ) -> float:
        """The k-th best aggregate distance among sampled records.

        Samples are real records, so this is a true *upper* bound on the
        federation's k-th answer distance: at least ``k`` records exist
        at or under it, so every shard holding part of the exact top-k
        has a root bound ``<= sample_kth_distance`` (the ``<=`` matters:
        the record achieving the bound lives in a shard whose root bound
        can equal it).  The coordinator does not call it: a pilot
        shard's real k-th distance is never larger than its sample's.

        ``shard_id`` restricts the sample to one shard — the bound stays
        valid (fewer real records considered can only loosen it) and the
        kernel call shrinks accordingly.  Returns ``inf`` when fewer
        than ``k`` samples are available.
        """
        samples = self.sample_points(shard_id)
        if len(samples) < k:
            return float("inf")
        distances = kernels.aggregate_distances(
            samples,
            np.asarray(group, dtype=np.float64),
            weights=None if weights is None else np.asarray(weights, dtype=np.float64),
            aggregate=aggregate,
        )
        return float(np.partition(distances, k - 1)[k - 1])

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "dims": self.dims,
            "size": self.size,
            "capacity": self.capacity,
            "generation": self.generation,
            "shards": [shard.as_dict() for shard in self.shards],
        }

    def save(self, directory, *, fsync: bool = False) -> Path:
        """Write ``manifest.json`` into ``directory``; returns its path.

        Published atomically (temp file + rename, ``manifest.write``
        fault point), so concurrent readers and post-crash recovery only
        ever see a complete manifest — the previous one or this one.
        ``fsync=True`` makes the publication durable as well as atomic.
        """
        path = Path(directory) / MANIFEST_FILENAME
        write_json_atomic(
            path, self.as_dict(), fsync=fsync, fault_point="manifest.write"
        )
        return path

    @classmethod
    def load(cls, source) -> "ShardManifest":
        """Reopen a manifest from a directory, a ``manifest.json`` path, or a dict."""
        if isinstance(source, dict):
            document = source
        else:
            path = Path(source)
            if path.is_dir():
                path = path / MANIFEST_FILENAME
            document = json.loads(path.read_text())
        version = int(document.get("version", 0))
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {version} (this build reads "
                f"version {MANIFEST_VERSION})"
            )
        return cls(
            dims=int(document["dims"]),
            size=int(document["size"]),
            capacity=int(document["capacity"]),
            generation=int(document["generation"]),
            shards=tuple(ShardInfo.from_dict(row) for row in document["shards"]),
        )

    def __repr__(self) -> str:
        return (
            f"ShardManifest(shards={self.shard_count}, size={self.size}, "
            f"dims={self.dims}, generation={self.generation})"
        )
