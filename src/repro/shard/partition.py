"""Hilbert-range partitioning of a dataset into per-shard snapshots.

:func:`partition_dataset` is the offline half of the sharded serving
story: it splits one dataset into ``K`` spatially-coherent chunks and
bulk-loads each chunk into its own :class:`~repro.rtree.flat.FlatRTree`
snapshot, ready for ``K`` shard nodes to mmap and serve.

The split is by Hilbert rank: points are sorted by their Hilbert-curve
index (the curve MQM sorts its query points by) and cut into ``K``
contiguous, equal-count runs.  Contiguity on the curve is what makes
the shards *prunable* — each shard owns a compact blob of space, so its
root MBR is tight and the coordinator's federation-level ``amindist``
bound actually separates shards.  Random assignment would give every
shard a root MBR covering the whole workspace and reduce scatter-gather
to always-broadcast.

Crucially, every shard snapshot keeps the *global* record ids of its
points (the row numbers of the original dataset), so a federated top-k
and a single-index top-k over the same data speak the same identifier
space and can be compared entry for entry.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.geometry.hilbert import hilbert_indices, rank_keys
from repro.geometry.point import as_points
from repro.rtree.flat import DEFAULT_CAPACITY, FlatRTree
from repro.shard.manifest import ShardInfo, ShardManifest


#: Records sampled into the manifest per shard (evenly spaced along the
#: shard's Hilbert run, so the sample tracks the shard's spatial spread).
#: The coordinator no longer routes on them: only the frozen benchmark
#: probe ``shard.bounds_us`` reads them, through
#: :meth:`~repro.shard.manifest.ShardManifest.sample_kth_distance`, and
#: they stay until a benchmark change can retire that probe with them.
SAMPLE_SIZE = 32


def shard_snapshot_name(shard_id: int, generation: int) -> str:
    """Canonical snapshot filename of one shard at one generation."""
    return f"shard-{shard_id:03d}-gen{generation:06d}.npz"


def sample_rows(rows: np.ndarray, size: int = SAMPLE_SIZE) -> np.ndarray:
    """Up to ``size`` of ``rows``, evenly spaced (deterministic)."""
    if rows.shape[0] <= size:
        return rows
    picks = np.linspace(0, rows.shape[0] - 1, size).round().astype(np.intp)
    return rows[np.unique(picks)]


def describe_shard(
    shard_id: int, name: str, tree: FlatRTree, points: np.ndarray, keys: np.ndarray, run: np.ndarray
) -> ShardInfo:
    """One manifest row for a non-empty shard saved as ``name``.

    ``run`` lists the shard's rows of ``points``/``keys`` in Hilbert-rank
    order, so its ends carry the shard's key range and an even pick along
    it samples the shard's spatial spread.
    """
    low, high = tree.root_mbr()
    return ShardInfo(
        shard_id=shard_id,
        path=name,
        count=int(run.shape[0]),
        root_low=tuple(low.tolist()),
        root_high=tuple(high.tolist()),
        hilbert_low=int(keys[run[0]]),
        hilbert_high=int(keys[run[-1]]),
        sample=tuple(map(tuple, points[sample_rows(run)].tolist())),
    )


def partition_points(points: np.ndarray, shards: int, order: int | None = None):
    """Split ``points`` into ``shards`` contiguous Hilbert-rank runs.

    Returns ``(assignments, keys)`` where ``assignments`` is a list of
    ``shards`` index vectors into ``points`` (each sorted by Hilbert
    rank, sizes differing by at most one) and ``keys`` the per-point
    Hilbert indices.  The ranking is the stable argsort of the keys
    (:func:`~repro.geometry.hilbert.rank_keys`), so the split is a pure
    function of the input and re-partitioning the same dataset
    reproduces the same shards.
    """
    pts = as_points(points)
    if shards < 1:
        raise ValueError("shards must be positive")
    if shards > pts.shape[0]:
        raise ValueError(
            f"cannot cut {pts.shape[0]} points into {shards} non-empty shards"
        )
    keys = hilbert_indices(pts, order)
    assignments = np.array_split(rank_keys(keys), shards)
    return assignments, keys


def partition_dataset(
    points: np.ndarray,
    shards: int,
    directory,
    *,
    capacity: int = DEFAULT_CAPACITY,
    generation: int = 0,
    order: int | None = None,
) -> ShardManifest:
    """Partition ``points`` into ``shards`` snapshot files under ``directory``.

    Each shard's chunk is bulk-loaded into a :class:`FlatRTree` carrying
    the chunk's *original row numbers* as record ids, and saved as
    ``shard-<id>-gen<generation>.npz``.  A ``manifest.json`` describing
    the federation (root MBRs, counts, Hilbert ranges, and a small
    evenly-spaced record sample per shard) is written last, so a
    manifest never names snapshots that are still being built.

    Returns the in-memory :class:`ShardManifest`.
    """
    pts = as_points(points)
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    assignments, keys = partition_points(pts, shards, order)

    infos = []
    for shard_id, rows in enumerate(assignments):
        tree = FlatRTree.bulk_load(pts[rows], capacity=capacity, record_ids=rows)
        name = shard_snapshot_name(shard_id, generation)
        tree.save(base / name, generation=generation)
        infos.append(describe_shard(shard_id, name, tree, pts, keys, rows))

    manifest = ShardManifest(
        dims=int(pts.shape[1]),
        size=int(pts.shape[0]),
        capacity=capacity,
        generation=generation,
        shards=tuple(infos),
    )
    manifest.save(base)
    return manifest
