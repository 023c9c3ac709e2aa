"""Horizontal sharding: networked scatter-gather GNN serving.

One dataset, ``K`` machines.  :func:`partition_dataset` cuts the data
into Hilbert-contiguous chunks and bulk-loads each into its own flat
R-tree snapshot described by a :class:`ShardManifest`; a
:class:`ShardNode` serves one such snapshot over TCP (wrapping the
process-pool :class:`~repro.serve.server.GNNServer`); and a
:class:`ShardCoordinator` — or its engine facade :class:`ShardedEngine`
— answers queries by best-first scatter-gather over the federation,
pruning shards with the paper's Heuristic-2 bound applied to shard
root MBRs.  :class:`ShardWriter` is the federation's write path: it
routes inserts and deletes to the delta overlay of the shard whose root
MBR is nearest (federation-global record ids) and compacts dirty shards into
generation-``N+1`` snapshots plus an updated manifest, which live
nodes absorb via :meth:`ShardNode.swap_snapshot`.

The minimal end-to-end recipe::

    manifest = partition_dataset(points, shards=4, directory=tmp)
    nodes = [ShardNode(s.shard_id, tmp / s.path).__enter__()
             for s in manifest.shards]
    engine = ShardedEngine.connect(manifest, [n.address for n in nodes])
    result = engine.execute(QuerySpec(group=group, k=8, index="sharded"))
"""

from repro.shard.coordinator import (
    CoordinatorStats,
    ShardCoordinator,
    ShardQueryError,
    ShardUnavailableError,
)
from repro.shard.engine import ShardedEngine
from repro.shard.health import CircuitBreaker, HealthMonitor
from repro.shard.launch import ShardNodeProcess
from repro.shard.manifest import MANIFEST_FILENAME, ShardInfo, ShardManifest
from repro.shard.node import ShardNode
from repro.shard.partition import partition_dataset, partition_points, shard_snapshot_name
from repro.shard.writes import ShardWriter

__all__ = [
    "CircuitBreaker",
    "CoordinatorStats",
    "HealthMonitor",
    "MANIFEST_FILENAME",
    "ShardCoordinator",
    "ShardInfo",
    "ShardManifest",
    "ShardNode",
    "ShardNodeProcess",
    "ShardQueryError",
    "ShardUnavailableError",
    "ShardWriter",
    "ShardedEngine",
    "partition_dataset",
    "partition_points",
    "shard_snapshot_name",
]
