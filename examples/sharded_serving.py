"""Sharded serving: scatter-gather GNN queries over process-isolated nodes.

The horizontal-scaling lifecycle:

1. partition the dataset into Hilbert-contiguous shards, each bulk-loaded
   into its own flat snapshot and described by a ``manifest.json``;
2. launch one :class:`~repro.shard.ShardNodeProcess` per shard — a real
   OS process hosting a TCP node over its snapshot, the per-host shape a
   multi-machine deployment would take;
3. connect a :class:`~repro.shard.ShardedEngine` and replay a seeded
   Poisson/Zipf trace: the coordinator asks the best-bound shard first,
   then only the shards whose root-MBR bound (the paper's Heuristic 2)
   reaches its k-th distance, so most queries never touch most shards;
   the script exits non-zero unless every federated answer equals the
   single index's;
4. kill one node mid-flight and query again with ``allow_degraded`` —
   the survivors answer, and the result says so.

Run with ``PYTHONPATH=src python examples/sharded_serving.py``.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import GNNEngine, QuerySpec
from repro.datasets.workload import generate_request_trace
from repro.shard import ShardNodeProcess, ShardedEngine, partition_dataset

RESTAURANTS = 5_000
REQUESTS = 150
GROUP_SIZE = 6
K = 4
SHARDS = 4


def main() -> None:
    rng = np.random.default_rng(2004)
    restaurants = rng.uniform(0, 1000, size=(RESTAURANTS, 2))

    trace = generate_request_trace(
        restaurants,
        requests=REQUESTS,
        rate_per_s=500.0,
        n=GROUP_SIZE,
        mbr_fraction=0.02,
        k=K,
        hotspots=10,
        zipf_exponent=1.2,
        seed=7,
    )
    specs = [QuerySpec(group=request.group, k=request.k) for request in trace]
    reference = GNNEngine(restaurants)

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "federation"
        manifest = partition_dataset(restaurants, SHARDS, directory)
        print(f"partitioned: {manifest!r}")

        nodes = [
            ShardNodeProcess(shard.shard_id, directory / shard.path, workers=1)
            for shard in manifest.shards
        ]
        try:
            addresses = [node.start() for node in nodes]
            for node in nodes:
                print(f"  {node!r}")

            with ShardedEngine.connect(
                manifest, addresses, allow_degraded=True
            ) as engine:
                # Scatter-gather the whole trace; check against one index.
                futures = [engine.submit(spec) for spec in specs]
                results = [future.result(timeout=60) for future in futures]
                matches = sum(
                    [n.as_tuple() for n in result.neighbors]
                    == [n.as_tuple() for n in reference.execute(spec).neighbors]
                    for spec, result in zip(specs, results)
                )
                stats = engine.stats()["coordinator"]
                contacted = stats["shards_contacted"] / (stats["queries"] * SHARDS)
                print(
                    f"{matches}/{len(specs)} federated answers identical to the "
                    f"single index; {contacted:.0%} of shards contacted per "
                    f"query (pruning skipped the rest)"
                )
                if matches != len(specs):
                    raise SystemExit(
                        f"{len(specs) - matches} federated answers differ "
                        f"from the single index"
                    )

                # One machine dies; the federation degrades instead of
                # failing.  The group meets inside the dead shard's MBR,
                # so its records *would* win — the survivors answer
                # anyway and the result is flagged.
                nodes[0].close()
                centre = (
                    np.asarray(manifest.shards[0].root_low)
                    + np.asarray(manifest.shards[0].root_high)
                ) / 2.0
                group = centre + rng.uniform(-20, 20, size=(GROUP_SIZE, 2))
                result = engine.execute(QuerySpec(group=group, k=K))
                print(
                    f"shard 0 down, group meeting inside it: answer from "
                    f"survivors, degraded={result.degraded}, best record "
                    f"{result.best.record_id} at {result.best.distance:.1f}"
                )
        finally:
            for node in nodes:
                node.close()
    print("federation closed cleanly")


if __name__ == "__main__":
    main()
