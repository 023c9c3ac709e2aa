"""Concurrent serving: a multi-process server fed by a Poisson/Zipf trace.

The full serving lifecycle on one machine:

1. build the index once and publish it as a flat snapshot (generation 0);
2. start a :class:`~repro.serve.GNNServer` — N worker processes each
   memory-map the *same* ``.npz``, sharing its pages through the OS page
   cache, while a micro-batching scheduler coalesces compatible requests
   into shared-traversal buckets;
3. replay a seeded Poisson arrival process with Zipf-skewed spatial
   popularity (the shape of real "where should we meet?" traffic);
4. hot-swap: publish a successor snapshot with new data — workers finish
   their in-flight batch, then remap, without dropping a request.

Run with ``PYTHONPATH=src python examples/serving.py``.
"""

import tempfile
import time

import numpy as np

from repro import GNNEngine, QuerySpec
from repro.datasets.workload import generate_request_trace
from repro.serve import GNNServer

RESTAURANTS = 20_000
REQUESTS = 400
GROUP_SIZE = 8
K = 5
WORKERS = 4


def main() -> None:
    rng = np.random.default_rng(2004)
    restaurants = rng.uniform(0, 1000, size=(RESTAURANTS, 2))

    trace = generate_request_trace(
        restaurants,
        requests=REQUESTS,
        rate_per_s=300.0,
        n=GROUP_SIZE,
        mbr_fraction=0.02,
        k=K,
        hotspots=12,
        zipf_exponent=1.2,
        seed=7,
    )
    specs = [QuerySpec(group=request.group, k=request.k) for request in trace]

    with tempfile.TemporaryDirectory() as tmp:
        with GNNServer.from_points(restaurants, tmp, workers=WORKERS) as server:
            print(f"server up: {server!r}")

            # Replay the trace at its recorded arrival times.
            started = time.perf_counter()
            futures = []
            for request, spec in zip(trace, specs):
                delay = started + request.arrival_s - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(server.submit(spec))
            results = [future.result(timeout=60) for future in futures]
            elapsed = time.perf_counter() - started
            print(
                f"{len(results)} requests served in {elapsed:.2f}s "
                f"({len(results) / elapsed:,.0f} req/s sustained)"
            )

            stats = server.stats()
            print(
                f"micro-batching: {stats['total']['batches']} batches, "
                f"largest {stats['total']['largest_batch']}, "
                f"latency p50/p95/p99 = "
                f"{stats['latency_ms'].get('p50')}/"
                f"{stats['latency_ms'].get('p95')}/"
                f"{stats['latency_ms'].get('p99')} ms"
            )

            # Hot-swap: a new restaurant opens at the group's geometric
            # median — the sum-distance optimum, so it must take over.
            hot_group = trace[0].group
            before = server.submit(QuerySpec(group=hot_group, k=1)).result(timeout=60)
            newcomer = hot_group.mean(axis=0)
            for _ in range(50):  # Weiszfeld iteration
                gaps = np.maximum(np.linalg.norm(hot_group - newcomer, axis=1), 1e-12)
                newcomer = (hot_group / gaps[:, None]).sum(axis=0) / (1.0 / gaps).sum()
            grown = GNNEngine(np.vstack([restaurants, newcomer]))
            epoch = server.publish_snapshot(grown)
            after = server.submit(QuerySpec(group=hot_group, k=1)).result(timeout=60)
            print(
                f"hot-swap to generation {epoch}: nearest restaurant went "
                f"from record {before.best.record_id} to record "
                f"{after.best.record_id} (the newcomer is id {RESTAURANTS})"
            )
        print("server closed cleanly")


if __name__ == "__main__":
    main()
