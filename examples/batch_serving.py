"""Batch serving: 1,000 grouped queries against an mmap-loaded snapshot.

The serving scenario: an index is built (and persisted) once, a
read-only worker maps it into memory, and user traffic arrives as
*batches* of "where should the n of us meet?" queries.  The batch path
of ``execute_many`` runs each member's own traversal, in input order,
inside one read scope of the index — a node any member needs is read
once for the whole batch, so node accesses per query fall with batch
size while every answer stays the solo one.

Run with ``PYTHONPATH=src python examples/batch_serving.py``.
"""

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import GNNEngine, QuerySpec
from repro.rtree.flat import FlatRTree

RESTAURANTS = 20_000
QUERIES = 1_000
GROUP_SIZE = 8
K = 5
BATCH_SIZE = 64


def main() -> None:
    rng = np.random.default_rng(2004)
    restaurants = rng.uniform(0, 1000, size=(RESTAURANTS, 2))

    # --- offline: build the index once and persist the flat snapshot ---
    # (mkdtemp + best-effort cleanup, not a TemporaryDirectory context:
    # the engine keeps the .npz memory-mapped for its whole lifetime,
    # and Windows cannot unlink a file that is still mapped.)
    tmp = tempfile.mkdtemp()
    try:
        path = Path(tmp) / "restaurants.npz"
        GNNEngine(restaurants, capacity=50).snapshot().save(path)
        print(f"snapshot saved: {path.stat().st_size / 1e6:.1f} MB for {RESTAURANTS:,} points")

        # --- online: a read-only worker memory-maps the snapshot -------
        engine = GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))

        # 1,000 queries: groups of friends scattered around town.
        centers = rng.uniform(100, 900, size=(QUERIES, 2))
        specs = [
            QuerySpec(group=rng.uniform(c - 60, c + 60, size=(GROUP_SIZE, 2)), k=K)
            for c in centers
        ]

        # Warm-up + correctness: batched answers equal per-query answers.
        sample = specs[:20]
        for spec, batched in zip(sample, engine.execute_many(sample)):
            assert batched.record_ids() == engine.execute(spec).record_ids()

        started = time.perf_counter()
        for start in range(0, QUERIES, BATCH_SIZE):
            engine.execute_many(specs[start : start + BATCH_SIZE])
        batch_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        for spec in specs[:200]:
            engine.execute(spec)
        single_elapsed = (time.perf_counter() - started) / 200 * QUERIES

        print(
            f"{QUERIES:,} queries (n={GROUP_SIZE}, k={K}) in batches of {BATCH_SIZE}: "
            f"{batch_elapsed:.2f}s -> {QUERIES / batch_elapsed:,.0f} queries/s"
        )
        print(
            f"per-query execute (extrapolated): {single_elapsed:.2f}s "
            f"-> {QUERIES / single_elapsed:,.0f} queries/s"
        )
        print(f"batch speedup: {single_elapsed / batch_elapsed:.1f}x")
        del engine  # release the mapping before removing the directory
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
