"""Concurrent GNN serving over shared memory-mapped snapshots.

The serving subsystem turns the single-process primitives of this
package into a one-machine server:

* a published :class:`~repro.rtree.flat.FlatRTree` snapshot (``.npz``)
  is memory-mapped read-only by N worker processes — the OS page cache
  holds the index once, shared by all of them;
* a micro-batching scheduler coalesces requests within a time/size
  window into one ``execute_many`` batch, which runs in one read scope
  of the index, so a burst of "where should the n of us meet?" queries
  reads each node it needs once, not once per request;
* admission control sheds load past a bounded high-water mark, and a
  hot-swap path publishes successor snapshots (generation tokens) that
  workers pick up between batches, without dropping a single request;
* a :class:`CompactingWriter` gives the served snapshot a write path:
  inserts and deletes land in the engine's delta overlay, and once the
  dirty ratio crosses a threshold the overlay is folded into a
  generation-``N+1`` snapshot and published through the same hot-swap —
  readers never block and never see a half-applied write.

Quickstart::

    from repro.serve import GNNServer
    with GNNServer.from_points(points, tmpdir, workers=4) as server:
        result = server.submit(QuerySpec(group=group, k=3)).result()

``submit`` returns a ``concurrent.futures.Future``; asyncio code awaits
``asyncio.wrap_future(server.submit(spec))``.

Answers are bit-identical to sequential ``engine.execute`` — batching
and parallelism change the schedule, never the arithmetic.
"""

from repro.serve.compaction import CompactingWriter
from repro.serve.protocol import check_servable
from repro.serve.scheduler import MicroBatcher
from repro.serve.server import (
    GNNServer,
    ServerOverloadedError,
    ServingError,
    WorkerDiedError,
)
from repro.serve.stats import ServerStats, ServingCounters

__all__ = [
    "CompactingWriter",
    "GNNServer",
    "MicroBatcher",
    "ServerOverloadedError",
    "ServerStats",
    "ServingCounters",
    "ServingError",
    "WorkerDiedError",
    "check_servable",
]
