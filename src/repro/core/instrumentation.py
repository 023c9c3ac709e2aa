"""Cost tracking shared by every GNN algorithm.

Each algorithm wraps its work in a :class:`CostTracker`, which snapshots
the counters of the involved R-trees and I/O counters before the query
and reports the delta afterwards.  Using deltas (instead of resetting
the counters) lets callers run many queries against the same tree and
still aggregate workload-level statistics however they want.
"""

from __future__ import annotations

import time

from repro.core.types import QueryCost


class CostTracker:
    """Measures the cost of a single query across trees and I/O counters."""

    def __init__(self, algorithm: str, trees=(), io_counters=()):
        self.algorithm = algorithm
        self._trees = list(trees)
        self._io_counters = list(io_counters)
        self._tree_baselines = [tree.stats.snapshot() for tree in self._trees]
        self._io_baselines = [io.snapshot() for io in self._io_counters]
        self._started = time.perf_counter()

    def finish(self) -> QueryCost:
        """Return the cost accumulated since the tracker was created."""
        cost = QueryCost(
            algorithm=self.algorithm,
            cpu_time=time.perf_counter() - self._started,
        )
        for tree, baseline in zip(self._trees, self._tree_baselines):
            cost.merge(tree.stats.delta(baseline))
        for io, baseline in zip(self._io_counters, self._io_baselines):
            cost.merge(io.delta(baseline))
        return cost
