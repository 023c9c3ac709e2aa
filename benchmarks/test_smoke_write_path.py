"""Smoke benchmarks guarding the mutable write path.

Selected with ``-k smoke`` like the kernel smokes: a seconds-long
subset that fails loudly if ingest regresses to the old
vstack-per-insert O(n²) behaviour or if answering from a dirty overlay
loses its near-frozen latency, without slowing the main test job down.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.spec import QuerySpec
from repro.core.engine import GNNEngine

SEED = 20040401

#: 10k engine inserts must stay amortised-O(1) each.  A vstack-per-insert
#: path copies the whole buffer per insert — quadratic, and ~50x slower
#: at this size — so comparing the second half of the run against the
#: first half at a generous factor catches the regression without
#: trusting absolute wall-clock numbers on shared CI hardware.
INSERT_COUNT = 10_000
MAX_SECOND_HALF_RATIO = 6.0

#: A dirty overlay at ~10% writes must answer within a small factor of
#: the frozen snapshot (the acceptance budget is 1.5x; 4x here leaves
#: headroom for CI noise while still catching an accidental fallback to
#: rebuild-per-query or per-query delta traversals).
MAX_OVERLAY_OVERHEAD = 4.0


def test_smoke_engine_ingest_stays_linear():
    # The guard is relative: the deeper half of the run must not cost
    # multiple times the shallow half, which is what any per-insert
    # full-dataset copy or per-insert snapshot rebuild produces.
    rng = np.random.default_rng(SEED + 1)
    engine = GNNEngine(rng.uniform(0, 1000, size=(500, 2)), capacity=16)

    def _timed(count: int) -> float:
        rows = rng.uniform(0, 1000, size=(count, 2))
        started = time.perf_counter()
        for row in rows:
            engine.insert(row)
        return time.perf_counter() - started

    first_half = _timed(INSERT_COUNT // 2)
    second_half = _timed(INSERT_COUNT // 2)
    assert len(engine) == 500 + INSERT_COUNT
    assert engine.dirty  # still the original snapshot + a fat overlay
    assert second_half <= MAX_SECOND_HALF_RATIO * max(first_half, 1e-3), (
        f"second {INSERT_COUNT // 2} inserts took {second_half:.3f}s vs "
        f"{first_half:.3f}s — engine ingest is no longer amortised O(1)"
    )


def test_smoke_dirty_overlay_latency_stays_near_frozen():
    rng = np.random.default_rng(SEED + 2)
    data = rng.uniform(0, 1000, size=(1200, 2))
    dirty = GNNEngine.from_index(GNNEngine(data, capacity=50).snapshot())
    for rid in rng.choice(1200, size=60, replace=False):
        assert dirty.delete(data[int(rid)], int(rid))
    for _ in range(60):
        dirty.insert(rng.uniform(0, 1000, size=2))
    frozen = GNNEngine.from_index(dirty.overlay.compact(capacity=50))
    specs = [
        QuerySpec(group=rng.uniform(200, 800, size=(8, 2)), k=8, algorithm=name)
        for name in ("mqm", "spm", "mbm")
        for _ in range(4)
    ]
    for spec in specs:  # warm both paths
        assert dirty.execute(spec).record_ids() == frozen.execute(spec).record_ids()

    def _total(engine) -> float:
        started = time.perf_counter()
        for spec in specs:
            engine.execute(spec)
        return time.perf_counter() - started

    dirty_total = min(_total(dirty) for _ in range(3))
    frozen_total = min(_total(frozen) for _ in range(3))
    assert dirty_total <= MAX_OVERLAY_OVERHEAD * frozen_total, (
        f"dirty overlay {dirty_total * 1e3:.1f}ms vs frozen "
        f"{frozen_total * 1e3:.1f}ms — overlay overhead regressed"
    )
