"""Machine-readable performance baseline (``BENCH_quick.json``).

``python -m repro.bench --quick`` measures two fixed configurations and
writes the medians as JSON, so every future PR has a comparable
trajectory point (and CI archives one per run):

* **fig-5.1 smoke** — the paper's Figure 5.1 setting at smoke scale
  (PP-like dataset, n=64, M=8%, k=8), each memory-resident algorithm
  timed over the flat array-backed snapshot.
* **one disk config** — F-MQM and F-MBM over a Hilbert-sorted query
  file split into multiple blocks.
* **batch serving** — a batch of 64 meeting-sized groups answered
  through ``engine.execute_many`` (the shared-traversal path over the
  flat snapshot) versus one ``engine.execute`` per spec, answers
  verified identical before timing.
* **write path** — the same fig-5.1 workload over a delta overlay
  carrying 10% uncompacted writes versus the equivalent frozen
  (compacted) snapshot; overlay and frozen answers must be
  bit-identical before timing, and ``write_path_efficiency``
  (frozen/overlay latency) is gated so mutability never silently costs
  more than its 1.5x budget.
* **serving** — the multi-process server over a shared mmap snapshot at
  the fig-5.1 smoke setting: a seeded Poisson/Zipf trace is replayed
  against 1, 2 and 4 workers, reporting throughput (flood) and
  p50/p95/p99 latency (paced at half the 1-worker capacity).  Workers
  charge the paper's I/O cost model *temporally*: every physical R-tree
  node access sleeps ``SERVING_IO_STALL_S`` (one simulated random disk
  read), so the measurement reflects a disk-backed index whose stalls
  overlap across workers — the regime multi-process serving exists for.
  CPU-only numbers would conflate this with host core count; the stall
  parameter is recorded in the emitted setting for reproducibility.

Wall-clock entries are medians of per-query means across repeats;
counter entries are medians across the workload's queries.  Numbers are
machine-dependent; the ``speedup`` ratios are the portable signal —
:func:`compare_baseline` (the ``--compare`` CLI mode) turns them into a
regression gate against the committed file.  The JSON is written
atomically (temp file + rename), so an interrupted run can never leave
a truncated baseline behind.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import statistics
import tempfile
import time

from repro.api.spec import QuerySpec
from repro.core.engine import GNNEngine
from repro.core.fmbm import fmbm
from repro.core.fmqm import fmqm
from repro.core.mbm import mbm
from repro.core.mqm import mqm
from repro.core.spm import spm
from repro.core.types import GroupQuery
from repro.datasets.real_like import pp_like
from repro.datasets.workload import WorkloadSpec, generate_workload
from repro.rtree.flat import FlatRTree
from repro.storage.atomicio import write_json_atomic
from repro.storage.pointfile import PointFile

#: Schema version of the emitted JSON (bump on layout changes).
#: Schema 3 added the ``serving`` section (multi-process server
#: throughput/latency vs worker count).  Schema 4 added the ``sharded``
#: section (scatter-gather over networked shard nodes vs shard count).
#: Schema 5 added the ``write_path`` section (query latency over a
#: dirty delta overlay vs the equivalent frozen snapshot).  Schema 6
#: added the ``durability`` section (write-ahead-logged insert overhead
#: at the ``interval`` fsync policy vs the volatile overlay write path,
#: plus crash-recovery replay time).  Schema 7 added the
#: ``observability`` section (fig-5.1 query latency with the obs layer
#: disabled vs fully enabled — tracing, metrics, slow-query log, JSON
#: logging — gating the cost of instrumentation).  Schema 8 dropped
#: ``object_ms_per_query`` / ``flat_speedup`` from ``memory_fig5_1``:
#: the object-tree query paths they measured no longer exist.  Schema 9
#: dropped ``durability_efficiency``: a ratio of two microsecond costs
#: that could not fail while inserts took milliseconds and says nothing
#: now that they do not.
SCHEMA_VERSION = 9

#: Default output filename (also the CI artifact name).
DEFAULT_OUTPUT = "BENCH_quick.json"

#: fig-5.1 smoke setting: PP-like dataset, the paper's n=64 / M=8% / k=8.
FIG51_DATASET_SIZE = 1_200
FIG51_CARDINALITY = 64
FIG51_MBR_FRACTION = 0.08
FIG51_K = 8
FIG51_QUERIES = 4
FIG51_SEED = 17

#: Disk config: one multi-block query file over the same dataset.
DISK_QUERY_POINTS = 500
DISK_POINTS_PER_PAGE = 50
DISK_BLOCK_PAGES = 2
DISK_K = 8

#: Batch-serving config: 64 meeting-sized groups (the "where should the
#: n of us meet" workload) answered in one execute_many call.
BATCH_SIZE = 64
BATCH_CARDINALITY = 8
BATCH_K = 8

#: Serving config: the fig-5.1 smoke setting served through the
#: multi-process server from a Poisson/Zipf request trace.
SERVING_WORKER_COUNTS = (1, 2, 4)
SERVING_REQUESTS = 192
SERVING_HOTSPOTS = 8
SERVING_ZIPF_EXPONENT = 1.1
SERVING_WINDOW_S = 0.002
#: Micro-batch size cap.  8 (not the executor's 32) keeps each shared
#: traversal's simulated I/O large relative to its CPU share, which is
#: the regime the worker-count scaling measures; larger caps trade
#: parallel speedup for single-worker throughput.
SERVING_MAX_BATCH = 8
#: Simulated disk stall charged per physical node access (the paper's
#: I/O cost model made temporal: one random disk read ~1 ms).
SERVING_IO_STALL_S = 0.001
#: The latency phase paces arrivals at this fraction of the measured
#: 1-worker flood throughput (the same absolute rate for every worker
#: count, so latency numbers compare like for like).
SERVING_LATENCY_UTILISATION = 0.5
SERVING_REPEATS = 3

#: Sharded config: the same traced workload scatter-gathered over 1, 2
#: and 4 networked shard nodes (one serving worker each, same simulated
#: I/O stall), so the headline ratio isolates what horizontal sharding
#: buys: parallel per-shard stalls plus federation-level pruning.
SHARDED_SHARD_COUNTS = (1, 2, 4)
#: Shard trees use page-sized nodes (the paper's disk-resident setting,
#: not the in-memory default of 50): deeper trees touch more pages, so
#: the 1 ms-per-access stall dominates wall time for *every* shard
#: count.  That is the regime horizontal sharding targets, and it makes
#: the headline ratio robust — both ends of the ratio are sleep-bound,
#: so host CPU contention largely cancels instead of compressing the
#: CPU-bound end only.
SHARDED_CAPACITY = 8
#: The flood replays the trace this many times back to back; with
#: page-sized nodes one pass already runs for seconds per repeat, which
#: is long enough to average out scheduler noise.
SHARDED_FLOOD_PASSES = 1
SHARDED_REPEATS = 5

#: Write-path config: the fig-5.1 smoke setting queried over a delta
#: overlay carrying 10% uncompacted writes (60 deletes + 60 inserts on
#: the 1200-point base), versus the equivalent frozen (compacted)
#: snapshot of the same live dataset.  ``write_path_efficiency`` is
#: frozen over overlay latency, so 0.67 corresponds to the 1.5x
#: overhead budget of the overlay design.
WRITE_PATH_DELETES = 60
WRITE_PATH_INSERTS = 60

#: Durability config: per-insert cost with a write-ahead log attached
#: (``interval`` fsync — the serving default) against the same inserts
#: into a volatile overlay, plus the time to recover (snapshot load +
#: full WAL replay) a directory carrying this many logged writes.
#: Reported numbers, not gated ratios.
WAL_WRITES = 400

#: Regression floor of the --compare gate: a freshly measured speedup
#: may not fall below this fraction of the committed value.
COMPARE_FLOOR_RATIO = 0.9

MEMORY_ALGORITHMS = (("MQM", mqm), ("SPM", spm), ("MBM", mbm))
DISK_ALGORITHMS = (("F-MQM", fmqm), ("F-MBM", fmbm))


def _median_runtime(run, repeats: int) -> float:
    """Median over ``repeats`` of the mean per-query wall-clock of ``run``."""
    samples = []
    run()  # warm-up: caches, allocator, numpy internals
    for _ in range(repeats):
        started = time.perf_counter()
        count = run()
        samples.append((time.perf_counter() - started) / count)
    return statistics.median(samples)


def _memory_baseline(repeats: int) -> dict:
    data = pp_like(FIG51_DATASET_SIZE)
    flat = FlatRTree.bulk_load(data, capacity=50)
    workload = generate_workload(
        data,
        WorkloadSpec(
            n=FIG51_CARDINALITY,
            mbr_fraction=FIG51_MBR_FRACTION,
            k=FIG51_K,
            queries=FIG51_QUERIES,
        ),
        seed=FIG51_SEED,
    )
    queries = [GroupQuery(group, k=FIG51_K) for group in workload]

    results: dict = {}
    for name, algorithm in MEMORY_ALGORITHMS:
        costs = [algorithm(flat, query).cost for query in queries]

        def run(algorithm=algorithm):
            for query in queries:
                algorithm(flat, query)
            return len(queries)

        results[name] = {
            "flat_ms_per_query": round(_median_runtime(run, repeats) * 1000.0, 4),
            "node_accesses_median": statistics.median(
                cost.node_accesses for cost in costs
            ),
            "distance_computations_median": statistics.median(
                cost.distance_computations for cost in costs
            ),
        }
    return {
        "setting": {
            "figure": "5.1",
            "scale": "smoke",
            "dataset": f"pp_like({FIG51_DATASET_SIZE})",
            "n": FIG51_CARDINALITY,
            "mbr_fraction": FIG51_MBR_FRACTION,
            "k": FIG51_K,
            "queries": FIG51_QUERIES,
        },
        "algorithms": results,
    }


def _disk_baseline(repeats: int) -> dict:
    import numpy as np

    data = pp_like(FIG51_DATASET_SIZE)
    tree = FlatRTree.bulk_load(data, capacity=50)
    query_points = np.random.default_rng(FIG51_SEED).uniform(
        data.min(axis=0), data.max(axis=0), size=(DISK_QUERY_POINTS, 2)
    )

    results: dict = {}
    for name, algorithm in DISK_ALGORITHMS:
        def run(algorithm=algorithm):
            query_file = PointFile(
                query_points,
                points_per_page=DISK_POINTS_PER_PAGE,
                block_pages=DISK_BLOCK_PAGES,
            )
            algorithm(tree, query_file, k=DISK_K)
            return 1

        query_file = PointFile(
            query_points, points_per_page=DISK_POINTS_PER_PAGE, block_pages=DISK_BLOCK_PAGES
        )
        cost = algorithm(tree, query_file, k=DISK_K).cost
        results[name] = {
            "ms_per_query": round(_median_runtime(run, repeats) * 1000.0, 4),
            "node_accesses": cost.node_accesses,
            "page_reads": cost.page_reads,
            "block_reads": cost.block_reads,
        }
    return {
        "setting": {
            "dataset": f"pp_like({FIG51_DATASET_SIZE})",
            "query_points": DISK_QUERY_POINTS,
            "points_per_page": DISK_POINTS_PER_PAGE,
            "block_pages": DISK_BLOCK_PAGES,
            "k": DISK_K,
        },
        "algorithms": results,
    }


def _batch_baseline(repeats: int) -> dict:
    """Throughput of ``execute_many`` vs per-query ``execute`` at B=64."""
    data = pp_like(FIG51_DATASET_SIZE)
    engine = GNNEngine(data, capacity=50)
    workload = generate_workload(
        data,
        WorkloadSpec(
            n=BATCH_CARDINALITY,
            mbr_fraction=FIG51_MBR_FRACTION,
            k=BATCH_K,
            queries=BATCH_SIZE,
        ),
        seed=FIG51_SEED,
    )
    specs = [QuerySpec(group=group, k=BATCH_K) for group in workload]

    single_results = [engine.execute(spec) for spec in specs]
    batch_results = engine.execute_many(specs)
    for single, batched in zip(single_results, batch_results):
        if [n.as_tuple() for n in single.neighbors] != [n.as_tuple() for n in batched.neighbors]:
            raise AssertionError("execute_many answers differ from per-query execute")

    def run_single():
        for spec in specs:
            engine.execute(spec)
        return len(specs)

    def run_batch():
        engine.execute_many(specs)
        return len(specs)

    single_ms = _median_runtime(run_single, repeats) * 1000.0
    batch_ms = _median_runtime(run_batch, repeats) * 1000.0
    return {
        "setting": {
            "dataset": f"pp_like({FIG51_DATASET_SIZE})",
            "batch_size": BATCH_SIZE,
            "n": BATCH_CARDINALITY,
            "mbr_fraction": FIG51_MBR_FRACTION,
            "k": BATCH_K,
        },
        "execute_ms_per_query": round(single_ms, 4),
        "execute_many_ms_per_query": round(batch_ms, 4),
        "batch_speedup": round(single_ms / batch_ms, 2),
    }


def _serving_trace(data):
    """The serving workload: a seeded Poisson/Zipf trace at fig-5.1 shape."""
    from repro.datasets.workload import generate_request_trace

    # The nominal trace rate only shapes inter-arrival jitter; the
    # latency phase rescales arrivals to the measured pace.
    return generate_request_trace(
        data,
        requests=SERVING_REQUESTS,
        rate_per_s=500.0,
        n=FIG51_CARDINALITY,
        mbr_fraction=FIG51_MBR_FRACTION,
        k=FIG51_K,
        hotspots=SERVING_HOTSPOTS,
        zipf_exponent=SERVING_ZIPF_EXPONENT,
        seed=FIG51_SEED,
    )


def _serving_flood_rps(server, specs, repeats: int) -> float:
    """Median flood throughput: submit everything, wait for everything."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        futures = server.submit_many(specs)
        for future in futures:
            future.result(timeout=300)
        samples.append(len(specs) / (time.perf_counter() - started))
    return statistics.median(samples)


def _serving_paced_latencies(server, trace, specs, rate_per_s: float) -> list[float]:
    """Replay the trace's Poisson arrivals rescaled to ``rate_per_s``."""
    scale = (trace[-1].arrival_s * rate_per_s) / len(trace)
    latencies: list[float] = []
    futures = []
    started = time.perf_counter()
    for request, spec in zip(trace, specs):
        due = started + request.arrival_s / scale
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        submitted = time.perf_counter()
        future = server.submit(spec)
        future.add_done_callback(
            lambda f, submitted=submitted: latencies.append(
                time.perf_counter() - submitted
            )
        )
        futures.append(future)
    for future in futures:
        future.result(timeout=300)
    # result() can return before the reply thread has run the last
    # done-callbacks (set_result notifies waiters first); wait for the
    # tail so the percentiles never miss their slowest entries.
    waited = time.perf_counter()
    while len(latencies) < len(futures) and time.perf_counter() - waited < 5.0:
        time.sleep(0.001)
    return latencies


def _serving_baseline(repeats: int) -> dict:
    """Throughput and latency of the multi-process server vs worker count."""
    from pathlib import Path

    from repro.serve.server import GNNServer
    from repro.serve.stats import percentile

    repeats = max(1, min(repeats, SERVING_REPEATS))
    data = pp_like(FIG51_DATASET_SIZE)
    engine = GNNEngine(data, capacity=50)
    trace = _serving_trace(data)
    specs = [QuerySpec(group=request.group, k=request.k) for request in trace]

    workers_section: dict = {}
    latency_rate = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "serving-gen000000.npz"
        engine.snapshot().save(path, generation=0)
        for worker_count in SERVING_WORKER_COUNTS:
            with GNNServer(
                path,
                workers=worker_count,
                window_s=SERVING_WINDOW_S,
                max_batch=SERVING_MAX_BATCH,
                io_stall_s_per_access=SERVING_IO_STALL_S,
            ) as server:
                handle = server.handle()
                # Correctness first: served answers must equal sequential
                # execute (this also warms every worker's mapping).
                sample = specs[: max(SERVING_MAX_BATCH, 2 * worker_count)]
                for spec, served in zip(sample, handle.run_many(sample, timeout=300)):
                    expected = engine.execute(spec)
                    served_answers = [n.as_tuple() for n in served.neighbors]
                    if served_answers != [n.as_tuple() for n in expected.neighbors]:
                        raise AssertionError(
                            f"serving: {worker_count}-worker answers differ from "
                            "sequential execute"
                        )
                throughput = _serving_flood_rps(server, specs, repeats)
                if latency_rate is None:
                    # Same absolute pace for every worker count.
                    latency_rate = SERVING_LATENCY_UTILISATION * throughput
                latencies = _serving_paced_latencies(server, trace, specs, latency_rate)
                workers_section[str(worker_count)] = {
                    "throughput_rps": round(throughput, 1),
                    "p50_ms": round(percentile(latencies, 50) * 1000.0, 2),
                    "p95_ms": round(percentile(latencies, 95) * 1000.0, 2),
                    "p99_ms": round(percentile(latencies, 99) * 1000.0, 2),
                }
    first = workers_section[str(SERVING_WORKER_COUNTS[0])]["throughput_rps"]
    last = workers_section[str(SERVING_WORKER_COUNTS[-1])]["throughput_rps"]
    return {
        "setting": {
            "figure": "5.1",
            "scale": "smoke",
            "dataset": f"pp_like({FIG51_DATASET_SIZE})",
            "n": FIG51_CARDINALITY,
            "mbr_fraction": FIG51_MBR_FRACTION,
            "k": FIG51_K,
            "requests": SERVING_REQUESTS,
            "trace": "poisson-zipf",
            "hotspots": SERVING_HOTSPOTS,
            "zipf_exponent": SERVING_ZIPF_EXPONENT,
            "window_ms": SERVING_WINDOW_S * 1000.0,
            "max_batch": SERVING_MAX_BATCH,
            "io_stall_ms_per_node_access": SERVING_IO_STALL_S * 1000.0,
            "latency_rate_rps": round(latency_rate, 1),
        },
        "workers": workers_section,
        "throughput_speedup_4w_vs_1w": round(last / first, 2),
    }


def _sharded_baseline(repeats: int) -> dict:
    """Flood throughput of scatter-gather serving vs shard count.

    Every shard count serves the *same* traced workload under the same
    1 ms-per-node-access I/O stall model; answers are verified against
    sequential ``engine.execute`` before anything is timed.  Shard
    nodes run one serving worker each, so the K=1 row is the
    single-machine reference and ``sharded_speedup`` (K=4 over K=1) is
    the portable signal the ``--compare`` gate holds.
    """
    from pathlib import Path

    from repro.shard import ShardNode, ShardedEngine, partition_dataset

    repeats = max(1, min(repeats, SHARDED_REPEATS))
    data = pp_like(FIG51_DATASET_SIZE)
    engine = GNNEngine(data, capacity=50)
    trace = _serving_trace(data)
    specs = [QuerySpec(group=request.group, k=request.k) for request in trace]
    expected = [
        [n.as_tuple() for n in engine.execute(spec).neighbors] for spec in specs
    ]

    shards_section: dict = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        # Every federation (1, 2 and 4 shards) is brought up at once and
        # the timing rounds are interleaved across them, so all shard
        # counts sample the same stretch of host noise instead of each
        # owning its own quiet-or-busy minute.
        federations: dict[int, object] = {}
        for shard_count in SHARDED_SHARD_COUNTS:
            directory = Path(tmp) / f"shards-{shard_count}"
            manifest = partition_dataset(
                data, shard_count, directory, capacity=SHARDED_CAPACITY
            )
            addresses = []
            for shard in manifest.shards:
                node = stack.enter_context(
                    ShardNode(
                        shard.shard_id,
                        directory / shard.path,
                        workers=1,
                        window_s=SERVING_WINDOW_S,
                        max_batch=SERVING_MAX_BATCH,
                        io_stall_s_per_access=SERVING_IO_STALL_S,
                    )
                )
                addresses.append(node.address)
            sharded = stack.enter_context(
                ShardedEngine.connect(manifest, addresses, timeout_s=300.0)
            )
            # Correctness first: the federated answers must equal
            # sequential execute (this also warms every link).
            answers = [
                [n.as_tuple() for n in result.neighbors]
                for result in sharded.execute_many(specs)
            ]
            if answers != expected:
                raise AssertionError(
                    f"sharded: {shard_count}-shard answers differ from "
                    "sequential execute"
                )
            federations[shard_count] = sharded

        flood = specs * SHARDED_FLOOD_PASSES
        samples: dict[int, list[float]] = {c: [] for c in SHARDED_SHARD_COUNTS}
        for _ in range(repeats):
            for shard_count, sharded in federations.items():
                started = time.perf_counter()
                futures = [sharded.submit(spec) for spec in flood]
                for future in futures:
                    future.result(timeout=300)
                samples[shard_count].append(
                    len(flood) / (time.perf_counter() - started)
                )

        for shard_count, sharded in federations.items():
            stats = sharded.stats()["coordinator"]
            contact_rate = stats["shards_contacted"] / max(
                1, stats["queries"] * shard_count
            )
            # Flood throughput measures *capacity*: unrelated host load
            # can only subtract from a round, so the best round is the
            # least-contaminated estimate (the throughput analogue of
            # timing with min, as timeit does).
            shards_section[str(shard_count)] = {
                "throughput_rps": round(max(samples[shard_count]), 1),
                "shard_contact_rate": round(contact_rate, 3),
            }
    first = shards_section[str(SHARDED_SHARD_COUNTS[0])]["throughput_rps"]
    last = shards_section[str(SHARDED_SHARD_COUNTS[-1])]["throughput_rps"]
    return {
        "setting": {
            "figure": "5.1",
            "scale": "smoke",
            "dataset": f"pp_like({FIG51_DATASET_SIZE})",
            "n": FIG51_CARDINALITY,
            "mbr_fraction": FIG51_MBR_FRACTION,
            "k": FIG51_K,
            "requests": SERVING_REQUESTS,
            "flood_passes": SHARDED_FLOOD_PASSES,
            "capacity": SHARDED_CAPACITY,
            "trace": "poisson-zipf",
            "workers_per_shard": 1,
            "window_ms": SERVING_WINDOW_S * 1000.0,
            "max_batch": SERVING_MAX_BATCH,
            "io_stall_ms_per_node_access": SERVING_IO_STALL_S * 1000.0,
            "transport": "tcp-loopback",
        },
        "shards": shards_section,
        "throughput_speedup_4s_vs_1s": round(last / first, 2),
    }


def _write_path_baseline(repeats: int) -> dict:
    """Query latency over a 10%-dirty delta overlay vs a frozen snapshot.

    A snapshot-only engine absorbs 60 deletes and 60 inserts into its
    overlay; the same fig-5.1-shaped workload is then timed over the
    merged (base + delta − tombstones) view and over the equivalent
    compacted snapshot — the same live dataset, frozen.  Answers must be
    bit-identical between the two views (and across compaction) before
    anything is timed.  ``write_path_efficiency`` is the portable ratio
    the ``--compare`` gate holds: frozen over overlay latency, where
    0.67 corresponds to the overlay's 1.5x overhead budget.
    """
    import numpy as np

    data = pp_like(FIG51_DATASET_SIZE)
    base = GNNEngine(data, capacity=50).snapshot()
    dirty = GNNEngine.from_index(base)
    rng = np.random.default_rng(FIG51_SEED)
    for record_id in rng.choice(data.shape[0], size=WRITE_PATH_DELETES, replace=False):
        if not dirty.delete(data[record_id], int(record_id)):
            raise AssertionError(f"write_path: delete of record {record_id} failed")
    jitter = 0.01 * (data.max(axis=0) - data.min(axis=0))
    for row in rng.choice(data.shape[0], size=WRITE_PATH_INSERTS, replace=False):
        dirty.insert(data[row] + jitter * rng.standard_normal(data.shape[1]))
    dirty_ratio = dirty.dirty_ratio

    # The frozen reference: the same live dataset, compacted.  The
    # overlay itself stays dirty (compact() on the overlay object folds
    # without clearing the engine), so both views coexist for timing.
    frozen = GNNEngine.from_index(dirty.overlay.compact(capacity=50))

    workload = generate_workload(
        data,
        WorkloadSpec(
            n=FIG51_CARDINALITY,
            mbr_fraction=FIG51_MBR_FRACTION,
            k=FIG51_K,
            queries=FIG51_QUERIES,
        ),
        seed=FIG51_SEED,
    )

    results: dict = {}
    overlay_total = 0.0
    frozen_total = 0.0
    for name in ("mqm", "spm", "mbm"):
        specs = [QuerySpec(group=group, k=FIG51_K, algorithm=name) for group in workload]
        overlay_results = [dirty.execute(spec) for spec in specs]
        frozen_results = [frozen.execute(spec) for spec in specs]
        for overlay_result, frozen_result in zip(overlay_results, frozen_results):
            if [n.as_tuple() for n in overlay_result.neighbors] != [
                n.as_tuple() for n in frozen_result.neighbors
            ]:
                raise AssertionError(
                    f"write_path: {name} overlay answers differ from the "
                    "compacted snapshot"
                )

        def run_overlay(specs=specs):
            for spec in specs:
                dirty.execute(spec)
            return len(specs)

        def run_frozen(specs=specs):
            for spec in specs:
                frozen.execute(spec)
            return len(specs)

        overlay_ms = _median_runtime(run_overlay, repeats) * 1000.0
        frozen_ms = _median_runtime(run_frozen, repeats) * 1000.0
        overlay_total += overlay_ms
        frozen_total += frozen_ms
        results[name.upper()] = {
            "overlay_ms_per_query": round(overlay_ms, 4),
            "frozen_ms_per_query": round(frozen_ms, 4),
            "overlay_overhead": round(overlay_ms / frozen_ms, 2),
        }

    # Compaction cost (fold + bulk-load of the live dataset), and proof
    # that compaction round-trips: a reloaded generation-N+1 snapshot
    # answers exactly like the overlay did.
    started = time.perf_counter()
    compacted = dirty.compact()
    compaction_ms = (time.perf_counter() - started) * 1000.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "write-path-gen000001.npz")
        compacted.save(path)
        reloaded = GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))
        spec = QuerySpec(group=workload[0], k=FIG51_K)
        if [n.as_tuple() for n in reloaded.execute(spec).neighbors] != [
            n.as_tuple() for n in frozen.execute(spec).neighbors
        ]:
            raise AssertionError("write_path: reloaded compaction answers differ")

    return {
        "setting": {
            "figure": "5.1",
            "scale": "smoke",
            "dataset": f"pp_like({FIG51_DATASET_SIZE})",
            "n": FIG51_CARDINALITY,
            "mbr_fraction": FIG51_MBR_FRACTION,
            "k": FIG51_K,
            "queries": FIG51_QUERIES,
            "deletes": WRITE_PATH_DELETES,
            "inserts": WRITE_PATH_INSERTS,
            "dirty_ratio": round(dirty_ratio, 3),
        },
        "algorithms": results,
        "compaction_ms": round(compaction_ms, 2),
        "compacted_generation": compacted.generation,
        "write_path_efficiency": round(frozen_total / overlay_total, 2),
    }


def _durability_baseline(repeats: int) -> dict:
    """WAL append overhead and crash-recovery replay time.

    The volatile write path (an engine insert into the overlay's point
    array, no log attached) and the *durable increment* — one
    ``WriteAheadLog.append`` per write at the ``interval`` fsync policy
    — are each timed on their own.  A populated log is then left behind
    and a full ``GNNEngine.recover`` (snapshot load + replay) is timed.
    All three are reported as measured; none is a gated ratio.
    """
    import numpy as np

    from repro.storage.generations import GenerationStore
    from repro.storage.wal import WriteAheadLog

    data = pp_like(FIG51_DATASET_SIZE)
    rng = np.random.default_rng(FIG51_SEED)
    extra = rng.uniform(
        data.min(axis=0), data.max(axis=0), size=(WAL_WRITES, data.shape[1])
    )

    with tempfile.TemporaryDirectory() as tmp:
        store = GenerationStore(tmp)
        store.publish(GNNEngine(data, capacity=50).snapshot())

        volatile = GNNEngine.from_index(store.latest())

        def run_volatile():
            for row in extra:
                volatile.insert(row)
            return len(extra)

        volatile_us = _median_runtime(run_volatile, repeats) * 1e6

        append_log = WriteAheadLog(
            os.path.join(tmp, "append-bench.log"), fsync="interval"
        )

        def run_append():
            for record_id, row in enumerate(extra):
                append_log.append("insert", record_id, row)
            return len(extra)

        append_us = _median_runtime(run_append, repeats) * 1e6
        append_log.close()

        # Leave a populated log behind and time recovering it.
        logged = GNNEngine.recover(tmp, fsync="interval")
        for row in extra:
            logged.insert(row)
        logged.wal.sync()
        logged.wal.close()

        def run_recover():
            recovered = GNNEngine.recover(tmp, fsync="off")
            recovered.wal.close()
            if recovered.overlay is None or recovered.overlay.write_count != len(extra):
                raise AssertionError(
                    "durability: recovery replayed the wrong record count"
                )
            return 1

        recovery_ms = _median_runtime(run_recover, repeats) * 1000.0

    return {
        "setting": {
            "dataset": f"pp_like({FIG51_DATASET_SIZE})",
            "wal_writes": WAL_WRITES,
            "fsync": "interval",
        },
        "volatile_us_per_write": round(volatile_us, 3),
        "wal_append_us_per_write": round(append_us, 3),
        "recovery_ms": round(recovery_ms, 3),
        "recovered_records": WAL_WRITES,
    }


def _observability_baseline(repeats: int) -> dict:
    """Query latency with observability off vs fully on (schema 7).

    The fig-5.1 smoke workload runs through ``engine.execute`` twice:
    first with the obs layer disabled (the production default — every
    instrumentation site pays two module-global ``is None`` reads) and
    then with tracing, metrics, the slow-query log and JSON logging all
    enabled.  ``observability_efficiency`` is disabled over enabled
    latency — 1.0 means instrumentation is free, 0.9 means enabling
    everything costs ~11% — and the ``--compare`` gate holds its floor,
    so observability can never silently grow into the query path.
    """
    from repro.obs import disable_all, enable_all

    data = pp_like(FIG51_DATASET_SIZE)
    engine = GNNEngine(data, capacity=50)
    workload = generate_workload(
        data,
        WorkloadSpec(
            n=FIG51_CARDINALITY,
            mbr_fraction=FIG51_MBR_FRACTION,
            k=FIG51_K,
            queries=FIG51_QUERIES,
        ),
        seed=FIG51_SEED,
    )
    specs = [QuerySpec(group=group, k=FIG51_K) for group in workload]

    def run():
        for spec in specs:
            engine.execute(spec)
        return len(specs)

    disable_all()  # defensive: measure the true production default
    disabled_ms = _median_runtime(run, repeats) * 1000.0
    with open(os.devnull, "w", encoding="utf-8") as sink:
        enable_all(log_stream=sink)
        try:
            enabled_ms = _median_runtime(run, repeats) * 1000.0
        finally:
            disable_all()
    return {
        "setting": {
            "figure": "5.1",
            "scale": "smoke",
            "dataset": f"pp_like({FIG51_DATASET_SIZE})",
            "n": FIG51_CARDINALITY,
            "mbr_fraction": FIG51_MBR_FRACTION,
            "k": FIG51_K,
            "queries": FIG51_QUERIES,
            "enabled": "trace + metrics + slowlog + logging",
        },
        "disabled_ms_per_query": round(disabled_ms, 4),
        "enabled_ms_per_query": round(enabled_ms, 4),
        "enabled_overhead": round(enabled_ms / disabled_ms, 3),
        "observability_efficiency": round(disabled_ms / enabled_ms, 3),
    }


def quick_baseline(repeats: int = 5) -> dict:
    """Measure all configurations and return the baseline document."""
    return {
        "schema": SCHEMA_VERSION,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "memory_fig5_1": _memory_baseline(repeats),
        "disk": _disk_baseline(repeats),
        "batch_flat": _batch_baseline(repeats),
        "write_path": _write_path_baseline(repeats),
        "durability": _durability_baseline(repeats),
        "serving": _serving_baseline(repeats),
        "sharded": _sharded_baseline(repeats),
        "observability": _observability_baseline(repeats),
    }


def collect_speedups(document: dict) -> dict[str, float]:
    """The portable speedup ratios of a baseline document, flattened.

    Returns ``{"batch_speedup": 4.4, "serving_speedup": 2.9, ...}`` —
    the machine-independent signals :func:`compare_baseline` gates on.
    """
    speedups: dict[str, float] = {}
    batch = document.get("batch_flat", {})
    if "batch_speedup" in batch:
        speedups["batch_speedup"] = float(batch["batch_speedup"])
    write_path = document.get("write_path", {})
    if "write_path_efficiency" in write_path:
        speedups["write_path_efficiency"] = float(write_path["write_path_efficiency"])
    serving = document.get("serving", {})
    if "throughput_speedup_4w_vs_1w" in serving:
        speedups["serving_speedup"] = float(serving["throughput_speedup_4w_vs_1w"])
    sharded = document.get("sharded", {})
    if "throughput_speedup_4s_vs_1s" in sharded:
        speedups["sharded_speedup"] = float(sharded["throughput_speedup_4s_vs_1s"])
    observability = document.get("observability", {})
    if "observability_efficiency" in observability:
        speedups["observability_efficiency"] = float(
            observability["observability_efficiency"]
        )
    return speedups


def compare_baseline(
    current: dict, reference: dict, floor_ratio: float = COMPARE_FLOOR_RATIO
) -> list[str]:
    """Regression check of ``current`` speedups against a committed baseline.

    Returns a list of human-readable failures: one entry per speedup
    that fell below ``floor_ratio`` times the committed value, plus one
    per committed speedup that the current document no longer reports.
    An empty list means the gate passes.
    """
    current_speedups = collect_speedups(current)
    reference_speedups = collect_speedups(reference)
    failures = []
    for name, committed in sorted(reference_speedups.items()):
        measured = current_speedups.get(name)
        if measured is None:
            failures.append(f"{name}: missing from the current measurement")
            continue
        floor = committed * floor_ratio
        if measured < floor:
            failures.append(
                f"{name}: measured {measured:.2f}x < floor {floor:.2f}x "
                f"({floor_ratio:.0%} of committed {committed:.2f}x)"
            )
    return failures


def baseline_warnings(current: dict, reference: dict) -> list[str]:
    """Non-fatal observations when comparing against an older baseline.

    A committed baseline written by an earlier schema simply lacks the
    newer sections — that must not crash (or fail) the gate, but it
    deserves a warning: the missing speedups are not being gated at
    all until the baseline is regenerated.
    """
    warnings = []
    current_schema = current.get("schema")
    reference_schema = reference.get("schema")
    if reference_schema != current_schema:
        warnings.append(
            f"baseline schema is {reference_schema!r}, this build writes "
            f"{current_schema!r}; sections added since are not gated"
        )
    ungated = sorted(set(collect_speedups(current)) - set(collect_speedups(reference)))
    for name in ungated:
        warnings.append(
            f"{name}: measured but absent from the baseline (older schema?) — "
            "not gated until the committed baseline is regenerated"
        )
    return warnings


def write_baseline(path: str = DEFAULT_OUTPUT, repeats: int = 5) -> dict:
    """Measure and write ``path`` (atomically); returns the document."""
    document = quick_baseline(repeats=repeats)
    write_json_atomic(path, document)
    return document
