"""The benchmark's metric tables: names, units, directions, bounds, predictions.

``BENCHMARK.json`` at the repository root is generated from these tables
(:func:`benchmark_json`); the smoke test keeps the two in step.

:data:`END_TO_END` is the harness's full table.  A run prints, and
``compare.py`` shows, every metric that applies to its workload.  Only
some carry a bound:

* a timing that runs of one commit cannot repeat is demoted, as issue 11
  asks: its bound is ``None``, it is printed with its run-to-run spread
  and never judged.  On the shared 2-core runner that is every timing of
  a timed phase (quartile spreads of 10-25% over ten runs, see the
  README), so what stays bounded is set-up time, memory, and the paper's
  own cost model -- node accesses and distance computations per query --
  which the program counts itself and which no neighbour can move;
* ``BENCHMARK.json`` can list only metrics that *every* workload reports
  and that never read 0 (:data:`DRIVER_END_TO_END`); the demoted timings
  reach the driver as per-layer metrics (``run.*``, ``serve.open_*``);
* the two shares are 0 at the seed commit and must stay 0; they reach the
  driver as the ``failed`` / ``attempted`` fields of the result line.
"""

from __future__ import annotations

from gnnbench.workloads import WHY

RUN_SECONDS = 20
COMMAND = ["python3", "benchmarks/gnnbench/run.py"]
PATHS = ["benchmarks/gnnbench"]

ALL = ("fig51_mem", "serve_meet", "shard_scatter", "write_mix")

SETUP_BOUND = 0.25  # the largest, as the driver asks: set-up is one second of work, hit whole by a slow minute
COUNT_BOUND = 0.10
MEMORY_BOUND = 0.10

#: name -> (unit, better, bound or None, workloads, definition)
END_TO_END = {
    "setup_s": ("s", "lower", SETUP_BOUND, ALL,
                "dataset generation, index build/publish/partition, server or federation "
                "start, first verified answer (the fastest of the run's set-ups)"),
    "ops_per_s": ("1/s", "higher", None, ALL,
                  "completed operations per wall second of the timed closed-loop phase "
                  "(write_mix: every op of the stream)"),
    "query_ms_p50": ("ms", "lower", None, ALL,
                     "per-query latency in the closed-loop phase (write_mix: queries over "
                     "the dirty overlay)"),
    "query_ms_p95": ("ms", "lower", None, ALL, "as query_ms_p50, 95th percentile"),
    "open_ms_p50": ("ms", "lower", None, ("serve_meet",),
                    "open-loop latency from the due time at 80 req/s"),
    "open_ms_p95": ("ms", "lower", None, ("serve_meet",), "as open_ms_p50, 95th percentile"),
    "missed_share": ("share", "lower", 0.0, ("serve_meet",),
                     "open-loop requests failed, shed or slower than 100 ms, over requests due"),
    "failed_share": ("share", "lower", 0.0, ALL,
                     "operations that raised, were refused or returned a wrong answer, over "
                     "operations attempted"),
    "insert_ms_p50": ("ms", "lower", None, ("write_mix",), "engine.insert latency over the stream"),
    "insert_ms_p95": ("ms", "lower", None, ("write_mix",), "as insert_ms_p50, 95th percentile"),
    "recover_ms_per_record": ("ms", "lower", None, ("write_mix",),
                              "GNNEngine.recover wall time over WAL records replayed"),
    "compact_s": ("s", "lower", None, ("write_mix",), "engine.compact() at the final dirty state"),
    "peak_rss_mb": ("MB", "lower", MEMORY_BOUND, ALL,
                    "ru_maxrss of the process that held the engine: the run's own process "
                    "(fig51_mem, write_mix) or the largest worker or shard-node process it reaped"),
    "node_accesses_per_query": ("count", "lower", COUNT_BOUND, ALL,
                                "R-tree nodes visited per query of the timed closed-loop phase, "
                                "from the program's own counters (the paper's NA)"),
    "distance_computations_per_query": ("count", "lower", COUNT_BOUND, ALL,
                                        "point and box distance evaluations per query of the "
                                        "timed closed-loop phase, from the program's own counters"),
}

#: What ``BENCHMARK.json`` lists: bounded, reported by every workload, never 0.
DRIVER_END_TO_END = tuple(
    name
    for name, (unit, _, bound, workloads, _) in END_TO_END.items()
    if bound is not None and workloads == ALL and unit != "share"
)

#: Counts that must be identical between two runs of one seed on one commit.
EXACT_COUNTS = (
    "core.mbm_node_accesses",
    "core.mbm_distance_computations",
    "core.spm_node_accesses",
    "core.spm_distance_computations",
    "core.mqm_node_accesses",
    "core.mqm_distance_computations",
    "rtree.snapshot_bytes_per_point",
    "storage.wal_bytes_per_record",
    "rtree.delta_size_final",
)

#: name -> (unit, better, what it should move: end-to-end metric @ workload; "guard" = none)
PER_LAYER = {
    # api
    "api.spec_build_us": ("us", "lower", "query_ms_p50 @ serve_meet; <1% @ fig51_mem"),
    "api.plan_us": ("us", "lower", "query_ms_p50 @ serve_meet; <1% @ fig51_mem"),
    "api.execute_overhead_us": ("us", "lower", "query_ms_p50 @ serve_meet; <1% @ fig51_mem"),
    "api.execute_many_ms_per_query": ("ms", "lower", "ops_per_s @ serve_meet"),
    # core
    "core.mbm_ms_p50": ("ms", "lower", "query_ms_p50 @ fig51_mem"),
    "core.spm_ms_p50": ("ms", "lower", "guard (paper Fig 5.1 comparison)"),
    "core.mqm_ms_p50": ("ms", "lower", "guard (the deferred heap loop targets it)"),
    "core.bestfirst_max_ms_p50": ("ms", "lower", "guard (max aggregate path)"),
    "core.mbm_node_accesses": ("count", "lower", "exact repeat; query_ms_p50 @ fig51_mem"),
    "core.mbm_distance_computations": ("count", "lower", "exact repeat; query_ms_p50 @ fig51_mem"),
    "core.spm_node_accesses": ("count", "lower", "exact repeat; guard"),
    "core.spm_distance_computations": ("count", "lower", "exact repeat; guard"),
    "core.mqm_node_accesses": ("count", "lower", "exact repeat; guard"),
    "core.mqm_distance_computations": ("count", "lower", "exact repeat; guard"),
    "core.bruteforce_ms": ("ms", "lower", "verification cost; the delta scan @ write_mix"),
    # geometry
    "geometry.leaf_sum_us": ("us", "lower", "query_ms_p50 @ fig51_mem"),
    "geometry.boxes_mindist_us": ("us", "lower", "query_ms_p50 @ fig51_mem"),
    "geometry.leaf_sum_small_us": ("us", "lower", "query_ms_p50 @ serve_meet (fixed per-call cost)"),
    "geometry.leaf_sum_general_us": ("us", "lower", "guard (weighted/max/dims>2 path)"),
    # rtree
    "rtree.bulk_load_s": ("s", "lower", "setup_s @ all; compact_s @ write_mix"),
    "rtree.save_s": ("s", "lower", "setup_s @ serve_meet, shard_scatter, write_mix"),
    "rtree.load_mmap_ms": ("ms", "lower", "setup_s @ serve_meet, shard_scatter, write_mix"),
    "rtree.snapshot_bytes_per_point": ("count", "lower", "exact repeat; peak_rss_mb"),
    "rtree.nn_stream_us_per_item": ("us", "lower", "guard (core.mqm / core.spm streams)"),
    "rtree.overlay_insert_us_d0": ("us", "lower", "insert_ms_p50 @ write_mix"),
    "rtree.overlay_insert_us_d500": ("us", "lower", "insert_ms_p95, ops_per_s @ write_mix"),
    "rtree.overlay_delete_base_us": ("us", "lower", "ops_per_s @ write_mix"),
    "rtree.overlay_delete_delta_us": ("us", "lower", "ops_per_s @ write_mix"),
    "rtree.delta_points_us": ("us", "lower", "query_ms_p50 @ write_mix"),
    "rtree.compact_s": ("s", "lower", "compact_s @ write_mix"),
    "rtree.delta_size_final": ("count", "lower", "exact repeat"),
    # storage
    "storage.wal_append_us": ("us", "lower", "insert_ms_p50 @ write_mix (expected <2%)"),
    "storage.wal_bytes_per_record": ("count", "lower", "exact repeat"),
    "storage.wal_scan_ms_per_krecord": ("ms", "lower", "recover_ms_per_record @ write_mix"),
    "storage.recover_load_ms": ("ms", "lower", "recover_ms_per_record, setup_s @ write_mix"),
    "storage.publish_ms": ("ms", "lower", "setup_s, compact_s @ write_mix"),
    # serve
    "serve.start_s": ("s", "lower", "setup_s @ serve_meet"),
    "serve.close_s": ("s", "lower", "setup_s @ serve_meet (repeated set-ups)"),
    "serve.submit_us": ("us", "lower", "ops_per_s, open_ms_p50 @ serve_meet"),
    "serve.batcher_offer_us": ("us", "lower", "ops_per_s, open_ms_p50 @ serve_meet"),
    "serve.codec_us": ("us", "lower", "ops_per_s, open_ms_p50 @ serve_meet"),
    "serve.result_codec_us": ("us", "lower", "ops_per_s, open_ms_p50 @ serve_meet"),
    "serve.batch_size_mean": ("count", "higher", "raises ops_per_s, lengthens query_ms_p50 @ serve_meet"),
    "serve.worker_cpu_ms_per_request": ("ms", "lower", "ops_per_s @ serve_meet"),
    "serve.worker_busy_share": ("share", "lower", "ops_per_s @ serve_meet"),
    "serve.overhead_ms_p50": ("ms", "lower", "query_ms_p50 @ serve_meet"),
    "serve.shed": ("count", "lower", "failed_share, missed_share @ serve_meet"),
    "serve.failed": ("count", "lower", "failed_share, missed_share @ serve_meet"),
    "serve.worker_deaths": ("count", "lower", "failed_share, missed_share @ serve_meet"),
    "serve.queue_wait_ms_p50": ("ms", "lower", "query_ms_p50 @ serve_meet (traced run)"),
    "serve.worker_span_ms_p50": ("ms", "lower", "query_ms_p50 @ serve_meet (traced run)"),
    "serve.outside_worker_ms_p50": ("ms", "lower", "query_ms_p50 @ serve_meet (traced run)"),
    "serve.open_ms_p50": ("ms", "lower", "open_ms_p50 @ serve_meet (short open phase of the traced run)"),
    "serve.open_ms_p95": ("ms", "lower", "open_ms_p95 @ serve_meet (short open phase of the traced run)"),
    "serve.open_missed_share": ("share", "lower", "missed_share @ serve_meet (short open phase of the traced run)"),
    # shard
    "shard.partition_s": ("s", "lower", "setup_s @ shard_scatter"),
    "shard.start_s": ("s", "lower", "setup_s @ shard_scatter"),
    "shard.bounds_us": ("us", "lower", "query_ms_p50 @ shard_scatter"),
    "shard.frame_us": ("us", "lower", "query_ms_p50 @ shard_scatter"),
    "shard.contact_rate": ("share", "lower", "ops_per_s, query_ms_p95 @ shard_scatter"),
    "shard.subqueries_per_query": ("count", "lower", "ops_per_s @ shard_scatter"),
    "shard.pruned_share": ("share", "higher", "ops_per_s @ shard_scatter"),
    "shard.node_cpu_ms_per_subquery": ("ms", "lower", "ops_per_s @ shard_scatter"),
    "shard.overhead_ms_p50": ("ms", "lower", "query_ms_p50 @ shard_scatter"),
    "shard.retries": ("count", "lower", "failed_share @ shard_scatter"),
    "shard.failed_subqueries": ("count", "lower", "failed_share @ shard_scatter"),
    "shard.degraded_queries": ("count", "lower", "failed_share @ shard_scatter"),
    "shard.breaker_trips": ("count", "lower", "failed_share @ shard_scatter"),
    "shard.route_us_p50": ("us", "lower", "query_ms_p50 @ shard_scatter (traced run)"),
    "shard.dispatch_ms_p50": ("ms", "lower", "query_ms_p50 @ shard_scatter (traced run)"),
    "shard.merge_us_p50": ("us", "lower", "query_ms_p50 @ shard_scatter (traced run)"),
    # the named workload's own timings, demoted from the end-to-end table
    "run.ops_per_s": ("1/s", "higher", "ops_per_s of the named workload, untraced, a third of the length"),
    "run.query_ms_p50": ("ms", "lower", "query_ms_p50 of the named workload, untraced, a third of the length"),
    "run.query_ms_p95": ("ms", "lower", "query_ms_p95 of the named workload, untraced, a third of the length"),
    # obs / harness
    "obs.trace_overhead_ratio": ("ratio", "higher", "traced / untraced ops_per_s of the named workload"),
    "loadgen.late_ms_p99": ("ms", "lower", "validity of open_ms_* @ serve_meet"),
    "loadgen.cpu_share": ("share", "lower", "near 1 the generator, not the program, is the bottleneck"),
}


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in ALL],
        "end_to_end": [
            {
                "name": name,
                "unit": END_TO_END[name][0],
                "better": END_TO_END[name][1],
                "bound": END_TO_END[name][2],
            }
            for name in DRIVER_END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }
