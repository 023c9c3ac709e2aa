"""Per-layer probes: each layer timed from outside, through its public functions.

A probe calls one layer directly on inputs drawn from the run's seed and
reports the median of many calls (counts are reported as they are: with
one caller and no timers they repeat exactly for a given seed).  Nothing
here adds a span or a counter to the program; the only program-side data
read are the span trees and ``stats()`` dictionaries it already emits.

Metrics that need a live server or federation (``serve.*`` and
``shard.*`` taken from ``stats()`` or from spans) come from short traced
runs of the ``serve_meet`` and ``shard_scatter`` workloads themselves.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time

import numpy as np

from repro import FlatRTree, GNNEngine, GroupQuery, QuerySpec, brute_force_gnn, mbm, mqm, spm
from repro.geometry import kernels
from repro.rtree.overlay import DeltaOverlay
from repro.rtree.traversal import flat_incremental_nearest_generic
from repro.serve import MicroBatcher
from repro.serve.protocol import (
    decode_spec,
    encode_result,
    encode_spec,
    pack_frame,
    unpack_frame,
)
from repro.serve.server import DEFAULT_WINDOW_S
from repro.storage import GenerationStore, WriteAheadLog

from gnnbench.common import derive_seed, median_seconds, median_seconds_over, probe_calls
from gnnbench.spans import program_span_durations
from gnnbench.inputs import dataset, new_points
from gnnbench.workloads import (
    CAPACITY,
    FIG51,
    WORKLOADS,
    RunConfig,
    fig51_groups,
    fresh_directory,
    meet_trace,
)

#: Length of the short served runs, as a share of the run's ``--seconds``.
SERVED_SHARE = 0.15


def calls(cfg: RunConfig, full_scale_count: int) -> int:
    return probe_calls(cfg.scale, full_scale_count)


def layer_pass(cfg: RunConfig) -> tuple[dict[str, float], list[dict]]:
    """Every per-layer metric but the tracing overhead; returns (metrics, workload runs made)."""
    layer = direct_probes(cfg)
    short = cfg.shortened(cfg.seconds * SERVED_SHARE, program_trace=True)
    serve = WORKLOADS["serve_meet"](short)
    layer.update(serve["layer"])
    layer.update(serve_span_metrics(serve["program_spans"]))
    # The open loop is part of no bounded metric, so this short phase is what the driver sees of it.
    layer["serve.open_ms_p50"] = serve["metrics"]["open_ms_p50"]["value"]
    layer["serve.open_ms_p95"] = serve["metrics"]["open_ms_p95"]["value"]
    layer["serve.open_missed_share"] = serve["metrics"]["missed_share"]["value"]
    shard = WORKLOADS["shard_scatter"](short)
    layer.update(shard["layer"])
    layer.update(shard_span_metrics(shard["program_spans"]))
    return layer, [serve, shard]


def direct_probes(cfg: RunConfig) -> dict[str, float]:
    """Every probe that needs no server: api, core, geometry, rtree, storage, codecs."""
    out: dict[str, float] = {}
    points = dataset(cfg.scale)
    loads = []
    out["rtree.bulk_load_s"] = median_seconds(
        lambda: loads.append(FlatRTree.bulk_load(points, capacity=CAPACITY)), calls(cfg, 2)
    )
    flat = loads[-1]
    engine = GNNEngine.from_index(flat)
    groups = fig51_groups(cfg, points)
    meet = meet_trace(cfg, points)[:200]
    meet_specs = [QuerySpec(group=request.group, k=request.k) for request in meet]

    out.update(_api_probes(cfg, engine, flat, meet, meet_specs))
    out.update(_core_probes(cfg, engine, flat, points, groups))
    out.update(_geometry_probes(cfg, flat, groups[0], meet[0].group))
    out.update(_rtree_probes(cfg, flat, points))
    out.update(_storage_probes(cfg, flat, points))
    out.update(_codec_probes(cfg, engine, meet_specs))
    return out


def _api_probes(cfg, engine, flat, meet, meet_specs) -> dict:
    cycle = itertools.cycle(meet)
    spec_cycle = itertools.cycle(meet_specs)

    def build():
        request = next(cycle)
        QuerySpec(group=request.group, k=request.k)

    execute_s = median_seconds_over(engine.execute, meet_specs)
    queries = [GroupQuery(request.group, k=request.k) for request in meet]
    direct_s = median_seconds_over(lambda query: mbm(flat, query), queries)
    buckets = [meet_specs[i : i + 8] for i in range(0, len(meet_specs) - 7, 8)]
    return {
        "api.spec_build_us": median_seconds(build, calls(cfg, 2000)) * 1e6,
        "api.plan_us": median_seconds(lambda: engine.planner.plan(next(spec_cycle)), calls(cfg, 2000))
        * 1e6,
        "api.execute_overhead_us": (execute_s - direct_s) * 1e6,
        "api.execute_many_ms_per_query": median_seconds_over(engine.execute_many, buckets) * 1e3 / 8,
    }


def _core_probes(cfg, engine, flat, points, groups) -> dict:
    k = FIG51["k"]
    out = {}
    for name, algorithm, count in (("mbm", mbm, 40), ("spm", spm, 30), ("mqm", mqm, 4)):
        seconds, nodes, distances = [], [], []
        for group in groups[: calls(cfg, count)]:
            query = GroupQuery(group, k=k)
            started = time.perf_counter()
            result = algorithm(flat, query)
            seconds.append(time.perf_counter() - started)
            nodes.append(result.cost.node_accesses)
            distances.append(result.cost.distance_computations)
        out[f"core.{name}_ms_p50"] = statistics.median(seconds) * 1e3
        out[f"core.{name}_node_accesses"] = statistics.fmean(nodes)
        out[f"core.{name}_distance_computations"] = statistics.fmean(distances)
    max_specs = [
        QuerySpec(group=group, k=k, algorithm="best-first", aggregate="max")
        for group in groups[: calls(cfg, 30)]
    ]
    out["core.bestfirst_max_ms_p50"] = median_seconds_over(engine.execute, max_specs) * 1e3
    query = GroupQuery(groups[0], k=k)
    out["core.bruteforce_ms"] = median_seconds(lambda: brute_force_gnn(points, query), calls(cfg, 3)) * 1e3
    return out


def _geometry_probes(cfg, flat, big_group, small_group) -> dict:
    leaf_points = np.ascontiguousarray(flat.points[:CAPACITY])
    lows = np.ascontiguousarray(flat.lows[:CAPACITY])
    highs = np.ascontiguousarray(flat.highs[:CAPACITY])
    big = kernels.Scorer2D(np.asarray(big_group), CAPACITY)
    small = kernels.Scorer2D(np.asarray(small_group), CAPACITY)
    count = calls(cfg, 2000)
    return {
        "geometry.leaf_sum_us": median_seconds(lambda: big.group_sum_distances(leaf_points), count) * 1e6,
        "geometry.boxes_mindist_us": median_seconds(
            lambda: big.boxes_group_sum_mindist(lows, highs), count
        )
        * 1e6,
        "geometry.leaf_sum_small_us": median_seconds(
            lambda: small.group_sum_distances(leaf_points), count
        )
        * 1e6,
        "geometry.leaf_sum_general_us": median_seconds(
            lambda: kernels.aggregate_distances(leaf_points, big_group), count
        )
        * 1e6,
    }


def _rtree_probes(cfg, flat, points) -> dict:
    out = {}
    directory = fresh_directory(cfg, "probe-rtree")
    path = directory / "snapshot.npz"
    out["rtree.save_s"] = median_seconds(lambda: flat.save(path, generation=0), calls(cfg, 5))
    out["rtree.load_mmap_ms"] = (
        median_seconds(lambda: FlatRTree.load(path, mmap_mode="r"), calls(cfg, 20)) * 1e3
    )
    out["rtree.snapshot_bytes_per_point"] = os.path.getsize(path) / len(points)

    items = min(1000, len(points))

    def stream(query_point):
        neighbours = flat_incremental_nearest_generic(
            flat,
            lambda candidates: kernels.point_distances(candidates, query_point),
            lambda lows, highs: kernels.boxes_mindist_point(lows, highs, query_point),
        )
        for _ in itertools.islice(neighbours, items):
            pass

    out["rtree.nn_stream_us_per_item"] = (
        median_seconds_over(stream, points[: calls(cfg, 10)]) / items * 1e6
    )

    # The overlay as a write path: insert cost grows with the delta, so it
    # is sampled on an empty delta and again once 500 records are in.
    first, grow_to, second = calls(cfg, 200), calls(cfg, 500), calls(cfg, 100)
    fresh = new_points(points, grow_to + second + calls(cfg, 10), "probe.inserts", cfg.seed)
    overlay = DeltaOverlay(flat)
    base_id = len(points)
    insert_seconds = []
    for row in range(grow_to + second):
        started = time.perf_counter()
        overlay.insert(fresh[row], base_id + row)
        insert_seconds.append(time.perf_counter() - started)
    out["rtree.overlay_insert_us_d0"] = statistics.median(insert_seconds[:first]) * 1e6
    out["rtree.overlay_insert_us_d500"] = statistics.median(insert_seconds[grow_to:]) * 1e6

    victims = calls(cfg, 100)
    rng = np.random.default_rng(derive_seed(cfg.seed, "probe.victims"))
    base_rows = rng.choice(len(points), size=victims, replace=False).tolist()
    out["rtree.overlay_delete_base_us"] = (
        median_seconds_over(lambda row: overlay.delete(points[row], row), base_rows) * 1e6
    )
    out["rtree.overlay_delete_delta_us"] = (
        median_seconds_over(lambda row: overlay.delete(fresh[row], base_id + row), range(victims)) * 1e6
    )
    rebuild_seconds = []
    for extra in range(calls(cfg, 10)):
        row = grow_to + second + extra
        overlay.insert(fresh[row], base_id + row)  # invalidates the cached delta arrays
        started = time.perf_counter()
        overlay.delta_points()
        rebuild_seconds.append(time.perf_counter() - started)
    out["rtree.delta_points_us"] = statistics.median(rebuild_seconds) * 1e6
    out["rtree.delta_size_final"] = len(overlay.delta)
    out["rtree.compact_s"] = median_seconds(overlay.compact, 1)
    return out


def _storage_probes(cfg, flat, points) -> dict:
    out = {}
    directory = fresh_directory(cfg, "probe-storage")
    records = calls(cfg, 500)
    wal_path = directory / "probe.wal"
    wal = WriteAheadLog(wal_path, fsync="interval")
    try:
        header_bytes = os.path.getsize(wal_path)
        rows = itertools.count()

        def append():
            row = next(rows)
            wal.append("insert", row, points[row % len(points)])

        out["storage.wal_append_us"] = median_seconds(append, records) * 1e6
    finally:
        wal.close()
    out["storage.wal_bytes_per_record"] = (os.path.getsize(wal_path) - header_bytes) / records
    out["storage.wal_scan_ms_per_krecord"] = (
        median_seconds(lambda: WriteAheadLog.scan(wal_path), calls(cfg, 5)) * 1e3 / (records / 1000.0)
    )

    store = GenerationStore(directory / "generations")
    out["storage.publish_ms"] = median_seconds(lambda: store.publish(flat), calls(cfg, 3)) * 1e3

    def recover_clean():
        engine = GNNEngine.recover(store.directory)
        engine.wal.close()

    out["storage.recover_load_ms"] = median_seconds(recover_clean, calls(cfg, 5)) * 1e3
    return out


def _codec_probes(cfg, engine, meet_specs) -> dict:
    spec = meet_specs[0]
    result = encode_result(engine.execute(spec))
    batcher = MicroBatcher(DEFAULT_WINDOW_S, 32)
    keys = itertools.cycle(range(32))
    count = calls(cfg, 2000)
    return {
        "serve.codec_us": median_seconds(
            lambda: decode_spec(unpack_frame(pack_frame(encode_spec(spec)))), count
        )
        * 1e6,
        "serve.result_codec_us": median_seconds(lambda: unpack_frame(pack_frame(result)), count) * 1e6,
        "serve.batcher_offer_us": median_seconds(
            lambda: batcher.offer(next(keys), (0, None), time.monotonic()), count
        )
        * 1e6,
    }


# ----------------------------------------------------------------------
# metrics read from the program's existing span trees (traced runs only)
# ----------------------------------------------------------------------
def _median(values, scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def serve_span_metrics(program_spans) -> dict:
    """Queue wait, worker time and time outside the worker, from ``serve.*`` spans."""
    workers = {
        span["parent_id"]: span
        for span in program_spans
        if span["name"] == "serve.worker" and span.get("end_s") is not None
    }
    outside = []
    for span in program_spans:
        worker = workers.get(span["span_id"]) if span["name"] == "serve.request" else None
        if worker is not None and span.get("end_s") is not None:
            outside.append(
                (span["end_s"] - span["start_s"]) - (worker["end_s"] - worker["start_s"])
            )
    waits = [span["attrs"].get("queue_wait_s", 0.0) for span in workers.values()]
    return {
        "serve.queue_wait_ms_p50": _median(waits, 1e3),
        "serve.worker_span_ms_p50": _median(program_span_durations(program_spans, "serve.worker"), 1e3),
        "serve.outside_worker_ms_p50": _median(outside, 1e3),
    }


def shard_span_metrics(program_spans) -> dict:
    """Routing, dispatch and merge times from the coordinator's ``shard.*`` spans."""
    return {
        "shard.route_us_p50": _median(program_span_durations(program_spans, "shard.route"), 1e6),
        "shard.dispatch_ms_p50": _median(program_span_durations(program_spans, "shard.dispatch"), 1e3),
        "shard.merge_us_p50": _median(program_span_durations(program_spans, "shard.merge"), 1e6),
    }
