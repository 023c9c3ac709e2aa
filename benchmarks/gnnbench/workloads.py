"""The four workloads: inputs from the seed, set-up, checks, timed phases.

Every workload follows the same outline: set the system up, check
answers against a reference, warm up, run the timed phase, tear
everything down in ``finally``, then set up and tear down twice more
(``setup_s`` is the fastest of the run's set-ups).  The program only
ever receives generated inputs; the seed never reaches it.

Sizing follows the shared runner (2 cores): at most 2 client threads,
``workers=2`` for the served workload, 2 shards x 1 worker for the
federation, no simulated I/O stall.  Every other server or coordinator
option is the library default and is recorded in the result.
"""

from __future__ import annotations

import inspect
import itertools
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import FlatRTree, GNNEngine, GroupQuery, QuerySpec, brute_force_gnn
from repro.obs import trace as obs_trace
from repro.serve import GNNServer
from repro.serve.protocol import encode_result, encode_spec, pack_frame, unpack_frame
from repro.shard import ShardCoordinator, ShardedEngine, ShardNodeProcess, partition_dataset
from repro.shard.wire import ShardQuery, ShardReply
from repro.storage import GenerationStore

from gnnbench.common import (
    SETUP_REPEATS,
    Scale,
    derive_seed,
    descendant_pids,
    latency_metrics,
    leftover_processes,
    median_metric,
    median_seconds,
    peak_rss_mb,
    probe_calls,
)
from gnnbench.inputs import dataset, new_points, query_groups, request_trace
from gnnbench.loadgen import Phase, closed_loop, late_ms_p99, open_loop
from gnnbench.spans import NullRecorder

CAPACITY = 50  # the paper's 1 KByte pages
SERVE_WORKERS = 2
SHARDS = 2
SHARD_WORKERS = 1
OPEN_RATE_PER_S = 80.0
OPEN_LIMIT_S = 0.100
REPLY_TIMEOUT_S = 60.0
PROGRAM_SPAN_RING = 200_000
REFERENCE_CHUNK = 10_000

WHY = {
    "fig51_mem": (
        "in-process MBM on paper Fig 5.1 groups (n=64, M=8%, k=8): core traversal and geometry "
        "kernels do >95% of the work, so a kernel or heap-loop change shows here, a serve/shard one not"
    ),
    "serve_meet": (
        "2-worker GNNServer, 1 ms meet-up queries (n=4, k=1, Zipf hotspots), 2 waiting clients then an open "
        "loop at 80 req/s: spec build, batching, pickle/IPC and reply dispatch dominate, core barely counts"
    ),
    "shard_scatter": (
        "2 shard-node processes on TCP loopback, 2 waiting clients, groups n=16, M=4%, k=8: only here "
        "do coordinator bounds, shard pruning, wire framing and the k-way merge reach end to end"
    ),
    "write_mix": (
        "WAL-backed engine under a fixed stream of inserts, deletes and queries (5:1:2), then crash, "
        "recover, compact: rtree/api as a write path, where a read-side gain that costs writes shows"
    ),
}


@dataclass
class RunConfig:
    """Everything one workload run needs besides its own constants."""

    scale: Scale
    seed: int
    seconds: float  # timed work: serve_meet halves it (closed, open), write_mix repeats cycles to cover it
    workdir: Path
    recorder: object = field(default_factory=NullRecorder)
    program_trace: bool = False  # turn repro.obs.trace on around the timed phase
    setup_repeats: int = SETUP_REPEATS

    def shortened(self, seconds: float, recorder=None, program_trace=False) -> "RunConfig":
        """A short variant for the traced pass: one set-up, a quarter of the checks."""
        scale = replace(
            self.scale,
            write_rounds=max(2, self.scale.write_rounds // 3),
            verify_fig51=max(2, self.scale.verify_fig51 // 4),
            verify_served=max(4, self.scale.verify_served // 4),
            verify_write=max(2, self.scale.verify_write // 4),
        )
        return replace(
            self,
            scale=scale,
            seconds=seconds,
            setup_repeats=1,
            recorder=recorder if recorder is not None else NullRecorder(),
            program_trace=program_trace,
        )


class Tally:
    """Operations attempted and failed (raised, refused, or wrong answer)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)

    def add_phase(self, phase: Phase, label: str) -> None:
        self.attempted += phase.attempted
        self.failed += len(phase.errors)
        for index, error in phase.errors[: max(0, 10 - len(self.notes))]:
            self.notes.append(f"{label}: item {index}: {error}")


class Stopwatch:
    """Accumulates the wall time of the blocks it wraps."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.total += time.perf_counter() - self._started
        return False


def answer(result) -> tuple:
    """The comparable part of a result: ids and distances, in order."""
    return tuple(result.record_ids()), tuple(result.distances())


def reference_answer(points: np.ndarray, ids: np.ndarray, group: np.ndarray, k: int) -> tuple:
    """Exact top-k by the library's brute force, scanned in chunks.

    One scan of 100k points against a 64-point group allocates ~100 MB
    of temporaries, which would make ``peak_rss_mb`` measure the check
    instead of the program; chunks keep the check's footprint small.
    """
    query = GroupQuery(group, k=k)
    best = []
    for start in range(0, len(points), REFERENCE_CHUNK):
        stop = start + REFERENCE_CHUNK
        part = brute_force_gnn(points[start:stop], query, record_ids=ids[start:stop])
        best.extend((neighbor.distance, neighbor.record_id) for neighbor in part.neighbors)
    best.sort()
    return tuple(rid for _, rid in best[:k]), tuple(distance for distance, _ in best[:k])


def fresh_directory(cfg: RunConfig, prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=cfg.workdir))


def later_setups(cfg: RunConfig, build, teardown) -> list:
    """The run's other set-ups, made and torn down after the timed work; returns their clocks.

    The first set-up builds what the run measures; these follow half a
    minute later, so the run's set-ups sample two moments of the box.
    """
    clocks = []
    for _ in range(cfg.setup_repeats - 1):
        state, clock = build()
        teardown(state)
        clocks.append(clock)
    return clocks


def timed_phase(cfg: RunConfig, run):
    """Run ``run()`` with the program's tracer on when asked; returns (phase, spans)."""
    if not cfg.program_trace:
        return run(), []
    with obs_trace.active(ring=PROGRAM_SPAN_RING) as tracer:
        phase = run()
        return phase, tracer.spans()


def warm_up_seconds(cfg: RunConfig) -> float:
    return min(1.0, 0.1 * cfg.seconds)


def cost_metrics(node_accesses: int, distance_computations: int, queries: int) -> dict:
    """The paper's cost model per query, from the program's own counters."""
    queries = max(1, queries)
    return {
        "node_accesses_per_query": {"value": node_accesses / queries, "samples": queries},
        "distance_computations_per_query": {"value": distance_computations / queries, "samples": queries},
    }


def closed_phase_metrics(phase: Phase) -> dict:
    metrics = latency_metrics(phase.samples, "query_ms")
    metrics["ops_per_s"] = {"value": len(phase.samples) / phase.wall, "samples": len(phase.samples)}
    return metrics


def defaults_of(callable_, names) -> dict:
    """The library's own default for each named keyword (recorded, never overridden)."""
    parameters = inspect.signature(callable_).parameters
    return {name: parameters[name].default for name in names}


def finish(name: str, tally: Tally, metrics: dict, setup_clocks, peak_mb: float, **extra) -> dict:
    """Assemble a workload's result; ``peak_mb`` is the high-water mark of the process that held the engine."""
    # The host only ever slows a set-up down, so the fastest one is the estimate.
    metrics["setup_s"] = {"value": min(clock.total for clock in setup_clocks), "samples": len(setup_clocks)}
    metrics["peak_rss_mb"] = {"value": peak_mb, "samples": 1}
    return {
        "name": name,
        "why": WHY[name],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / max(1, tally.attempted),
        "failure_notes": tally.notes,
        "metrics": metrics,
        **extra,
    }


# ----------------------------------------------------------------------
# fig51_mem
# ----------------------------------------------------------------------
FIG51 = {"n": 64, "mbr_fraction": 0.08, "k": 8}


def fig51_groups(cfg: RunConfig, points: np.ndarray) -> list[np.ndarray]:
    return query_groups(
        points, count=cfg.scale.fig51_groups, n=FIG51["n"], mbr_fraction=FIG51["mbr_fraction"],
        label="fig51.groups", seed=cfg.seed,
    )


def run_fig51_mem(cfg: RunConfig) -> dict:
    """In-process closed loop, one caller, planner-auto MBM on Fig. 5.1 groups."""
    tally = Tally()
    recorder = cfg.recorder
    k = FIG51["k"]

    def reference(points, group):
        return reference_answer(points, np.arange(len(points)), group, k)

    first_expected = []  # the same for every set-up: computed once

    def build():
        clock = Stopwatch()
        with clock:
            points = dataset(cfg.scale)
            flat = FlatRTree.bulk_load(points, capacity=CAPACITY)
            engine = GNNEngine.from_index(flat)
        groups = fig51_groups(cfg, points)
        with clock:
            first = engine.execute(QuerySpec(group=groups[0], k=k))
        if not first_expected:
            first_expected.append(reference(points, groups[0]))
        tally.check(answer(first) == first_expected[0], "fig51_mem: first answer differs")
        return (engine, points, groups, flat), clock

    (engine, points, groups, flat), first_clock = build()

    costs = [0, 0, 0]  # node accesses, distance computations, queries (one caller: no lock needed)

    def op(group, span):
        with span.child("spec_build"):
            spec = QuerySpec(group=group, k=k)
        if span.enabled:
            with span.child("plan"):
                engine.explain(spec)
        with span.child("execute"):
            result = engine.execute(spec)
        costs[0] += result.cost.node_accesses
        costs[1] += result.cost.distance_computations
        costs[2] += 1
        return result

    keep = min(cfg.scale.verify_fig51, len(groups))
    closed_loop(op, groups, clients=1, seconds=warm_up_seconds(cfg), recorder=NullRecorder())
    costs[:] = [0, 0, 0]
    phase, program_spans = timed_phase(
        cfg,
        lambda: closed_loop(op, groups, clients=1, seconds=cfg.seconds, recorder=recorder, keep=keep),
    )
    tally.add_phase(phase, "fig51_mem")
    for index in range(keep):
        got = phase.results.get(index)
        if got is None:  # the phase was too short to reach this group
            got = engine.execute(QuerySpec(group=groups[index], k=k))
        tally.check(
            answer(got) == reference(points, groups[index]),
            f"fig51_mem: group {index} differs from brute force",
        )

    metrics = closed_phase_metrics(phase)
    metrics.update(cost_metrics(*costs))
    peak_mb = peak_rss_mb(resource.RUSAGE_SELF)  # before the later set-ups hold a second engine
    setup_clocks = [first_clock] + later_setups(cfg, build, lambda s: None)
    settings = {
        "points": cfg.scale.points,
        "capacity": CAPACITY,
        "nodes": int(flat.num_nodes),
        "height": int(flat.height),
        "groups": len(groups),
        "callers": 1,
        **FIG51,
    }
    return finish(
        "fig51_mem", tally, metrics, setup_clocks, peak_mb,
        settings=settings, callers=1, phase_wall_s=phase.wall, program_spans=program_spans,
        detail={"loadgen.cpu_share": phase.cpu_share},
    )


# ----------------------------------------------------------------------
# serve_meet
# ----------------------------------------------------------------------
MEET = {"n": 4, "mbr_fraction": 0.005, "k": 1, "hotspots": 32, "zipf_exponent": 1.1}


def meet_trace(cfg: RunConfig, points: np.ndarray):
    return request_trace(
        points,
        requests=cfg.scale.trace_requests,
        rate_per_s=OPEN_RATE_PER_S,
        label="serve.trace",
        seed=cfg.seed,
        **MEET,
    )


def served_op(submit, submit_seconds: list):
    """One served request: build the spec, submit it, wait for the reply."""

    def op(request, span):
        with span.child("spec_build"):
            spec = QuerySpec(group=request.group, k=request.k)
        with span.child("submit"):
            started = time.perf_counter()
            future = submit(spec)
            submit_seconds.append(time.perf_counter() - started)
        with span.child("await_reply"):
            return future.result(timeout=REPLY_TIMEOUT_S)

    return op


def in_process_p50_ms(engine, requests) -> float:
    """Median in-process ``execute`` latency on the same specs (for the overhead metrics)."""
    seconds = []
    for request in requests:
        spec = QuerySpec(group=request.group, k=request.k)
        started = time.perf_counter()
        engine.execute(spec)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds) * 1e3


def verify_served(tally, label, submit, engine, requests) -> None:
    """Served answers must be bit-identical to in-process ``engine.execute``."""
    for index, request in enumerate(requests):
        spec = QuerySpec(group=request.group, k=request.k)
        try:
            got = answer(submit(spec).result(timeout=REPLY_TIMEOUT_S))
        except Exception as error:
            tally.check(False, f"{label}: check {index} raised {error!r}")
            continue
        tally.check(got == answer(engine.execute(spec)), f"{label}: check {index} differs from in-process")


def serve_stats_metrics(before: dict, after: dict, wall: float) -> dict:
    """Per-layer numbers from the difference of two ``server.stats()`` snapshots."""
    requests = after["total"]["requests"] - before["total"]["requests"]
    batches = after["total"]["batches"] - before["total"]["batches"]
    cpu = after["total"]["cpu_time"] - before["total"]["cpu_time"]
    return {
        "serve.batch_size_mean": requests / max(1, batches),
        "serve.worker_cpu_ms_per_request": cpu / max(1, requests) * 1e3,
        "serve.worker_busy_share": cpu / max(wall * SERVE_WORKERS, 1e-9),
        "serve.shed": after["server"]["shed"] - before["server"]["shed"],
        "serve.failed": after["server"]["failed"] - before["server"]["failed"],
        "serve.worker_deaths": after["server"]["worker_deaths"] - before["server"]["worker_deaths"],
    }


def run_serve_meet(cfg: RunConfig) -> dict:
    """GNNServer(workers=2): closed loop of 2 clients, then an open loop at 80 req/s.

    The two phases share ``cfg.seconds`` equally.
    """
    tally = Tally()
    recorder = cfg.recorder
    start_clock = Stopwatch()  # server construction to first reply, over all set-ups

    def build():
        clock = Stopwatch()
        directory = fresh_directory(cfg, "serve")
        with clock:
            points = dataset(cfg.scale)
            flat = FlatRTree.bulk_load(points, capacity=CAPACITY)
            path = directory / "snapshot-gen000000.npz"
            flat.save(path, generation=0)
            with start_clock:
                server = GNNServer(path, workers=SERVE_WORKERS)
        try:
            engine = GNNEngine.from_index(flat)
            trace = meet_trace(cfg, points)
            spec = QuerySpec(group=trace[0].group, k=trace[0].k)
            with clock, start_clock:
                first = server.submit(spec).result(timeout=REPLY_TIMEOUT_S)
            tally.check(answer(first) == answer(engine.execute(spec)), "serve_meet: first answer differs")
        except BaseException:
            server.close()
            raise
        return (server, engine, trace), clock

    (server, engine, trace), first_clock = build()
    try:
        verify_served(tally, "serve_meet", server.submit, engine, trace[: cfg.scale.verify_served])
        baseline_ms = in_process_p50_ms(engine, trace[:200])
        submit_seconds: list = []
        op = served_op(server.submit, submit_seconds)
        closed_loop(
            served_op(server.submit, []), trace,
            clients=2, seconds=warm_up_seconds(cfg), recorder=NullRecorder(),
        )
        stats_before = server.stats()
        phase, program_spans = timed_phase(
            cfg, lambda: closed_loop(op, trace, clients=2, seconds=cfg.seconds / 2, recorder=recorder)
        )
        stats_after = server.stats()
        tally.add_phase(phase, "serve_meet closed")
        metrics = closed_phase_metrics(phase)
        metrics.update(cost_metrics(*(
            stats_after["total"][key] - stats_before["total"][key]
            for key in ("node_accesses", "distance_computations", "requests")
        )))
        layer = serve_stats_metrics(stats_before, stats_after, phase.wall)
        layer["serve.submit_us"] = statistics.median(submit_seconds) * 1e6 if submit_seconds else 0.0
        layer["serve.overhead_ms_p50"] = metrics["query_ms_p50"]["value"] - baseline_ms

        opened = open_loop(
            lambda request: server.submit(QuerySpec(group=request.group, k=request.k)),
            trace,
            [request.arrival_s for request in trace],
            seconds=cfg.seconds / 2,
            limit_s=OPEN_LIMIT_S,
        )
        tally.add_phase(opened, "serve_meet open")
        metrics.update(latency_metrics(opened.samples, "open_ms"))
        metrics["missed_share"] = {"value": opened.missed / max(1, opened.due), "samples": opened.due}
        layer["loadgen.late_ms_p99"] = late_ms_p99(opened.late_s)
        layer["loadgen.cpu_share"] = opened.cpu_share
        detail = {
            "in_process_ms_p50": baseline_ms,
            "loadgen.cpu_share.closed": phase.cpu_share,
            "open.due": opened.due,
            "open.rate_per_s": OPEN_RATE_PER_S,
            "open.limit_ms": OPEN_LIMIT_S * 1e3,
        }
    finally:
        expected_gone = descendant_pids()
        close_started = time.perf_counter()
        server.close()
        close_s = time.perf_counter() - close_started
        leftovers = leftover_processes(expected_gone)
    layer["serve.close_s"] = close_s
    tally.check(not leftovers, f"serve_meet: processes left behind: {leftovers}")
    peak_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)  # the workers just reaped
    setup_clocks = [first_clock] + later_setups(cfg, build, lambda state: state[0].close())
    layer["serve.start_s"] = start_clock.total / len(setup_clocks)

    settings = {
        "points": cfg.scale.points,
        "capacity": CAPACITY,
        "workers": SERVE_WORKERS,
        "clients": 2,
        "trace_requests": len(trace),
        "server_defaults": defaults_of(
            GNNServer.__init__,
            ["window_s", "max_batch", "max_pending", "io_stall_s_per_access", "respawn_workers"],
        ),
        **MEET,
    }
    return finish(
        "serve_meet", tally, metrics, setup_clocks, peak_mb,
        settings=settings, callers=2, phase_wall_s=phase.wall, program_spans=program_spans,
        layer=layer, detail=detail,
    )


# ----------------------------------------------------------------------
# shard_scatter
# ----------------------------------------------------------------------
SCATTER = {"n": 16, "mbr_fraction": 0.04, "k": 8, "hotspots": 32, "zipf_exponent": 0.0}


def scatter_trace(cfg: RunConfig, points: np.ndarray):
    return request_trace(
        points,
        requests=cfg.scale.trace_requests,
        rate_per_s=OPEN_RATE_PER_S,  # arrival times are unused: this workload is closed-loop
        label="shard.trace",
        seed=cfg.seed,
        **SCATTER,
    )


def shard_stats_metrics(before: dict, after: dict) -> dict:
    """Per-layer numbers from the difference of two coordinator stats snapshots."""
    delta = {key: after[key] - before[key] for key in after if key != "cost"}
    cpu = after["cost"]["cpu_time"] - before["cost"]["cpu_time"]
    queries = max(1, delta["queries"])
    seen = max(1, delta["shards_contacted"] + delta["shards_pruned"])
    return {
        "shard.contact_rate": delta["shards_contacted"] / (queries * SHARDS),
        "shard.subqueries_per_query": delta["subqueries"] / queries,
        "shard.pruned_share": delta["shards_pruned"] / seen,
        "shard.node_cpu_ms_per_subquery": cpu / max(1, delta["subqueries"]) * 1e3,
        "shard.retries": delta["retries"],
        "shard.failed_subqueries": delta["failed_subqueries"],
        "shard.degraded_queries": delta["degraded_queries"],
        "shard.breaker_trips": delta["breaker_trips"],
    }


def shard_direct_probes(cfg: RunConfig, manifest, trace, engine) -> dict:
    """Coordinator-side costs timed by direct calls: bound scoring and wire framing."""
    calls = probe_calls(cfg.scale, 1000)
    requests = itertools.cycle(trace[:200])

    def bounds():
        request = next(requests)
        manifest.group_mindist_bounds(request.group, None, "sum")
        manifest.sample_kth_distance(request.group, request.k, None, "sum", shard_id=0)

    spec = QuerySpec(group=trace[0].group, k=trace[0].k)
    query = ShardQuery(request_id=1, payload=encode_spec(spec))
    reply = ShardReply(request_id=1, result=encode_result(engine.execute(spec)))

    def frames():
        unpack_frame(pack_frame(query))
        unpack_frame(pack_frame(reply))

    return {
        "shard.bounds_us": median_seconds(bounds, calls) * 1e6,
        "shard.frame_us": median_seconds(frames, calls) * 1e6,
    }


def start_federation(cfg: RunConfig, directory: Path, points: np.ndarray):
    """Partition, start one node process per shard, connect; returns (manifest, nodes, sharded, seconds)."""
    partition_clock, start_clock = Stopwatch(), Stopwatch()
    with partition_clock:
        manifest = partition_dataset(points, SHARDS, directory, capacity=CAPACITY)
    nodes = []
    sharded = None
    try:
        with start_clock:
            for shard in manifest.shards:
                node = ShardNodeProcess(shard.shard_id, directory / shard.path, workers=SHARD_WORKERS)
                nodes.append(node)
                node.start()
            sharded = ShardedEngine.connect(manifest, [node.address for node in nodes])
    except BaseException:
        stop_federation(cfg, nodes, sharded)
        raise
    return manifest, nodes, sharded, (partition_clock.total, start_clock.total)


def stop_federation(cfg: RunConfig, nodes, sharded) -> list[int]:
    """Close the coordinator and every node; returns pids that outlived it (killed)."""
    expected_gone = descendant_pids()
    try:
        if sharded is not None:
            sharded.close()
    finally:
        for node in nodes:
            node.close()
    return leftover_processes(expected_gone)


def run_shard_scatter(cfg: RunConfig) -> dict:
    """2 shard node processes over TCP loopback, closed loop of 2 clients."""
    tally = Tally()
    recorder = cfg.recorder
    partition_times, start_times = [], []
    # The unsharded engine the answers are checked against: not part of any set-up.
    engine = GNNEngine.from_index(FlatRTree.bulk_load(dataset(cfg.scale), capacity=CAPACITY))

    def build():
        clock = Stopwatch()
        directory = fresh_directory(cfg, "shard")
        with clock:
            points = dataset(cfg.scale)
            manifest, nodes, sharded, (partition_s, start_s) = start_federation(cfg, directory, points)
        partition_times.append(partition_s)
        start_times.append(start_s)
        try:
            trace = scatter_trace(cfg, points)
            spec = QuerySpec(group=trace[0].group, k=trace[0].k)
            with clock:
                first = sharded.execute(spec)
            tally.check(answer(first) == answer(engine.execute(spec)), "shard_scatter: first answer differs")
        except BaseException:
            stop_federation(cfg, nodes, sharded)
            raise
        return (nodes, sharded, trace, manifest), clock

    def teardown(state):
        leftovers = stop_federation(cfg, state[0], state[1])
        tally.check(not leftovers, f"shard_scatter: processes left behind: {leftovers}")

    state, first_clock = build()
    nodes, sharded, trace, manifest = state
    try:
        verify_served(tally, "shard_scatter", sharded.submit, engine, trace[: cfg.scale.verify_served])
        baseline_ms = in_process_p50_ms(engine, trace[:100])
        op = served_op(sharded.submit, [])
        closed_loop(
            served_op(sharded.submit, []), trace,
            clients=2, seconds=warm_up_seconds(cfg), recorder=NullRecorder(),
        )
        stats_before = sharded.stats()["coordinator"]
        phase, program_spans = timed_phase(
            cfg, lambda: closed_loop(op, trace, clients=2, seconds=cfg.seconds, recorder=recorder)
        )
        stats_after = sharded.stats()["coordinator"]
        tally.add_phase(phase, "shard_scatter")
        metrics = closed_phase_metrics(phase)
        metrics.update(cost_metrics(
            stats_after["cost"]["node_accesses"] - stats_before["cost"]["node_accesses"],
            stats_after["cost"]["distance_computations"] - stats_before["cost"]["distance_computations"],
            stats_after["queries"] - stats_before["queries"],
        ))
        layer = shard_stats_metrics(stats_before, stats_after)
        layer["shard.overhead_ms_p50"] = metrics["query_ms_p50"]["value"] - baseline_ms
        layer.update(shard_direct_probes(cfg, manifest, trace, engine))
        detail = {"in_process_ms_p50": baseline_ms, "loadgen.cpu_share.closed": phase.cpu_share}
    finally:
        teardown(state)
    peak_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)  # the node processes just reaped
    setup_clocks = [first_clock] + later_setups(cfg, build, teardown)
    layer["shard.partition_s"] = statistics.median(partition_times)
    layer["shard.start_s"] = statistics.median(start_times)

    settings = {
        "points": cfg.scale.points,
        "capacity": CAPACITY,
        "shards": SHARDS,
        "workers_per_shard": SHARD_WORKERS,
        "clients": 2,
        "transport": "tcp loopback",
        "trace_requests": len(trace),
        "coordinator_defaults": defaults_of(
            ShardCoordinator.__init__,
            ["timeout_s", "retries", "allow_degraded", "failure_threshold", "breaker_reset_s"],
        ),
        **SCATTER,
    }
    return finish(
        "shard_scatter", tally, metrics, setup_clocks, peak_mb,
        settings=settings, callers=2, phase_wall_s=phase.wall, program_spans=program_spans,
        layer=layer, detail=detail,
    )


# ----------------------------------------------------------------------
# write_mix
# ----------------------------------------------------------------------
WRITE_QUERY = {"n": 16, "mbr_fraction": 0.02, "k": 8}
ROUND = ("insert",) * 5 + ("delete",) + ("query",) * 2
#: What one full-scale cycle (stream, recover, compact) takes at the seed
#: commit.  A constant, not a measurement: the number of cycles, and so the
#: work done, depends on ``--seconds`` only, never on how fast the commit is.
NOMINAL_CYCLE_S = 10.0


def write_cycles(cfg: RunConfig) -> int:
    return max(1, round(cfg.seconds / NOMINAL_CYCLE_S))


def write_stream(cfg: RunConfig, points: np.ndarray):
    """The fixed op stream: ``(ops, insert points, query groups, check groups)``.

    Each round shuffles 5 inserts, 1 delete and 2 queries.  Even rounds
    delete a base record (a tombstone), odd rounds delete an earlier
    insert (a physical delta delete), so half of each.
    """
    rounds = cfg.scale.write_rounds
    rng = np.random.default_rng(derive_seed(cfg.seed, "write.stream"))
    inserts = new_points(points, 5 * rounds, "write.inserts", cfg.seed)
    shape = {"n": WRITE_QUERY["n"], "mbr_fraction": WRITE_QUERY["mbr_fraction"], "seed": cfg.seed}
    queries = query_groups(points, count=2 * rounds, label="write.queries", **shape)
    checks = query_groups(points, count=cfg.scale.verify_write, label="write.checks", **shape)
    base_victims = iter(rng.choice(len(points), size=rounds, replace=False).tolist())
    live_inserts: list[int] = []
    ops = []
    next_insert = next_query = 0
    for round_index in range(rounds):
        kinds = list(ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "insert":
                ops.append(("insert", next_insert))
                live_inserts.append(next_insert)
                next_insert += 1
            elif kind == "query":
                ops.append(("query", next_query))
                next_query += 1
            elif round_index % 2 == 0 or not live_inserts:
                ops.append(("delete_base", next(base_victims)))
            else:
                victim = live_inserts.pop(int(rng.integers(len(live_inserts))))
                ops.append(("delete_delta", victim))
    return ops, inserts, queries, checks


def model_arrays(model: dict) -> tuple[np.ndarray, np.ndarray]:
    """The dict model of live records as ``(points, record ids)`` arrays."""
    ids = np.fromiter(model.keys(), dtype=np.int64, count=len(model))
    return np.array(list(model.values()), dtype=np.float64), ids


def run_write_mix(cfg: RunConfig) -> dict:
    """Writes beside reads on one WAL-backed engine, then crash, recover, compact."""
    tally = Tally()
    recorder = cfg.recorder
    k = WRITE_QUERY["k"]
    wals = []  # every WAL handle opened, closed in finally

    def build():
        clock = Stopwatch()
        directory = fresh_directory(cfg, "write")
        with clock:
            points = dataset(cfg.scale)
            flat = FlatRTree.bulk_load(points, capacity=CAPACITY)
            GenerationStore(directory).publish(flat)
            engine = GNNEngine.recover(directory, fsync="interval")
        wals.append(engine.wal)
        stream = write_stream(cfg, points)
        spec = QuerySpec(group=stream[3][0], k=k)
        with clock:
            first = engine.execute(spec)
        expected = reference_answer(points, np.arange(len(points)), stream[3][0], k)
        tally.check(answer(first) == expected, "write_mix: first answer differs")
        model = dict(enumerate(points))
        return (directory, points, engine, stream, model), clock

    def run_cycle(state):
        directory, points, engine, (ops, inserts, queries, checks), model = state
        samples = {"insert": [], "delete": [], "query": []}
        inserted_ids: dict[int, int] = {}
        with recorder.span("client") as root:
            started = time.perf_counter()
            for index, (kind, target) in enumerate(ops):
                tally.attempted += 1
                op_started = time.perf_counter()
                try:
                    with root.child("request", request_id=index) as span:
                        if kind == "insert":
                            with span.child("insert"):
                                record_id = engine.insert(inserts[target])
                            inserted_ids[target] = record_id
                            model[record_id] = inserts[target]
                        elif kind == "query":
                            with span.child("spec_build"):
                                spec = QuerySpec(group=queries[target], k=k)
                            if span.enabled:
                                with span.child("plan"):
                                    engine.explain(spec)
                            with span.child("execute"):
                                result = engine.execute(spec)
                            costs[0] += result.cost.node_accesses
                            costs[1] += result.cost.distance_computations
                            costs[2] += 1
                        else:
                            record_id = target if kind == "delete_base" else inserted_ids[target]
                            with span.child("delete"):
                                removed = engine.delete(model[record_id], record_id)
                            if not removed:
                                raise RuntimeError(f"delete of live record {record_id} returned False")
                            del model[record_id]
                except Exception as error:
                    tally.failed += 1
                    if len(tally.notes) < 10:
                        tally.notes.append(f"write_mix: op {index} ({kind}) raised {error!r}")
                    continue
                ended = time.perf_counter()
                samples[kind.split("_")[0]].append((ended, ended - op_started))
            stream = Stopwatch()
            stream.total = time.perf_counter() - started

        check_specs = [QuerySpec(group=group, k=k) for group in checks]
        before = [answer(engine.execute(spec)) for spec in check_specs]
        delta_final = len(engine.overlay.delta) if engine.overlay is not None else 0
        wal_records = len(samples["insert"]) + len(samples["delete"])
        # The crash: from here on the engine is abandoned, never closed.

        recover, compact = Stopwatch(), Stopwatch()
        with recorder.span("recover"), recover:
            recovered = GNNEngine.recover(directory)
        wals.append(recovered.wal)
        for index, spec in enumerate(check_specs):
            tally.check(
                answer(recovered.execute(spec)) == before[index],
                f"write_mix: check {index} differs after recovery",
            )
        with recorder.span("compact"), compact:
            recovered.compact()
        live_points, live_ids = model_arrays(model)
        for index, spec in enumerate(check_specs):
            tally.check(
                answer(recovered.execute(spec)) == reference_answer(live_points, live_ids, checks[index], k),
                f"write_mix: check {index} differs from brute force after compact",
            )
        return {
            "samples": samples,
            "ops": sum(len(v) for v in samples.values()),
            "stream": stream,
            "recover": recover,
            "compact": compact,
            "wal_records": wal_records,
            "delta_final": delta_final,
        }

    cycles = []
    costs = [0, 0, 0]  # node accesses, distance computations, queries of the streams
    program_spans: list = []
    setup_clocks = []
    try:
        for _ in range(write_cycles(cfg)):  # every cycle starts from a fresh set-up
            state, clock = build()
            setup_clocks.append(clock)
            cycle, spans = timed_phase(cfg, lambda: run_cycle(state))
            program_spans.extend(spans)
            cycles.append(cycle)
        peak_mb = peak_rss_mb(resource.RUSAGE_SELF)
        while len(setup_clocks) < cfg.setup_repeats:
            setup_clocks.append(build()[1])
    finally:
        for wal in wals:
            wal.close()

    def pooled(kind):
        return [sample for cycle in cycles for sample in cycle["samples"][kind]]

    total_ops = sum(cycle["ops"] for cycle in cycles)
    metrics = {
        "ops_per_s": {
            "value": total_ops / sum(cycle["stream"].total for cycle in cycles),
            "samples": total_ops,
        },
        **latency_metrics(pooled("query"), "query_ms"),
        **latency_metrics(pooled("insert"), "insert_ms"),
        "recover_ms_per_record": median_metric(
            [cycle["recover"].total * 1e3 / max(1, cycle["wal_records"]) for cycle in cycles]
        ),
        "compact_s": median_metric([cycle["compact"].total for cycle in cycles]),
        **cost_metrics(*costs),
    }
    delete_ms = latency_metrics(pooled("delete"), "delete_ms")
    detail = {
        "ops_per_cycle": cycles[0]["ops"],
        "wal_records_per_cycle": cycles[0]["wal_records"],
        "delete_ms_p50": delete_ms.get("delete_ms_p50", {}).get("value"),
        "delta_size_final": cycles[0]["delta_final"],
    }
    settings = {
        "points": cfg.scale.points,
        "capacity": CAPACITY,
        "rounds": cfg.scale.write_rounds,
        "cycles": len(cycles),
        "round": "5 inserts, 1 delete (base/delta alternating), 2 queries, shuffled",
        "fsync": "interval",
        "callers": 1,
        **WRITE_QUERY,
    }
    phase_wall = sum(c[part].total for c in cycles for part in ("stream", "recover", "compact"))
    return finish(
        "write_mix", tally, metrics, setup_clocks, peak_mb,
        settings=settings, callers=1, phase_wall_s=phase_wall, program_spans=program_spans,
        detail=detail,
    )


WORKLOADS = {
    "fig51_mem": run_fig51_mem,
    "serve_meet": run_serve_meet,
    "shard_scatter": run_shard_scatter,
    "write_mix": run_write_mix,
}
