"""Tests for the observability layer: tracing, metrics, exposition, slow log.

The unit tests pin the span/metric primitives and the Prometheus text
renderer (validated with a tiny in-test parser — the repo takes no new
dependencies).  The integration tests enable observability around real
engines, servers and shard federations and pin the layer's core
contract: a query's span tree is *complete* (no orphan parents) and its
root attributes reconcile exactly with the engine's TreeStats counter
deltas and the result's reported cost.
"""

import io
import json
import urllib.request

import numpy as np
import pytest

from repro import GNNEngine, QuerySpec
from repro.obs import disable_all, enable_all, orphan_spans
from repro.obs import logging as obslog
from repro.obs import metrics as obsmetrics
from repro.obs import slowlog as obsslowlog
from repro.obs import trace as obstrace
from repro.obs.exposition import HttpExposition, render, render_dashboard, scrape_node
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Sample,
    coordinator_collector,
    counters_collector,
    histogram_family,
    server_collector,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    Tracer,
    child_span,
    finish_span,
    span_duration_s,
    start_span,
)


@pytest.fixture(autouse=True)
def obs_reset():
    """Every test starts and ends with observability fully disabled."""
    disable_all()
    yield
    disable_all()


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


@pytest.fixture()
def snapshot_path(rng, tmp_path):
    engine = GNNEngine(rng.uniform(0, 1000, size=(300, 2)), capacity=16)
    path = tmp_path / "snapshot-gen000000.npz"
    engine.snapshot().save(path, generation=0)
    return path


@pytest.fixture()
def federation(rng, tmp_path):
    from repro.shard import ShardNode, ShardedEngine, partition_dataset

    points = rng.uniform(0, 1000, size=(400, 2))
    manifest = partition_dataset(points, 2, tmp_path / "shards", capacity=16)
    nodes = [
        ShardNode(shard.shard_id, tmp_path / "shards" / shard.path, workers=1)
        for shard in manifest.shards
    ]
    addresses = [node.start() for node in nodes]
    engine = ShardedEngine.connect(manifest, addresses, timeout_s=30.0)
    yield engine, nodes, addresses
    engine.close()
    for node in nodes:
        node.close()


def parse_prometheus(text):
    """Tiny Prometheus text-format 0.0.4 parser (no new dependency).

    Returns ``(samples, types)`` where ``samples`` maps
    ``(name, sorted-label-tuple)`` to float values and ``types`` maps
    family names to their declared TYPE.
    """
    samples, types = {}, {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        metric, _, value = line.rpartition(" ")
        if "{" in metric:
            name, _, body = metric.partition("{")
            pairs = []
            for part in body.rstrip("}").split(","):
                if part:
                    key, _, raw = part.partition("=")
                    pairs.append((key, raw.strip('"')))
            labels = tuple(sorted(pairs))
        else:
            name, labels = metric, ()
        samples[(name, labels)] = float(value)
    return samples, types


# ----------------------------------------------------------------------
# spans and the tracer (pure units)
# ----------------------------------------------------------------------
class TestSpans:
    def test_start_span_shape_and_root_semantics(self):
        span = start_span("query", k=3)
        assert span["parent_id"] is None
        assert span["end_s"] is None
        assert span["attrs"] == {"k": 3}
        assert span["trace_id"] and span["span_id"]
        finish_span(span, outcome="ok")
        assert span["end_s"] >= span["start_s"]
        assert span["attrs"]["outcome"] == "ok"
        assert span_duration_s(span) >= 0.0

    def test_duration_is_zero_while_open(self):
        assert span_duration_s(start_span("open")) == 0.0

    def test_child_span_joins_parent_trace(self):
        parent = start_span("root")
        child = child_span(parent, "step", phase=1)
        assert child["trace_id"] == parent["trace_id"]
        assert child["parent_id"] == parent["span_id"]
        assert child["span_id"] != parent["span_id"]

    def test_spans_pickle_roundtrip(self):
        import pickle

        span = finish_span(child_span(start_span("root"), "hop", shard=2))
        assert pickle.loads(pickle.dumps(span)) == span

    def test_tracer_tree_reassembly(self):
        tracer = Tracer()
        root = tracer.start("query")
        plan = tracer.start("query.plan", parent=root)
        tracer.finish(plan)
        execute = tracer.start("query.execute", parent=root)
        inner = tracer.start("query.inner", parent=execute)
        tracer.finish(inner)
        tracer.finish(execute)
        tracer.finish(root, outcome="ok")

        tree = tracer.tree(root["trace_id"])
        assert tree["name"] == "query"
        assert [child["name"] for child in tree["children"]] == [
            "query.plan",
            "query.execute",
        ]
        assert tree["children"][1]["children"][0]["name"] == "query.inner"
        assert tracer.trace_ids() == [root["trace_id"]]

    def test_tree_is_none_for_unknown_or_multi_root_traces(self):
        tracer = Tracer()
        assert tracer.tree("nope") is None
        first = tracer.finish(tracer.start("a"))
        second = finish_span(
            start_span("b", trace_id=first["trace_id"])
        )
        tracer.export(second)
        assert tracer.tree(first["trace_id"]) is None  # two roots

    def test_orphan_spans_flags_missing_parents(self):
        root = finish_span(start_span("root"))
        child = finish_span(child_span(root, "child"))
        lost = finish_span(
            start_span("lost", trace_id=root["trace_id"], parent_id="gone")
        )
        assert orphan_spans([root, child]) == []
        assert orphan_spans([root, child, lost]) == [lost]
        assert orphan_spans([child]) == [child]  # parent not shipped

    def test_ring_keeps_newest_spans(self):
        tracer = Tracer(ring=4)
        for index in range(10):
            tracer.export(finish_span(start_span(f"s{index}")))
        names = [span["name"] for span in tracer.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_jsonl_sink_writes_one_valid_line_per_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(jsonl_path=path)
        tracer.finish(tracer.start("query", k=1))
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "query"
        assert record["attrs"] == {"k": 1}

    def test_module_gate_and_context_manager(self):
        assert obstrace.get() is None
        tracer = obstrace.enable(ring=8)
        assert obstrace.get() is tracer
        obstrace.disable()
        assert obstrace.get() is None
        with obstrace.active(ring=8) as scoped:
            assert obstrace.get() is scoped
        assert obstrace.get() is None


# ----------------------------------------------------------------------
# metric primitives and the registry
# ----------------------------------------------------------------------
class TestMetricsPrimitives:
    def test_counter_monotonic(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4.0

    def test_histogram_bucket_placement(self):
        histogram = Histogram("h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        state = histogram.state()
        assert state["buckets"] == [1, 1, 1, 1]  # last slot is +Inf overflow
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(5.555)

    def test_histogram_merge_state_adds_and_checks_shape(self):
        left = Histogram("h", buckets=(0.1, 1.0))
        right = Histogram("h", buckets=(0.1, 1.0))
        left.observe(0.05)
        right.observe(0.5)
        left.merge_state(right.state())
        assert left.state()["buckets"] == [1, 1, 0]
        assert left.count == 2
        with pytest.raises(ValueError):
            left.merge_state({"buckets": [1, 2], "sum": 0.0, "count": 1})

    def test_histogram_family_is_cumulative_with_inf(self):
        family = histogram_family("lat", (0.1, 1.0), [2, 3, 1], 4.2, 6)
        by_le = {
            sample.labels["le"]: sample.value
            for sample in family.samples
            if sample.name == "lat_bucket"
        }
        assert by_le == {"0.1": 2, "1.0": 5, "+Inf": 6}
        tail = {sample.name: sample.value for sample in family.samples[-2:]}
        assert tail == {"lat_sum": 4.2, "lat_count": 6}

    def test_registry_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total", "help")
        assert registry.counter("repro_x_total") is counter
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")

    def test_registry_snapshot_merge_roundtrip(self):
        source = MetricsRegistry()
        source.counter("repro_a_total").inc(3)
        source.gauge("repro_b").set(2)
        source.histogram("repro_c_seconds").observe(0.02)

        target = MetricsRegistry()
        target.counter("repro_a_total").inc(1)
        target.merge(source.snapshot())
        target.merge(source.snapshot())

        snapshot = target.snapshot()
        assert snapshot["repro_a_total"] == 7  # 1 + 3 + 3
        assert snapshot["repro_b"] == 4  # gauges sum across workers
        assert snapshot["repro_c_seconds"]["count"] == 2

    def test_merge_rejects_unknown_histogram_with_foreign_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.merge({"repro_h": {"buckets": [1, 2], "sum": 0.0, "count": 1}})


class _FakeServer:
    def stats(self):
        return {
            "server": {
                "submitted": 5,
                "completed": 4,
                "failed": 1,
                "shed": 0,
                "swaps": 2,
                "pending": 3,
                "workers_alive": 2,
                "worker_deaths": 1,
            },
            "scheduler": {"queued": 1, "in_flight": 2, "epoch": 7},
            "total": {"node_accesses": 10, "largest_batch": 4},
        }

    def latency_seconds(self):
        return [0.0002, 0.004, 2.0]


class _FakeCoordinator:
    def stats(self):
        return {
            "queries": 9,
            "subqueries": 20,
            "shards_contacted": 20,
            "shards_pruned": 7,
            "retries": 2,
            "degraded_queries": 1,
            "failed_subqueries": 2,
            "breaker_trips": 1,
            "breaker_fast_fails": 3,
            "cost": {"algorithm": "mbm", "node_accesses": 40},
        }

    def breaker_states(self):
        return {(0, "127.0.0.1:9000"): "closed", (1, "127.0.0.1:9001"): "open"}


class TestCollectors:
    def test_tree_collector_tracks_live_engine_stats(self, rng):
        engine = GNNEngine(rng.uniform(0, 1000, size=(200, 2)), capacity=16)
        registry = MetricsRegistry()
        registry.register(counters_collector("repro_tree", lambda: engine.flat.stats))
        engine.execute(QuerySpec(group=rng.uniform(400, 600, size=(4, 2)), k=2))
        samples, types = parse_prometheus(render(registry))
        assert types["repro_tree_node_accesses_total"] == "counter"
        assert (
            samples[("repro_tree_node_accesses_total", ())]
            == engine.flat.stats.node_accesses
            > 0
        )

    def test_server_collector_shapes(self):
        registry = MetricsRegistry()
        registry.register(server_collector(_FakeServer()))
        samples, types = parse_prometheus(render(registry))
        assert samples[("repro_serve_requests_total", (("outcome", "completed"),))] == 4
        assert samples[("repro_serve_requests_total", (("outcome", "shed"),))] == 0
        assert samples[("repro_serve_worker_deaths_total", ())] == 1
        assert samples[("repro_serve_pending", ())] == 3
        assert samples[("repro_serve_scheduler_epoch", ())] == 7
        assert samples[("repro_serve_worker_node_accesses_total", ())] == 10
        assert samples[("repro_serve_worker_largest_batch", ())] == 4
        assert types["repro_serve_worker_largest_batch"] == "gauge"
        assert types["repro_serve_latency_seconds"] == "histogram"
        assert samples[("repro_serve_latency_seconds_count", ())] == 3
        assert samples[("repro_serve_latency_seconds_bucket", (("le", "+Inf"),))] == 3

    def test_coordinator_collector_shapes(self):
        registry = MetricsRegistry()
        registry.register(coordinator_collector(_FakeCoordinator()))
        samples, types = parse_prometheus(render(registry))
        assert samples[("repro_shard_queries_total", ())] == 9
        assert samples[("repro_shard_retries_total", ())] == 2
        assert samples[("repro_shard_cost_node_accesses_total", ())] == 40
        # The non-numeric "algorithm" entry of the cost dict is skipped.
        assert not any(
            "algorithm" in name for (name, _labels) in samples
        )
        key = (
            "repro_shard_breaker_state",
            (("replica", "127.0.0.1:9001"), ("shard", "1")),
        )
        assert samples[key] == 2  # open
        assert types["repro_shard_breaker_state"] == "gauge"


# ----------------------------------------------------------------------
# rendering and the HTTP endpoint
# ----------------------------------------------------------------------
class TestExposition:
    def test_render_escapes_labels_and_formats_values(self):
        registry = MetricsRegistry()
        registry.counter("repro_plain_total", "a help line").inc(2)

        def weird():
            return [
                MetricFamily(
                    "repro_weird",
                    "gauge",
                    "",
                    [Sample("repro_weird", {"path": 'a"b\nc\\d'}, 1.5)],
                )
            ]

        registry.register(weird)
        text = render(registry)
        assert '# HELP repro_plain_total a help line' in text
        assert 'path="a\\"b\\nc\\\\d"' in text
        samples, types = parse_prometheus(text)
        assert samples[("repro_plain_total", ())] == 2
        assert types["repro_plain_total"] == "counter"

    def test_http_endpoints(self):
        registry = MetricsRegistry()
        registry.counter("repro_http_total").inc(5)
        exposition = HttpExposition(registry, stats_fn=lambda: {"answer": 42})
        try:
            with urllib.request.urlopen(exposition.url + "/metrics") as response:
                assert response.status == 200
                assert "0.0.4" in response.headers["Content-Type"]
                samples, _ = parse_prometheus(response.read().decode())
            assert samples[("repro_http_total", ())] == 5
            with urllib.request.urlopen(exposition.url + "/stats") as response:
                assert json.loads(response.read()) == {"answer": 42}
            with urllib.request.urlopen(exposition.url + "/healthz") as response:
                assert response.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(exposition.url + "/nope")
        finally:
            exposition.close()


# ----------------------------------------------------------------------
# slow-query log and structured logging
# ----------------------------------------------------------------------
class TestSlowLog:
    def test_fast_queries_are_observed_not_recorded(self, rng):
        log = SlowQueryLog(threshold_s=0.5)
        spec = QuerySpec(group=rng.uniform(0, 1, size=(3, 2)), k=1)
        assert log.observe(0.001, kind="engine", spec=spec) is None
        assert (log.observed, log.recorded) == (1, 0)
        assert log.entries() == []

    def test_slow_queries_record_structured_entries(self, rng, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_s=0.01, jsonl_path=path)
        spec = QuerySpec(group=rng.uniform(0, 1, size=(4, 2)), k=2, aggregate="max")
        record = log.observe(
            0.2,
            kind="coordinator",
            spec=spec,
            cost={"node_accesses": 7},
            trace_id="t-1",
            shards=[{"shard": 0, "elapsed_s": 0.1, "attempts": 2, "outcome": "ok"}],
            degraded=False,
        )
        assert record["latency_s"] == 0.2
        assert record["spec"]["group_size"] == 4
        assert record["spec"]["aggregate"] == "max"
        assert record["cost"] == {"node_accesses": 7}
        assert record["trace_id"] == "t-1"
        assert record["shards"][0]["attempts"] == 2
        assert record["degraded"] is False
        assert log.entries() == [record]
        log.close()
        assert json.loads(path.read_text().splitlines()[0]) == json.loads(
            json.dumps(record, default=str)
        )

    def test_ring_capacity_bounds_entries(self, rng):
        log = SlowQueryLog(threshold_s=0.0, capacity=3)
        for index in range(6):
            log.observe(0.01 * (index + 1), kind="engine", marker=index)
        assert [entry["marker"] for entry in log.entries()] == [3, 4, 5]
        assert log.recorded == 6


class TestStructuredLogging:
    def test_events_are_json_lines_on_the_stream(self):
        stream = io.StringIO()
        obslog.enable(stream=stream)
        obslog.get_logger("test.component").info("unit.tested", attempt=3)
        obslog.disable()
        record = json.loads(stream.getvalue().splitlines()[0])
        assert record["level"] == "info"
        assert record["component"] == "test.component"
        assert record["event"] == "unit.tested"
        assert record["attempt"] == 3
        assert record["ts"] > 0

    def test_disabled_logging_emits_nothing(self):
        stream = io.StringIO()
        obslog.enable(stream=stream)
        obslog.disable()
        obslog.get_logger("test.component").warning("dropped")
        assert stream.getvalue() == ""

    def test_enable_all_switches_every_subsystem(self):
        tracer, registry, slow = enable_all(log_stream=io.StringIO())
        assert obstrace.get() is tracer
        assert obsmetrics.get() is registry
        assert obsslowlog.get() is slow
        assert obslog.is_enabled()
        disable_all()
        assert obstrace.get() is None
        assert obsmetrics.get() is None
        assert obsslowlog.get() is None
        assert not obslog.is_enabled()


# ----------------------------------------------------------------------
# the pinned reconciliation contract
# ----------------------------------------------------------------------
class TestReconciliation:
    def test_query_span_reconciles_with_tree_stats_delta(self, rng):
        """The root span's counters == result.cost == TreeStats delta.

        This is the accounting contract the whole layer rests on: the
        trace reports exactly the work the index charged, no more, no
        less.
        """
        points = rng.uniform(0, 1000, size=(400, 2))
        engine = GNNEngine(points, capacity=16)
        tracer, _, _ = enable_all(log_stream=io.StringIO())

        before = engine.flat.stats.snapshot()
        spec = QuerySpec(group=rng.uniform(300, 700, size=(5, 2)), k=3, algorithm="mbm")
        result = engine.execute(spec)
        after = engine.flat.stats.snapshot()

        assert result.trace_id is not None
        spans = tracer.spans(result.trace_id)
        assert orphan_spans(spans) == []
        tree = tracer.tree(result.trace_id)
        assert tree["name"] == "query"
        assert {child["name"] for child in tree["children"]} == {
            "query.plan",
            "query.execute",
        }

        attrs = tree["attrs"]
        delta = {
            key: after[key] - before[key]
            for key in ("node_accesses", "distance_computations")
        }
        assert attrs["outcome"] == "ok"
        assert attrs["node_accesses"] == result.cost.node_accesses
        assert attrs["node_accesses"] == delta["node_accesses"] > 0
        assert attrs["distance_computations"] == result.cost.distance_computations
        assert attrs["distance_computations"] == delta["distance_computations"] > 0

    #: The counters every execution mode must agree on.
    RECONCILED = ("node_accesses", "distance_computations")

    def test_dirty_engine_query_reconciles_with_tree_stats_delta(self, rng):
        """Dirty: the delta scan is charged to the base's TreeStats too.

        It used to be brute-forced beside the traversal and charged to
        ``result.cost`` only (974 DC reported against 814 charged here).
        """
        points = rng.uniform(0, 1000, size=(5000, 2))
        engine = GNNEngine(points, capacity=16)
        for point in rng.uniform(0, 1000, size=(40, 2)):
            engine.insert(point)
        assert engine.delete(points[0], 0)
        spec = QuerySpec(group=rng.uniform(300, 700, size=(4, 2)), k=5, algorithm="mbm")
        before = engine.flat.stats.snapshot()
        result = engine.execute(spec)
        after = engine.flat.stats.snapshot()
        assert result.cost.algorithm.endswith("+overlay")
        for key in self.RECONCILED:
            assert getattr(result.cost, key) == after[key] - before[key] > 0, key

    def test_served_request_reconciles_with_server_stats(self, snapshot_path, rng):
        """Served: a solo request's cost == the ``server.stats()["total"]`` delta.

        The key sets are the ones ``benchmarks/gnnbench/workloads.py``
        subtracts snapshot from snapshot, so they are pinned with it.
        """
        from repro.serve import GNNServer

        with GNNServer(snapshot_path, workers=1, window_s=0.001) as server:
            before = server.stats()
            spec = QuerySpec(group=rng.uniform(300, 700, size=(5, 2)), k=3)
            result = server.submit(spec).result(timeout=60)
            after = server.stats()

        for key in self.RECONCILED:
            delta = after["total"][key] - before["total"][key]
            assert getattr(result.cost, key) == delta > 0, key
        assert after["total"]["requests"] - before["total"]["requests"] == 1
        assert set(after) == {"server", "latency_ms", "scheduler", "workers", "total"}
        assert set(after["server"]) == {
            "submitted", "completed", "failed", "shed", "swaps", "pending",
            "workers_alive", "worker_deaths",
        }
        assert set(after["scheduler"]) == {"queued", "in_flight", "epoch", "snapshot_path"}
        assert set(before["total"]) == set(after["total"]) == set(after["workers"][0]) == {
            "requests", "batches", "largest_batch", "node_accesses", "leaf_accesses",
            "distance_computations", "cpu_time", "io_stall_s", "snapshot_swaps",
        }

    def test_federated_query_reconciles_with_coordinator_and_node_stats(
        self, federation, rng
    ):
        """Sharded: result.cost == coordinator ``stats()["cost"]`` delta ==
        the sum of the contacted nodes' ``stats()["total"]`` deltas."""
        engine, nodes, _addresses = federation
        coordinator_before = engine.stats()["coordinator"]
        nodes_before = [node.stats()["total"] for node in nodes]
        result = engine.execute(QuerySpec(group=rng.uniform(100, 900, size=(4, 2)), k=3))
        coordinator_after = engine.stats()["coordinator"]
        nodes_after = [node.stats()["total"] for node in nodes]

        assert result.shards_contacted
        for key in self.RECONCILED:
            served = [after[key] - before[key] for before, after in zip(nodes_before, nodes_after)]
            federated = coordinator_after["cost"][key] - coordinator_before["cost"][key]
            contacted = sum(served[shard] for shard in result.shards_contacted)
            assert getattr(result.cost, key) == federated == contacted > 0, key
            assert all(served[shard] == 0 for shard in result.shards_pruned), key
        # gnnbench subtracts every non-"cost" entry key by key.
        assert set(coordinator_after) == {
            "queries", "subqueries", "shards_contacted", "shards_pruned", "retries",
            "degraded_queries", "failed_subqueries", "breaker_trips",
            "breaker_fast_fails", "neighbors_merged", "cost",
        }
        merged = coordinator_after["neighbors_merged"] - coordinator_before["neighbors_merged"]
        assert merged >= len(result.neighbors) == 3
        assert all(
            isinstance(value, (int, float))
            for key, value in coordinator_after.items()
            if key != "cost"
        )
        assert list(coordinator_after["cost"]) == list(result.cost.as_dict()) == [
            "algorithm", "node_accesses", "leaf_accesses", "page_faults",
            "distance_computations", "page_reads", "block_reads", "cpu_time",
        ]

    def test_untraced_execution_attaches_no_trace_id(self, rng):
        engine = GNNEngine(rng.uniform(0, 1000, size=(100, 2)), capacity=16)
        result = engine.execute(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=1))
        assert result.trace_id is None

    def test_slow_log_captures_engine_queries(self, rng):
        engine = GNNEngine(rng.uniform(0, 1000, size=(200, 2)), capacity=16)
        enable_all(slow_threshold_s=0.0, log_stream=io.StringIO())
        result = engine.execute(
            QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2)
        )
        entries = obsslowlog.get().entries()
        assert len(entries) == 1
        assert entries[0]["kind"] == "query"
        assert entries[0]["trace_id"] == result.trace_id
        assert entries[0]["cost"]["node_accesses"] == result.cost.node_accesses


# ----------------------------------------------------------------------
# serving integration: traces cross the worker boundary
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_served_query_yields_complete_span_tree(self, snapshot_path, rng):
        from repro.serve import GNNServer

        tracer, _, slow = enable_all(
            slow_threshold_s=0.0, log_stream=io.StringIO()
        )
        with GNNServer(snapshot_path, workers=1, window_s=0.001) as server:
            spec = QuerySpec(group=rng.uniform(200, 800, size=(4, 2)), k=2)
            result = server.submit(spec).result(timeout=60)
        assert result.trace_id is not None
        spans = tracer.spans(result.trace_id)
        assert orphan_spans(spans) == []
        tree = tracer.tree(result.trace_id)
        assert tree["name"] == "serve.request"
        assert tree["attrs"]["outcome"] == "ok"
        worker_spans = [span for span in spans if span["name"] == "serve.worker"]
        assert len(worker_spans) == 1
        assert worker_spans[0]["parent_id"] == tree["span_id"]
        assert worker_spans[0]["attrs"]["node_accesses"] >= 0
        assert worker_spans[0]["attrs"]["queue_wait_s"] >= 0.0
        # The serving front feeds the slow-query log with the measured
        # request latency and the trace id of the span tree above.
        serve_entries = [
            entry for entry in slow.entries() if entry["kind"] == "serve"
        ]
        assert len(serve_entries) == 1
        assert serve_entries[0]["trace_id"] == result.trace_id
        assert serve_entries[0]["cost"]["algorithm"] == result.cost.algorithm

    def test_server_exposition_scrapes_mid_traffic(self, snapshot_path, rng):
        from repro.serve import GNNServer

        with GNNServer(snapshot_path, workers=1, window_s=0.001) as server:
            specs = [
                QuerySpec(group=rng.uniform(200, 800, size=(3, 2)), k=1)
                for _ in range(8)
            ]
            futures = [server.submit(spec) for spec in specs]
            host, port = server.start_exposition()
            # Idempotent: a second call reuses the listener.
            assert server.start_exposition() == (host, port)
            url = f"http://{host}:{port}"
            for future in futures:
                future.result(timeout=60)
            with urllib.request.urlopen(url + "/metrics") as response:
                samples, types = parse_prometheus(response.read().decode())
            with urllib.request.urlopen(url + "/stats") as response:
                stats = json.loads(response.read())
        assert types["repro_serve_requests_total"] == "counter"
        completed = samples[
            ("repro_serve_requests_total", (("outcome", "completed"),))
        ]
        assert completed == 8
        assert samples[("repro_serve_latency_seconds_count", ())] == 8
        assert stats["server"]["completed"] == 8


# ----------------------------------------------------------------------
# sharding integration: traces cross the federation, STATS scrapes work
# ----------------------------------------------------------------------
class TestShardIntegration:
    def test_federated_query_yields_complete_span_tree(self, federation, rng):
        engine, _nodes, _addresses = federation
        tracer, _, _ = enable_all(log_stream=io.StringIO())
        spec = QuerySpec(group=rng.uniform(100, 900, size=(4, 2)), k=3)
        result = engine.execute(spec)

        assert result.trace_id is not None
        spans = tracer.spans(result.trace_id)
        assert orphan_spans(spans) == []
        tree = tracer.tree(result.trace_id)
        assert tree["name"] == "shard.query"
        assert tree["attrs"]["outcome"] == "ok"
        names = {span["name"] for span in spans}
        assert {"shard.route", "shard.dispatch", "shard.attempt", "shard.merge"} <= names
        # Worker-side spans crossed two process hops and still parent up.
        assert "serve.request" in names
        assert "serve.worker" in names
        attempts = [span for span in spans if span["name"] == "shard.attempt"]
        assert all(span["attrs"]["attempt"] >= 1 for span in attempts)
        # The root reconciles with the merged cost the coordinator reports.
        assert tree["attrs"]["node_accesses"] == result.cost.node_accesses

    def test_stats_wire_op_and_node_exposition(self, federation, rng):
        engine, nodes, addresses = federation
        engine.execute(QuerySpec(group=rng.uniform(100, 900, size=(3, 2)), k=1))

        payload = scrape_node(addresses[0])
        assert payload["shard_id"] == 0
        assert "generation" in payload
        assert payload["stats"]["shard"]["shard_id"] == 0
        assert "metrics" not in payload  # no registry attached yet

        http_host, http_port = nodes[0].start_exposition()
        payload = scrape_node(f"{addresses[0][0]}:{addresses[0][1]}")
        samples, _ = parse_prometheus(payload["metrics"])
        assert ("repro_serve_submitted_total", ()) in samples
        with urllib.request.urlopen(
            f"http://{http_host}:{http_port}/metrics"
        ) as response:
            http_samples, _ = parse_prometheus(response.read().decode())
        assert ("repro_serve_submitted_total", ()) in http_samples

        dashboard = render_dashboard(
            [(f"{addresses[0][0]}:{addresses[0][1]}", payload)]
        )
        assert "shard 0" in dashboard
        assert "requests:" in dashboard
        unreachable = render_dashboard([("gone:1", ConnectionError("refused"))])
        assert "UNREACHABLE" in unreachable
