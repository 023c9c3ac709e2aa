"""Tests for the observability layer: tracing, slow traces, metrics, exposition.

The unit tests pin the span/metric primitives and the Prometheus text
renderer (validated with a tiny in-test parser — the repo takes no new
dependencies).  The integration tests enable observability around real
engines, servers and shard federations and pin the layer's core
contract: a query's span tree is *complete* (no orphan parents) and its
root attributes reconcile exactly with the result's reported cost (and a
served query's with the server's counter deltas).
"""

import io
import json
import socket
import urllib.request

import numpy as np
import pytest

from repro import GNNEngine, QuerySpec
from repro.core.types import QueryCost
from repro.obs import disable_all, enable_all, orphan_spans
from repro.obs import logging as obslog
from repro.obs.__main__ import main as obs_main
from repro.obs import trace as obstrace
from repro.obs.exposition import HttpExposition, render, render_dashboard, scrape_node
from repro.obs.metrics import (
    MetricFamily,
    MetricsRegistry,
    Sample,
    coordinator_collector,
    counters_collector,
    histogram_family,
    server_collector,
)
from repro.obs.trace import (
    SLOW_TRACES,
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
def start_federation(rng, tmp_path):
    """Start ``start_federation(shards)`` in-process nodes; all closed at teardown."""
    from repro.shard import ShardNode, ShardedEngine, partition_dataset

    opened = []

    def start(shards):
        points = rng.uniform(0, 1000, size=(400, 2))
        directory = tmp_path / f"shards-{len(opened)}"
        manifest = partition_dataset(points, shards, directory, capacity=16)
        nodes = [
            ShardNode(shard.shard_id, directory / shard.path, workers=1)
            for shard in manifest.shards
        ]
        addresses = [node.start() for node in nodes]
        engine = ShardedEngine.connect(manifest, addresses, timeout_s=30.0)
        opened.append((engine, nodes))
        return engine, nodes, addresses

    yield start
    for engine, nodes in opened:
        engine.close()
        for node in nodes:
            node.close()


@pytest.fixture()
def federation(start_federation):
    return start_federation(2)


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _names(tree):
    """Every span name in an assembled tree, depth first."""
    return [tree["name"], *(name for child in tree["children"] for name in _names(child))]


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
        assert {span["trace_id"] for span in tracer.spans()} == {root["trace_id"]}

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
        exported = [finish_span(start_span(f"s{index}")) for index in range(10)]
        for span in exported:
            tracer.export(span)
        names = [span["name"] for span in tracer.spans()]
        assert names == ["s6", "s7", "s8", "s9"]
        # The per-trace view forgets evicted spans with the ring.
        assert tracer.spans(exported[0]["trace_id"]) == []
        assert tracer.spans(exported[9]["trace_id"]) == [exported[9]]
        assert [span["trace_id"] for span in tracer.spans()] == [
            span["trace_id"] for span in exported[6:]
        ]

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
    def test_histogram_bucket_placement(self):
        """A value on a bound counts in that bound's bucket; past the last, only in +Inf."""

        class Server:
            def stats(self):
                return {}

            def latency_seconds(self):
                return [0.0001, 0.004, 0.05, 10.0]

        registry = MetricsRegistry()
        registry.register(server_collector(Server()))
        samples, _ = parse_prometheus(render(registry))
        buckets = {
            dict(labels)["le"]: value
            for (name, labels), value in samples.items()
            if name == "repro_serve_latency_seconds_bucket"
        }
        assert (buckets["0.0001"], buckets["0.005"], buckets["0.05"]) == (1, 2, 3)
        assert (buckets["5.0"], buckets["+Inf"]) == (3, 4)
        assert samples[("repro_serve_latency_seconds_count", ())] == 4
        assert samples[("repro_serve_latency_seconds_sum", ())] == pytest.approx(10.0541)

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

    def test_registry_collects_in_registration_order(self):
        registry = MetricsRegistry()
        registry.register(lambda: [MetricFamily("repro_a", "gauge")])
        registry.register(lambda: [MetricFamily("repro_b", "gauge"), MetricFamily("repro_c", "gauge")])
        assert [family.name for family in registry.collect()] == ["repro_a", "repro_b", "repro_c"]


def _constant_collector(name, kind, value, help=""):
    """A collector exporting one unlabelled sample."""
    return lambda: [MetricFamily(name, kind, help, [Sample(name, {}, value)])]


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
    def test_counters_collector_tracks_live_query_costs(self, rng):
        engine = GNNEngine(rng.uniform(0, 1000, size=(200, 2)), capacity=16)
        totals = QueryCost()
        registry = MetricsRegistry()
        registry.register(counters_collector("repro_queries", lambda: totals))
        result = engine.execute(QuerySpec(group=rng.uniform(400, 600, size=(4, 2)), k=2))
        totals.merge(result.cost)
        samples, types = parse_prometheus(render(registry))
        assert types["repro_queries_node_accesses_total"] == "counter"
        assert (
            samples[("repro_queries_node_accesses_total", ())]
            == result.cost.node_accesses
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
        registry.register(_constant_collector("repro_plain_total", "counter", 2, "a help line"))

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
        registry.register(_constant_collector("repro_http_total", "counter", 5))
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
# slow traces and structured logging
# ----------------------------------------------------------------------
class TestSlowTraces:
    def test_fast_roots_are_not_kept(self):
        tracer = Tracer(slow_threshold_s=0.5)
        tracer.finish(tracer.start("query"))
        assert tracer.slow_traces() == []

    def test_no_threshold_keeps_nothing(self):
        tracer = Tracer()
        root = tracer.start("query")
        root["start_s"] -= 10.0  # a ten-second query
        tracer.finish(root)
        assert tracer.slow_traces() == []

    def test_slow_root_keeps_its_assembled_tree(self):
        tracer = Tracer(slow_threshold_s=0.0)
        other = tracer.finish(tracer.start("unrelated"))
        root = tracer.start("shard.query", k=3)
        dispatch = tracer.start("shard.dispatch", parent=root, shard=0)
        # A root exported in the same call as its children still sees them.
        remote = finish_span(child_span(dispatch, "serve.request"))
        tracer.export(finish_span(dispatch), remote)
        tracer.finish(root, outcome="ok")
        kept = tracer.slow_traces()
        assert [tree["trace_id"] for tree in kept] == [other["trace_id"], root["trace_id"]]
        tree = kept[-1]
        assert _names(tree) == ["shard.query", "shard.dispatch", "serve.request"]
        assert tree["attrs"] == {"k": 3, "outcome": "ok"}

    def test_only_outermost_roots_count(self):
        tracer = Tracer(slow_threshold_s=0.0)
        # A span parented under a remote caller's span is that caller's
        # child, not a query of its own.
        tracer.export(finish_span(start_span("serve.request", trace_id="t", parent_id="p")))
        assert tracer.slow_traces() == []

    def test_served_root_exported_with_its_worker_span(self):
        tracer = Tracer(slow_threshold_s=0.0)
        root = finish_span(start_span("serve.request"))
        worker = finish_span(child_span(root, "serve.worker"))
        tracer.export(root, worker)
        assert [_names(tree) for tree in tracer.slow_traces()] == [["serve.request", "serve.worker"]]

    def test_capacity_keeps_the_newest(self):
        tracer = Tracer(slow_threshold_s=0.0)
        roots = [tracer.finish(tracer.start(f"q{index}")) for index in range(SLOW_TRACES + 3)]
        kept = tracer.slow_traces()
        assert len(kept) == SLOW_TRACES
        assert [tree["name"] for tree in kept] == [root["name"] for root in roots[3:]]


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
        stream = io.StringIO()
        tracer = enable_all(log_stream=stream)
        assert obstrace.get() is tracer
        assert tracer.slow_threshold_s == obstrace.DEFAULT_SLOW_THRESHOLD_S
        obslog.get_logger("test.component").info("logged")
        disable_all()
        assert obstrace.get() is None
        obslog.get_logger("test.component").info("dropped")
        assert [json.loads(line)["event"] for line in stream.getvalue().splitlines()] == [
            "logged"
        ]
        tracer = enable_all(slow_threshold_s=0.25, log_stream=io.StringIO())
        assert tracer.slow_threshold_s == 0.25


# ----------------------------------------------------------------------
# the pinned reconciliation contract
# ----------------------------------------------------------------------
class TestReconciliation:
    def test_query_span_reconciles_with_result_cost(self, rng):
        """The root span's counters == result.cost.

        This is the accounting contract the whole layer rests on: the
        trace reports exactly the work the query's record was charged,
        no more, no less.
        """
        points = rng.uniform(0, 1000, size=(400, 2))
        engine = GNNEngine(points, capacity=16)
        tracer = enable_all(log_stream=io.StringIO())

        spec = QuerySpec(group=rng.uniform(300, 700, size=(5, 2)), k=3, algorithm="mbm")
        result = engine.execute(spec)

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
        assert attrs["outcome"] == "ok"
        assert attrs["node_accesses"] == result.cost.node_accesses > 0
        assert attrs["distance_computations"] == result.cost.distance_computations > 0
        # Every field of the result's cost, and the plan, ride on the root.
        assert result.cost.as_dict().items() <= attrs.items()
        assert attrs["plan"] == "mbm"
        assert attrs["rationale"] == tree["children"][0]["attrs"]["rationale"]

    #: The counters every execution mode must agree on.
    RECONCILED = ("node_accesses", "distance_computations")

    def test_dirty_engine_query_span_reconciles_with_result_cost(self, rng):
        """Dirty: the delta pages are charged to the query's record, and the span reports it."""
        points = rng.uniform(0, 1000, size=(5000, 2))
        engine = GNNEngine(points, capacity=16)
        for point in rng.uniform(0, 1000, size=(40, 2)):
            engine.insert(point)
        assert engine.delete(points[0], 0)
        tracer = enable_all(log_stream=io.StringIO())
        spec = QuerySpec(group=rng.uniform(300, 700, size=(4, 2)), k=5, algorithm="mbm")
        result = engine.execute(spec)
        assert result.cost.algorithm.endswith("+overlay")
        attrs = tracer.tree(result.trace_id)["attrs"]
        for key in self.RECONCILED:
            assert attrs[key] == getattr(result.cost, key) > 0, key

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
        tracer = enable_all(slow_threshold_s=0.0, log_stream=io.StringIO())
        result = engine.execute(
            QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2, label="lunch")
        )
        (slow,) = tracer.slow_traces()
        assert slow["name"] == "query"
        assert slow["trace_id"] == result.trace_id
        assert slow["attrs"]["label"] == "lunch"
        assert slow["attrs"]["node_accesses"] == result.cost.node_accesses
        assert slow["attrs"]["algorithm"] == result.cost.algorithm

    def test_handed_in_plan_still_lands_on_the_root(self, rng):
        """``execute_many`` plans up front, so its per-query roots have no
        ``query.plan`` child; the plan's algorithm and rationale are on the
        root all the same."""
        engine = GNNEngine(rng.uniform(0, 1000, size=(200, 2)), capacity=16)
        tracer = enable_all(slow_threshold_s=0.0, log_stream=io.StringIO())
        spec = QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2, aggregate="max")
        (result,) = engine.execute_many([spec])
        tree = tracer.tree(result.trace_id)
        assert _names(tree) == ["query", "query.execute"]
        plan = engine.explain(spec)
        assert tree["attrs"]["plan"] == plan.algorithm.name
        assert tree["attrs"]["rationale"] == plan.rationale
        assert tracer.slow_traces() == [tree]


# ----------------------------------------------------------------------
# serving integration: traces cross the worker boundary
# ----------------------------------------------------------------------
class TestServingIntegration:
    def test_served_query_yields_complete_span_tree(self, snapshot_path, rng):
        from repro.serve import GNNServer

        tracer = enable_all(slow_threshold_s=0.0, log_stream=io.StringIO())
        with GNNServer(snapshot_path, workers=1, window_s=0.001) as server:
            spec = QuerySpec(group=rng.uniform(200, 800, size=(4, 2)), k=2, label="dinner")
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
        # The slow trace is the request's own tree: one record per query.
        (slow,) = tracer.slow_traces()
        assert slow["trace_id"] == result.trace_id
        assert slow["attrs"]["label"] == "dinner"
        (worker,) = slow["children"]
        assert worker["attrs"]["node_accesses"] == result.cost.node_accesses

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
        tracer = enable_all(log_stream=io.StringIO())
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
        # One pilot (round 0) sent without a ceiling, then the wave
        # (round 1) under the pilot's k-th distance.
        route = next(span for span in spans if span["name"] == "shard.route")
        assert "tau0" not in route["attrs"]
        dispatches = sorted(
            (span for span in spans if span["name"] == "shard.dispatch"),
            key=lambda span: span["attrs"]["round"],
        )
        assert [span["attrs"]["round"] for span in dispatches] == [0, 1]
        pilot, wave = dispatches
        assert "within" not in pilot["attrs"]
        assert wave["attrs"]["within"] >= result.distances()[-1]
        assert wave["start_s"] >= pilot["end_s"]
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


class TestObsCommandLine:
    """``python -m repro.obs`` (its ``main``) scraping live shard nodes."""

    @staticmethod
    def _address(address):
        return f"{address[0]}:{address[1]}"

    def test_dashboard_of_live_nodes(self, federation, rng, capsys):
        engine, _, addresses = federation
        engine.execute(QuerySpec(group=rng.uniform(100, 900, size=(3, 2)), k=1))
        assert obs_main([self._address(address) for address in addresses]) == 0
        dashboard = capsys.readouterr().out
        assert "shard 0" in dashboard and "shard 1" in dashboard
        assert "requests:" in dashboard
        assert "UNREACHABLE" not in dashboard

    def test_metrics_prints_the_serve_families(self, federation, rng, capsys):
        engine, nodes, addresses = federation
        nodes[0].start_exposition()  # attaches the registry the STATS op renders
        engine.execute(QuerySpec(group=rng.uniform(100, 900, size=(3, 2)), k=1))
        address = self._address(addresses[0])
        assert obs_main([address, "--metrics"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"# --- {address} ---")
        samples, types = parse_prometheus(text)
        assert types["repro_serve_requests_total"] == "counter"
        assert types["repro_serve_latency_seconds"] == "histogram"
        assert ("repro_serve_submitted_total", ()) in samples
        assert any(name.startswith("repro_serve_worker") for name in types)

    def test_an_unreachable_address_returns_one(self, federation, capsys):
        with socket.socket() as probe:  # a port nothing listens on once closed
            probe.bind(("127.0.0.1", 0))
            gone = self._address(probe.getsockname())
        assert obs_main([gone, "--timeout", "2"]) == 1
        assert "UNREACHABLE" in capsys.readouterr().out
        _, _, addresses = federation
        assert obs_main([self._address(addresses[0]), gone, "--metrics", "--timeout", "2"]) == 1
        assert f"# --- {gone} ---\n# unreachable:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# one record per query, and the trace file it lands in
# ----------------------------------------------------------------------
class TestOneRecordPerQuery:
    """With a zero threshold every query leaves exactly one slow trace,
    rooted at its outermost span — never a second record of its own
    sub-queries or worker-side execution."""

    QUERIES = 3

    def _specs(self, rng):
        return [
            QuerySpec(group=rng.uniform(100, 900, size=(4, 2)), k=3)
            for _ in range(self.QUERIES)
        ]

    def test_engine_queries(self, rng):
        engine = GNNEngine(rng.uniform(0, 1000, size=(400, 2)), capacity=16)
        tracer = enable_all(slow_threshold_s=0.0, log_stream=io.StringIO())
        results = [engine.execute(spec) for spec in self._specs(rng)]
        slow = tracer.slow_traces()
        assert [tree["trace_id"] for tree in slow] == [r.trace_id for r in results]
        assert all(tree["name"] == "query" for tree in slow)

    def test_served_requests(self, snapshot_path, rng):
        from repro.serve import GNNServer

        tracer = enable_all(slow_threshold_s=0.0, log_stream=io.StringIO())
        with GNNServer(snapshot_path, workers=1, window_s=0.0) as server:
            results = [server.submit(spec).result(timeout=60) for spec in self._specs(rng)]
        slow = tracer.slow_traces()
        assert [tree["trace_id"] for tree in slow] == [r.trace_id for r in results]
        assert all(_names(tree) == ["serve.request", "serve.worker"] for tree in slow)

    def test_federated_queries(self, federation, rng):
        engine, _nodes, _addresses = federation
        tracer = enable_all(slow_threshold_s=0.0, log_stream=io.StringIO())
        results = [engine.execute(spec) for spec in self._specs(rng)]
        slow = tracer.slow_traces()
        assert [tree["trace_id"] for tree in slow] == [r.trace_id for r in results]
        for tree, result in zip(slow, results):
            assert tree["name"] == "shard.query"
            dispatched = [c for c in tree["children"] if c["name"] == "shard.dispatch"]
            assert sorted(c["attrs"]["shard"] for c in dispatched) == result.shards_contacted
            assert all(c["attrs"]["outcome"] == "ok" for c in dispatched)


class TestTraceFile:
    def test_forked_workers_write_nothing_into_the_front_trace(self, rng, tmp_path):
        """Workers forked from a traced front drop the inherited tracer.

        ``max`` specs take the worker's per-query path, which a worker
        still holding the front's tracer would trace into the front's
        JSONL as ``query`` trees the front never sees.
        """
        from repro.serve import GNNServer

        path = tmp_path / "trace.jsonl"
        tracer = enable_all(trace_jsonl=path, log_stream=io.StringIO())
        points = rng.uniform(0, 1000, size=(300, 2))
        with GNNServer.from_points(points, tmp_path / "snap", capacity=16, workers=1) as server:
            for _ in range(5):
                spec = QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=2, aggregate="max")
                server.submit(spec).result(timeout=60)
        rooted = {span["trace_id"] for span in tracer.spans() if span["parent_id"] is None}
        disable_all()
        written = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rooted) == 5
        assert len(written) == 10  # serve.request + serve.worker per request
        assert {span["trace_id"] for span in written} == rooted

    @pytest.mark.parametrize("shards", [1, 2])
    def test_federated_trace_lines_are_strict_json(self, start_federation, rng, tmp_path, shards):
        """No span carries an infinite bound: ``json.dumps`` would write
        ``Infinity``, which RFC 8259 does not allow."""
        engine, _nodes, _addresses = start_federation(shards)
        path = tmp_path / "trace.jsonl"
        enable_all(trace_jsonl=path, log_stream=io.StringIO())
        for _ in range(3):
            engine.execute(QuerySpec(group=rng.uniform(100, 900, size=(4, 2)), k=3))
        disable_all()
        lines = path.read_text().splitlines()
        assert lines
        names = set()
        for line in lines:
            names.add(json.loads(line, parse_constant=_refuse_constant)["name"])
        assert {"shard.route", "shard.dispatch"} <= names
