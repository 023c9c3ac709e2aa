"""Observability end-to-end: traces, slow queries, metrics, live scraping.

Everything the ``repro.obs`` layer offers, on one screen:

1. enable the whole layer — the tracer (keeping the trees of slow
   queries) and structured JSON event logging;
2. serve the bench's Poisson/Zipf request trace from a multi-process
   :class:`~repro.serve.GNNServer` with the admin HTTP endpoint up;
3. scrape ``/metrics`` (Prometheus text) *while* the trace replays —
   the collectors sample the live ``stats()`` surfaces at scrape time;
4. read back one request's complete span tree (front process → worker
   process and back) and the slowest requests' trees.

Run with ``PYTHONPATH=src python examples/observability.py``.
"""

import io
import tempfile
import time
import urllib.request

import numpy as np

from repro import QuerySpec
from repro.datasets.workload import generate_request_trace
from repro.obs import disable_all, enable_all, orphan_spans
from repro.serve import GNNServer

RESTAURANTS = 10_000
REQUESTS = 200
GROUP_SIZE = 8
K = 5
WORKERS = 2


def indent_tree(span: dict, depth: int = 0) -> None:
    elapsed_ms = 1000.0 * ((span["end_s"] or span["start_s"]) - span["start_s"])
    attrs = {
        key: value
        for key, value in span["attrs"].items()
        if key in ("outcome", "node_accesses", "distance_computations", "algorithm")
    }
    print(f"  {'  ' * depth}{span['name']:<16s} {elapsed_ms:7.2f} ms  {attrs}")
    for child in span.get("children", ()):
        indent_tree(child, depth + 1)


def main() -> None:
    rng = np.random.default_rng(2004)
    restaurants = rng.uniform(0, 1000, size=(RESTAURANTS, 2))
    trace = generate_request_trace(
        restaurants,
        requests=REQUESTS,
        rate_per_s=500.0,
        n=GROUP_SIZE,
        mbr_fraction=0.02,
        k=K,
        hotspots=12,
        zipf_exponent=1.2,
        seed=7,
    )
    specs = [QuerySpec(group=request.group, k=request.k) for request in trace]

    # Lifecycle events (worker respawns, swaps, compactions...) land on
    # this stream as JSON lines; a real deployment would leave the
    # default (stderr) or point it at a file.
    events = io.StringIO()
    tracer = enable_all(
        slow_threshold_s=0.010,  # 10 ms — low enough to catch real entries
        log_stream=events,
    )
    try:
        with tempfile.TemporaryDirectory() as tmp:
            with GNNServer.from_points(restaurants, tmp, workers=WORKERS) as server:
                host, port = server.start_exposition()
                url = f"http://{host}:{port}"
                print(f"server up: {server!r}")
                print(f"admin endpoint: {url}/metrics | /stats | /healthz\n")

                started = time.perf_counter()
                futures = []
                for request, spec in zip(trace, specs):
                    delay = started + request.arrival_s - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    futures.append(server.submit(spec))
                    if len(futures) == REQUESTS // 2:
                        # Mid-trace scrape: collectors read the live stats.
                        with urllib.request.urlopen(url + "/metrics") as response:
                            text = response.read().decode()
                        interesting = [
                            line
                            for line in text.splitlines()
                            if line.startswith("repro_serve_requests_total")
                            or line.startswith("repro_serve_pending")
                            or line.startswith("repro_serve_latency_seconds_count")
                        ]
                        print("mid-trace /metrics scrape:")
                        for line in interesting:
                            print(f"  {line}")
                        print()
                results = [future.result(timeout=60) for future in futures]

        print(f"replayed {len(results)} requests\n")

        # One request's span tree, front process to worker and back.
        sample = results[-1]
        spans = tracer.spans(sample.trace_id)
        assert orphan_spans(spans) == [], "span tree must be complete"
        print(f"span tree of request trace_id={sample.trace_id}:")
        indent_tree(tracer.tree(sample.trace_id))

        slow = tracer.slow_traces()
        print(f"\nslow requests ({len(slow)} of {len(results)} took 10 ms or more):")
        for tree in slow[-2:]:
            indent_tree(tree)

        event_lines = events.getvalue().splitlines()
        print(f"\nstructured events emitted: {len(event_lines)}")
        for line in event_lines[:3]:
            print(f"  {line}")
    finally:
        disable_all()


if __name__ == "__main__":
    main()
