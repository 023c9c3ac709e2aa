"""The serving front end: admission, micro-batching, worker pool, hot-swap.

:class:`GNNServer` is the process-level composition of the subsystem:

* **workers** — N ``multiprocessing`` processes, each mapping the *same*
  published snapshot read-only (:func:`repro.serve.worker.worker_main`);
  the OS page cache shares the index physically across all of them;
* **admission control** — requests are planned and validated at submit
  time (plan errors and un-servable routes raise immediately), and a
  bounded in-flight high-water mark sheds overload with
  :class:`ServerOverloadedError` instead of queueing without bound;
* **micro-batching** — accepted requests enter the
  :class:`~repro.serve.scheduler.MicroBatcher`; a full batch dispatches
  from the submitting thread, a window-expired one from the timer
  thread, and every dispatched batch is answered by one worker-side
  ``execute_many`` (one read scope: each node is paid for once);
* **futures** — ``submit`` returns a ``concurrent.futures.Future``; a
  reply thread resolves it with the worker's result (or a
  :class:`ServingError`) and feeds the latency reservoir.  Block with
  ``server.submit(spec).result()``, or await it from asyncio code with
  ``await asyncio.wrap_future(server.submit(spec))``;
* **hot-swap** — :meth:`publish_snapshot` persists a successor snapshot
  under the next generation token and :meth:`swap_snapshot` re-points
  dispatch at it; workers finish their in-flight batch, then remap.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Sequence

from repro.api.planner import QueryPlanner
from repro.api.spec import QuerySpec
from repro.core.engine import GNNEngine
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.rtree.flat import DEFAULT_CAPACITY, FlatRTree
from repro.serve.protocol import SHUTDOWN, BatchClaim, BatchRequest, check_servable, encode_spec
from repro.serve.scheduler import MicroBatcher
from repro.serve.stats import ServerStats
from repro.serve.worker import worker_main

_log = get_logger("serve.server")

#: Default micro-batching window (seconds): long enough to coalesce a
#: burst into one batch, short enough to stay invisible next to
#: per-query execution times.
DEFAULT_WINDOW_S = 0.002

#: Default micro-batch size: a full batch dispatches at once.
DEFAULT_MAX_BATCH = 32

#: Default shed threshold: in-flight requests past this raise
#: :class:`ServerOverloadedError` at submit.
DEFAULT_MAX_PENDING = 2048


class ServingError(RuntimeError):
    """A request failed inside a worker (carries the worker traceback)."""


class WorkerDiedError(ServingError):
    """The worker executing this request died before replying.

    The batch was *claimed* (the worker announced it was about to
    execute it) but no reply ever arrived and the claiming process is
    gone — so the requests in it fail fast instead of hanging until some
    unrelated timeout.  The query itself may be perfectly fine;
    resubmitting it is safe (queries are read-only).
    """


class ServerOverloadedError(RuntimeError):
    """Admission control rejected the request (high-water mark reached)."""


def _default_start_method() -> str:
    # fork is markedly cheaper and safe here: workers are forked in
    # __init__ before any server thread starts.  spawn remains available
    # for platforms without fork.
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class GNNServer:
    """Serve GNN queries from N worker processes over one shared snapshot.

    Parameters
    ----------
    snapshot_path:
        A snapshot persisted by :meth:`FlatRTree.save`.  The server maps
        it with ``mmap_mode="r"`` and keeps the mapping of the snapshot
        it currently serves; forked workers inherit that mapping, so a
        worker never opens a file that may since have been
        garbage-collected (spawned workers map the path themselves).
        Nothing is copied per worker.
    workers:
        Number of worker processes.
    window_s / max_batch:
        Micro-batching window and size cap (see
        :class:`~repro.serve.scheduler.MicroBatcher`); ``window_s=0``
        disables coalescing.
    max_pending:
        Admission high-water mark: submits past this many in-flight
        requests shed with :class:`ServerOverloadedError`.
    io_stall_s_per_access:
        Optional simulated disk stall charged by workers per R-tree
        node access, modelling the paper's I/O cost (0, the default,
        disables; no run-time caller sets it any more — see ROADMAP).
    respawn_workers:
        When True (default), a worker that dies unexpectedly is replaced
        by a fresh process with the same worker id; its in-flight batch
        fails with :class:`WorkerDiedError` either way.
    """

    def __init__(
        self,
        snapshot_path,
        *,
        workers: int = 2,
        window_s: float = DEFAULT_WINDOW_S,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        io_stall_s_per_access: float = 0.0,
        respawn_workers: bool = True,
    ):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        self._snapshot = FlatRTree.load(snapshot_path, mmap_mode="r")
        self._dims = self._snapshot.dims
        self._path = str(snapshot_path)
        self._epoch = self._snapshot.generation

        self.max_pending = int(max_pending)
        self._planner = QueryPlanner()
        self._stats = ServerStats()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._batcher = MicroBatcher(window_s, max_batch)
        self._futures: dict[int, Future] = {}
        self._submit_times: dict[int, float] = {}
        self._next_id = 0
        self._next_batch_id = 0
        self._batches: dict[int, tuple[int, ...]] = {}  # batch_id -> request ids
        self._claims: dict[int, int] = {}  # batch_id -> claiming worker_id
        self._respawn = bool(respawn_workers)
        self._io_stall = float(io_stall_s_per_access)
        self._worker_deaths = 0
        self._dead_handled: set[int] = set()
        # request_id -> (root span, arrived-with-a-remote-parent) for
        # traced requests; empty (and never touched) when tracing is off.
        self._trace_spans: dict[int, tuple[dict, bool]] = {}
        self._exposition = None
        self._closed = threading.Event()
        self._close_lock = threading.Lock()
        self._close_done = threading.Event()
        self._reply_stop = threading.Event()

        context = multiprocessing.get_context(_default_start_method())
        self._context = context
        self._requests = context.Queue()
        self._replies = context.Queue()
        # Processes are started before any server thread exists, so the
        # fork start method never duplicates a thread mid-operation.
        self._workers = [self._make_worker(worker_id) for worker_id in range(int(workers))]
        for process in self._workers:
            process.start()

        self._timer_thread = threading.Thread(
            target=self._timer_loop, name="gnn-serve-timer", daemon=True
        )
        self._reply_thread = threading.Thread(
            target=self._reply_loop, name="gnn-serve-replies", daemon=True
        )
        self._timer_thread.start()
        self._reply_thread.start()
        _log.info(
            "server.started",
            workers=len(self._workers),
            epoch=self._epoch,
            snapshot=self._path,
        )

    # ------------------------------------------------------------------
    # construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def from_points(
        cls, data_points, directory, capacity: int = DEFAULT_CAPACITY, **server_options
    ) -> "GNNServer":
        """Build the index, publish generation-0, and serve it.

        The one-call path from a raw dataset to a running server:
        ``GNNServer.from_points(points, tmpdir, workers=4)``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "snapshot-gen000000.npz"
        GNNEngine(data_points, capacity=capacity).snapshot().save(path, generation=0)
        return cls(path, **server_options)

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec, trace_parent: tuple | None = None) -> Future:
        """Admit one spec; returns a future resolving to its :class:`GNNResult`.

        Raises immediately (synchronously) for plan-time errors, for
        specs a snapshot-only worker cannot execute, and — past the
        ``max_pending`` high-water mark — with
        :class:`ServerOverloadedError` (shed-with-error backpressure).

        ``trace_parent`` is an optional ``(trace_id, parent_span_id)``
        context from a remote caller (the shard node): the request's
        ``serve.request`` span parents under it and the collected span
        tree rides back attached to the result.  Locally, a span is
        created whenever a tracer is enabled.
        """
        if self._closed.is_set():
            raise RuntimeError("this GNNServer is closed")
        if spec.dims != self._dims:
            raise ValueError(
                f"spec dimensionality {spec.dims} does not match the served "
                f"snapshot ({self._dims}-d)"
            )
        plan = self._planner.plan(spec)
        check_servable(spec, plan)
        payload = encode_spec(spec)

        root_span = None
        if trace_parent is not None or obs_trace.get() is not None:
            trace_id, parent_id = trace_parent or (None, None)
            root_span = obs_trace.start_span(
                "serve.request",
                trace_id=trace_id,
                parent_id=parent_id,
                k=spec.k,
                group_size=len(spec.group),
            )
            if spec.label is not None:
                root_span["attrs"]["label"] = spec.label

        future: Future = Future()
        with self._cond:
            # Re-check under the lock: close() flips the flag and drains
            # the batcher while holding it, so a submit that slipped past
            # the fast-path check cannot enqueue into a drained batcher.
            if self._closed.is_set():
                raise RuntimeError("this GNNServer is closed")
            if len(self._futures) >= self.max_pending:
                self._stats.record_shed()
                raise ServerOverloadedError(
                    f"server overloaded: {len(self._futures)} requests in "
                    f"flight (max_pending={self.max_pending}); request shed"
                )
            request_id = self._next_id
            self._next_id += 1
            self._futures[request_id] = future
            self._submit_times[request_id] = time.monotonic()
            if root_span is not None:
                self._trace_spans[request_id] = (root_span, trace_parent is not None)
            self._stats.record_submit()
            ready = self._batcher.offer(None, (request_id, payload), time.monotonic())
            self._cond.notify_all()
        if ready is not None:
            self._dispatch(ready)
        return future

    def submit_many(self, specs: Sequence[QuerySpec]) -> list[Future]:
        """Submit a sequence of specs; returns their futures in order.

        Admission is per spec: an overload shed raises after the
        already-admitted prefix was accepted (those futures stay live).
        """
        return [self.submit(spec) for spec in specs]

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Server-wide statistics snapshot, in the unified nested shape.

        Top-level keys: ``server`` (request outcomes, pool health),
        ``latency_ms``, ``scheduler``, ``workers`` and ``total`` — the
        same convention :meth:`ShardNode.stats` and
        :meth:`ShardedEngine.stats` follow, so one metrics adapter reads
        any of them.
        """
        snapshot = self._stats.snapshot()
        with self._lock:
            snapshot["scheduler"] = {
                "queued": len(self._batcher),
                "in_flight": len(self._futures),
                "epoch": self._epoch,
                "snapshot_path": self._path,
            }
        snapshot["server"]["workers_alive"] = sum(p.is_alive() for p in self._workers)
        snapshot["server"]["worker_deaths"] = self._worker_deaths
        return snapshot

    def latency_seconds(self) -> list[float]:
        """The raw latency reservoir (scrape-time histogramming)."""
        return self._stats.latency_seconds()

    def start_exposition(self, host: str = "127.0.0.1", port: int = 0,
                         registry=None, stats_fn=None):
        """Start the optional admin HTTP listener; returns ``(host, port)``.

        Serves ``/metrics`` (Prometheus text), ``/stats`` (JSON) and
        ``/healthz``.  With no ``registry`` a fresh one is created and
        this server's collector mounted on it.  Stopped by :meth:`close`.
        """
        from repro.obs.exposition import HttpExposition
        from repro.obs.metrics import MetricsRegistry, server_collector

        if self._exposition is not None:
            return self._exposition.address
        if registry is None:
            registry = MetricsRegistry()
            registry.register(server_collector(self))
        self._exposition = HttpExposition(
            registry, stats_fn=stats_fn or self.stats, host=host, port=port
        )
        _log.info("exposition.started", url=self._exposition.url)
        return self._exposition.address

    @property
    def epoch(self) -> int:
        """The generation token batches are currently stamped with."""
        with self._lock:
            return self._epoch

    @property
    def snapshot_path(self) -> str:
        """Path of the snapshot batches are currently answered from."""
        with self._lock:
            return self._path

    @property
    def snapshot(self) -> FlatRTree:
        """The server's read-only mapping of :attr:`snapshot_path`."""
        with self._lock:
            return self._snapshot

    # ------------------------------------------------------------------
    # hot-swap
    # ------------------------------------------------------------------
    def swap_snapshot(self, path, epoch: int | None = None) -> int:
        """Re-point dispatch at an already-persisted snapshot.

        The file is mapped first (unreadable or dimension-mismatched
        snapshots are rejected before any worker sees them) and becomes
        the mapping workers forked from now on inherit.  Running workers
        finish their in-flight batch on the old mapping, then remap when
        the first batch stamped with the new epoch reaches them.
        Returns the new epoch.
        """
        probe = FlatRTree.load(path, mmap_mode="r")
        if probe.dims != self._dims:
            raise ValueError(
                f"snapshot {path!r} is {probe.dims}-d; this server serves "
                f"{self._dims}-d queries"
            )
        with self._lock:
            self._epoch = int(epoch) if epoch is not None else max(self._epoch + 1, probe.generation)
            self._path = str(path)
            self._snapshot = probe
            new_epoch = self._epoch
        self._stats.record_swap()
        _log.info("snapshot.swapped", epoch=new_epoch, path=str(path))
        return new_epoch

    def publish_snapshot(self, source) -> int:
        """Persist a successor snapshot next to the current one and swap to it.

        ``source`` is a :class:`FlatRTree` or anything with a
        ``snapshot()`` method returning one (a :class:`GNNEngine`).  The
        file is written as ``<current stem>-gen<N>.npz`` with the next
        generation token, then :meth:`swap_snapshot` makes it current.
        """
        flat = source if isinstance(source, FlatRTree) else source.snapshot()
        if not isinstance(flat, FlatRTree):
            raise TypeError(
                f"publish_snapshot expects a FlatRTree or an engine, got "
                f"{type(source).__name__}"
            )
        with self._lock:
            next_epoch = self._epoch + 1
        current = Path(self._path)
        stem = current.stem.split("-gen")[0]
        path = current.parent / f"{stem}-gen{next_epoch:06d}.npz"
        flat.save(path, generation=next_epoch)
        return self.swap_snapshot(path, epoch=next_epoch)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, wait, stop workers, fail leftovers.

        Queued requests are dispatched and awaited up to ``timeout``
        seconds; workers then receive one shutdown sentinel each and are
        joined (terminated if they overrun).  Futures still unresolved
        after that fail with :class:`ServingError`.

        ``close`` is idempotent and exception-safe: a second call (from
        any thread, including a concurrent one) waits for the first
        shutdown to finish instead of re-running it over already-closed
        queues, a crashed worker or a torn queue never aborts the
        teardown half-way, and the helper threads are stopped and every
        in-flight future failed even when an individual step errors —
        the shard node drives programmatic open/close cycles and relies
        on this.
        """
        with self._close_lock:
            first_closer = not self._closed.is_set()
            self._closed.set()
        if not first_closer:
            self._close_done.wait(timeout=timeout)
            return
        try:
            with self._cond:
                leftovers = self._batcher.drain()
                self._cond.notify_all()
            for batch in leftovers:
                self._try_dispatch(batch)

            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._futures:
                        break
                if not any(process.is_alive() for process in self._workers):
                    break
                time.sleep(0.005)

            for _ in self._workers:
                self._try_put(self._requests, SHUTDOWN)
            join_deadline = time.monotonic() + max(1.0, deadline - time.monotonic())
            for process in self._workers:
                process.join(timeout=max(0.1, join_deadline - time.monotonic()))
            for process in self._workers:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
        finally:
            self._reply_stop.set()
            self._timer_thread.join(timeout=5.0)
            self._reply_thread.join(timeout=5.0)

            now = time.monotonic()
            with self._lock:
                unresolved = [
                    (request_id, future, self._submit_times.get(request_id, now))
                    for request_id, future in self._futures.items()
                ]
                self._futures.clear()
                self._submit_times.clear()
            for request_id, future, submitted in unresolved:
                self._resolve_trace(request_id, None, "server closed")
                if not future.done():
                    self._stats.record_outcome(now - submitted, failed=True)
                    future.set_exception(
                        ServingError("server closed before the request completed")
                    )
            if self._exposition is not None:
                try:
                    self._exposition.close()
                except OSError:
                    pass
                self._exposition = None
            # Unstick the queue feeder threads so interpreter exit never
            # hangs; tolerate queues a worker crash already broke.
            for q in (self._requests, self._replies):
                try:
                    q.close()
                    q.cancel_join_thread()
                except (OSError, ValueError):
                    pass
            self._close_done.set()
            _log.info(
                "server.closed",
                worker_deaths=self._worker_deaths,
                unresolved=len(unresolved),
            )

    def __enter__(self) -> "GNNServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        alive = sum(p.is_alive() for p in self._workers)
        return (
            f"GNNServer(workers={alive}/{len(self._workers)}, "
            f"epoch={self._epoch}, snapshot={self._path!r})"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _make_worker(self, worker_id: int):
        with self._lock:
            path, epoch, snapshot = self._path, self._epoch, self._snapshot
        # A forked worker inherits the server's mapping and opens no file;
        # a spawned one maps the path itself.
        source = snapshot if self._context.get_start_method() == "fork" else path
        return self._context.Process(
            target=worker_main,
            args=(worker_id, self._requests, self._replies, source, epoch, self._io_stall),
            daemon=True,
            name=f"gnn-serve-worker-{worker_id}",
        )

    def _dispatch(self, items: list) -> None:
        items = tuple(items)
        with self._lock:
            epoch, path = self._epoch, self._path
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            self._batches[batch_id] = tuple(request_id for request_id, _ in items)
            trace = None
            if self._trace_spans:
                contexts = []
                for request_id, _ in items:
                    entry = self._trace_spans.get(request_id)
                    if entry is not None:
                        span = entry[0]
                        contexts.append(
                            (request_id, (span["trace_id"], span["span_id"]))
                        )
                if contexts:
                    trace = tuple(contexts)
        self._requests.put(
            BatchRequest(
                epoch=epoch,
                snapshot_path=path,
                items=items,
                batch_id=batch_id,
                trace=trace,
                dispatched_s=time.monotonic(),
            )
        )

    def _try_dispatch(self, items: list) -> None:
        """Best-effort :meth:`_dispatch` for the shutdown path.

        A queue broken by a worker crash (or closed by an earlier,
        failed close attempt) must not abort the teardown; the affected
        requests are failed with :class:`ServingError` afterwards.
        """
        try:
            self._dispatch(items)
        except (OSError, ValueError, AssertionError):
            pass

    @staticmethod
    def _try_put(target_queue, item) -> None:
        """Best-effort queue put, tolerant of broken/closed queues."""
        try:
            target_queue.put(item)
        except (OSError, ValueError, AssertionError):
            pass

    def _timer_loop(self) -> None:
        """Flush the window-expired batch; exits once closed and drained."""
        while True:
            with self._cond:
                if self._closed.is_set() and len(self._batcher) == 0:
                    return
                deadline = self._batcher.next_deadline()
                now = time.monotonic()
                if deadline is None:
                    self._cond.wait(timeout=0.1)
                elif deadline > now:
                    self._cond.wait(timeout=deadline - now)
                due = self._batcher.due(time.monotonic())
            for batch in due:
                self._dispatch(batch)

    def _check_worker_deaths(self) -> None:
        """Fail claimed batches of dead workers; respawn replacements.

        Runs on the reply thread whenever the reply queue goes quiet.  A
        worker that died mid-batch announced its claim first, so exactly
        the requests it took down fail — with :class:`WorkerDiedError` —
        while everything else keeps serving.
        """
        for worker_id, process in enumerate(self._workers):
            if process.is_alive() or worker_id in self._dead_handled:
                continue
            self._dead_handled.add(worker_id)
            self._worker_deaths += 1
            now = time.monotonic()
            with self._lock:
                lost_batches = [
                    batch_id
                    for batch_id, claimant in self._claims.items()
                    if claimant == worker_id and batch_id in self._batches
                ]
                doomed = []
                for batch_id in lost_batches:
                    for request_id in self._batches.pop(batch_id, ()):
                        future = self._futures.pop(request_id, None)
                        submitted = self._submit_times.pop(request_id, now)
                        doomed.append((request_id, future, submitted))
                    self._claims.pop(batch_id, None)
            _log.warning(
                "worker.died",
                worker=worker_id,
                deaths=self._worker_deaths,
                lost_batches=len(lost_batches),
            )
            for request_id, future, submitted in doomed:
                self._resolve_trace(request_id, None, "worker died")
                if future is not None and not future.done():
                    self._stats.record_outcome(now - submitted, failed=True)
                    future.set_exception(
                        WorkerDiedError(
                            f"worker {worker_id} died while executing this "
                            "request's batch (safe to resubmit)"
                        )
                    )
            if self._respawn and not self._closed.is_set():
                replacement = self._make_worker(worker_id)
                replacement.start()
                self._workers[worker_id] = replacement
                self._dead_handled.discard(worker_id)
                _log.info("worker.respawned", worker=worker_id)

    def _resolve_trace(
        self, request_id: int, result, error: str | None, worker_spans=()
    ) -> None:
        """Finish, export and (for remote callers) attach a request's spans.

        Must be called *without* :attr:`_lock` held.  No-op for untraced
        requests — the common path costs one dict lookup that only
        happens when ``_trace_spans`` is non-empty.
        """
        with self._lock:
            entry = self._trace_spans.pop(request_id, None)
        if entry is None:
            return
        root, remote = entry
        if error is None:
            obs_trace.finish_span(root, outcome="ok")
        else:
            obs_trace.finish_span(root, outcome="error", error=error)
        spans = [root, *worker_spans]
        tracer = obs_trace.get()
        if tracer is not None:
            tracer.export(*spans)
        if result is not None:
            result.trace_id = root["trace_id"]
            if remote:
                result.spans = tuple(spans)

    def _reply_loop(self) -> None:
        """Resolve futures from worker replies; exits when stopped and idle."""
        while True:
            try:
                reply = self._replies.get(timeout=0.05)
            except queue.Empty:
                if self._reply_stop.is_set():
                    return
                self._check_worker_deaths()
                with self._lock:
                    pending = bool(self._futures)
                if pending and not any(p.is_alive() for p in self._workers):
                    # Every worker died with requests in flight (and no
                    # respawn replaced them): fail them all rather than
                    # letting clients wait forever.
                    now = time.monotonic()
                    with self._lock:
                        dead = [
                            (request_id, future, self._submit_times.get(request_id, now))
                            for request_id, future in self._futures.items()
                        ]
                        self._futures.clear()
                        self._submit_times.clear()
                        self._batches.clear()
                        self._claims.clear()
                    for request_id, future, submitted in dead:
                        self._resolve_trace(request_id, None, "all workers died")
                        if not future.done():
                            self._stats.record_outcome(now - submitted, failed=True)
                            future.set_exception(
                                ServingError("all serving workers exited unexpectedly")
                            )
                continue
            except (EOFError, OSError):
                return
            if isinstance(reply, BatchClaim):
                with self._lock:
                    self._claims[reply.batch_id] = reply.worker_id
                continue
            with self._lock:
                self._batches.pop(reply.batch_id, None)
                self._claims.pop(reply.batch_id, None)
            self._stats.record_reply(reply.worker_id, reply.counters)
            spans_by_trace: dict[str, list] = {}
            for span in reply.spans:
                spans_by_trace.setdefault(span["trace_id"], []).append(span)
            now = time.monotonic()
            for request_id, result, error in reply.items:
                with self._lock:
                    future = self._futures.pop(request_id, None)
                    submitted = self._submit_times.pop(request_id, None)
                    entry = (
                        self._trace_spans.get(request_id) if self._trace_spans else None
                    )
                if entry is not None:
                    worker_spans = spans_by_trace.get(entry[0]["trace_id"], ())
                    self._resolve_trace(request_id, result, error, worker_spans)
                if future is None:
                    continue
                latency = now - submitted if submitted is not None else 0.0
                if error is not None:
                    self._stats.record_outcome(latency, failed=True)
                    future.set_exception(ServingError(error))
                else:
                    self._stats.record_outcome(latency)
                    future.set_result(result)
