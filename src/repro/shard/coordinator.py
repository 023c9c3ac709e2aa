"""Scatter-gather coordination over a federation of shard nodes.

:class:`ShardCoordinator` is the query-side half of the sharding
subsystem: it holds the federation's :class:`ShardManifest`, one
pipelined TCP link per shard node, and answers GNN queries by the
paper's best-first discipline *lifted one level up* — shard root MBRs
play the role of R-tree node MBRs.

The execution of one query is **pilot, then wave**:

1. compute ``amindist(root_j, Q)`` for every shard from the manifest
   (one vectorised kernel call) and order shards by that bound;
2. **pilot** — send the sub-query to the best-bound shard alone.  While
   fewer than ``k`` candidates are merged (a short reply, or a shard
   that could not be reached), pilot the next-best shard the same way;
3. **wave** — with ``tau`` the merged k-th distance, dispatch
   concurrently every remaining shard whose root bound is ``<= tau``;
   shards past it are never contacted (Heuristic 2 at federation
   level).  Each wave sub-query carries ``tau`` as its ceiling (the
   ``within`` option every memory-resident algorithm accepts, ``min``-ed
   with the spec's own): no record past it can be in the top-k, so each
   wave shard prunes from its first pop and returns only records
   ``<= tau``.  The ``<=`` matters: ``within`` is inclusive, and a
   shard whose bound equals ``tau`` can hold a tie with a smaller
   record id, which the ``(distance, record_id)`` order must return;
4. merge all per-shard lists by ``(distance, record_id)`` and keep the
   best ``k``.

The wave's replies can only lower the k-th distance, and every shard
left out already failed the larger bound, so no second wave is needed:
a healthy query costs one round trip when the pilot prunes every other
shard and two otherwise, with a shard set fixed by the manifest and the
pilot's reply — which is what lets the tests pin exact shards-contacted
counts.

Failure handling: a sub-query gets ``timeout_s`` per attempt and
``retries`` reconnect-and-resend attempts (overload sheds retry after
a short backoff).  A shard that stays unreachable raises
:class:`ShardUnavailableError` — unless the coordinator was built with
``allow_degraded=True``, in which case the query completes from the
reachable shards and the result is stamped ``degraded=True`` with the
dead shards listed (a documented under-approximation, never a wrong
answer presented as complete).  The wave's ceiling rests on records a
live shard returned, so a degraded answer is still the exact top-k of
the reachable shards.

Measured and rejected (in-process replica of this routing, 100k points,
capacity 50, 2 shards, the first 1000 ``shard_scatter`` requests at seed
3; node accesses / distance computations / sub-queries per query):

============================================  =====  =====  ====
routing                                       NA     DC     sub
============================================  =====  =====  ====
unsharded engine (the floor)                  10.35  3,487  –
``tau0`` wave (the routing before this one)   13.06  4,517  1.49
pilot, then wave (this routing)               11.19  3,823  1.29
oracle ``tau`` (the true k-th)                11.18  3,560  1.29
============================================  =====  =====  ====

The ``tau0`` wave went at once to every shard whose bound was ``<=
tau0``, the k-th best of the best-bound shard's 32 manifest samples
(about one record in 1,560): a true upper bound, but so loose it barely
pruned.  Given as the pilot's own ceiling, it saved 0.04% of DC (3,823 →
3,822), and a wave sent without the ceiling cut DC 6.5% against the
ceiling's 15.7%.  Under the ``tau0`` wave (at ~8.2k DC per query):
MBM's tangent / internal-node key as the shard-root bound moved
sub-queries per query 1.470 → 1.465 and node accesses 13.10 → 13.07,
not worth its cost; a ``tau0`` from one sample per leaf reached ~6.1k
DC, but scores ~1,000 samples × ``n`` at the coordinator per query,
work the query's cost never sees; sampling every shard instead of the
best-bound one gave 8.0k for twice the coordinator work.
"""

from __future__ import annotations

import asyncio
import math
import sys
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from random import Random
from typing import Mapping

import numpy as np

from repro.api.spec import AUTO, MEMORY, SHARDED, WITHIN, QuerySpec
from repro.core.types import GNNResult, QueryCost
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger
from repro.serve.protocol import encode_spec, pack_frame, read_frame, set_nodelay
from repro.shard.health import CircuitBreaker, HealthMonitor
from repro.shard.manifest import ShardManifest
from repro.shard.wire import ShardPing, ShardPong, ShardQuery, ShardReply
from repro.storage.counters import CounterSet

#: Retry backoff base: attempt ``n`` sleeps ``OVERLOAD_BACKOFF_S *
#: 2**(n-1)`` seconds, scaled by a seeded jitter factor in ``[0.5, 1.0)``.
OVERLOAD_BACKOFF_S = 0.05

#: Per-heartbeat deadline of the health monitor, in seconds.
HEALTH_TIMEOUT_S = 1.0

_log = get_logger("shard.coordinator")


class ShardUnavailableError(RuntimeError):
    """A shard node could not be reached (after all retries)."""


class ShardQueryError(RuntimeError):
    """A shard node rejected or failed a sub-query (not a liveness issue)."""


@dataclass
class CoordinatorStats(CounterSet):
    """Mergeable counters of one coordinator's lifetime.

    ``shards_contacted``/``shards_pruned`` partition every query's
    shard set (minus failed ones); their ratio is the federation-level
    pruning rate, the headline number of the scatter-gather design.
    ``neighbors_merged`` counts the per-shard neighbors the merge step
    received (divide by ``queries`` for the reply size per query).
    ``cost`` is the merged :class:`QueryCost` of every answered query;
    snapshots carry it nested under ``"cost"``, so multi-coordinator
    deployments roll their stats up exactly like worker counters.
    """

    queries: int = 0
    subqueries: int = 0
    shards_contacted: int = 0
    shards_pruned: int = 0
    retries: int = 0
    degraded_queries: int = 0
    failed_subqueries: int = 0
    breaker_trips: int = 0
    breaker_fast_fails: int = 0
    neighbors_merged: int = 0
    cost: QueryCost = field(default_factory=QueryCost)

    def snapshot(self) -> dict:
        """The counters plus the nested ``cost`` (:meth:`QueryCost.as_dict`)."""
        return {**super().snapshot(), "cost": self.cost.as_dict()}

    def merge(self, other) -> "CoordinatorStats":
        """Fold another :class:`CoordinatorStats` (or snapshot dict) in, cost included."""
        snapshot = other if isinstance(other, Mapping) else other.snapshot()
        self.cost.merge(snapshot.get("cost", {}))
        return super().merge(snapshot)


def _replica_addresses(entry) -> list:
    """Normalise one shard's address entry to a list of replica addresses.

    Accepts a single ``(host, port)`` pair or a sequence of them; a pair
    is recognised by its string host, so ``[("h", 1), ("h", 2)]`` is two
    replicas while ``("h", 1)`` is one.
    """
    entry = list(entry)
    if len(entry) == 2 and isinstance(entry[0], str):
        return [tuple(entry)]
    if not entry:
        raise ValueError("a shard needs at least one replica address")
    return [tuple(address) for address in entry]


class _ShardLink:
    """One pipelined connection to one shard node (lazy, self-healing).

    All methods run on the coordinator's event loop.  Replies are
    correlated to requests by id, so any number of sub-queries share
    the connection; a broken stream fails every in-flight future and
    the next request reconnects (after re-verifying the node's identity
    against the manifest via the ping handshake).
    """

    def __init__(self, shard_id: int, expected_generation: int, address):
        self.shard_id = shard_id
        self.expected_generation = expected_generation
        self.address = tuple(address)
        self._reader = None
        self._writer = None
        self._read_task = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._connect_lock = asyncio.Lock()
        self._write_lock = asyncio.Lock()

    async def _ensure_connected(self) -> None:
        async with self._connect_lock:
            if self._writer is not None:
                return
            reader, writer = await asyncio.open_connection(*self.address)
            set_nodelay(writer)
            ping_id = self._next_id
            self._next_id += 1
            writer.write(pack_frame(ShardPing(request_id=ping_id)))
            await writer.drain()
            pong = await read_frame(reader)
            if not isinstance(pong, ShardPong) or pong.request_id != ping_id:
                writer.close()
                raise ConnectionError(
                    f"node at {self.address} did not answer the handshake ping"
                )
            if pong.shard_id != self.shard_id:
                writer.close()
                raise ConnectionError(
                    f"node at {self.address} serves shard {pong.shard_id}, "
                    f"expected shard {self.shard_id}: the address map is miswired"
                )
            self._reader, self._writer = reader, writer
            self._read_task = asyncio.get_running_loop().create_task(
                self._read_loop(), name=f"shard-link-{self.shard_id}"
            )

    #: Outgoing-buffer size past which senders pause on ``drain`` (a
    #: frame is one atomic ``write``, so the hot path needs no lock and
    #: no per-frame drain; this bound keeps a slow node from buffering
    #: unboundedly on the coordinator side).
    WRITE_HIGH_WATER_BYTES = 1024 * 1024

    async def request(self, payload: dict, trace: tuple | None = None) -> ShardReply:
        """Send one sub-query; await its (id-correlated) reply.

        ``trace`` is the optional ``(trace_id, parent_span_id)`` context
        stamped onto the :class:`ShardQuery` frame when tracing is on.
        """
        await self._ensure_connected()
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            writer = self._writer
            writer.write(
                pack_frame(
                    ShardQuery(request_id=request_id, payload=payload, trace=trace)
                )
            )
            if (
                writer.transport.get_write_buffer_size()
                > self.WRITE_HIGH_WATER_BYTES
            ):
                async with self._write_lock:
                    await writer.drain()
            return await future
        finally:
            self._pending.pop(request_id, None)

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    raise ConnectionError(
                        f"shard {self.shard_id} closed the connection"
                    )
                if isinstance(message, ShardReply):
                    future = self._pending.get(message.request_id)
                    if future is not None and not future.done():
                        future.set_result(message)
        except (ConnectionError, OSError, ValueError, EOFError) as error:
            self._teardown(error)
        except asyncio.CancelledError:
            self._teardown(ConnectionError(f"link to shard {self.shard_id} closed"))
            raise

    def _teardown(self, error: Exception) -> None:
        if self._writer is not None:
            self._writer.close()
        self._reader = self._writer = None
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionError(f"shard {self.shard_id}: {error}")
                )

    async def reset(self) -> None:
        """Drop the connection (if any); the next request reconnects."""
        task, self._read_task = self._read_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._teardown(ConnectionError(f"link to shard {self.shard_id} reset"))


class ShardCoordinator:
    """Scatter-gather GNN execution over a federation of shard nodes.

    Parameters
    ----------
    manifest:
        The federation's :class:`ShardManifest` (or a directory / path
        it loads from).
    addresses:
        Per shard (indexed by shard id) either one ``(host, port)``
        address — typically the value returned by
        :meth:`ShardNode.start` — or a *list* of replica addresses all
        serving the same shard snapshot.  With replicas, dispatch fails
        over to the first replica whose circuit breaker admits traffic;
        routing is unchanged because replicas answer identically.
    timeout_s:
        Per-attempt deadline of one sub-query.
    retries:
        Reconnect-and-resend attempts after the first failure.
    allow_degraded:
        When True, queries survive unreachable shards and mark their
        results ``degraded=True``; when False (default) they raise
        :class:`ShardUnavailableError`.
    deadline_s:
        Total per-query budget for any one shard's sub-query *including*
        retries and backoff sleeps (default ``timeout_s * (retries + 1)``
        — the old worst case).  Per-attempt timeouts shrink to whatever
        budget remains, so retries can never exceed the caller's budget.
    failure_threshold / breaker_reset_s:
        Circuit-breaker tuning, per replica: consecutive failures that
        trip it open, and seconds before a half-open probe (see
        :class:`~repro.shard.health.CircuitBreaker`).  A shard all of
        whose replica breakers are open fails fast at dispatch — zero
        timeouts spent on a known-dead node.
    jitter_seed:
        Seeds the retry backoff's jitter (see :data:`OVERLOAD_BACKOFF_S`):
        the jitter de-synchronises retry storms across concurrent
        queries, the seed keeps tests deterministic.
    health_interval_s:
        When set, a :class:`~repro.shard.health.HealthMonitor` heartbeats
        every replica at this period, feeding the same breakers — the
        re-admission path for recovered nodes (queries never probe an
        open breaker themselves); each heartbeat waits at most
        :data:`HEALTH_TIMEOUT_S`.
    """

    def __init__(
        self,
        manifest,
        addresses,
        *,
        timeout_s: float = 5.0,
        retries: int = 1,
        allow_degraded: bool = False,
        deadline_s: float | None = None,
        failure_threshold: int = 3,
        breaker_reset_s: float = 1.0,
        jitter_seed: int = 0,
        health_interval_s: float | None = None,
    ):
        if not isinstance(manifest, ShardManifest):
            manifest = ShardManifest.load(manifest)
        addresses = list(addresses)
        if len(addresses) != manifest.shard_count:
            raise ValueError(
                f"the manifest describes {manifest.shard_count} shards but "
                f"{len(addresses)} addresses were given"
            )
        if timeout_s <= 0.0:
            raise ValueError("timeout_s must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if deadline_s is not None and deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive")
        self.manifest = manifest
        self.timeout_s = float(timeout_s)
        self.retries = int(retries)
        self.allow_degraded = bool(allow_degraded)
        self.deadline_s = (
            float(deadline_s)
            if deadline_s is not None
            else self.timeout_s * (self.retries + 1)
        )
        self._jitter = Random(jitter_seed)
        self._stats = CoordinatorStats()
        self._closed = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._links = [
            [
                _ShardLink(shard.shard_id, manifest.generation, address)
                for address in _replica_addresses(entry)
            ]
            for shard, entry in zip(manifest.shards, addresses)
        ]
        self._breakers = [
            [
                CircuitBreaker(
                    failure_threshold=failure_threshold,
                    reset_timeout_s=breaker_reset_s,
                    name=f"shard-{link.shard_id} @ "
                    f"{link.address[0]}:{link.address[1]}",
                )
                for link in replicas
            ]
            for replicas in self._links
        ]
        self._monitor: HealthMonitor | None = None
        if health_interval_s is not None:
            targets = [
                (link.shard_id, link.address, breaker)
                for replicas, breakers in zip(self._links, self._breakers)
                for link, breaker in zip(replicas, breakers)
            ]
            self._monitor = HealthMonitor(
                targets, interval_s=health_interval_s, timeout_s=HEALTH_TIMEOUT_S
            )
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="shard-coordinator", daemon=True
        )
        self._thread.start()
        if self._monitor is not None:

            async def _start_monitor() -> None:
                self._monitor.start()

            asyncio.run_coroutine_threadsafe(_start_monitor(), self._loop).result(
                timeout=10.0
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every link and stop the event loop (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()

        async def _drop_all() -> None:
            if self._monitor is not None:
                await self._monitor.stop()
            for replicas in self._links:
                for link in replicas:
                    await link.reset()
            # Yield once so transport connection_lost callbacks run
            # before the loop is stopped (quiet garbage collection).
            await asyncio.sleep(0)

        try:
            asyncio.run_coroutine_threadsafe(_drop_all(), self._loop).result(
                timeout=10.0
            )
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Lifetime counters (:meth:`CoordinatorStats.snapshot`)."""
        return self._stats.snapshot()

    def breaker_states(self) -> dict:
        """Live breaker state per replica: ``{(shard_id, "host:port"): state}``.

        The source of the ``repro_shard_breaker_state`` gauge.
        """
        states = {}
        for replicas, breakers in zip(self._links, self._breakers):
            for link, breaker in zip(replicas, breakers):
                address = f"{link.address[0]}:{link.address[1]}"
                states[(link.shard_id, address)] = breaker.state
        return states

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator(shards={self.manifest.shard_count}, "
            f"timeout_s={self.timeout_s}, retries={self.retries}, "
            f"allow_degraded={self.allow_degraded})"
        )

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec) -> Future:
        """Scatter-gather one spec; returns a future for its merged result."""
        if self._closed.is_set():
            raise RuntimeError("this ShardCoordinator is closed")
        if spec.dims != self.manifest.dims:
            raise ValueError(
                f"spec dimensionality {spec.dims} does not match the "
                f"federation ({self.manifest.dims}-d)"
            )
        return asyncio.run_coroutine_threadsafe(self._execute(spec), self._loop)

    def execute(self, spec: QuerySpec) -> GNNResult:
        """Blocking convenience over :meth:`submit`."""
        return self.submit(spec).result()

    async def _execute(self, spec: QuerySpec) -> GNNResult:
        # One shared budget for the whole query: every sub-query attempt
        # (and its backoff sleep) draws from it, so a retried shard can
        # never stretch the query past the caller's deadline.
        deadline = asyncio.get_running_loop().time() + self.deadline_s
        tracer = obs_trace.get()
        root_span = None
        if tracer is not None:
            root_span = tracer.start(
                "shard.query",
                k=spec.k,
                group_size=len(spec.group),
                shard_count=self.manifest.shard_count,
            )
            if spec.label is not None:
                root_span["attrs"]["label"] = spec.label
        try:
            group = np.asarray(spec.group, dtype=np.float64)
            route_span = (
                tracer.start("shard.route", parent=root_span)
                if tracer is not None
                else None
            )
            bounds = self.manifest.group_mindist_bounds(
                group, spec.weights, spec.aggregate
            )
            payload = encode_spec(spec)
            if payload["index"] == SHARDED:
                # Shard nodes plan locally over their own flat snapshot; the
                # federation-level index choice has no meaning there.
                payload["index"] = AUTO
            if route_span is not None:
                tracer.finish(route_span)

            remaining = [int(sid) for sid in np.argsort(bounds, kind="stable")]
            candidates = []
            contacted: list[int] = []
            failed: list[int] = []
            cost = QueryCost(algorithm="scatter-gather")

            async def dispatch(targets: list[int], sent: dict, round_index: int) -> None:
                replies = await asyncio.gather(
                    *(
                        self._query_shard(
                            sid, sent, deadline, round_index, parent_span=root_span
                        )
                        for sid in targets
                    ),
                    return_exceptions=True,
                )
                unreachable = None
                for shard_id, outcome in zip(targets, replies):
                    if isinstance(outcome, ShardUnavailableError):
                        failed.append(shard_id)
                        unreachable = outcome
                        continue
                    if isinstance(outcome, BaseException):
                        raise outcome
                    contacted.append(shard_id)
                    candidates.extend(outcome.neighbors)
                    cost.merge(outcome.cost)
                if unreachable is not None and not self.allow_degraded:
                    raise unreachable

            # A shard holds nothing to return when its bound is past the
            # spec's own ceiling, or infinite (an emptied shard's): the
            # clamp to the largest float keeps the latter out by default.
            ceiling = min(payload["options"].get(WITHIN, math.inf), sys.float_info.max)
            # Pilot: the best-bound shard alone, again after a failed or
            # short reply, until k real candidates give a real k-th distance.
            while remaining and len(candidates) < spec.k and bounds[remaining[0]] <= ceiling:
                await dispatch([remaining.pop(0)], payload, 0)
            if len(candidates) >= spec.k:
                ceiling = min(
                    ceiling, sorted(neighbor.distance for neighbor in candidates)[spec.k - 1]
                )
                # Wave: every shard whose root bound reaches the ceiling,
                # concurrently.  ``<=`` because ``within`` is inclusive: a
                # shard whose bound equals the k-th distance can hold a tie
                # with a smaller record id.  The ceiling rests on records a
                # live shard returned, so it holds if a wave shard dies.
                wave = [sid for sid in remaining if bounds[sid] <= ceiling]
                remaining = [sid for sid in remaining if bounds[sid] > ceiling]
                sent = payload
                if spec.resolved_residency() == MEMORY:
                    # Disk-resident specs are rejected by the nodes anyway.
                    sent = {**payload, "options": {**payload["options"], WITHIN: ceiling}}
                await dispatch(wave, sent, 1)

            merge_span = (
                tracer.start("shard.merge", parent=root_span)
                if tracer is not None
                else None
            )
            candidates.sort(
                key=lambda neighbor: (neighbor.distance, neighbor.record_id)
            )
            result = GNNResult(neighbors=candidates[: spec.k], cost=cost)
            if merge_span is not None:
                tracer.finish(merge_span, candidates=len(candidates))
            result.shards_contacted = sorted(contacted)
            result.shards_pruned = sorted(remaining)
            result.failed_shards = sorted(failed)
            result.degraded = bool(failed)
        except BaseException as error:
            if root_span is not None:
                tracer.finish(root_span, outcome="error", error=str(error))
            raise

        self._stats.queries += 1
        self._stats.shards_contacted += len(contacted)
        self._stats.shards_pruned += len(remaining)
        self._stats.degraded_queries += bool(failed)
        self._stats.neighbors_merged += len(candidates)
        self._stats.cost.merge(cost)

        if root_span is not None:
            tracer.finish(
                root_span,
                outcome="degraded" if failed else "ok",
                shards_contacted=len(contacted),
                shards_pruned=len(remaining),
                failed_shards=len(failed),
                node_accesses=cost.node_accesses,
                distance_computations=cost.distance_computations,
            )
            result.trace_id = root_span["trace_id"]
        return result

    def _pick_replica(self, shard_id: int):
        """The first replica whose breaker admits traffic, or ``None``."""
        for link, breaker in zip(self._links[shard_id], self._breakers[shard_id]):
            if breaker.allow():
                return link, breaker
        return None

    async def _query_shard(
        self,
        shard_id: int,
        payload: dict,
        deadline: float,
        round_index: int,
        parent_span: dict | None = None,
    ) -> GNNResult:
        """One sub-query: breaker-gated failover, budgeted timeout, retries.

        Each attempt dispatches to the first replica whose circuit
        breaker admits traffic; a shard with every breaker open fails
        fast — no connection, no timeout.  Retries back off
        exponentially with seeded jitter, and both the backoff and the
        per-attempt timeout are clipped to whatever remains of the
        query's deadline budget.

        When ``parent_span`` is given (tracing on), one ``shard.dispatch``
        span covers the whole sub-query and every attempt gets its own
        ``shard.attempt`` child annotated with the attempt number, the
        replica it hit, the breaker state at dispatch and the outcome;
        spans the node shipped back ride into the local tracer.  The
        dispatch span carries ``round`` (``round_index``: 0 for a pilot,
        1 for the wave) and the sub-query's ``within`` ceiling, the
        latter only when it was sent one.
        """
        loop = asyncio.get_running_loop()
        tracer = obs_trace.get() if parent_span is not None else None
        dispatch_span = None
        if tracer is not None:
            dispatch_span = tracer.start(
                "shard.dispatch", parent=parent_span, shard=shard_id, round=round_index
            )
            within = payload["options"].get(WITHIN, math.inf)
            if within < math.inf:
                dispatch_span["attrs"][WITHIN] = within
        attempts_made = 0

        def _conclude(outcome: str) -> None:
            if dispatch_span is not None:
                tracer.finish(dispatch_span, outcome=outcome, attempts=attempts_made)

        attempts = self.retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                self._stats.retries += 1
                backoff = (
                    OVERLOAD_BACKOFF_S
                    * (2 ** (attempt - 1))
                    * (0.5 + 0.5 * self._jitter.random())
                )
                backoff = min(backoff, max(0.0, deadline - loop.time()))
                if backoff > 0.0:
                    await asyncio.sleep(backoff)
            remaining = deadline - loop.time()
            if remaining <= 0.0:
                last_error = last_error or asyncio.TimeoutError(
                    "per-query deadline budget exhausted"
                )
                break
            attempts_made = attempt + 1
            attempt_span = (
                tracer.start(
                    "shard.attempt",
                    parent=dispatch_span,
                    shard=shard_id,
                    attempt=attempts_made,
                )
                if dispatch_span is not None
                else None
            )
            picked = self._pick_replica(shard_id)
            if picked is None:
                # Every replica's breaker is open: the shard is known
                # dead, so fail in microseconds instead of burning a
                # timeout re-proving it.  Re-admission comes from the
                # health monitor (or a breaker's own half-open window).
                self._stats.breaker_fast_fails += 1
                if attempt_span is not None:
                    tracer.finish(
                        attempt_span, breaker_state="open", outcome="fast-fail"
                    )
                _conclude("fast-fail")
                raise ShardUnavailableError(
                    f"shard {shard_id}: all "
                    f"{len(self._links[shard_id])} replica breaker(s) open"
                )
            link, breaker = picked
            replica = f"{link.address[0]}:{link.address[1]}"
            breaker_state = breaker.state
            self._stats.subqueries += 1
            trace = (
                (attempt_span["trace_id"], attempt_span["span_id"])
                if attempt_span is not None
                else None
            )
            try:
                reply = await asyncio.wait_for(
                    link.request(payload, trace=trace),
                    timeout=min(self.timeout_s, remaining),
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as error:
                last_error = error
                self._stats.failed_subqueries += 1
                if breaker.record_failure():
                    self._stats.breaker_trips += 1
                    _log.warning("breaker.tripped", shard=shard_id, replica=replica)
                if attempt_span is not None:
                    outcome = (
                        "timeout"
                        if isinstance(error, asyncio.TimeoutError)
                        else "connection"
                    )
                    tracer.finish(
                        attempt_span,
                        replica=replica,
                        breaker_state=breaker_state,
                        outcome=outcome,
                    )
                await link.reset()
                continue
            if reply.error is None:
                breaker.record_success()
                if attempt_span is not None:
                    tracer.finish(
                        attempt_span,
                        replica=replica,
                        breaker_state=breaker_state,
                        outcome="ok",
                    )
                    if reply.spans:
                        tracer.export(*reply.spans)
                _conclude("ok")
                return reply.result
            if reply.overloaded:
                # Overload is backpressure from a live node, not death:
                # it feeds the retry backoff but never the breaker.
                last_error = ShardUnavailableError(
                    f"shard {shard_id} shed the sub-query: {reply.error}"
                )
                self._stats.failed_subqueries += 1
                if attempt_span is not None:
                    tracer.finish(
                        attempt_span,
                        replica=replica,
                        breaker_state=breaker_state,
                        outcome="overloaded",
                    )
                continue
            # A semantic rejection (bad spec, unservable route): the
            # node is alive and retrying cannot change the outcome.
            breaker.record_success()
            if attempt_span is not None:
                tracer.finish(
                    attempt_span,
                    replica=replica,
                    breaker_state=breaker_state,
                    outcome="rejected",
                )
            _conclude("rejected")
            raise ShardQueryError(f"shard {shard_id}: {reply.error}")
        _conclude("unavailable")
        raise ShardUnavailableError(
            f"shard {shard_id} unreachable after {attempts} attempt(s) "
            f"within the {self.deadline_s:.3f}s budget: {last_error}"
        )
