"""Chaos conformance: injected faults, failover, and exact counters.

A federation's failure handling is only trustworthy if its behaviour
under faults is *pinned*, not just survived — so these tests drive the
serving and sharding layers through seeded
:class:`~repro.testing.faults.FaultPlan` schedules (worker kills,
dropped and delayed frames, dead and restarted nodes) and assert:

* no acknowledged result is lost: every submitted future resolves —
  with a correct answer or a typed, retryable error — never hangs;
* degraded results are never wrong answers presented as complete:
  contacted shards' neighbours are bit-identical to a single-index
  engine restricted to those shards;
* :class:`CoordinatorStats` counters are **exact** under an injected
  plan — retries, failed sub-queries, breaker trips and fast-fails all
  land on the pinned numbers, including the breaker re-closing after a
  node restart (the health monitor's re-admission path).

``REPRO_CHAOS_SEED`` (CI runs a small seed matrix) seeds the fault
plans; any single seed reproduces exactly.
"""

import asyncio
import os
import time

import numpy as np
import pytest

from repro import GNNEngine, QuerySpec
from repro.serve import GNNServer, WorkerDiedError
from repro.core.types import GroupQuery
from repro.shard import (
    CircuitBreaker,
    ShardCoordinator,
    ShardNode,
    ShardUnavailableError,
    partition_dataset,
    partition_points,
)
from repro.obs import orphan_spans
from repro.obs import trace as obs_trace
from repro.shard.health import CLOSED, HALF_OPEN, OPEN
from repro.testing import faults
from repro.testing.faults import FaultError, FaultPlan, InjectedCrash

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """Every test starts and ends with fault injection disarmed."""
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def chaos_points():
    generator = np.random.default_rng(1789)
    clusters = generator.uniform(100, 900, size=(6, 2))
    assignments = generator.integers(0, 6, size=600)
    noise = generator.normal(scale=60.0, size=(600, 2))
    return np.clip(clusters[assignments] + noise, 0, 1000)


@pytest.fixture(scope="module")
def reference_engine(chaos_points):
    return GNNEngine(chaos_points, capacity=16)


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory, reference_engine):
    path = tmp_path_factory.mktemp("chaos-snap") / "snapshot.npz"
    reference_engine.snapshot().save(path, generation=0)
    return path


def as_tuples(result):
    return [neighbor.as_tuple() for neighbor in result.neighbors]


#: A query whose pilot's k-th distance admits the shards the tests kill —
#: each test asserts that property before relying on it, so a dead shard
#: is provably contacted rather than coincidentally pruned.
def broad_spec(k=25):
    return QuerySpec(group=[[120.0, 130.0], [880.0, 870.0]], k=k)


def build_federation(points, count, directory, **node_options):
    """Partition ``points`` and start one in-process node per shard."""
    manifest = partition_dataset(points, count, directory, capacity=16)
    nodes = [
        ShardNode(shard.shard_id, directory / shard.path, workers=1, **node_options)
        for shard in manifest.shards
    ]
    addresses = [node.start() for node in nodes]
    return manifest, nodes, addresses


def close_all(*closables):
    for closable in closables:
        try:
            closable.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# the fault plan itself
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_hit_counting_and_at_times_window(self):
        plan = FaultPlan().fail("p", at=3, times=2, message="boom")
        outcomes = []
        for _ in range(6):
            arm = plan.poll("p")
            outcomes.append(arm is not None)
        assert outcomes == [False, False, True, True, False, False]
        assert plan.hits["p"] == 6
        assert plan.fired["p"] == 2

    def test_times_minus_one_fires_forever(self):
        plan = FaultPlan().drop("p", at=2, times=-1)
        assert [plan.poll("p") is not None for _ in range(5)] == [
            False, True, True, True, True,
        ]

    def test_fire_raises_typed_errors(self):
        with faults.active(FaultPlan().fail("p", message="boom")):
            with pytest.raises(FaultError, match="boom"):
                faults.fire("p")
        with faults.active(FaultPlan().crash("p")):
            with pytest.raises(InjectedCrash):
                faults.fire("p")

    def test_unarmed_points_and_cleared_plans_are_noops(self):
        faults.fire("p")  # nothing installed
        with faults.active(FaultPlan().crash("other")):
            faults.fire("p")  # installed, but this point is not armed
            assert faults.is_active()
        assert not faults.is_active()

    def test_filter_write_torn_is_seeded_deterministic(self):
        def torn_prefix(seed):
            plan = FaultPlan(seed=seed).torn("p")
            with faults.active(plan):
                data, crash_after = faults.filter_write("p", b"x" * 64)
            assert crash_after
            return len(data)

        assert torn_prefix(5) == torn_prefix(5)
        assert 1 <= torn_prefix(5) <= 63

    def test_frame_actions(self):
        plan = FaultPlan().drop("p", at=1).delay("p", 0.01, at=2)
        with faults.active(plan):
            assert faults.frame_action("p") == ("drop",)
            assert faults.frame_action("p") == ("delay", 0.01)
            assert faults.frame_action("p") is None


# ----------------------------------------------------------------------
# circuit breaker (fake clock: fully deterministic state machine)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=10.0,
            clock=lambda: clock["now"], **kwargs,
        )
        return breaker, clock

    def test_trips_only_on_consecutive_failures(self):
        breaker, _ = self._breaker()
        assert breaker.state == CLOSED and breaker.allow()
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        breaker.record_success()  # streak broken
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third consecutive: trips
        assert breaker.state == OPEN and breaker.trips == 1
        assert not breaker.allow()

    def test_half_open_grants_exactly_one_probe(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 9.9
        assert not breaker.allow()
        clock["now"] = 10.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # a second caller is still gated

    def test_half_open_success_recloses(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()
        assert breaker.trips == 1

    def test_half_open_failure_reopens_immediately(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        assert breaker.record_failure()  # one failure suffices here
        assert breaker.state == OPEN and breaker.trips == 2
        clock["now"] = 19.9  # timer restarted at the re-open
        assert not breaker.allow()
        clock["now"] = 20.0
        assert breaker.allow()


# ----------------------------------------------------------------------
# worker death: detection, typed failure, respawn
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_killed_workers_fail_typed_then_respawn(
        self, snapshot_path, reference_engine
    ):
        # Both original workers inherit the plan at fork and die on
        # their own first claimed batch; clearing the plan in the parent
        # *before* respawn means replacements fork clean and survive.
        faults.install(FaultPlan(seed=CHAOS_SEED).kill("worker.execute", at=1))
        try:
            server = GNNServer(snapshot_path, workers=2, window_s=0.0)
        finally:
            faults.clear()
        try:
            spec = QuerySpec(group=[[400.0, 400.0], [600.0, 600.0]], k=5)
            deaths, result = 0, None
            for _ in range(10):
                try:
                    result = server.submit(spec).result(timeout=30)
                    break
                except WorkerDiedError as error:
                    assert "resubmit" in str(error)
                    deaths += 1
            assert deaths == 2  # one per original worker, exactly
            assert as_tuples(result) == as_tuples(reference_engine.execute(spec))
            stats = server.stats()
            assert stats["server"]["worker_deaths"] == 2
        finally:
            server.close(timeout=30)

    def test_no_future_hangs_across_a_death(self, snapshot_path, reference_engine):
        faults.install(FaultPlan(seed=CHAOS_SEED).kill("worker.execute", at=1))
        try:
            server = GNNServer(snapshot_path, workers=2, window_s=0.0)
        finally:
            faults.clear()
        try:
            rng = np.random.default_rng(CHAOS_SEED)
            specs = [
                QuerySpec(group=rng.uniform(100, 900, size=(3, 2)), k=4)
                for _ in range(8)
            ]
            futures = [server.submit(spec) for spec in specs]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(future.result(timeout=30))
                except WorkerDiedError:
                    outcomes.append(None)  # typed, resubmittable — not hung
            killed = [spec for spec, out in zip(specs, outcomes) if out is None]
            assert len(killed) == 2
            for spec, out in zip(specs, outcomes):
                if out is not None:
                    assert as_tuples(out) == as_tuples(reference_engine.execute(spec))
            # Resubmitting the killed batches on the respawned pool works.
            for spec in killed:
                retried = server.submit(spec).result(timeout=30)
                assert as_tuples(retried) == as_tuples(reference_engine.execute(spec))
        finally:
            server.close(timeout=30)


# ----------------------------------------------------------------------
# frame faults on a live node: drops retry, delays absorb
# ----------------------------------------------------------------------
class TestNodeFrameFaults:
    def test_dropped_query_frame_costs_exactly_one_retry(
        self, chaos_points, reference_engine, tmp_path
    ):
        manifest, nodes, addresses = build_federation(chaos_points, 1, tmp_path)
        coordinator = ShardCoordinator(
            manifest, addresses, timeout_s=0.5, retries=2, jitter_seed=CHAOS_SEED
        )
        try:
            spec = broad_spec(k=7)
            # node.recv hits: 1 = handshake ping, 2 = the query (dropped),
            # then the reconnect's ping (3) and resent query (4).
            with faults.active(FaultPlan(seed=CHAOS_SEED).drop("node.recv", at=2)):
                result = coordinator.execute(spec)
            assert as_tuples(result) == as_tuples(reference_engine.execute(spec))
            assert not result.degraded
            stats = coordinator.stats()
            assert stats["queries"] == 1
            assert stats["subqueries"] == 2
            assert stats["retries"] == 1
            assert stats["failed_subqueries"] == 1
            assert stats["breaker_trips"] == 0
            assert stats["breaker_fast_fails"] == 0
        finally:
            close_all(coordinator, *nodes)

    def test_delayed_frame_within_timeout_is_invisible(
        self, chaos_points, reference_engine, tmp_path
    ):
        manifest, nodes, addresses = build_federation(chaos_points, 1, tmp_path)
        coordinator = ShardCoordinator(
            manifest, addresses, timeout_s=5.0, retries=1, jitter_seed=CHAOS_SEED
        )
        try:
            spec = broad_spec(k=7)
            with faults.active(FaultPlan().delay("node.recv", 0.2, at=2)):
                result = coordinator.execute(spec)
            assert as_tuples(result) == as_tuples(reference_engine.execute(spec))
            stats = coordinator.stats()
            assert stats["retries"] == 0 and stats["failed_subqueries"] == 0
        finally:
            close_all(coordinator, *nodes)


# ----------------------------------------------------------------------
# dead shard: degrade, fail fast, re-admit — exact counters
# ----------------------------------------------------------------------
class TestDeadShardLifecycle:
    def test_breaker_fastfail_and_heartbeat_readmission_exact_stats(
        self, chaos_points, tmp_path
    ):
        manifest, nodes, addresses = build_federation(chaos_points, 2, tmp_path)
        settings = dict(
            timeout_s=2.0,
            retries=1,
            allow_degraded=True,
            failure_threshold=2,
            breaker_reset_s=30.0,  # only a health monitor can re-admit
            jitter_seed=CHAOS_SEED,
        )
        # Heartbeat and request failures share one consecutive-failure
        # count per breaker, so a heartbeat round landing between the
        # kill and the next query would trip the breaker one attempt
        # early.  The exact counters are pinned without a monitor; the
        # re-admission half runs on a second, monitored coordinator and
        # asserts nothing that depends on who tripped the breaker.
        counted = ShardCoordinator(manifest, addresses, **settings)
        monitored = None
        restarted = None
        try:
            spec = broad_spec()
            healthy = counted.execute(spec)
            assert healthy.shards_contacted == [0, 1]  # pilot and wave cover both

            nodes[1].close()
            started = time.perf_counter()
            first = counted.execute(spec)
            assert first.degraded and first.failed_shards == [1]
            assert first.shards_contacted == [0]
            # Both attempts hit a closed socket: fast connection refusals,
            # not timeouts — the query cannot take anywhere near 2 s.
            assert time.perf_counter() - started < 1.0

            started = time.perf_counter()
            second = counted.execute(spec)
            assert second.degraded and second.failed_shards == [1]
            # The tripped breaker skips the dead shard entirely.
            assert time.perf_counter() - started < 0.5

            stats = counted.stats()
            assert stats["queries"] == 3
            assert stats["subqueries"] == 6  # 2 healthy + (1 live + 2 dead) + 1
            assert stats["retries"] == 1
            assert stats["failed_subqueries"] == 2
            assert stats["breaker_trips"] == 1
            assert stats["breaker_fast_fails"] == 1
            assert stats["degraded_queries"] == 2
            assert stats["shards_contacted"] == 4
            assert stats["shards_pruned"] == 0

            # Against the still-dead node, one query (two refused
            # attempts) leaves the monitored breaker open whether or not
            # a heartbeat got there first.
            monitored = ShardCoordinator(
                manifest, addresses, health_interval_s=0.2, **settings
            )
            dead_replica = (1, f"{addresses[1][0]}:{addresses[1][1]}")
            assert monitored.execute(spec).degraded
            assert monitored.breaker_states()[dead_replica] == OPEN

            # Restart the node on the *same* address; the heartbeat loop
            # records a success into the open breaker and re-admits it.
            restarted = ShardNode(
                1, nodes[1].snapshot_path, port=addresses[1][1], workers=1
            )
            restarted.start()
            deadline = time.monotonic() + 15.0
            recovered = None
            while time.monotonic() < deadline:
                recovered = monitored.execute(spec)
                if not recovered.degraded:
                    break
                time.sleep(0.2)
            assert recovered is not None and not recovered.degraded
            assert recovered.shards_contacted == [0, 1]
            assert as_tuples(recovered) == as_tuples(healthy)
            assert monitored.breaker_states()[dead_replica] == CLOSED
            # Tripped once — by a query or by a heartbeat — never re-tripped.
            assert monitored._breakers[1][0].trips == 1
        finally:
            close_all(
                counted,
                *([monitored] if monitored else []),
                *nodes,
                *([restarted] if restarted else []),
            )

    def test_replica_failover_answers_from_the_standby(
        self, chaos_points, reference_engine, tmp_path
    ):
        manifest = partition_dataset(chaos_points, 1, tmp_path, capacity=16)
        path = tmp_path / manifest.shards[0].path
        primary = ShardNode(0, path, workers=1)
        standby = ShardNode(0, path, workers=1)
        coordinator = None
        try:
            replicas = [primary.start(), standby.start()]
            coordinator = ShardCoordinator(
                manifest,
                [replicas],
                timeout_s=2.0,
                retries=1,
                failure_threshold=1,
                breaker_reset_s=30.0,
                jitter_seed=CHAOS_SEED,
            )
            primary.close()
            spec = broad_spec(k=9)
            result = coordinator.execute(spec)
            assert as_tuples(result) == as_tuples(reference_engine.execute(spec))
            assert not result.degraded
            stats = coordinator.stats()
            # Attempt 1 dies on the primary and trips its breaker; the
            # retry is dispatched straight to the standby.
            assert stats["subqueries"] == 2
            assert stats["failed_subqueries"] == 1
            assert stats["retries"] == 1
            assert stats["breaker_trips"] == 1
            assert stats["breaker_fast_fails"] == 0
            assert stats["degraded_queries"] == 0
        finally:
            close_all(
                *([coordinator] if coordinator else []), primary, standby
            )


# ----------------------------------------------------------------------
# deadline budget: retries can never stretch past the caller's budget
# ----------------------------------------------------------------------
class TestDeadlineBudget:
    def test_black_hole_shard_fails_within_the_budget(self, chaos_points, tmp_path):
        manifest, nodes, addresses = build_federation(chaos_points, 1, tmp_path)
        coordinator = ShardCoordinator(
            manifest,
            addresses,
            timeout_s=10.0,  # per-attempt allowance far beyond the budget
            retries=5,
            deadline_s=0.6,
            jitter_seed=CHAOS_SEED,
        )
        try:
            # Swallow every frame: the node is up but answers nothing.
            with faults.active(FaultPlan().drop("node.recv", at=1, times=-1)):
                started = time.perf_counter()
                with pytest.raises(ShardUnavailableError, match="budget"):
                    coordinator.execute(broad_spec(k=5))
                elapsed = time.perf_counter() - started
            # One attempt clipped to the 0.6 s budget, then immediate
            # exhaustion — nowhere near timeout_s * (retries + 1) = 60 s.
            assert elapsed < 3.0
            stats = coordinator.stats()
            assert stats["subqueries"] == 1
            assert stats["failed_subqueries"] == 1
            assert stats["retries"] == 1  # the attempt that found no budget left
        finally:
            close_all(coordinator, *nodes)


# ----------------------------------------------------------------------
# the acceptance scenario: 4 shards, one killed mid-trace, full recovery
# ----------------------------------------------------------------------
def _set_heartbeat(coordinator, running: bool) -> None:
    """Stop or restart the coordinator's heartbeat task (on its own loop)."""

    async def _apply() -> None:
        if running:
            coordinator._monitor.start()
        else:
            await coordinator._monitor.stop()

    asyncio.run_coroutine_threadsafe(_apply(), coordinator._loop).result(timeout=10.0)


class TestFourShardAcceptance:
    def test_kill_mid_trace_degrades_then_returns_to_healthy(
        self, chaos_points, tmp_path
    ):
        manifest, nodes, addresses = build_federation(chaos_points, 4, tmp_path)
        coordinator = ShardCoordinator(
            manifest,
            addresses,
            timeout_s=2.0,
            retries=1,
            allow_degraded=True,
            failure_threshold=2,
            breaker_reset_s=30.0,
            health_interval_s=0.2,
            jitter_seed=CHAOS_SEED,
        )
        restarted = None
        try:
            spec = broad_spec()
            baseline = coordinator.execute(spec)
            assert not baseline.degraded
            victim = 2
            # The victim is contacted, and every shard left out is pruned
            # by the pilot's (the best-bound shard's) k-th distance.
            group = np.asarray(spec.group)
            bounds = manifest.group_mindist_bounds(group)
            pilot = int(np.argmin(bounds))
            pilot_rows = partition_points(chaos_points, 4)[0][pilot]
            pilot_kth = np.sort(
                GroupQuery(group).distances_to(chaos_points[pilot_rows])
            )[spec.k - 1]
            assert victim in baseline.shards_contacted and victim != pilot
            assert baseline.shards_pruned
            assert all(bounds[sid] > pilot_kth for sid in baseline.shards_pruned)
            victim_address = f"{addresses[victim][0]}:{addresses[victim][1]}"

            # Heartbeat and request failures share one consecutive-failure
            # count per breaker, so a heartbeat landing between the kill
            # and step 4's first attempt would trip the breaker one
            # attempt early.  The counted window runs without the
            # heartbeat task; re-admission below runs with it.
            _set_heartbeat(coordinator, running=False)

            # Tracing stays on through the kill: every request — healthy,
            # mid-death, fast-failed — must still yield a *complete* span
            # tree (no span whose parent went missing with the node).
            tracer = obs_trace.enable()
            trace_outcomes = []
            trace_ids = []
            for step in range(12):
                if step == 4:
                    nodes[victim].close()  # mid-trace node death
                started = time.perf_counter()
                # ``result(timeout=...)`` is the zero-hung-requests check:
                # every request resolves well inside the bound.
                result = coordinator.submit(spec).result(timeout=10.0)
                trace_outcomes.append(
                    (result.degraded, time.perf_counter() - started)
                )
                assert result.neighbors  # degraded still answers
                assert result.trace_id is not None
                trace_ids.append(result.trace_id)

            healthy_prefix = [degraded for degraded, _ in trace_outcomes[:4]]
            degraded_suffix = [degraded for degraded, _ in trace_outcomes[4:]]
            assert healthy_prefix == [False] * 4
            assert degraded_suffix == [True] * 8
            # Post-kill queries stay fast: refused connections and open
            # breakers, never timeout stalls.
            assert max(elapsed for _, elapsed in trace_outcomes[5:]) < 1.0

            stats = coordinator.stats()
            assert stats["degraded_queries"] == 8
            assert stats["breaker_trips"] == 1
            assert stats["breaker_fast_fails"] == 7  # every post-trip query

            # Every request in the run — including the one that watched
            # the node die and the seven that fast-failed on the open
            # breaker — produced a complete span tree.
            for step, trace_id in enumerate(trace_ids):
                spans = tracer.spans(trace_id)
                assert orphan_spans(spans) == [], f"step {step} has orphan spans"
                tree = tracer.tree(trace_id)
                assert tree is not None and tree["name"] == "shard.query"
                degraded, _ = trace_outcomes[step]
                assert tree["attrs"]["outcome"] == (
                    "degraded" if degraded else "ok"
                )
                attempts = [s for s in spans if s["name"] == "shard.attempt"]
                assert attempts, f"step {step} recorded no attempt spans"
                for span in attempts:
                    assert span["attrs"]["attempt"] >= 1
                    assert "breaker_state" in span["attrs"]
                    assert span["end_s"] is not None

            # Step 4 saw the death live: the victim's dispatch retried,
            # with each attempt numbered and stamped "connection".
            death_attempts = [
                s
                for s in tracer.spans(trace_ids[4])
                if s["name"] == "shard.attempt" and s["attrs"]["shard"] == victim
            ]
            assert [s["attrs"]["attempt"] for s in death_attempts] == [1, 2]
            assert all(
                s["attrs"]["outcome"] == "connection" for s in death_attempts
            )
            # Post-trip queries fast-fail: one attempt, breaker open.
            for trace_id in trace_ids[5:]:
                fast_fails = [
                    s
                    for s in tracer.spans(trace_id)
                    if s["name"] == "shard.attempt"
                    and s["attrs"]["shard"] == victim
                ]
                assert len(fast_fails) == 1
                assert fast_fails[0]["attrs"]["outcome"] == "fast-fail"
                assert fast_fails[0]["attrs"]["breaker_state"] == "open"

            # Re-admission is the heartbeat's job: the 30 s breaker reset
            # never elapses in this test, so only a heartbeat success can
            # close the victim's breaker again.
            assert coordinator.breaker_states()[(victim, victim_address)] == OPEN
            rounds_before = coordinator._monitor.rounds
            _set_heartbeat(coordinator, running=True)
            restarted = ShardNode(
                victim,
                nodes[victim].snapshot_path,
                port=addresses[victim][1],
                workers=1,
            )
            restarted.start()
            deadline = time.monotonic() + 15.0
            recovered = None
            while time.monotonic() < deadline:
                recovered = coordinator.execute(spec)
                if not recovered.degraded:
                    break
                time.sleep(0.2)
            assert recovered is not None and not recovered.degraded
            assert recovered.shards_contacted == baseline.shards_contacted
            assert as_tuples(recovered) == as_tuples(baseline)
            assert coordinator._monitor.rounds > rounds_before
            assert coordinator.breaker_states()[(victim, victim_address)] == CLOSED
        finally:
            obs_trace.disable()
            close_all(coordinator, *nodes, *([restarted] if restarted else []))
