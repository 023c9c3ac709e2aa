"""Load generators: a closed loop of waiting clients and an open loop on a schedule.

Closed loop: each client sends its next request only after the previous
one completed, so a slower system receives less load.  Open loop:
requests go out at their due times whatever the system does, latency is
timed from the *due* time (so a stall charges the requests queued behind
it), and the generator reports how late it ran and how much CPU it used.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from gnnbench.common import percentile


@dataclass
class Phase:
    """What one timed phase observed."""

    start: float = 0.0
    stop: float = 0.0
    samples: list = field(default_factory=list)  # (end_time, seconds) per completed op
    errors: list = field(default_factory=list)  # (item index, repr(error))
    results: dict = field(default_factory=dict)  # item index -> first result seen
    cpu_share: float = 0.0  # harness process CPU seconds per wall second
    attempted: int = 0

    @property
    def wall(self) -> float:
        return self.stop - self.start


def closed_loop(op, items, *, clients: int, seconds: float, recorder, keep: int = 0) -> Phase:
    """Run ``op(item, span)`` from ``clients`` waiting callers for ``seconds``.

    Client ``c`` walks items ``c, c + clients, ...`` cyclically.  The
    first result for each of the first ``keep`` items is retained so the
    caller can check answers after the clock has stopped.
    """
    phase = Phase()
    per_client = [([], [], {}) for _ in range(clients)]
    attempted = [0] * clients
    count = len(items)

    def client(slot: int, deadline: float) -> None:
        samples, errors, results = per_client[slot]
        index = slot
        with recorder.span("client") as root:
            while True:
                started = time.perf_counter()
                if started >= deadline:
                    return
                item_index = index % count
                attempted[slot] += 1
                try:
                    with root.child("request", request_id=index) as span:
                        result = op(items[item_index], span)
                except Exception as error:  # a failed operation, not a harness crash
                    errors.append((item_index, repr(error)))
                else:
                    ended = time.perf_counter()
                    samples.append((ended, ended - started))
                    if item_index < keep and item_index not in results:
                        results[item_index] = result
                index += clients

    cpu_before = time.process_time()
    phase.start = time.perf_counter()
    deadline = phase.start + seconds
    if clients == 1:
        client(0, deadline)
    else:
        threads = [
            threading.Thread(target=client, args=(slot, deadline), name=f"gnnbench-client-{slot}")
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.stop = time.perf_counter()
    phase.cpu_share = (time.process_time() - cpu_before) / max(phase.wall, 1e-9)
    for samples, errors, results in per_client:
        phase.samples.extend(samples)
        phase.errors.extend(errors)
        for key, value in results.items():
            phase.results.setdefault(key, value)
    phase.attempted = sum(attempted)
    return phase


@dataclass
class OpenPhase(Phase):
    """An open-loop phase: adds the schedule's view."""

    due: int = 0  # requests whose due time fell inside the phase
    missed: int = 0  # failed, shed, or slower than the limit
    late_s: list = field(default_factory=list)  # generator lateness per request


def open_loop(submit, items, due_offsets, *, seconds: float, limit_s: float) -> OpenPhase:
    """Send ``submit(item)`` at ``start + due_offsets[i]`` from this thread.

    ``submit`` returns a ``concurrent.futures.Future``.  Latency runs
    from the due time to the future's completion; a request that raised
    at submit (shed), failed, or took longer than ``limit_s`` is missed.
    """
    phase = OpenPhase()
    lock = threading.Lock()
    outstanding = [0]
    drained = threading.Event()

    def completed(future, due_at: float, item_index: int) -> None:
        ended = time.perf_counter()
        error = future.exception()
        with lock:
            if error is not None:
                phase.errors.append((item_index, repr(error)))
            else:
                phase.samples.append((ended, ended - due_at))
            outstanding[0] -= 1
            if outstanding[0] == 0:
                drained.set()

    cpu_before = time.process_time()
    phase.start = time.perf_counter()
    for index, offset in enumerate(due_offsets):
        if offset >= seconds:
            break
        due_at = phase.start + offset
        wait = due_at - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        phase.late_s.append(max(0.0, time.perf_counter() - due_at))
        phase.due += 1
        item_index = index % len(items)
        with lock:
            outstanding[0] += 1
            drained.clear()
        try:
            future = submit(items[item_index])
        except Exception as error:  # shed or refused at admission
            with lock:
                phase.errors.append((item_index, repr(error)))
                outstanding[0] -= 1
            continue
        future.add_done_callback(
            lambda f, due_at=due_at, item_index=item_index: completed(f, due_at, item_index)
        )
    generator_stop = time.perf_counter()
    phase.cpu_share = (time.process_time() - cpu_before) / max(generator_stop - phase.start, 1e-9)
    with lock:
        if outstanding[0] == 0:
            drained.set()
    if not drained.wait(timeout=30.0):
        with lock:
            phase.errors.append((-1, f"{outstanding[0]} requests never completed"))
    phase.stop = time.perf_counter()
    phase.attempted = phase.due
    slow = sum(1 for _, seconds_taken in phase.samples if seconds_taken > limit_s)
    phase.missed = len(phase.errors) + slow
    return phase


def late_ms_p99(late_s) -> float:
    """p99 of the generator's lateness in milliseconds (0 for an empty phase)."""
    return percentile(sorted(late_s), 99.0) * 1e3 if late_s else 0.0
