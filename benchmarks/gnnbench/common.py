"""Shared pieces of the harness: scales, seeds, statistics, hygiene.

Nothing here calls into ``repro``; the statistics are the benchmark's
own so that a change to the program's helpers cannot move its numbers.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]

#: How many times a run sets the system up; ``setup_s`` is the fastest of them.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Scale:
    """Input sizes of one scale tier (everything else is fixed by the workload)."""

    name: str
    points: int
    set_seconds: float  # ``--seconds`` of each run when run.py measures a whole set
    fig51_groups: int
    trace_requests: int
    write_rounds: int  # one round = 5 inserts, 1 delete, 2 queries
    verify_fig51: int
    verify_served: int
    verify_write: int
    probe_share: float  # share of the full-scale probe call counts


FULL = Scale(
    name="full",
    points=100_000,
    set_seconds=30.0,
    fig51_groups=400,
    trace_requests=4000,
    write_rounds=160,
    verify_fig51=20,
    verify_served=64,
    verify_write=20,
    probe_share=1.0,
)

SMOKE = Scale(
    name="smoke",
    points=1_200,
    set_seconds=0.4,
    fig51_groups=40,
    trace_requests=300,
    write_rounds=12,
    verify_fig51=5,
    verify_served=16,
    verify_write=5,
    probe_share=0.05,
)

SCALES = {scale.name: scale for scale in (FULL, SMOKE)}


def probe_calls(scale: Scale, full_scale_count: int) -> int:
    """How many calls a direct probe makes at this scale (never fewer than 3)."""
    return max(3, round(full_scale_count * scale.probe_share))


def derive_seed(seed: int, label: str) -> int:
    """An independent 32-bit seed for one named input stream of a run."""
    sequence = np.random.SeedSequence([int(seed), zlib.crc32(label.encode())])
    return int(sequence.generate_state(1)[0])


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median.

    The run-to-run spread of a metric over repeated runs, as the
    benchmark driver computes it (``statistics.quantiles(values, n=4)``);
    0 with fewer than two values or a zero median.
    """
    values = [float(v) for v in values]
    median = statistics.median(values) if values else 0.0
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(median)


def latency_metrics(samples, prefix: str) -> dict:
    """p50/p95 (and p99 when >=1000 samples) in ms of ``(end_time, seconds)`` samples."""
    if not samples:
        return {}
    ordered = sorted(duration for _, duration in samples)
    quantiles = [50.0, 95.0] + ([99.0] if len(ordered) >= 1000 else [])
    return {
        f"{prefix}_p{q:g}": {"value": percentile(ordered, q) * 1e3, "samples": len(ordered)}
        for q in quantiles
    }


def median_metric(values) -> dict:
    """Median of repeated measurements (set-ups, cycles)."""
    values = [float(v) for v in values]
    return {"value": statistics.median(values), "samples": len(values)}


def median_seconds(function, count: int) -> float:
    """Median wall time of ``count`` calls of ``function()``."""
    seconds = []
    for _ in range(count):
        started = time.perf_counter()
        function()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds)


def median_seconds_over(function, items) -> float:
    """Median wall time of ``function(item)`` over ``items``."""
    seconds = []
    for item in items:
        started = time.perf_counter()
        function(item)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds)


def peak_rss_mb(who: int) -> float:
    """High-water resident set (MB) of ``resource.RUSAGE_SELF`` or ``RUSAGE_CHILDREN``.

    For ``RUSAGE_CHILDREN`` it is the largest single descendant that has
    been waited for, not a sum.  Each measured run is its own process,
    so the mark never carries over from another workload.
    """
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# scratch space and process hygiene
# ----------------------------------------------------------------------
class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self):
        self.base = ROOT / ".gnnbench_work"
        self.path: Path | None = None

    def __enter__(self) -> Path:
        self.base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=self.base))
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.base.rmdir()  # only succeeds when no other run is using it
        except OSError:
            pass


def descendant_pids(pid: int | None = None) -> set[int]:
    """Every live descendant of ``pid`` (this process by default), via /proc."""
    found: set[int] = set()
    frontier = [os.getpid() if pid is None else pid]
    while frontier:
        parent = frontier.pop()
        for children_file in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                children = children_file.read_text().split()
            except OSError:
                continue
            for child in map(int, children):
                if child not in found:
                    found.add(child)
                    frontier.append(child)
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def kill_all(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def leftover_processes(expected_gone: set[int], grace_s: float = 5.0) -> list[int]:
    """Pids of ``expected_gone`` still alive after ``grace_s``; they are killed."""
    deadline = time.monotonic() + grace_s
    alive = sorted(pid for pid in expected_gone if _alive(pid))
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if _alive(pid)]
    kill_all(alive)
    return alive


class Watchdog:
    """Abort the whole run if a block overruns its budget.

    Uses ``SIGALRM`` rather than a timer thread: the harness forks
    servers and shard nodes, and forking is safest from a process whose
    only extra threads are its own short-lived clients.
    """

    def __init__(self, seconds: float, label: str):
        self.seconds = max(1, int(math.ceil(seconds)))
        self.label = label

    def _expired(self, signum, frame) -> None:
        print(
            f"gnnbench: watchdog: {self.label} exceeded {self.seconds}s; aborting",
            file=sys.stderr,
            flush=True,
        )
        kill_all(descendant_pids())
        os._exit(3)

    def __enter__(self) -> "Watchdog":
        self._previous = signal.signal(signal.SIGALRM, self._expired)
        signal.alarm(self.seconds)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, self._previous)
