"""Deterministic fault injection at named crash/fault points.

Durability claims are only as good as the failures they were tested
under, so the storage and serving layers are instrumented with **named
fault points** — fixed call sites that consult this module before (or
while) doing something a crash could tear.  In production nothing is
armed and every check is a single ``is None`` test; under test, a seeded
:class:`FaultPlan` is installed and the same code paths crash, tear
writes, drop frames or kill processes at exactly the scheduled moments.
The chaos conformance suite (``tests/test_chaos.py`` /
``tests/test_durability.py``) drives the whole recovery story through
these hooks, which is what lets it assert byte-identical recovery and
*exact* failure-handling counters rather than "it probably survived".

The registered points (callers may add more; these are the documented
surface the chaos suite sweeps):

=====================  ==================================================
``wal.append``         one write-ahead-log record write — supports
                       boundary crashes (full record on disk, then die)
                       and **torn writes** (a seeded prefix of the
                       record survives, then die).
``snapshot.rename``    :meth:`FlatRTree.save`'s publication rename; a
                       crash here leaves only the temp file, never a
                       half-written snapshot under the real name.
``manifest.write``     a generation/shard manifest publication; a crash
                       here leaves the previous manifest in place.
``node.recv``          one frame received by a shard node — supports
                       ``drop`` (swallow the frame, the peer times out),
                       ``delay`` (hold it), and ``kill`` (the node
                       process dies mid-conversation).
``worker.execute``     a serving worker about to execute a claimed
                       batch — ``kill`` here is a real worker-process
                       death the server must detect and fail over.
``worker.map``         a serving worker started but not yet serving its
                       snapshot — ``delay`` here lets a compaction
                       publish and garbage-collect meanwhile.
=====================  ==================================================

Faults fire by **hit count**: ``plan.kill("worker.execute", at=3)``
arms the third execution attempt, process-locally.  Plans are inherited
by ``fork``-started children (servers and shard nodes fork their
workers), which is how a plan armed in the test process kills a worker
three batches later — with the ``spawn`` start method children start
with no plan.  All bookkeeping is lock-protected and the RNG is seeded,
so a given plan misbehaves identically on every run.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random

#: The documented fault points (informational; arming an unknown name is
#: legal — it simply never fires unless some caller checks it).
FAULT_POINTS = (
    "wal.append",
    "snapshot.rename",
    "manifest.write",
    "node.recv",
    "worker.execute",
    "worker.map",
)


class FaultError(RuntimeError):
    """An injected (non-crash) failure at a fault point."""


class InjectedCrash(FaultError):
    """A simulated process death at a crash point.

    Raised instead of actually dying so in-process tests can observe the
    on-disk state "the crash" left behind and drive recovery over it; a
    handler other than the test harness catching it would falsify the
    simulation, so production code must never swallow it (``kill`` arms
    exist for the cases where a real process death is required).
    """


@dataclass
class _Arm:
    """One scheduled fault: fire ``times`` hits starting at hit ``at``."""

    kind: str  # crash | kill | error | drop | delay | torn
    at: int = 1
    times: int = 1
    seconds: float = 0.0
    keep_bytes: int | None = None
    message: str = ""
    fired: int = 0

    def covers(self, hit: int) -> bool:
        if hit < self.at:
            return False
        return self.times < 0 or hit < self.at + self.times


@dataclass
class FaultPlan:
    """A seeded schedule of faults, armed per named point.

    The builder methods (:meth:`crash`, :meth:`kill`, :meth:`fail`,
    :meth:`drop`, :meth:`delay`, :meth:`torn`) each arm one fault and
    return ``self`` for chaining.  ``at`` is the 1-based hit index the
    fault starts firing on, ``times`` how many consecutive hits fire
    (``-1`` = forever).  :attr:`hits` and :attr:`fired` expose the
    per-point bookkeeping the chaos suite asserts against.
    """

    seed: int = 0
    hits: dict = field(default_factory=dict)
    fired: dict = field(default_factory=dict)

    def __post_init__(self):
        self.random = Random(self.seed)
        self._arms: dict[str, list[_Arm]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def _arm(self, point: str, arm: _Arm) -> "FaultPlan":
        if arm.at < 1:
            raise ValueError("at is a 1-based hit index")
        with self._lock:
            self._arms.setdefault(point, []).append(arm)
        return self

    def crash(self, point: str, at: int = 1, times: int = 1) -> "FaultPlan":
        """Raise :class:`InjectedCrash` (simulated death; state observable)."""
        return self._arm(point, _Arm("crash", at, times))

    def kill(self, point: str, at: int = 1, times: int = 1) -> "FaultPlan":
        """``os._exit`` the hitting process — a *real* death, for forked children."""
        return self._arm(point, _Arm("kill", at, times))

    def fail(self, point: str, at: int = 1, times: int = 1,
             message: str = "") -> "FaultPlan":
        """Raise :class:`FaultError` (a recoverable, handled failure)."""
        return self._arm(point, _Arm("error", at, times, message=message))

    def drop(self, point: str, at: int = 1, times: int = 1) -> "FaultPlan":
        """Swallow a frame at a frame point (the peer never hears back)."""
        return self._arm(point, _Arm("drop", at, times))

    def delay(self, point: str, seconds: float, at: int = 1,
              times: int = 1) -> "FaultPlan":
        """Stall a point for ``seconds`` before proceeding normally."""
        return self._arm(point, _Arm("delay", at, times, seconds=float(seconds)))

    def torn(self, point: str, at: int = 1, keep_bytes: int | None = None) -> "FaultPlan":
        """Tear a byte write: a prefix survives, then the process "dies".

        ``keep_bytes`` pins the surviving prefix length; by default a
        seeded length in ``[1, len(data) - 1]`` is chosen at fire time,
        so sweeps with different seeds tear at different offsets while
        any single seed reproduces exactly.
        """
        return self._arm(point, _Arm("torn", at, 1, keep_bytes=keep_bytes))

    # ------------------------------------------------------------------
    # polling (used by the module-level check functions)
    # ------------------------------------------------------------------
    def poll(self, point: str) -> _Arm | None:
        """Count one hit of ``point``; return the arm due to fire, if any."""
        with self._lock:
            hit = self.hits.get(point, 0) + 1
            self.hits[point] = hit
            for arm in self._arms.get(point, ()):
                if arm.covers(hit):
                    arm.fired += 1
                    self.fired[point] = self.fired.get(point, 0) + 1
                    return arm
        return None

    def torn_length(self, arm: _Arm, total: int) -> int:
        """The surviving prefix length of a torn write (seeded when unpinned)."""
        if arm.keep_bytes is not None:
            return max(0, min(int(arm.keep_bytes), total - 1))
        if total <= 1:
            return 0
        with self._lock:
            return self.random.randint(1, total - 1)


# ----------------------------------------------------------------------
# the active plan (process-global, inherited across fork)
# ----------------------------------------------------------------------
_active: FaultPlan | None = None


def is_active() -> bool:
    """Whether any fault plan is installed in this process."""
    return _active is not None


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process's active plan (replacing any previous one)."""
    global _active
    _active = plan
    return plan


def clear() -> None:
    """Deactivate fault injection (the production state)."""
    global _active
    _active = None


@contextmanager
def active(plan: FaultPlan):
    """Context manager: install ``plan`` for the block, then clear it."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


def _die(point: str) -> None:
    # A real, unhandleable process death: no atexit hooks, no flushing —
    # exactly what a SIGKILL mid-write leaves behind.
    os._exit(17)


def fire(point: str) -> None:
    """Check a plain crash/fault point (no bytes, no frames involved).

    No-op without an active plan or when nothing is due; otherwise
    crashes (:class:`InjectedCrash`), kills the process, raises
    :class:`FaultError`, or sleeps out a delay arm.
    """
    plan = _active
    if plan is None:
        return
    arm = plan.poll(point)
    if arm is None:
        return
    if arm.kind == "crash":
        raise InjectedCrash(f"injected crash at {point!r}")
    if arm.kind == "kill":
        _die(point)
    if arm.kind == "error":
        raise FaultError(arm.message or f"injected fault at {point!r}")
    if arm.kind == "delay":
        time.sleep(arm.seconds)
        return
    raise FaultError(
        f"arm kind {arm.kind!r} cannot fire at plain point {point!r}"
    )


def filter_write(point: str, data: bytes) -> tuple[bytes, bool]:
    """Check a byte-write point; returns ``(bytes_to_write, crash_after)``.

    The caller writes (and flushes) the returned bytes, then — when
    ``crash_after`` is set — must raise :class:`InjectedCrash` via
    :func:`crash_after_write`.  A ``crash`` arm keeps the full record
    and dies at the boundary; a ``torn`` arm keeps a seeded prefix.
    """
    plan = _active
    if plan is None:
        return data, False
    arm = plan.poll(point)
    if arm is None:
        return data, False
    if arm.kind == "crash":
        return data, True
    if arm.kind == "torn":
        return data[: plan.torn_length(arm, len(data))], True
    if arm.kind == "kill":
        return data, True  # caller flushes, then crash_after_write kills
    if arm.kind == "error":
        raise FaultError(arm.message or f"injected fault at {point!r}")
    if arm.kind == "delay":
        time.sleep(arm.seconds)
        return data, False
    raise FaultError(f"arm kind {arm.kind!r} cannot fire at write point {point!r}")


def crash_after_write(point: str) -> None:
    """Finish a ``crash_after`` write: die for real under a kill arm,
    otherwise raise :class:`InjectedCrash`."""
    plan = _active
    if plan is not None:
        for arm in plan._arms.get(point, ()):
            if arm.kind == "kill" and arm.fired:
                _die(point)
    raise InjectedCrash(f"injected crash after write at {point!r}")


def frame_action(point: str):
    """Check a frame point; returns ``None``, ``("drop",)`` or ``("delay", s)``.

    ``kill`` arms die on the spot (the node process vanishes
    mid-conversation); ``crash``/``error`` arms raise.  The caller
    handles ``drop`` by swallowing the frame and ``delay`` by sleeping
    *asynchronously* — a frame point lives on an event loop, so the
    delay must not block it.
    """
    plan = _active
    if plan is None:
        return None
    arm = plan.poll(point)
    if arm is None:
        return None
    if arm.kind == "drop":
        return ("drop",)
    if arm.kind == "delay":
        return ("delay", arm.seconds)
    if arm.kind == "kill":
        _die(point)
    if arm.kind == "crash":
        raise InjectedCrash(f"injected crash at {point!r}")
    raise FaultError(arm.message or f"injected fault at {point!r}")
