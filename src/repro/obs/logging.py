"""Structured JSON logging for lifecycle events.

One line per event, one JSON object per line::

    {"ts": 1717.25, "level": "info", "component": "serve.server",
     "event": "worker.respawned", "worker": 1, "deaths": 2}

The call sites live on *rare* paths — server start/stop, snapshot
swaps, worker deaths and respawns, compactions, WAL recovery, breaker
transitions — so the cost model is looser than tracing's, but the same
``is None``-style gate applies: :func:`get_logger` returns a cached
:class:`ComponentLogger` whose emit methods are one ``if not _enabled``
test when logging is off.  Events go to a stream (stderr by default) or
any file-like object handed to :func:`enable`, which tests use to
capture and assert on event sequences.
"""

from __future__ import annotations

import json
import sys
import threading
import time

_enabled = False
_stream = None
_lock = threading.Lock()
_loggers: dict[str, "ComponentLogger"] = {}


def enable(stream=None) -> None:
    """Turn structured logging on, writing to ``stream`` (default stderr)."""
    global _enabled, _stream
    with _lock:
        _stream = stream
        _enabled = True


def disable() -> None:
    global _enabled, _stream
    with _lock:
        _enabled = False
        _stream = None


class ComponentLogger:
    """A named emitter; instances are cached, one per component string."""

    __slots__ = ("component",)

    def __init__(self, component: str):
        self.component = component

    def _emit(self, level: str, event: str, fields: dict) -> None:
        if not _enabled:
            return
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "component": self.component,
            "event": event,
        }
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str)
        with _lock:
            stream = _stream if _stream is not None else sys.stderr
            try:
                stream.write(line + "\n")
            except ValueError:
                # The capture stream was closed (test teardown); drop.
                pass

    def info(self, event: str, **fields) -> None:
        self._emit("info", event, fields)

    def warning(self, event: str, **fields) -> None:
        self._emit("warning", event, fields)

    def error(self, event: str, **fields) -> None:
        self._emit("error", event, fields)


def get_logger(component: str) -> ComponentLogger:
    """The (cached) logger for ``component``."""
    logger = _loggers.get(component)
    if logger is None:
        logger = _loggers.setdefault(component, ComponentLogger(component))
    return logger
