"""Write-ahead log for the mutable engine write path.

The LSM write path (PR 7) keeps un-compacted writes in a delta overlay —
pure process memory, gone on a crash.  The WAL closes that hole with the
standard discipline: every ``insert``/``delete`` is appended (and,
depending on the fsync policy, made durable) *before* the in-memory
structures mutate, so ``GNNEngine.recover`` can rebuild the exact
pre-crash merged view from the last durable snapshot generation plus a
replay of the log tail.

File format (all little-endian)::

    header : magic b"RWAL" | version u16 | base_generation i64
    record : length u32 | crc32(payload) u32 | payload
    payload: op u8 (0=insert, 1=delete) | record_id i64 |
             dims u16 | dims * f64 coordinates

``base_generation`` stamps which snapshot generation the log's records
apply *on top of*.  Truncation (:meth:`WriteAheadLog.reset`) atomically
replaces the file with a fresh header stamped with the just-published
generation, so a crash between "snapshot durable" and "log truncated"
leaves a stale log whose ``base_generation`` is older than the
recovered snapshot — recovery detects that and ignores it (every record
is already folded in) instead of replaying writes twice.

Recovery tolerates a torn tail by construction: records are
length-prefixed and checksummed, and :meth:`scan` stops at the first
record whose bytes are missing or whose CRC fails.  Everything before
that point was acknowledged under the durability policy; everything
after it never was.

Fsync policy (``fsync=`` knob):

``always``
    fsync after every append — an acknowledged write survives power
    loss, at ~one disk flush per write.
``interval``
    flush to the OS on every append, fsync at most once per
    ``interval_s`` — bounds power-loss exposure to the interval while
    amortising the flush cost (the default).
``off``
    flush to the OS only — survives a process crash (the common case
    the chaos suite exercises) but not power loss.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.obs.logging import get_logger
from repro.storage.atomicio import fsync_directory
from repro.testing import faults

_log = get_logger("storage.wal")

_MAGIC = b"RWAL"
_VERSION = 1
_HEADER = struct.Struct("<4sHq")
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_PAYLOAD_HEAD = struct.Struct("<BqH")  # op, record_id, dims

_OP_CODES = {"insert": 0, "delete": 1}
_OP_NAMES = {code: name for name, code in _OP_CODES.items()}

FSYNC_POLICIES = ("always", "interval", "off")


class WalCorruptionError(RuntimeError):
    """The log's *header* is unreadable (torn tails are not errors)."""


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation."""

    op: str
    record_id: int
    point: tuple

    def encode(self) -> bytes:
        coords = tuple(float(c) for c in self.point)
        payload = _PAYLOAD_HEAD.pack(
            _OP_CODES[self.op], int(self.record_id), len(coords)
        ) + struct.pack(f"<{len(coords)}d", *coords)
        return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class WalScan:
    """Everything :meth:`WriteAheadLog.scan` could read from a log file."""

    base_generation: int
    records: tuple
    valid_bytes: int  # header + every intact record; a torn tail starts here
    torn: bool


class WriteAheadLog:
    """Append-only durable log of engine mutations.

    Opening an existing file adopts its ``base_generation`` and truncates
    any torn tail (the bytes past the last intact record never reached
    durability, so discarding them is correct, and leaving them would
    corrupt the *next* append).  Opening a missing file creates it with
    the given ``base_generation``.
    """

    def __init__(
        self,
        path,
        *,
        fsync: str = "interval",
        interval_s: float = 0.05,
        base_generation: int = 0,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync policy must be one of {FSYNC_POLICIES}")
        self.path = str(path)
        self.fsync = fsync
        self.interval_s = float(interval_s)
        self._last_sync = 0.0
        if os.path.exists(self.path):
            scan = self.scan(self.path)
            self.base_generation = scan.base_generation
            if scan.torn:
                with open(self.path, "r+b") as handle:
                    handle.truncate(scan.valid_bytes)
                _log.warning(
                    "wal.torn_tail_truncated",
                    path=self.path,
                    valid_bytes=scan.valid_bytes,
                    records=len(scan.records),
                )
            self._handle = open(self.path, "ab")
        else:
            self.base_generation = int(base_generation)
            self._handle = open(self.path, "wb")
            self._handle.write(_HEADER.pack(_MAGIC, _VERSION, self.base_generation))
            self._handle.flush()
            os.fsync(self._handle.fileno())
            fsync_directory(os.path.dirname(os.path.abspath(self.path)))
            self._last_sync = time.monotonic()

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, op: str, record_id: int, point: Sequence[float]) -> WalRecord:
        """Log one mutation; returns only once it is on disk per policy.

        The ``wal.append`` fault point covers this write: a ``crash`` arm
        dies at the record boundary (full record flushed, then death), a
        ``torn`` arm flushes a seeded prefix first — both after the bytes
        actually reached the file, so recovery sees what a real crash
        would leave.
        """
        record = WalRecord(op, int(record_id), tuple(float(c) for c in point))
        data, crash_after = faults.filter_write("wal.append", record.encode())
        self._handle.write(data)
        self._handle.flush()
        if crash_after:
            # The simulated crash must observe the bytes on disk first.
            os.fsync(self._handle.fileno())
            faults.crash_after_write("wal.append")
        if self.fsync == "always":
            os.fsync(self._handle.fileno())
        elif self.fsync == "interval":
            now = time.monotonic()
            if now - self._last_sync >= self.interval_s:
                os.fsync(self._handle.fileno())
                self._last_sync = now
        return record

    def sync(self) -> None:
        """Force an fsync regardless of policy."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._last_sync = time.monotonic()

    def reset(self, base_generation: int) -> None:
        """Truncate the log after its records were folded into a snapshot.

        Atomic: a fresh header stamped ``base_generation`` is written to
        a temp file, fsync'd, and renamed over the log.  A crash anywhere
        around the rename leaves either the old full log (stale
        ``base_generation`` → recovery ignores it) or the new empty one.
        """
        self._handle.close()
        tmp = self.path + ".reset.tmp"
        with open(tmp, "wb") as handle:
            handle.write(_HEADER.pack(_MAGIC, _VERSION, int(base_generation)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        self.base_generation = int(base_generation)
        self._handle = open(self.path, "ab")
        self._last_sync = time.monotonic()
        _log.info("wal.reset", path=self.path, base_generation=self.base_generation)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @classmethod
    def scan(cls, path) -> WalScan:
        """Read a log file, stopping cleanly at any torn tail."""
        with open(path, "rb") as handle:
            blob = handle.read()
        if len(blob) < _HEADER.size:
            raise WalCorruptionError(f"{path}: missing WAL header")
        magic, version, base_generation = _HEADER.unpack_from(blob)
        if magic != _MAGIC or version != _VERSION:
            raise WalCorruptionError(f"{path}: bad WAL magic/version")
        records = []
        offset = _HEADER.size
        torn = False
        while offset < len(blob):
            if offset + _FRAME.size > len(blob):
                torn = True
                break
            length, crc = _FRAME.unpack_from(blob, offset)
            start = offset + _FRAME.size
            end = start + length
            if length < _PAYLOAD_HEAD.size or end > len(blob):
                torn = True
                break
            payload = blob[start:end]
            if zlib.crc32(payload) != crc:
                torn = True
                break
            op_code, record_id, dims = _PAYLOAD_HEAD.unpack_from(payload)
            if op_code not in _OP_NAMES or len(payload) != _PAYLOAD_HEAD.size + 8 * dims:
                torn = True
                break
            coords = struct.unpack_from(f"<{dims}d", payload, _PAYLOAD_HEAD.size)
            records.append(WalRecord(_OP_NAMES[op_code], record_id, coords))
            offset = end
        return WalScan(base_generation, tuple(records), offset, torn)
