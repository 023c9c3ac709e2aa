"""Generation directory: crash-safe snapshot publication and recovery.

One engine's durable state lives in a single directory::

    snapshot-gen000003.npz   frozen FlatRTree generations (atomic renames)
    MANIFEST                 JSON pointer at the newest durable generation
    wal.log                  write-ahead log of mutations since that generation

Publication order is the whole correctness story:

1. the new snapshot is written via temp file + fsync + atomic rename
   (``FlatRTree.save(..., fsync=True)``) — a crash before or during this
   leaves the previous generation untouched;
2. ``MANIFEST`` is replaced atomically (``manifest.write`` fault point)
   — a crash between 1 and 2 leaves a complete but unreferenced
   snapshot, which the recovery scan may still adopt since it is newer
   and complete;
3. only after the manifest is durable are stale generations deleted —
   so at every instant at least one complete generation exists on disk.

Recovery (:meth:`GenerationStore.latest`) trusts ``MANIFEST`` when it
parses and points at a loadable snapshot, and otherwise falls back to
scanning generation files newest-first for the first one that loads —
tolerating a missing, torn, or stale manifest.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.storage.atomicio import write_json_atomic

MANIFEST_NAME = "MANIFEST"
WAL_NAME = "wal.log"
_SNAPSHOT_RE = re.compile(r"^snapshot-gen(\d{6})\.npz$")


def snapshot_name(generation: int) -> str:
    return f"snapshot-gen{int(generation):06d}.npz"


class GenerationStore:
    """Owns one engine's generation directory (layout documented above)."""

    def __init__(self, directory, *, fsync: bool = True, keep: int = 1):
        if keep < 1:
            raise ValueError("keep must retain at least the newest generation")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self.keep = int(keep)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_NAME

    def snapshot_path(self, generation: int) -> Path:
        return self.directory / snapshot_name(generation)

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def publish(self, flat, *, collect: bool = True) -> Path:
        """Durably publish ``flat`` as the newest generation.

        Snapshot first, manifest second, GC last — see the module
        docstring for why a crash at any point in between is safe.
        ``collect=False`` leaves the GC to a later
        :meth:`collect_garbage`, for a caller that must first stop
        naming the generations it would drop (a server swapping onto the
        new file).
        """
        generation = int(flat.generation)
        path = self.snapshot_path(generation)
        flat.save(path, fsync=self.fsync)
        write_json_atomic(
            self.manifest_path,
            {
                "version": 1,
                "generation": generation,
                "snapshot": path.name,
                "size": int(flat.size),
                "dims": int(flat.dims),
            },
            fsync=self.fsync,
            fault_point="manifest.write",
        )
        if collect:
            self.collect_garbage(generation)
        return path

    def collect_garbage(self, durable_generation: int) -> None:
        """Drop generations older than the ``keep`` newest ≤ durable one."""
        stale = [
            (gen, path)
            for gen, path in self._scan_snapshots()
            if gen <= durable_generation
        ]
        for gen, path in stale[self.keep:]:
            try:
                path.unlink()
            except OSError:
                pass  # GC is advisory; a leftover file is re-collected later
        # Stray temp files from crashed publications are dead weight too.
        for path in self.directory.glob("*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _scan_snapshots(self):
        """``(generation, path)`` pairs present on disk, newest first."""
        found = []
        for path in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        found.sort(reverse=True)
        return found

    def manifest_generation(self):
        """The generation ``MANIFEST`` points at, or ``None`` if unreadable."""
        try:
            document = json.loads(self.manifest_path.read_text())
            return int(document["generation"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def latest(self, *, mmap_mode: str | None = "r"):
        """Load the newest *complete* generation, or ``None`` if none exists.

        The manifest is a hint, not an authority: a complete snapshot
        newer than the manifest (crash between snapshot rename and
        manifest write) is preferred, and a manifest pointing at a
        missing or unloadable file is simply skipped by the scan.
        """
        # Imported here: rtree.flat itself depends on repro.storage.
        from repro.rtree.flat import FlatRTree

        for generation, path in self._scan_snapshots():
            try:
                flat = FlatRTree.load(path, mmap_mode=mmap_mode)
            except Exception:
                continue  # incomplete/corrupt file — try the next-newest
            if int(flat.generation) != generation:
                flat.generation = generation
            return flat
        return None
