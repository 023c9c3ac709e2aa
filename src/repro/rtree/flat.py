"""Flat array-backed R-tree snapshots — the one index queries traverse.

:class:`FlatRTree` is a read-optimized, immutable snapshot of an R-tree:
the whole index lives in a handful of contiguous numpy arrays, and every
query algorithm runs over it.  A static point set is packed straight
into the arrays (:meth:`FlatRTree.bulk_load`: Sort-Tile-Recursive from
:mod:`repro.rtree.bulkload` orders the points into leaves and each level
of nodes into parents, MBRs come from ``reduceat`` — no object per point
or page).  Nodes are numbered in breadth-first order (the root is node
0) so that the children of every internal node — and the points of
every leaf — occupy one contiguous slice:

================  =====================================================
``lows/highs``    ``(num_nodes, dims)`` — the tight MBR of every node's
                  slice.
``child_start``   CSR-style offsets: for an internal node the id of its
``child_count``   first child; for a leaf the row of its first point in
                  ``points``.
``levels``        per-node level (0 for leaves), so all traversal state
                  is plain integers.
``node_ids``      page ids: the keys an attached LRU buffer sees, each
                  snapshot reserving a block of one process-wide
                  counter, so they are unique across every index of the
                  process (a compacted generation inherits the engine's
                  buffer, and must not hit its predecessor's pages).
``points``        ``(size, dims)`` leaf-point matrix in leaf order, with
``record_ids``    the matching record identifiers.
================  =====================================================

Best-first traversal over this layout creates no object per node: a
heap pop scores an entire child slice (or leaf slice) with one kernel
call and pushes plain ``(key, counter, int)`` tuples.  The traversal
loops themselves live in :mod:`repro.rtree.traversal`
(``flat_incremental_nearest_generic``, ``MultiStreamFrontier``),
:mod:`repro.rtree.closest_pairs`, :mod:`repro.core.mbm` and
:mod:`repro.core.fmbm`; they charge node accesses through
:meth:`FlatRTree.read_node` and distance computations to the query's
own :class:`~repro.core.types.QueryCost` — the paper's cost model.  The
record is the only counter: the index keeps no running total, and a
read made without a record is not counted.
Inside :meth:`FlatRTree.read_scope` — what a batch of queries runs in —
the first reader of a node pays for it and later reads are free.

A snapshot round-trips to disk as an *uncompressed* ``.npz`` archive.
``load(..., mmap_mode="r")`` maps the arrays straight out of the archive
(the stored ``.npy`` members are located inside the zip and wrapped in
``np.memmap``), so a large index opens in milliseconds and leaf pages
are paged in by the OS on demand — the number of OS pages spanned is
reported through :class:`repro.storage.counters.MappedPageCounters`.
"""

from __future__ import annotations

import itertools
import struct
import threading
import zipfile
from contextlib import contextmanager

import numpy as np
from numpy.lib import format as npy_format

from repro.geometry.point import as_points
from repro.rtree.bulkload import pack, resolve_record_ids, run_rows, tile
from repro.storage.buffer import LRUBuffer
from repro.storage.counters import MappedPageCounters

#: Node capacity of the paper's experiments (1 KByte pages, 50 entries).
DEFAULT_CAPACITY = 50

#: The process-wide page-id counter every snapshot reserves its block from.
_page_ids = itertools.count()

#: Array names persisted by :meth:`FlatRTree.save`.
_ARRAY_FIELDS = (
    "lows",
    "highs",
    "child_start",
    "child_count",
    "levels",
    "node_ids",
    "points",
    "record_ids",
)

#: On-disk format version written by :meth:`FlatRTree.save`.  Version 2
#: appends the snapshot ``generation`` token to the meta row; version-1
#: archives (no token) are still read, with generation 0.  Version 3
#: appends ``next_record_id``; older archives read it as the largest
#: record id + 1.
FORMAT_VERSION = 3


class FlatRTree:
    """A read-only, struct-of-arrays snapshot of an R-tree.

    Instances are built with :meth:`bulk_load` (pack a static point
    set) or :meth:`load` (reopen a saved snapshot, optionally
    memory-mapped).  ``read_node``, :meth:`read_scope` and an optional
    LRU ``buffer`` form the accounting surface.  ``next_record_id`` is
    the id high-water mark: no record of the snapshot's lineage, deleted
    ones included, was given an id at or above it, so an engine over it
    allocates new ids from there.
    """

    __slots__ = (
        "dims",
        "size",
        "capacity",
        "height",
        "generation",
        "next_record_id",
        "lows",
        "highs",
        "child_start",
        "child_count",
        "levels",
        "node_ids",
        "points",
        "record_ids",
        "buffer",
        "mmap_io",
        "_by_id",
        "_points_cache",
        "_scope",
    )

    def __init__(self, arrays: dict, meta: dict, buffer: LRUBuffer | None = None, mmap_io=None):
        for name in _ARRAY_FIELDS:
            setattr(self, name, arrays[name])
        self.dims = int(meta["dims"])
        self.size = int(meta["size"])
        self.capacity = int(meta["capacity"])
        self.height = int(meta["height"])
        self.generation = int(meta.get("generation", 0))
        if "next_record_id" in meta:
            self.next_record_id = int(meta["next_record_id"])
        else:
            self.next_record_id = int(np.max(self.record_ids)) + 1 if self.size else 0
        self.buffer = buffer
        self.mmap_io = mmap_io
        self._by_id = None
        self._points_cache = None
        self._scope = _ReadScope()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        points,
        capacity: int = DEFAULT_CAPACITY,
        buffer=None,
        record_ids=None,
    ) -> "FlatRTree":
        """Pack a static point set straight into a flat snapshot.

        :func:`repro.rtree.bulkload.pack` decides the STR leaf order, and
        :func:`~repro.rtree.bulkload.tile` the STR order of each level
        above it over its nodes' MBR centres, bottom up until one root
        remains (MBRs by ``reduceat`` over the level below).  The nodes
        are then numbered breadth-first from the root down and the
        points gathered once, in that leaf order, without creating a
        node or entry object.  ``record_ids``
        optionally replaces the default row-index ids — shard snapshots
        carry global row numbers so federated answers merge in the same
        identifier space as a single whole-dataset index.  A ``(0, dims)``
        array gives the empty single-leaf snapshot (what an engine whose
        every record was deleted compacts to).
        """
        pts = np.asarray(points, dtype=np.float64)
        no_points = pts.ndim == 2 and pts.shape[0] == 0 and pts.shape[1] > 0
        if not no_points:
            pts = as_points(pts)
        count, dims = pts.shape
        order, leaf_starts = pack(pts, capacity)
        ids = None if record_ids is None else resolve_record_ids(count, record_ids)

        # Bottom-up, per level: the node MBRs, and per node the offset and
        # length of its run in ``below`` — the order of the level under it
        # (for leaves: the point order).  The leaf MBRs take one column at
        # a time, so the points themselves are gathered only once, below.
        widths = [leaf_starts.shape[0]]
        below, starts = [order], [leaf_starts]
        counts = [np.diff(leaf_starts, append=count)]
        lows, highs = [np.zeros((1, dims))], [np.zeros((1, dims))]
        if count:
            lows[0], highs[0] = np.empty((widths[0], dims)), np.empty((widths[0], dims))
            column = np.empty(count)
            for axis in range(dims):
                pts[:, axis].take(order, out=column)
                lows[0][:, axis] = np.minimum.reduceat(column, leaf_starts)
                highs[0][:, axis] = np.maximum.reduceat(column, leaf_starts)
            del column
        while widths[-1] > 1:
            nodes, parents = tile(lows[-1], highs[-1], capacity)
            lows.append(np.minimum.reduceat(lows[-1].take(nodes, axis=0), parents, axis=0))
            highs.append(np.maximum.reduceat(highs[-1].take(nodes, axis=0), parents, axis=0))
            below.append(nodes)
            starts.append(parents)
            counts.append(np.diff(parents, append=widths[-1]))
            widths.append(parents.shape[0])

        # Top-down: breadth-first numbering lists each level's nodes run by
        # run in their parents' order, right after the level above.
        height = len(widths)
        nodes = np.zeros(1, dtype=np.intp)
        first_child = 1
        per_level = {"lows": [], "highs": [], "child_start": [], "child_count": []}
        for level in range(height - 1, -1, -1):
            sizes = counts[level].take(nodes)
            per_level["lows"].append(lows[level].take(nodes, axis=0))
            per_level["highs"].append(highs[level].take(nodes, axis=0))
            first = first_child if level else 0  # leaves start at point row 0
            per_level["child_start"].append(np.cumsum(sizes) - sizes + first)
            per_level["child_count"].append(sizes)
            first_child += int(sizes.sum())
            rows = run_rows(starts[level].take(nodes), sizes)
            nodes = below.pop().take(rows, out=rows)
        del order  # freed before the gather: ``nodes`` is now the point order
        num_nodes = sum(widths)
        arrays = {name: np.concatenate(parts) for name, parts in per_level.items()}
        arrays.update(
            levels=np.repeat(np.arange(height - 1, -1, -1, dtype=np.int16), widths[::-1]),
            node_ids=np.fromiter(
                itertools.islice(_page_ids, num_nodes), dtype=np.int64, count=num_nodes
            ),
            points=pts.take(nodes, axis=0),  # ~7x faster than pts[nodes] on 100k rows
            record_ids=nodes if ids is None else ids.take(nodes),  # row numbers by default
        )
        meta = {"dims": dims, "size": count, "capacity": capacity, "height": height}
        return cls(arrays, meta, buffer=buffer)

    # ------------------------------------------------------------------
    # access accounting
    # ------------------------------------------------------------------
    def read_node(self, index: int, cost=None) -> int:
        """Charge one node access for node ``index`` to ``cost`` and return it.

        ``cost`` is the reading query's record; a read without one is
        not counted, though it still touches the buffer.  The buffer
        (when attached) is keyed by the preserved page ids
        (``node_ids``).  Inside this
        thread's :meth:`read_scope` only a node's first read is charged
        and touches the buffer.
        """
        read = self._scope.read
        if read is not None:
            if index in read:
                return index
            read.add(index)
        hit = False
        if self.buffer is not None:
            hit = self.buffer.access(int(self.node_ids[index]))
        if cost is not None:
            cost.record_node_access(bool(self.levels[index] == 0), buffer_hit=hit)
        return index

    @contextmanager
    def read_scope(self):
        """A scope in which the first reader of a node pays for it.

        Within the ``with`` block, on this thread, :meth:`read_node`
        charges a node and touches the buffer only the first time it is
        read; later reads return it uncharged, so queries run one after
        another in the scope read the union of their solo read sets,
        each node once.  Yields that set of node indices (live).  A
        nested scope joins the enclosing one; other threads are not
        affected.
        """
        scope = self._scope
        if scope.read is not None:
            yield scope.read
            return
        scope.read = set()
        try:
            yield scope.read
        finally:
            scope.read = None

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    @property
    def num_nodes(self) -> int:
        """Total number of nodes in the snapshot."""
        return int(self.levels.shape[0])

    def root_mbr(self) -> tuple[np.ndarray, np.ndarray]:
        """The root MBR as plain ``(low, high)`` float64 copies.

        This is the bound a federation coordinator prunes on: the root
        row covers every point of the snapshot, so ``amindist(root, Q)``
        lower-bounds the aggregate distance of any record the shard
        could contribute.  Copies (not memmap views) are returned so the
        manifest stays valid after the mapping is closed.
        """
        return (
            np.array(self.lows[0], dtype=np.float64),
            np.array(self.highs[0], dtype=np.float64),
        )

    def live_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The dataset as ``(points, record_ids)`` in record-id order, cached.

        Bulk-loaded snapshots use row indices as record ids, so this is
        the original ``(N, dims)`` dataset; compacted and shard snapshots
        keep whatever ids their records were given.  The one copy is made
        on first use — it is what brute-force specs scan and what
        :meth:`repro.rtree.overlay.DeltaOverlay.live_points` merges the
        pending writes into (same name, same shape).
        """
        if self._points_cache is None:
            rows, ids = self._id_order()
            self._points_cache = (np.asarray(self.points)[rows], ids)
        return self._points_cache

    def _id_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, ids)``: the rows in record-id order and their ids, ascending, cached.

        The snapshot's one id index: :meth:`live_points` reads the rows
        in this order, and a record's row is found by binary search in
        ``ids`` (:meth:`repro.rtree.overlay.DeltaOverlay.base_row`).
        """
        if self._by_id is None:
            rows = np.argsort(self.record_ids)  # unique ids: any argsort is the stable one
            self._by_id = (rows, np.asarray(self.record_ids)[rows])
        return self._by_id

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path, generation: int | None = None, *, fsync: bool = False) -> None:
        """Write the snapshot as an *uncompressed* ``.npz`` archive.

        Uncompressed members are stored contiguously inside the zip,
        which is what allows :meth:`load` to memory-map them in place.
        The archive is written to exactly ``path`` (``np.savez``'s
        silent ``.npz``-appending is bypassed), so ``save(p)`` /
        ``load(p)`` always round-trip.

        ``generation`` stamps the persisted snapshot with a publication
        epoch (default: this snapshot's own ``generation``).  The
        serving subsystem uses the token for hot-swaps: a publisher
        saves the successor snapshot with a higher generation, and the
        workers report which generation answered each batch.

        Publication is atomic: the archive is staged in a same-directory
        temp file and renamed into place (the ``snapshot.rename`` fault
        point fires just before the rename), so a reader — or a recovery
        scan after a crash — never observes a half-written snapshot
        under the real name.  ``fsync=True`` additionally makes the
        snapshot durable before the rename.
        """
        from repro.storage.atomicio import atomic_output

        if generation is None:
            generation = self.generation
        payload = {name: np.ascontiguousarray(getattr(self, name)) for name in _ARRAY_FIELDS}
        payload["meta"] = np.array(
            [
                FORMAT_VERSION,
                self.dims,
                self.size,
                self.capacity,
                self.height,
                int(generation),
                self.next_record_id,
            ],
            dtype=np.int64,
        )
        with atomic_output(path, fsync=fsync, fault_point="snapshot.rename") as handle:
            np.savez(handle, **payload)

    @classmethod
    def load(cls, path, mmap_mode: str | None = None, buffer=None) -> "FlatRTree":
        """Reopen a saved snapshot.

        With ``mmap_mode=None`` the arrays are materialised in memory.
        With ``mmap_mode="r"`` each array is located inside the ``.npz``
        archive and wrapped in a read-only ``np.memmap`` — nothing is
        copied, the OS pages data in on demand, and the mapping extent
        is reported on the returned snapshot's ``mmap_io`` counters.
        """
        if mmap_mode is None:
            with np.load(path) as archive:
                arrays = {name: np.array(archive[name]) for name in _ARRAY_FIELDS}
                meta_row = np.array(archive["meta"])
            return cls(arrays, _unpack_meta(meta_row), buffer=buffer)
        if mmap_mode != "r":
            raise ValueError(
                f"unsupported mmap_mode {mmap_mode!r}: flat snapshots are "
                "read-only, use mmap_mode='r' (or None to load into memory)"
            )
        arrays, mmap_io = _mmap_npz_arrays(path)
        meta_row = np.array(arrays.pop("meta"))
        return cls(arrays, _unpack_meta(meta_row), buffer=buffer, mmap_io=mmap_io)

    def __repr__(self) -> str:
        mapped = ", mmap" if self.mmap_io is not None else ""
        return (
            f"FlatRTree(size={self.size}, dims={self.dims}, height={self.height}, "
            f"nodes={self.num_nodes}{mapped})"
        )


class _ReadScope(threading.local):
    """One thread's open :meth:`FlatRTree.read_scope`: the nodes read in it, or ``None``."""

    read = None


def _unpack_meta(meta_row: np.ndarray) -> dict:
    version = int(meta_row[0])
    if not 1 <= version <= FORMAT_VERSION:
        raise ValueError(
            f"unsupported flat snapshot format version {version} "
            f"(this build reads versions 1-{FORMAT_VERSION})"
        )
    meta = {
        "dims": int(meta_row[1]),
        "size": int(meta_row[2]),
        "capacity": int(meta_row[3]),
        "height": int(meta_row[4]),
    }
    # Version 1 predates the hot-swap generation token.
    meta["generation"] = int(meta_row[5]) if version >= 2 else 0
    if version >= 3:
        meta["next_record_id"] = int(meta_row[6])
    return meta


# ----------------------------------------------------------------------
# memory-mapping .npy members inside an uncompressed .npz archive
# ----------------------------------------------------------------------
_LOCAL_HEADER_SIZE = 30  # fixed part of a zip local file header


def _local_data_offset(raw, info: zipfile.ZipInfo) -> int:
    """Byte offset of a stored member's data inside the archive file.

    The local file header repeats the filename and carries its own extra
    field (which may differ from the central directory's), so the header
    must be parsed at ``info.header_offset`` rather than reconstructed.
    """
    raw.seek(info.header_offset)
    header = raw.read(_LOCAL_HEADER_SIZE)
    if len(header) != _LOCAL_HEADER_SIZE or header[:4] != b"PK\x03\x04":
        raise ValueError(f"corrupt zip local header for {info.filename!r}")
    name_length, extra_length = struct.unpack("<HH", header[26:30])
    return info.header_offset + _LOCAL_HEADER_SIZE + name_length + extra_length


def _read_npy_header(member) -> tuple[tuple, bool, np.dtype, int]:
    """Parse a ``.npy`` stream header; returns (shape, fortran, dtype, header_len)."""
    version = npy_format.read_magic(member)
    if version == (1, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_1_0(member)
    elif version == (2, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_2_0(member)
    else:
        raise ValueError(f"unsupported .npy format version {version}")
    return shape, fortran_order, dtype, member.tell()


def _mmap_npz_arrays(path) -> tuple[dict, MappedPageCounters]:
    """Map every array of an uncompressed ``.npz`` archive without copying."""
    arrays: dict = {}
    counters = MappedPageCounters()
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(
                    f"member {info.filename!r} is compressed; only archives "
                    "written by FlatRTree.save (uncompressed np.savez) can "
                    "be memory-mapped"
                )
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            with archive.open(info.filename) as member:
                shape, fortran_order, dtype, header_length = _read_npy_header(member)
            if dtype.hasobject:
                raise ValueError(f"member {info.filename!r} holds Python objects")
            element_count = int(np.prod(shape)) if shape else 1
            if element_count == 0:
                arrays[name] = np.empty(shape, dtype=dtype)
                continue
            offset = _local_data_offset(raw, info) + header_length
            arrays[name] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=offset,
                shape=shape,
                order="F" if fortran_order else "C",
            )
            # The "meta" header is copied out and discarded by load();
            # the counters report only the index arrays that stay mapped.
            if name != "meta":
                counters.record_mapped(element_count * dtype.itemsize)
    return arrays, counters
