"""Disk-resident query files.

F-MQM and F-MBM (Sections 4.2 and 4.3 of the paper) assume the query set
``Q`` is a flat, non-indexed file of points that does not fit in memory.
Both algorithms first sort the file by Hilbert value (for locality) and
then process it in memory-sized *blocks* ``Q_1 .. Q_m``.

:class:`PointFile` models that file: it wraps a :class:`~repro.storage.pager.Pager`,
supports Hilbert sorting, and exposes block-level reads that charge the
shared :class:`~repro.storage.counters.IOCounters`.  :class:`QueryBlock`
is the in-memory image of one block together with the summary (MBR and
cardinality) that F-MBM keeps resident.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hilbert import hilbert_sort
from repro.geometry.mbr import MBR
from repro.geometry.point import as_points
from repro.storage.counters import IOCounters
from repro.storage.pager import Pager


class QueryBlock:
    """One memory-resident block ``Q_i`` of a disk-resident query set.

    Attributes
    ----------
    index:
        Position of the block within the file (0-based).
    points:
        ``(n_i, dims)`` array with the block's query points.
    record_ids:
        Identifiers of the points in the original (unsorted) file.
    mbr:
        Minimum bounding rectangle ``M_i`` of the block.
    """

    __slots__ = ("index", "points", "record_ids", "mbr")

    def __init__(self, index: int, points: np.ndarray, record_ids: np.ndarray):
        self.index = int(index)
        self.points = points
        self.record_ids = record_ids
        self.mbr = MBR.from_points(points)

    @property
    def cardinality(self) -> int:
        """Number of query points in the block (``n_i`` in the paper)."""
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:
        return f"QueryBlock(index={self.index}, points={self.cardinality})"


class BlockSummary:
    """The in-memory summary F-MBM keeps per block: its MBR and cardinality."""

    __slots__ = ("index", "mbr", "cardinality")

    def __init__(self, index: int, mbr: MBR, cardinality: int):
        self.index = int(index)
        self.mbr = mbr
        self.cardinality = int(cardinality)

    def __repr__(self) -> str:
        return f"BlockSummary(index={self.index}, cardinality={self.cardinality})"


class PointFile:
    """A flat file of points stored on the simulated disk.

    Parameters
    ----------
    points:
        The query points in their original order.
    points_per_page:
        Page capacity of the simulated disk.
    block_pages:
        Number of pages that fit in memory at once; a block ``Q_i``
        consists of this many consecutive pages (the paper's experiments
        use blocks of 10,000 points).
    counters:
        Shared I/O counters; private ones are created when omitted.
    hilbert_sorted:
        When True (default), the file is rewritten in Hilbert order
        before being split into blocks, exactly as F-MQM/F-MBM require.
    """

    def __init__(
        self,
        points: np.ndarray,
        points_per_page: int = 50,
        block_pages: int = 200,
        counters: IOCounters | None = None,
        hilbert_sorted: bool = True,
    ):
        pts = as_points(points)
        self.counters = counters if counters is not None else IOCounters()
        self.block_pages = int(block_pages)
        if self.block_pages < 1:
            raise ValueError("block_pages must be positive")
        record_ids = np.arange(pts.shape[0], dtype=np.int64)
        if hilbert_sorted:
            order = hilbert_sort(pts)
            pts = pts[order]
            record_ids = record_ids[order]
            # One external sort pass is charged for bookkeeping, although
            # the paper excludes sorting from the reported cost.
            self.counters.record_sort_pass()
        self._pager = Pager(pts, points_per_page, counters=self.counters, record_ids=record_ids)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def point_count(self) -> int:
        """Total number of query points (``n`` in the paper)."""
        return self._pager.point_count

    @property
    def dims(self) -> int:
        """Dimensionality of the stored points."""
        return self._pager.dims

    @property
    def points_per_block(self) -> int:
        """Maximum number of points per block."""
        return self.block_pages * self._pager.points_per_page

    @property
    def block_count(self) -> int:
        """Number of blocks ``m`` the file splits into."""
        pages = self._pager.page_count
        return (pages + self.block_pages - 1) // self.block_pages

    def __len__(self) -> int:
        return self.point_count

    # ------------------------------------------------------------------
    # block access
    # ------------------------------------------------------------------
    def read_block(self, index: int) -> QueryBlock:
        """Load block ``Q_index`` into memory, charging one block read."""
        if not 0 <= index < self.block_count:
            raise IndexError(f"block {index} out of range (file has {self.block_count} blocks)")
        first_page = index * self.block_pages
        last_page = min(first_page + self.block_pages, self._pager.page_count)
        pages = [self._pager.peek_page(page_id) for page_id in range(first_page, last_page)]
        self.counters.record_block_read(pages_in_block=len(pages))
        points = np.vstack([page.points for page in pages])
        record_ids = np.concatenate([page.record_ids for page in pages])
        return QueryBlock(index, points, record_ids)

    def iter_blocks(self):
        """Yield every block in file order, charging I/O for each."""
        for index in range(self.block_count):
            yield self.read_block(index)

    def block_summaries(self) -> list[BlockSummary]:
        """Return the per-block MBR and cardinality summaries.

        F-MBM computes these once with a single sequential scan of the
        file (charged here) and keeps them in memory for the rest of the
        query.
        """
        summaries = []
        for block in self.iter_blocks():
            summaries.append(BlockSummary(block.index, block.mbr, block.cardinality))
        return summaries

    def __repr__(self) -> str:
        return (
            f"PointFile(points={self.point_count}, blocks={self.block_count}, "
            f"points_per_block={self.points_per_block})"
        )
