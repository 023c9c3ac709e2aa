"""Disk-resident query files.

F-MQM and F-MBM (Sections 4.2 and 4.3 of the paper) assume the query set
``Q`` is a flat, non-indexed file of points that does not fit in memory.
Both algorithms first sort the file by Hilbert value (for locality) and
then process it in memory-sized *blocks* ``Q_1 .. Q_m``.

:class:`PointFile` models that file as one contiguous, read-only array
in storage order.  A block read hands out views of its rows and charges
one block and its pages to the reading query's
:class:`~repro.core.types.QueryCost` (a read outside a query is not
counted);
:meth:`PointFile.block_summaries` gives the per-block MBRs and
cardinalities F-MBM keeps resident.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.hilbert import hilbert_sort
from repro.geometry.point import as_points


class QueryBlock:
    """One memory-resident block ``Q_i`` of a disk-resident query set.

    Attributes
    ----------
    index:
        Position of the block within the file (0-based).
    points:
        ``(n_i, dims)`` read-only view of the block's query points.
    record_ids:
        Identifiers of the points in the original (unsorted) file.
    """

    __slots__ = ("index", "points", "record_ids")

    def __init__(self, index: int, points: np.ndarray, record_ids: np.ndarray):
        self.index = int(index)
        self.points = points
        self.record_ids = record_ids

    @property
    def cardinality(self) -> int:
        """Number of query points in the block (``n_i`` in the paper)."""
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:
        return f"QueryBlock(index={self.index}, points={self.cardinality})"


class PointFile:
    """A flat file of points stored on the simulated disk.

    Parameters
    ----------
    points:
        The query points in their original order.
    points_per_page:
        Page capacity of the simulated disk; the paper's 1 KByte pages
        hold 50 two-dimensional points.
    block_pages:
        Number of pages that fit in memory at once; a block ``Q_i``
        consists of this many consecutive pages (the paper's experiments
        use blocks of 10,000 points).
    hilbert_sorted:
        When True (default), the file is rewritten in Hilbert order
        before being split into blocks, exactly as F-MQM/F-MBM require
        (the paper excludes the sort from the reported cost, so it is
        not charged).
    """

    def __init__(
        self,
        points: np.ndarray,
        points_per_page: int = 50,
        block_pages: int = 200,
        hilbert_sorted: bool = True,
    ):
        pts = as_points(points)
        if points_per_page < 1:
            raise ValueError("points_per_page must be positive")
        if block_pages < 1:
            raise ValueError("block_pages must be positive")
        self.points_per_page = int(points_per_page)
        self.block_pages = int(block_pages)
        if hilbert_sorted:
            self.record_ids = hilbert_sort(pts).astype(np.int64, copy=False)
            self.points = pts[self.record_ids]
        else:
            self.record_ids = np.arange(pts.shape[0], dtype=np.int64)
            self.points = pts.copy()
        self.points.flags.writeable = False
        self.record_ids.flags.writeable = False

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def point_count(self) -> int:
        """Total number of query points (``n`` in the paper)."""
        return self.points.shape[0]

    @property
    def dims(self) -> int:
        """Dimensionality of the stored points."""
        return self.points.shape[1]

    @property
    def page_count(self) -> int:
        """Number of pages the file occupies; the last may be partial."""
        return -(-self.point_count // self.points_per_page)

    @property
    def points_per_block(self) -> int:
        """Maximum number of points per block."""
        return self.block_pages * self.points_per_page

    @property
    def block_count(self) -> int:
        """Number of blocks ``m`` the file splits into."""
        return -(-self.page_count // self.block_pages)

    def __len__(self) -> int:
        return self.point_count

    # ------------------------------------------------------------------
    # block access
    # ------------------------------------------------------------------
    def read_block(self, index: int, cost=None) -> QueryBlock:
        """Load block ``Q_index``; one block read and its pages go to ``cost`` (if given)."""
        if not 0 <= index < self.block_count:
            raise IndexError(f"block {index} out of range (file has {self.block_count} blocks)")
        first_page = index * self.block_pages
        last_page = min(first_page + self.block_pages, self.page_count)
        if cost is not None:
            cost.record_block_read(last_page - first_page)
        rows = slice(first_page * self.points_per_page, last_page * self.points_per_page)
        return QueryBlock(index, self.points[rows], self.record_ids[rows])

    def block_summaries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every block's MBR corners and cardinality, as ``(lows, highs, cardinalities)``.

        Row ``i`` of each array summarises block ``Q_i``; cardinalities
        are floats, ready to weight a kernel.  Nothing is charged: the
        paper produces these during the external sort, whose cost it
        excludes.
        """
        starts = np.arange(0, self.point_count, self.points_per_block)
        lows = np.minimum.reduceat(self.points, starts, axis=0)
        highs = np.maximum.reduceat(self.points, starts, axis=0)
        cardinalities = np.diff(np.append(starts, self.point_count)).astype(np.float64)
        return lows, highs, cardinalities

    def __repr__(self) -> str:
        return (
            f"PointFile(points={self.point_count}, blocks={self.block_count}, "
            f"points_per_block={self.points_per_block})"
        )
