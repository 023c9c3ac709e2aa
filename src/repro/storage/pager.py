"""Simulated disk pages.

A :class:`Pager` owns a sequence of fixed-capacity :class:`Page` objects
holding point rows.  Reading a page charges the associated
:class:`~repro.storage.counters.IOCounters`.  The query-file abstraction
(:mod:`repro.storage.pointfile`) is built on top of this.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.point import as_points
from repro.storage.counters import IOCounters


class Page:
    """One fixed-size disk page holding a contiguous slice of points."""

    __slots__ = ("page_id", "points", "record_ids")

    def __init__(self, page_id: int, points: np.ndarray, record_ids: np.ndarray):
        self.page_id = int(page_id)
        self.points = points
        self.record_ids = record_ids

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"Page(id={self.page_id}, points={len(self)})"


class Pager:
    """Splits a point array into pages and counts reads.

    Parameters
    ----------
    points:
        ``(count, dims)`` array in storage order.
    points_per_page:
        Page capacity; the paper's 1 KByte pages hold 50 two-dimensional
        points, which is the default used by the experiment configs.
    counters:
        Shared :class:`IOCounters`; a private instance is created when
        omitted.
    """

    def __init__(
        self,
        points: np.ndarray,
        points_per_page: int,
        counters: IOCounters | None = None,
        record_ids: np.ndarray | None = None,
    ):
        pts = as_points(points)
        if points_per_page < 1:
            raise ValueError("points_per_page must be positive")
        self.points_per_page = int(points_per_page)
        self.counters = counters if counters is not None else IOCounters()
        if record_ids is None:
            record_ids = np.arange(pts.shape[0], dtype=np.int64)
        else:
            record_ids = np.asarray(record_ids, dtype=np.int64)
            if record_ids.shape[0] != pts.shape[0]:
                raise ValueError("record_ids must have one entry per point")
        self._pages = [
            Page(
                page_id,
                pts[start : start + points_per_page],
                record_ids[start : start + points_per_page],
            )
            for page_id, start in enumerate(range(0, pts.shape[0], points_per_page))
        ]
        self._point_count = pts.shape[0]
        self._dims = pts.shape[1]

    @property
    def page_count(self) -> int:
        """Total number of pages in the file."""
        return len(self._pages)

    @property
    def point_count(self) -> int:
        """Total number of points stored."""
        return self._point_count

    @property
    def dims(self) -> int:
        """Dimensionality of the stored points."""
        return self._dims

    def read_page(self, page_id: int) -> Page:
        """Fetch one page, charging a page read."""
        if not 0 <= page_id < len(self._pages):
            raise IndexError(f"page {page_id} out of range (file has {len(self._pages)} pages)")
        self.counters.record_page_reads(1)
        return self._pages[page_id]

    def peek_page(self, page_id: int) -> Page:
        """Return a page without charging I/O (used by tests and validation)."""
        return self._pages[page_id]

    def __repr__(self) -> str:
        return (
            f"Pager(points={self._point_count}, pages={self.page_count}, "
            f"points_per_page={self.points_per_page})"
        )
