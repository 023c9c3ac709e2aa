"""A least-recently-used page buffer.

The paper notes that MQM "benefits from the existence of an LRU buffer"
because successive per-query-point NN searches revisit the same R-tree
nodes.  Attaching an :class:`LRUBuffer` to a
:class:`~repro.rtree.flat.FlatRTree` makes the snapshot report both
logical node accesses and buffer misses (page faults), so that effect
can be reproduced and measured.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRUBuffer:
    """Fixed-capacity LRU cache of page identifiers.

    The buffer stores only identifiers — the simulated pages have no
    payload to cache — which is all that is needed to decide hit/miss.
    :meth:`access` and :meth:`clear` hold a lock: threads share a buffer.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be at least one page")
        self.capacity = int(capacity)
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def access(self, page_id: int) -> bool:
        """Touch ``page_id``; return True on a buffer hit, False on a fault.

        A miss loads the page, evicting least recently used pages while
        the buffer is over capacity.  The page just touched is the most
        recently used and is never the one evicted — even mid-sequence
        with the buffer over capacity (e.g. after ``capacity`` was set
        below the resident count, or a single-page buffer faulting on
        every access).
        """
        with self._lock:
            hit = page_id in self._pages
            self._pages[page_id] = None
            self._pages.move_to_end(page_id)
            self.hits += hit
            self.misses += not hit
            self._evict_over_capacity()
            return hit

    def _evict_over_capacity(self) -> None:
        """Evict from the LRU end until within capacity.

        The ``> 1`` guard keeps the most recently touched page resident
        no matter what ``capacity`` says: an accounting sequence must
        never report a miss for the page it just loaded.
        """
        pages = self._pages
        while len(pages) > self.capacity and len(pages) > 1:
            pages.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached page and zero the hit/miss counters."""
        with self._lock:
            self._pages.clear()
            self.hits = 0
            self.misses = 0

    def __repr__(self) -> str:
        return (
            f"LRUBuffer(capacity={self.capacity}, resident={len(self._pages)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
