"""Nearest-neighbor traversals over a flat R-tree snapshot.

Every query runs over a :class:`~repro.rtree.flat.FlatRTree`; the search
primitive is the I/O-optimal best-first algorithm of [HS99] in its
incremental ("distance browsing") form, which reports neighbors in
ascending distance without knowing ``k`` in advance:

* :func:`flat_incremental_nearest_generic` — the one stream every caller
  is built on.  It accepts arbitrary *vectorised* lower-bound/key
  functions (``points_key`` / ``mbrs_key``), so the same loop ranks nodes
  by ``mindist`` to a point (conventional NN) or by the aggregate group
  distance (F-MQM's group-NN stream).  A heap pop scores a whole leaf or
  child slice with one kernel call.  (MBM, SPM and best-first need no
  stream: they stop at a known key, in
  :func:`repro.core.mbm._mbm_best_first`.)
* :class:`MultiStreamFrontier` — all ``n`` point-NN streams of one query
  group as a single struct-of-arrays engine (MQM's driver).  The
  conventional point-NN stream, the generic one keyed by the distance to
  a point, runs only in tests (``tests/traversal_reference.py``).

``mbrs_key`` must lower-bound ``points_key`` for every point inside a
box — exactly the property that makes best-first search correct.  MQM
and F-MQM rely on incrementality because their termination condition is
only discovered while consuming the stream.

Heap entries are plain ``(key, tiebreak, payload...)`` tuples of floats
and ints; no Python node objects exist.  The tiebreak counter is unique
and strictly increasing, so tuple comparison never reaches the payload
and push order (storage order) decides ties.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Iterator

import numpy as np

from repro.geometry import kernels
from repro.rtree.flat import FlatRTree


class Neighbor:
    """A single nearest-neighbor result."""

    __slots__ = ("record_id", "point", "distance")

    def __init__(self, record_id: int, point: np.ndarray, distance: float):
        self.record_id = int(record_id)
        self.point = point
        self.distance = float(distance)

    def __repr__(self) -> str:
        return f"Neighbor(id={self.record_id}, distance={self.distance:.6g})"


def flat_incremental_nearest_generic(
    flat: FlatRTree,
    points_key: Callable[[np.ndarray], np.ndarray],
    mbrs_key: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    cost=None,
) -> Iterator[Neighbor]:
    """Yield every indexed point in ascending order of ``points_key``.

    Heap entries are plain tuples of floats and ints: nodes are
    ``(bound, tiebreak, node_id)`` and leaf points
    ``(key, tiebreak, row, record_id)`` — the record id is converted once
    per leaf through ``tolist()`` so the yield path never touches a numpy
    scalar.  Children and leaf points are pushed in storage order; node
    reads are charged through ``flat.read_node`` to ``cost``, the
    consuming query's record (not counted when it is ``None``), and to
    any attached buffer.
    """
    if len(flat) == 0:
        return
    counter = itertools.count()
    lows = flat.lows
    highs = flat.highs
    child_start = flat.child_start
    child_count = flat.child_count
    levels = flat.levels
    points = flat.points
    record_ids = flat.record_ids
    read_node = flat.read_node
    push = heapq.heappush
    pop = heapq.heappop

    root_bound = float(mbrs_key(lows[0:1], highs[0:1])[0])
    heap: list[tuple] = [(root_bound, next(counter), 0)]

    while heap:
        item = pop(heap)
        if len(item) != 3:
            yield Neighbor(item[3], points[item[2]], item[0])
            continue
        index = read_node(item[2], cost)
        start = int(child_start[index])
        stop = start + int(child_count[index])
        if levels[index] == 0:
            values = points_key(points[start:stop]).tolist()
            ids = record_ids[start:stop].tolist()
            row = start
            for value, record_id in zip(values, ids):
                push(heap, (value, next(counter), row, record_id))
                row += 1
        else:
            bounds = mbrs_key(lows[start:stop], highs[start:stop]).tolist()
            for offset, bound in enumerate(bounds):
                push(heap, (bound, next(counter), start + offset))


# ----------------------------------------------------------------------
# multi-stream frontiers (the engine behind flat MQM)
# ----------------------------------------------------------------------
#: Field offsets of the *segment* lists handed out by
#: :class:`MultiStreamFrontier`.  A segment is the prefix of one
#: stream's merged pending frontier that provably precedes every node
#: bound still in that stream's heap: a driver may consume it inline —
#: plain list indexing per neighbor, no comparisons, no heap traffic.
SEG_POS = 0    # cursor
SEG_END = 1    # number of emissions in the segment
SEG_KEYS = 2   # per-neighbor distance to the stream's query point
SEG_ROWS = 3   # row in ``flat.points``
SEG_IDS = 4    # record ids

#: Pending entries pack ``(push counter, point row)`` into one int64 as
#: ``counter << 32 | row``; counters are unique, so packed order on key
#: ties equals counter order and the row bits never decide anything.
#: (Both fields stay below 2**31 / 2**32 for any realistic snapshot.)
_PACK_SHIFT = 32
_PACK_ROW = (1 << _PACK_SHIFT) - 1
_PACK_STEP = (1 << _PACK_SHIFT) + 1  # counter and row advance together


class MultiStreamFrontier:
    """All ``n`` incremental-NN frontiers of one query group, as one engine.

    MQM drives one incremental nearest-neighbor stream per query point.
    Run as ``n`` independent point-NN generators, each
    stream pays generator resumption, per-stream kernel calls on tiny
    arrays, and one heap tuple per leaf point.  This class keeps the
    per-stream state in struct-of-arrays form instead:

    * **shared per-node score matrices** — the first stream to read a
      node triggers one ``(n, fanout)`` kernel call that scores the
      node's child boxes (or leaf points, plus their exact aggregate
      group distances) against *all* query points at once, followed by
      one batched stable argsort that fixes every stream's emission
      order for that leaf; later streams reuse their row;
    * **merged pending frontier** — each stream keeps the points of its
      visited leaves merged into one ``(key, counter)``-sorted pair of
      arrays (key array plus packed counter/row array) while its heap
      holds *node bounds only*, as plain ``(bound, counter, node_id)``
      tuples.  Merging is one stable argsort by key: every pending
      counter predates every counter of a newly read leaf, so key-stable
      order *is* ``(key, counter)`` order;
    * **inline segments** — between two node reads the stream emits the
      pending prefix that lies strictly below the smallest node bound;
      that segment is materialised as plain lists once and consumed by
      the driver without calling back into the frontier.

    The observable behaviour replicates ``n`` independent
    :func:`flat_incremental_nearest_generic` streams *exactly*.  In the
    reference generator a node is read when its bound reaches the top of
    a heap holding both nodes and points — i.e. precisely when it
    precedes, in ``(key, push counter)`` order, every other frontier
    node and every already-scored point.  That is the identical trigger
    used here (nodes against the pending head), so node reads — and
    with them ``read_node`` charges and any attached LRU buffer's
    hit/miss sequence — happen in the same order, and points are
    emitted in the same globally sorted ``(key, counter)`` order with
    the same float keys.  Per-point aggregate group distances ride
    along for free in :attr:`agg_by_row`, bit-identical to one point's
    ``kernels.point_distances`` reduced by ``kernels.reduce_aggregate``
    (same per-element arithmetic, same contiguous-axis reduction).

    Streams are indexed by *original* group order; the aggregate
    reduction therefore sums query points in exactly that order.  Node
    reads are charged to ``cost``, the query's record.
    """

    __slots__ = (
        "_flat",
        "_group",
        "_cost",
        "_node_heaps",
        "segs",
        "agg_by_row",
        "_pend_keys",
        "_pend_packed",
        "_pend_pos",
        "_counters",
        "_leaf_cache",
        "_node_cache",
    )

    def __init__(self, flat: FlatRTree, group: np.ndarray, cost):
        self._flat = flat
        self._group = np.asarray(group, dtype=np.float64)
        self._cost = cost
        n = self._group.shape[0]
        self._leaf_cache: dict[int, tuple] = {}
        self._node_cache: dict[int, np.ndarray] = {}
        #: Exact aggregate group distance per leaf row, filled leaf by
        #: leaf as leaves are first scored (public: drivers read the
        #: aggregate of an emitted row directly).
        self.agg_by_row = np.empty(flat.points.shape[0], dtype=np.float64)
        root = kernels.boxes_mindist_points(flat.lows[0:1], flat.highs[0:1], self._group)
        root_keys = root[:, 0].tolist()
        # Mirrors the generator's start state: the root enters every
        # stream's heap with counter 0 before any node is read.
        self._node_heaps: list[list[tuple]] = [[(root_keys[i], 0, 0)] for i in range(n)]
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        self._pend_keys: list[np.ndarray] = [empty_f] * n
        self._pend_packed: list[np.ndarray] = [empty_i] * n
        self._pend_pos: list[int] = [0] * n
        #: Per-stream active segment (public: drivers consume
        #: ``[SEG_POS, SEG_END)`` inline).
        self.segs: list[list] = [[0, 0, (), (), ()] for _ in range(n)]
        self._counters: list[int] = [1] * n

    # -- shared scoring -------------------------------------------------
    def _leaf_entry(self, index: int, start: int, stop: int) -> tuple:
        """Score *and presort* leaf ``index`` once for all streams.

        One ``(n, fanout)`` kernel call scores the leaf against every
        query point; a single batched stable argsort then fixes each
        stream's ``(key, push counter)`` emission order (points enter
        the reference generator's heap in storage order with consecutive
        counters, so a stable sort by key *is* ``(key, counter)``
        order).  The exact aggregate distances land in
        :attr:`agg_by_row`.
        """
        matrix = kernels.pairwise_distances(self._flat.points[start:stop], self._group)
        self.agg_by_row[start:stop] = kernels.reduce_aggregate(matrix, kernels.SUM)
        keys = np.ascontiguousarray(matrix.T)
        order = keys.argsort(kind="stable", axis=1)
        entry = (np.take_along_axis(keys, order, axis=1), order)
        self._leaf_cache[index] = entry
        return entry

    # -- the per-stream advance -----------------------------------------
    def advance(self, stream: int):
        """Advance stream ``stream`` by one neighbor.

        Returns ``(key, row, record_id)`` — the neighbor's distance to
        the stream's query point, its row in ``flat.points`` and its
        record id — or ``None`` once the stream is exhausted.  As a side
        effect the emitted neighbor's *segment* (every further pending
        point strictly below the smallest remaining node bound) is left
        in ``self.segs[stream]`` for inline consumption; exact aggregate
        group distances are read from :attr:`agg_by_row` by row.
        """
        flat = self._flat
        node_heap = self._node_heaps[stream]
        pend_keys = self._pend_keys[stream]
        pend_packed = self._pend_packed[stream]
        pend_pos = self._pend_pos[stream]
        heappop = heapq.heappop

        while True:
            pending = pend_pos < pend_keys.shape[0]
            if node_heap:
                top = node_heap[0]
                top_key = top[0]
                if pending:
                    head_key = pend_keys[pend_pos]
                    node_first = top_key < head_key or (
                        top_key == head_key
                        and top[1] < int(pend_packed[pend_pos]) >> _PACK_SHIFT
                    )
                else:
                    node_first = True
                if not node_first:
                    # The pending head precedes every node bound: emit a
                    # whole segment (strictly below the top bound; key
                    # ties fall back here one element at a time).
                    cut = int(pend_keys.searchsorted(top_key, side="left"))
                    if cut <= pend_pos:
                        cut = pend_pos + 1
                    return self._emit_segment(stream, pend_pos, cut)
                item = heappop(node_heap)
                index = flat.read_node(item[2], self._cost)
                start = int(flat.child_start[index])
                count = int(flat.child_count[index])
                base = self._counters[stream]
                self._counters[stream] = base + count
                if flat.levels[index] != 0:
                    matrix = self._node_cache.get(index)
                    if matrix is None:
                        stop = start + count
                        # (n, fanout): every stream's bounds in one call
                        matrix = kernels.boxes_mindist_points(
                            flat.lows[start:stop], flat.highs[start:stop], self._group
                        )
                        self._node_cache[index] = matrix
                    bounds = matrix[stream].tolist()
                    push = heapq.heappush
                    for offset in range(count):
                        push(node_heap, (bounds[offset], base + offset, start + offset))
                    continue
                entry = self._leaf_cache.get(index)
                if entry is None:
                    entry = self._leaf_entry(index, start, start + count)
                leaf_keys = entry[0][stream]
                # counter = base + offset, row = start + offset: one
                # fused multiply-add packs both.
                leaf_packed = (base << _PACK_SHIFT) + start + entry[1][stream] * _PACK_STEP
                if pending:
                    merged_keys = np.concatenate((pend_keys[pend_pos:], leaf_keys))
                    merged_packed = np.concatenate((pend_packed[pend_pos:], leaf_packed))
                    # Every pending counter predates the new leaf's, so a
                    # stable sort by key alone reproduces the reference
                    # heap's (key, counter) order exactly.
                    sel = merged_keys.argsort(kind="stable")
                    pend_keys = merged_keys[sel]
                    pend_packed = merged_packed[sel]
                else:
                    pend_keys = leaf_keys
                    pend_packed = leaf_packed
                pend_pos = 0
                self._pend_keys[stream] = pend_keys
                self._pend_packed[stream] = pend_packed
                self._pend_pos[stream] = 0
                continue
            if not pending:
                self._pend_pos[stream] = pend_pos
                return None
            return self._emit_segment(stream, pend_pos, pend_keys.shape[0])

    def _emit_segment(self, stream: int, pos: int, cut: int):
        """Materialise pending ``[pos, cut)`` as the active segment."""
        rows = self._pend_packed[stream][pos:cut] & _PACK_ROW
        seg = [
            1,
            cut - pos,
            self._pend_keys[stream][pos:cut].tolist(),
            rows.tolist(),
            self._flat.record_ids[rows].tolist(),
        ]
        self.segs[stream] = seg
        self._pend_pos[stream] = cut
        return (seg[2][0], seg[3][0], seg[4][0])
