"""MBM — the minimum bounding method (Section 3.3 of the paper).

MBM performs a single traversal of the R-tree of ``P`` pruned by the MBR
``M`` of the query group:

* **Heuristic 2** — a node (or point) whose ``mindist`` to ``M`` reaches
  ``best_dist / n`` cannot qualify.  One distance computation per node.
* **Heuristic 3** — a node whose lower bound on ``dist(p, Q)`` over its
  MBR reaches ``best_dist`` cannot qualify.  The bound costs ``n``
  distance computations, so Heuristic 2 stays in front as the cheap
  pre-filter (the paper's footnote 3 reports the same trade-off and the
  ablation benchmark reproduces it), and MBM pays it only for the nodes
  that reach the heap head.

The traversal is best-first and stops when the heap head reaches
``best_dist``, so the nodes read are exactly those whose key is below
the k-th distance.  The paper's bound, ``sum_i mindist(N, q_i)``, is
loose because every ``q_i`` picks its own nearest point of ``N``.  For
the sum aggregate MBM adds a *tangent plane* (not from the paper):
``f = dist(., Q)`` is convex, so ``f(p) >= f(a) + g . (p - a)`` for a
subgradient ``g`` at any ``a``, and the right-hand side has a
closed-form minimum over a box.  Taken at the point of ``N`` nearest the
group's approximate geometric median (the *anchor*) it is near-exact on
leaf-sized boxes, for the same ``n`` distances.

Those ``n`` distances are paid only by entries that reach the heap head
(or, a few at a time, come next to it): the paper's footnote-3
trade-off, applied to the key itself.  Reading a node keys its children
under a *cheap key*, ``O(dims)`` each and no group distance: the
largest of the node's key, ``W * mindist(N, M)`` and — sums only — the
node's own tangent plane minimised over the child's box; they go into
the heap together, as one entry, in ascending cheap key.  When that
entry reaches the head, its children that would come off
the heap first (at least :data:`EVALUATION_MIN`, internal ones at most
:data:`EVALUATION_BATCH`) are keyed in one kernel call by their own bound —
their plane's minimum plus, internal nodes only, the paper's bound — and
each goes back under the largest of that and its cheap key, or is
dropped once that reaches ``best_dist``.  A node is read when it reaches
the head keyed; its plane then pre-keys its children, and a leaf's plane
bounds each point by ``f0 + g . (p - x0)``, so points are visited in
ascending ``max(plane, W * mindist(p, M))`` as a *run* (below).  The
root is read first, without a plane.  ``min`` of distances is not
convex, so ``max``/``min`` run the *paper-key* mode (below), as
best-first does; for sums the paper's key stays runnable as
``algorithm="best-first"``.  (The paper's text orders by
``mindist(N, M)``, 0 wherever ``N`` meets ``M``; only the
Heuristic-2-only ablation, having no tighter key, keeps that.)

The cheap key is data, ``(scale, low, high, offset, charge)``: the key
``scale * mindist(., [low, high]) - offset``, charged ``charge``
distance computations a key.  MBM's is Heuristic 2, ``(W, M.low,
M.high, 0, 1)``.  SPM (:mod:`repro.core.spm`) runs this loop with
Heuristic 1's, ``(n, c, c, dist(c, Q), 0)`` for the centroid ``c``, in
the cheap-key mode, so the Heuristic-2-only path is SPM's traversal
too: ``[c, c]`` is the degenerate box whose ``mindist`` is the point
kernels' distance bit for bit, and SPM never charged its keys.

The loop has three modes, one per way of keying a read node's
children (:func:`_mode` picks MBM's):

* :data:`_TANGENT` — MBM's sums: cheap keys, then each child's own
  tangent bound once it nears the head (above);
* :data:`_PAPER` — best-first (:func:`repro.core.aggregates.aggregate_gnn`)
  and MBM's ``max``/``min``: the cheap key (Heuristic 2's) only keys
  the delta's pages and rows; a read node keys its children by the
  paper's bound alone, ``n`` distance computations each, and pushes
  them keyed, with no plane and no deferral; a read leaf's rows all go
  under the leaf's own key, uncharged, so they are offered at once; and
  a delta run offers rows only up to the next run's bound as well as
  the node heap's head, so delta rows are reached in ascending bound,
  never more of them than with the delta scanned first;
* :data:`_CHEAP` — the Heuristic-2-only ablation and SPM: the cheap key
  alone, each child pushed under it.

Rows are offered from *runs*, kept in one heap, ``runs``, beside the
node heap: a run is a read leaf's rows, or a delta page's, in ascending
bound.  It offers them while their bound is below ``best_dist`` and at
most the node heap's head, then goes back into ``runs`` under its next
bound.  A row so deferred cannot lower ``best_dist`` below the head (its
distance is at least its bound), so the traversal reads the nodes it
would with every leaf scanned whole when read (up to an exact key tie)
and, summed over a workload, reaches fewer rows (bounds do not order
distances, so not on every query): the footnote-3 trade-off again.
Over a dirty overlay the delta's pages enter ``runs`` under the cheap
key (MBM: ``W * mindist(page, M)``); a page at the head becomes a run of
its rows in that key.  Pages are not node reads, and only a snapshot
leaf's run skips the overlay's tombstones (a tombstoned id may return
in the delta).

A batch (``execute_many``) runs :func:`mbm` once per member inside one
:meth:`~repro.rtree.flat.FlatRTree.read_scope`: each member keeps solo's
answer and distance computations, and only the node reads are shared.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math

import numpy as np

from repro.core.centroid import weiszfeld_centroid
from repro.core.types import BestList, GNNResult, GroupQuery, QueryCost
from repro.geometry import kernels
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay, DeltaPages

ANCHOR_STEPS = 3  #: Weiszfeld steps; any anchor is sound, more read no fewer nodes
EVALUATION_BATCH = 16  #: internal children keyed per kernel call, at most
#: Children of a popped entry keyed together even when the next heap
#: entry comes first: a few speculative keys cost fewer kernel calls.
EVALUATION_MIN = 4

#: The loop's modes (module docstring): deferred tangent keys, the
#: paper's bound when the parent is read, the cheap key alone.
_TANGENT, _PAPER, _CHEAP = "tangent", "paper", "cheap"

#: The plane slot of a keyed entry without a plane: the root and every
#: entry of the paper-key and cheap-key modes.
_KEYED = ()


def mbm(
    tree: FlatRTree,
    query: GroupQuery,
    use_heuristic3: bool = True,
    overlay: DeltaOverlay | None = None,
    within: float = math.inf,
) -> GNNResult:
    """Run the minimum bounding method.

    Parameters
    ----------
    tree:
        Flat R-tree snapshot over the dataset ``P``.
    query:
        The query group; the sum aggregate matches the paper, and the
        weighted / max / min generalisations are accepted as well
        (Heuristic 2 uses the total, largest or smallest weight; ``max``
        and ``min`` key nodes by the paper's bound, as best-first does).
    use_heuristic3:
        Disable to reproduce the paper's ablation ("MBM with only
        heuristic 2 ... inferior to SPM").
    overlay:
        Optional pending writes over ``tree`` (its ``base``), answered
        as one merged view: the delta's pages join the run heap
        (module docstring), and tombstoned records are skipped at the
        leaves before any per-point aggregate distance is charged;
        node-level pruning is untouched (Heuristics 2/3 stay safe bounds
        for the live records the traversal is actually after).
    within:
        Only records with aggregate distance ``<= within`` are returned
        (fewer than ``k`` when fewer qualify).  A finite bound prunes
        from the first pop instead of once ``k`` answers exist; the
        shard coordinator sends its sampled upper bound on the
        federation's k-th distance here.
    """
    cost = QueryCost(algorithm="MBM-best_first")
    best = BestList(query.k, within)
    pages, exclude = _delta(tree, overlay)
    _mbm_best_first(tree, query, best, _mode(query, use_heuristic3), cost, exclude, pages=pages)
    return GNNResult(neighbors=best.neighbors(), cost=cost.finish())


def _mode(query: GroupQuery, use_heuristic3: bool) -> str:
    """MBM's loop mode: tangent keys for sums, the paper's bound otherwise, or Heuristic 2 alone."""
    if not use_heuristic3:
        return _CHEAP
    return _TANGENT if query.aggregate == kernels.SUM else _PAPER


def seed_from_delta(
    tree: FlatRTree,
    query: GroupQuery,
    best: BestList,
    overlay: DeltaOverlay | None,
    cost: QueryCost,
) -> set | None:
    """Offer the overlay's delta to ``best``; return the tombstones to skip.

    Its pages are read like leaves (:func:`_scan_leaf`) in ascending ``W *
    mindist(page, M)`` until that reaches ``best_dist``, leaving the
    delta's exact top-k: MQM, which consumes streams, calls this first
    and prunes from it (MBM, SPM and best-first page the delta through
    their run heap instead).  Returns ``None`` when nothing is
    tombstoned.
    """
    pages, exclude = _delta(tree, overlay)
    if pages is not None:
        key = _heuristic2(query)
        keys = _cheap_keys(key, pages.lows, pages.highs)
        cost.record_distance_computations(len(keys))
        for page in keys.argsort(kind="stable").tolist():
            if keys[page] >= best.best_dist:
                break
            _scan_leaf(_page_run(pages, page, key, cost), query, best, cost, math.inf)
    return exclude


def _delta(tree: FlatRTree, overlay: DeltaOverlay | None):
    """The overlay's pages and tombstones (``None`` without an overlay or tombstones)."""
    if overlay is None:
        return None, None
    if overlay.base is not tree:
        raise ValueError("the overlay must shadow the tree being traversed")
    return overlay.delta_pages(), overlay.tombstones or None


def _page_run(pages: DeltaPages, page: int, key: tuple, cost) -> _Run:
    """Delta page ``page``'s rows under the cheap ``key`` (charged as it says), as a run."""
    rows = slice(*pages.starts[page : page + 2].tolist())
    points = pages.points[rows]
    bounds = _cheap_keys(key, points, points)
    cost.record_distance_computations(key[4] * len(bounds))
    return _Run(points, pages.record_ids[rows], bounds)


def _heuristic2(query: GroupQuery) -> tuple:
    """MBM's cheap key: Heuristic 2's ``W * mindist(., M)``, one distance computation each."""
    mbr = query.mbr
    return _divisor(query), mbr.low, mbr.high, 0.0, 1


def _cheap_keys(key: tuple, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """``scale * mindist(., [low, high]) - offset`` per box, or point (lows is highs); uncharged."""
    scale, low, high, offset, _ = key
    keys = kernels.boxes_mindist_box(lows, highs, low, high)
    keys *= scale
    if offset:  # not at all for Heuristic 2
        keys -= offset
    return keys


def _divisor(query: GroupQuery) -> float:
    """The denominator of Heuristic 2, generalised to weights and aggregates.

    Pruning is safe whenever ``divisor * mindist(N, M) <= dist(p, Q)`` for
    every point ``p`` inside ``N``.  Because each ``|p q_i|`` is at least
    ``mindist(p, M)``:

    * sum aggregate: ``dist(p, Q) >= (sum_i w_i) * mindist`` — divisor is
      ``n`` for unweighted queries (the paper's Heuristic 2);
    * max aggregate: ``dist(p, Q) >= (max_i w_i) * mindist``;
    * min aggregate: ``dist(p, Q) >= (min_i w_i) * mindist``.
    """
    if query.aggregate == "sum":
        return query.total_weight()
    weights = query.weights
    if weights is None:
        return 1.0
    if query.aggregate == "max":
        return float(weights.max())
    return float(weights.min())


def _tangent_anchor(cost, group: np.ndarray, weights=None) -> np.ndarray:
    """The tangent key's anchor: a few Weiszfeld steps off the mean, charged ``n`` each."""
    cost.record_distance_computations(ANCHOR_STEPS * group.shape[0])
    return weiszfeld_centroid(group, max_iterations=ANCHOR_STEPS, weights=weights)


def _mbm_best_first(flat, query, best, mode, cost, exclude=None, pages=None, key=None):
    """Best-first MBM over the flat snapshot in loop ``mode`` (module docstring).

    ``key`` is the cheap key as data, ``(scale, low, high, offset,
    charge)`` (module docstring); it defaults to Heuristic 2's, and the
    root is keyed ``-offset``.  ``mode`` is :data:`_TANGENT`,
    :data:`_PAPER` (children keyed by ``query.mindist_lower_bounds``
    when their parent is read, leaf rows under their leaf's key) or
    :data:`_CHEAP`.

    A heap entry is ``(key, tie, node, plane)``.  A keyed entry carries
    its tangent plane (:data:`_TANGENT`) or :data:`_KEYED` and is read
    when it reaches the head; an entry whose ``plane`` slot holds
    :class:`_Children` stands for a read node's children still under
    their cheap keys and is handed to :func:`_evaluate`.  Reading a node
    scores its whole child or leaf slice with one or two kernel calls:
    the cheap key (``charge`` distance computations per box or point)
    and the node's plane over each box or point (one more).
    ``best`` only changes at leaves, so each batched check decides
    exactly what an entry-at-a-time loop would.  A read leaf becomes a
    :class:`_Run`, scanned at once up to the new head; what is left of
    it, like each of the delta's ``pages``, waits in ``runs`` under its
    next bound (module docstring).  Every charge goes to ``cost``, the
    query's record.
    """
    key = _heuristic2(query) if key is None else key
    charge = key[4]
    counter = itertools.count()
    heap = [(0.0 - key[3], next(counter), 0, _KEYED)] if len(flat) else []
    tangent, paper_key = mode == _TANGENT, mode == _PAPER
    anchor = _tangent_anchor(cost, query.points, query.weights) if tangent and heap else None
    runs = []
    if pages is not None:
        keys = _cheap_keys(key, pages.lows, pages.highs)
        cost.record_distance_computations(charge * len(keys))
        runs = [(bound, next(counter), page, pages) for page, bound in enumerate(keys.tolist())]
        heapq.heapify(runs)

    # Once the head's key reaches ``best_dist`` every entry's does
    # (``best_dist`` is the ceiling until ``best`` is full).
    while True:
        head = heap[0][0] if heap else math.inf
        if min(head, runs[0][0] if runs else head) >= best.best_dist:
            break
        if runs and runs[0][0] <= head:  # a run first at an equal key
            _, _, page, run = heapq.heappop(runs)
            if type(run) is DeltaPages:
                run = _page_run(run, page, key, cost)
            if paper_key and runs:  # runs take turns too: rows in ascending bound
                head = min(head, runs[0][0])
        else:
            node_key, _, node, plane = heapq.heappop(heap)
            if type(plane) is _Children:
                _evaluate(flat, query, best, heap, counter, node, plane, anchor, cost)
                continue
            index = flat.read_node(node, cost)
            start = int(flat.child_start[index])
            stop = start + int(flat.child_count[index])
            level = flat.levels[index]
            if level > 0:
                lows, highs = flat.lows[start:stop], flat.highs[start:stop]
                if paper_key:
                    keys = query.mindist_lower_bounds(lows, highs)
                    cost.record_distance_computations(query.cardinality * (stop - start))
                else:
                    keys = _read_keys(key, plane, lows, highs, cost)
                np.maximum(keys, node_key, out=keys)
                order = keys.argsort(kind="stable")
                ordered = keys.take(order).tolist()
                survivors = bisect.bisect_left(ordered, best.best_dist)
                order += start  # the children's node ids, in ascending cheap key
                if not tangent:  # the key is final (paper's bound or cheap): push each child
                    for child_key, child in zip(ordered[:survivors], order[:survivors].tolist()):
                        heapq.heappush(heap, (child_key, next(counter), child, _KEYED))
                elif survivors:
                    children = _Children(order[:survivors].tolist(), ordered[:survivors], level > 1)
                    heapq.heappush(heap, (ordered[0], next(counter), node, children))
                continue
            points = flat.points[start:stop]
            if paper_key:  # the leaf's own key bounds every row, for free
                bounds = np.full(stop - start, node_key)
            else:
                bounds = _read_keys(key, plane, points, points, cost)
            run = _Run(points, flat.record_ids[start:stop], bounds, exclude)
            head = heap[0][0] if heap else math.inf
        _scan_leaf(run, query, best, cost, head)
        if run.next < run.end and run.bounds[run.next] < best.best_dist:
            heapq.heappush(runs, (run.bounds[run.next], next(counter), 0, run))


class _Children:
    """The children of a read node still under their cheap keys, ascending.

    Siblings share a level: ``internal`` holds for all of them or none.
    """

    __slots__ = ("nodes", "keys", "internal", "next")

    def __init__(self, nodes: list[int], keys: list[float], internal: bool):
        self.nodes = nodes
        self.keys = keys
        self.internal = bool(internal)
        self.next = 0


def _take(heap, counter, parent, children, ceiling) -> tuple[list, list, int]:
    """Pop the unevaluated children to key now: ``(nodes, cheap_keys, internal)``.

    ``children`` was just popped; this takes its next children, in
    ascending cheap key, while they stay below the next heap entry (and
    at least :data:`EVALUATION_MIN` of them), then continues with that
    entry while it is another :class:`_Children`.  It stops at a keyed
    entry, at ``ceiling`` or once :data:`EVALUATION_BATCH` children are
    taken, so all but the speculative few would have reached the head
    one by one before the next read (the runs, which read no node, are
    not consulted).  Only internal children, which pay the paper's bound
    too, are capped at that; a run of leaves is not, so one kernel call
    keys what would otherwise take several with no read between.  What
    is left of an entry goes back under its next key.  The first
    ``internal`` nodes taken are internal, the rest leaves.
    """
    nodes, cheap_keys, internal = [], [], 0
    while True:
        keys, first = children.keys, children.next
        limit = min(heap[0][0], ceiling) if heap else ceiling
        stop = len(keys)
        if children.internal:  # leaf runs are not capped
            stop = min(stop, first + EVALUATION_BATCH - len(nodes))
        below = bisect.bisect_left(keys, ceiling, first + 1, stop)
        last = max(
            first + 1,
            min(first + EVALUATION_MIN, below),
            bisect.bisect_left(keys, limit, first + 1, below),
        )
        at = internal if children.internal else len(nodes)  # internal children first
        nodes[at:at], cheap_keys[at:at] = children.nodes[first:last], keys[first:last]
        if children.internal:
            internal += last - first
        children.next = last
        if last < len(keys) and keys[last] < ceiling:
            heapq.heappush(heap, (keys[last], next(counter), parent, children))
        if (
            len(nodes) >= EVALUATION_BATCH
            or not heap
            or heap[0][0] >= ceiling
            or type(heap[0][3]) is not _Children
        ):
            return nodes, cheap_keys, internal
        _, _, parent, children = heapq.heappop(heap)


def _evaluate(flat, query, best, heap, counter, parent, children, anchor, cost) -> None:
    """Key the unevaluated children at the heap head by their own bounds.

    :func:`_take` picks them; one kernel call scores them: each node's
    tangent plane at ``clip(anchor, N)`` (``n`` distance computations)
    and its minimum over ``N`` (one), plus the paper's
    ``sum_i mindist(N, q_i)`` for internal nodes (``n``; they are put
    first).  Each goes back under the largest of that and its cheap key,
    carrying its plane, or is dropped once that reaches ``best_dist``.
    """
    best_dist = best.best_dist
    nodes, cheap_keys, internal = _take(heap, counter, parent, children, best_dist)
    rows = np.array(nodes)
    lows, highs = flat.lows.take(rows, axis=0), flat.highs.take(rows, axis=0)
    planes = kernels.group_tangent_planes(lows, highs, query.points, anchor, query.weights)
    bounds = kernels.plane_lower_bounds(*planes, lows, highs)
    if internal:
        head = bounds[:internal]
        np.maximum(head, query.mindist_lower_bounds(lows[:internal], highs[:internal]), out=head)
    cardinality = query.cardinality
    cost.record_distance_computations((cardinality + 1) * len(nodes) + cardinality * internal)
    for row, (bound, cheap) in enumerate(zip(bounds.tolist(), cheap_keys)):
        key = bound if bound > cheap else cheap
        if key < best_dist:
            heapq.heappush(heap, (key, next(counter), nodes[row], (planes, row)))


class _Run:
    """A leaf's rows (``rows`` of ``points``) in ascending lower bound, offered from ``next`` on.

    ``exclude`` holds the ids to skip: the overlay's tombstones for a
    snapshot leaf, ``None`` for a delta page (a tombstoned id may return
    in the delta).
    """

    __slots__ = ("points", "ids", "rows", "bounds", "distances", "next", "end", "exclude")

    def __init__(self, points: np.ndarray, ids: np.ndarray, bounds: np.ndarray, exclude=None):
        self.points, self.ids, self.distances, self.next = points, ids, None, 0
        self.exclude = exclude
        self.rows = bounds.argsort(kind="stable")
        self.bounds = bounds.take(self.rows).tolist()
        self.end = len(self.bounds)


def _read_keys(key: tuple, plane, lows: np.ndarray, highs: np.ndarray, cost) -> np.ndarray:
    """A read node's cheap ``key`` per child box (or point), raised to its ``plane``, charged."""
    keys = _cheap_keys(key, lows, highs)
    if plane:
        (values, gradients, origins), row = plane
        minimum = kernels.plane_lower_bounds(values[row], gradients[row], origins[row], lows, highs)
        np.maximum(keys, minimum, out=keys)
    cost.record_distance_computations((key[4] + bool(plane)) * len(keys))
    return keys


def _scan_leaf(run, query, best, cost, head) -> None:
    """Offer ``run``'s next rows while their bound is below ``best_dist`` and at most ``head``.

    ``run`` is a snapshot leaf or a delta page, its bounds charged by
    the caller; MBM passes its node heap's head (best-first's delta
    runs: the next run's bound, when that is lower), so a row whose
    bound exceeds the next key waits in the run heap for a later call,
    and :func:`seed_from_delta` passes ``inf``.  The aggregate distances
    come from one kernel call, for the rows below ``best_dist``
    (``run.end``) when the first is offered.  The loop is pure-float: it
    skips ``offer`` calls that provably return False and charges ``n``
    distance computations per row it reaches, the run's ``exclude`` rows
    aside, in one batched charge.
    """
    bounds, position, best_dist = run.bounds, run.next, best.best_dist
    if position == run.end or bounds[position] >= best_dist or bounds[position] > head:
        return
    if run.distances is None:
        run.end = bisect.bisect_left(bounds, best_dist)
        rows = run.rows[: run.end]
        run.distances = query.distances_to(run.points.take(rows, axis=0)).tolist()
        run.rows, run.ids = rows.tolist(), run.ids.take(rows).tolist()
    distances, rows, ids, end, exclude = run.distances, run.rows, run.ids, run.end, run.exclude
    first, skipped = position, 0
    while True:
        record_id = ids[position]
        if exclude is not None and record_id in exclude:
            skipped += 1
        elif distances[position] < best_dist:
            best.offer(record_id, run.points[rows[position]], distances[position])
            best_dist = best.best_dist
        position += 1
        if position == end or bounds[position] >= best_dist or bounds[position] > head:
            break
    cost.record_distance_computations(query.cardinality * (position - first - skipped))
    run.next = position
