"""What a query or a batch must read.

A batch reads the union of its members' solo read sets; a best-first
query under the paper's bound reads the nodes that bound admits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import kernels


def union_of_solo_reads(flat, run, items) -> int:
    """How many distinct nodes of ``flat`` the calls ``run(item)`` read, each alone.

    Each call gets a read scope of its own, which collects its read set
    (so an MQM run's repeated reads of one node count once); a batch of
    the same queries in one scope must charge exactly this many node
    accesses.
    """
    union = set()
    for item in items:
        with flat.read_scope() as read:
            run(item)
        union |= read
    return len(union)


def admitted_by_paper_bound(flat, query, result) -> set[int]:
    """The nodes a best-first query under the paper's bound must read.

    Those whose bound ``kernels.boxes_group_mindist(N, Q)`` (the query's
    weights and aggregate, every node of ``flat`` scored at once) lies
    below ``result``'s k-th distance ``d_k`` — infinite while fewer than
    ``k`` records were found — since best-first search over a key that
    grows from parent to child reads exactly those (Hjaltason and Samet,
    TODS 1999); and every node on the way to a returned record, since it
    was read to find it.  The second set adds a node only when its bound
    equals ``d_k``: with continuous coordinates that happens where the
    k-th record is the corner of its leaf's MBR nearest the group, which
    small leaves often make it.
    """
    distances = result.distances()
    kth = distances[-1] if len(distances) == query.k else math.inf
    keys = kernels.boxes_group_mindist(
        np.asarray(flat.lows), np.asarray(flat.highs), query.points, query.weights, query.aggregate
    )
    admitted = set(np.flatnonzero(keys < kth).tolist())
    levels, starts = np.asarray(flat.levels), np.asarray(flat.child_start)
    internal = np.flatnonzero(levels > 0)
    parents = np.repeat(internal, np.asarray(flat.child_count)[internal])  # of nodes 1, 2, ...
    leaves = np.flatnonzero(levels == 0)
    rows = np.flatnonzero(np.isin(np.asarray(flat.record_ids), result.record_ids()))
    for node in leaves[np.searchsorted(starts[leaves], rows, side="right") - 1].tolist():
        while node:
            admitted.add(node)
            node = int(parents[node - 1])
        admitted.add(0)
    return admitted
