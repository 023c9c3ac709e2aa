"""Node accesses as a property: best-first reads exactly what its key admits.

Best-first search over a key that never falls from parent to child reads
a node if and only if the node's key is below the final k-th distance
``d_k`` (Hjaltason and Samet, "Distance Browsing in Spatial Databases",
TODS 1999).  The paper's bound, ``kernels.boxes_group_mindist(N, Q)``,
is that key for best-first under every aggregate and for MBM's ``max``
and ``min`` (both run the loop's paper-key mode), so the read set that
``flat.read_scope()`` collects must equal
:func:`read_sets.admitted_by_paper_bound` node for node, whatever the
tree's shape.  That is why this holds on the tiled tree
``FlatRTree.bulk_load`` builds and on the consecutive-parents shape it
built before (``bulkload_reference``'s ``tile_levels=False``), where
pinned node counts hold on one shape only.

Coordinates are continuous, so no node's key ties ``d_k`` except where
a case below builds the tie on purpose: a node whose key equals ``d_k``
is not read.
"""

import numpy as np
import pytest
from bulkload_reference import reference_snapshot
from hypothesis import given, settings
from hypothesis import strategies as st
from read_sets import admitted_by_paper_bound

from repro.core.aggregates import aggregate_gnn
from repro.core.mbm import mbm
from repro.core.types import GroupQuery
from repro.rtree.flat import FlatRTree

#: (algorithm, aggregate): every traversal keyed by the paper's bound.
PAPER_KEYED = [
    (aggregate_gnn, "sum"),
    (aggregate_gnn, "max"),
    (aggregate_gnn, "min"),
    (mbm, "max"),
    (mbm, "min"),
]
IDS = [f"{run.__name__}-{aggregate}" for run, aggregate in PAPER_KEYED]


def _reads(flat, run, query):
    with flat.read_scope() as read:
        result = run(flat, query)
    assert result.cost.node_accesses == len(read)
    return set(read), result


@pytest.mark.parametrize("run, aggregate", PAPER_KEYED, ids=IDS)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from((2, 3)),
    tiled=st.booleans(),
    n=st.sampled_from((1, 3, 16)),
    k=st.sampled_from((1, 8)),
    fraction=st.sampled_from((0.01, 0.08)),
)
@settings(max_examples=25, deadline=None)
def test_the_read_set_is_the_admitted_set(run, aggregate, seed, dims, tiled, n, k, fraction):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 1000, size=(int(rng.integers(200, 2500)), dims))
    capacity = int(rng.integers(4, 17))
    if tiled:
        flat = FlatRTree.bulk_load(points, capacity=capacity)
    else:
        flat = reference_snapshot(points, capacity, tile_levels=False)
    side = 1000 * fraction ** (1 / dims)
    low = rng.uniform(0, 1000 - side, size=dims)
    for _ in range(3):
        query = GroupQuery(rng.uniform(low, low + side, size=(n, dims)), k=k, aggregate=aggregate)
        read, result = _reads(flat, run, query)
        assert read == admitted_by_paper_bound(flat, query, result)


@pytest.mark.parametrize("run, aggregate", PAPER_KEYED, ids=IDS)
def test_a_node_keyed_at_the_kth_distance_is_not_read(run, aggregate):
    """Two leaves of four points: the left one's MBR comes within 4 of
    the query point and holds the nearest record, at exactly 5; the
    right one's MBR corner is a record at distance 5 too, so its key
    equals ``d_k``.  It is pushed while ``best_dist`` is infinite and
    must stay unread once the left leaf sets ``d_k``."""
    left = [[-4.0, 3.0], [-6.0, 1.0], [-5.0, 7.0], [-7.0, -1.0]]
    right = [[5.0, 0.0], [6.0, 1.0], [7.0, 2.0], [8.0, -1.0]]
    flat = FlatRTree.bulk_load(np.array(left + right), capacity=4)
    query = GroupQuery(np.zeros((1, 2)), k=1, aggregate=aggregate)
    read, result = _reads(flat, run, query)
    assert result.distances() == [5.0]
    leaves = np.flatnonzero(flat.levels == 0).tolist()
    tied = [leaf for leaf in leaves if flat.lows[leaf][0] == 5.0]
    assert len(leaves) == 2 and len(tied) == 1
    assert tied[0] not in read
    assert read == admitted_by_paper_bound(flat, query, result) == {0, *(set(leaves) - set(tied))}
