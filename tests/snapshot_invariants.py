"""The structural contract every ``FlatRTree`` snapshot must satisfy."""

from __future__ import annotations

import numpy as np


def level_widths(flat) -> list[int]:
    """Node count per level, from the leaves (level 0) up to the root."""
    return np.bincount(np.asarray(flat.levels), minlength=flat.height).tolist()


def assert_valid_snapshot(flat) -> None:
    """Fail unless ``flat`` is a balanced R-tree in breadth-first layout.

    Levels never increase along the node numbering (root first, every
    leaf at level 0); the internal nodes' child slices tile nodes
    ``1 … num_nodes - 1`` and the leaves' slices tile ``points``; every
    node holds 1 to ``capacity`` entries and its row is the tight MBR of
    what it holds; page and record ids are unique.  The empty snapshot
    is the single empty leaf.
    """
    levels = np.asarray(flat.levels)
    starts = np.asarray(flat.child_start)
    counts = np.asarray(flat.child_count)
    lows, highs = np.asarray(flat.lows), np.asarray(flat.highs)
    points = np.asarray(flat.points)
    num_nodes = flat.num_nodes

    assert lows.shape == highs.shape == (num_nodes, flat.dims)
    assert starts.shape == counts.shape == (num_nodes,)
    assert points.shape == (flat.size, flat.dims)
    assert np.asarray(flat.record_ids).shape == (flat.size,)
    assert len(np.unique(flat.node_ids)) == num_nodes
    assert len(np.unique(flat.record_ids)) == flat.size
    assert int(levels[0]) == flat.height - 1
    assert np.all(np.diff(levels) <= 0)
    assert int(levels[-1]) == 0

    if flat.size == 0:
        assert num_nodes == 1 and flat.height == 1 and int(counts[0]) == 0
        return

    assert np.all((counts >= 1) & (counts <= flat.capacity))
    next_child = 1
    next_row = 0
    for node in range(num_nodes):
        start, count = int(starts[node]), int(counts[node])
        if levels[node] > 0:
            assert start == next_child, node
            children = slice(start, start + count)
            assert np.all(levels[children] == levels[node] - 1), node
            assert np.array_equal(lows[node], lows[children].min(axis=0)), node
            assert np.array_equal(highs[node], highs[children].max(axis=0)), node
            next_child += count
        else:
            assert start == next_row, node
            rows = points[start : start + count]
            assert np.array_equal(lows[node], rows.min(axis=0)), node
            assert np.array_equal(highs[node], rows.max(axis=0)), node
            next_row += count
    assert next_child == num_nodes
    assert next_row == flat.size
