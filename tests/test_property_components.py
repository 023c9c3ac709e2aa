"""Model-based property tests for the bookkeeping components.

These components (the running top-k list, the LRU buffer, the paged
query file) are small but load-bearing: a wrong ``best_dist`` silently
breaks every pruning heuristic, and a wrong block partition breaks the
disk-resident algorithms.  Each test compares the component against a
trivially-correct reference model under arbitrary operation sequences.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import BestList
from repro.storage.buffer import LRUBuffer
from repro.storage.pointfile import PointFile

distance = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=32)


class TestBestListModel:
    @given(
        k=st.integers(min_value=1, max_value=8),
        offers=st.lists(
            st.tuples(st.integers(min_value=0, max_value=30), distance),
            min_size=0,
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_invariants_under_arbitrary_offer_sequences(self, k, offers):
        # Duplicate record ids make an exact reference model awkward (the
        # list deliberately ignores re-offers of a resident id), so check
        # the invariants every pruning heuristic relies on: the content is
        # sorted, ids are unique, the size never exceeds k, and best_dist is
        # the k-th distance once full (infinity before).
        best = BestList(k)
        for record_id, dist in offers:
            best.offer(record_id, np.zeros(2), dist)
        neighbors = best.neighbors()
        distances = [n.distance for n in neighbors]
        assert distances == sorted(distances)
        assert len({n.record_id for n in neighbors}) == len(neighbors)
        assert len(neighbors) <= k
        if len(neighbors) == k:
            assert best.best_dist == distances[-1]
        else:
            assert best.best_dist == float("inf")

    @given(
        k=st.integers(min_value=1, max_value=5),
        values=st.lists(distance, min_size=1, max_size=50, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_unique_ids_reduce_to_k_smallest(self, k, values):
        # With unique record ids (the common case inside the algorithms) the
        # final content must be exactly the k smallest offered distances.
        best = BestList(k)
        for record_id, dist in enumerate(values):
            best.offer(record_id, np.zeros(2), dist)
        expected = sorted(values)[:k]
        assert [n.distance for n in best.neighbors()] == expected


class TestLRUBufferModel:
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        accesses=st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_lru(self, capacity, accesses):
        buffer = LRUBuffer(capacity)
        model: list[int] = []  # most recently used last
        for page in accesses:
            expected_hit = page in model
            assert buffer.access(page) == expected_hit
            if expected_hit:
                model.remove(page)
            model.append(page)
            if len(model) > capacity:
                model.pop(0)
        assert len(buffer) == len(model)
        for page in model:
            assert page in buffer


class TestPointFilePartitionProperty:
    @given(
        count=st.integers(min_value=1, max_value=300),
        points_per_page=st.integers(min_value=1, max_value=40),
        block_pages=st.integers(min_value=1, max_value=10),
        sort=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_blocks_partition_the_points(self, count, points_per_page, block_pages, sort):
        rng = np.random.default_rng(count)
        points = rng.uniform(0, 100, size=(count, 2))
        pointfile = PointFile(
            points,
            points_per_page=points_per_page,
            block_pages=block_pages,
            hilbert_sorted=sort,
        )
        blocks = [pointfile.read_block(index) for index in range(pointfile.block_count)]
        assert sum(len(block) for block in blocks) == count
        ids = np.concatenate([block.record_ids for block in blocks])
        assert sorted(ids.tolist()) == list(range(count))
        # Every block's points are exactly the original points of its ids.
        for block in blocks:
            assert np.allclose(block.points, points[block.record_ids])
        # Block count formula holds.
        expected_pages = -(-count // points_per_page)
        assert pointfile.block_count == -(-expected_pages // block_pages)
