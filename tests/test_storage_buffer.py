"""Tests for repro.storage.buffer."""

import pytest

from repro.storage.buffer import LRUBuffer


class TestLRUBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUBuffer(0)

    def test_first_access_is_a_miss(self):
        buffer = LRUBuffer(4)
        assert buffer.access(1) is False
        assert buffer.misses == 1

    def test_repeated_access_is_a_hit(self):
        buffer = LRUBuffer(4)
        buffer.access(1)
        assert buffer.access(1) is True
        assert buffer.hits == 1

    def test_eviction_removes_least_recently_used(self):
        buffer = LRUBuffer(2)
        buffer.access(1)
        buffer.access(2)
        buffer.access(1)  # 1 becomes most recent
        buffer.access(3)  # evicts 2
        assert 2 not in buffer
        assert 1 in buffer
        assert 3 in buffer

    def test_len_never_exceeds_capacity(self):
        buffer = LRUBuffer(3)
        for page in range(10):
            buffer.access(page)
        assert len(buffer) == 3

    def test_hits_and_misses_are_counted(self):
        buffer = LRUBuffer(4)
        outcomes = [buffer.access(page) for page in (1, 1, 1, 2)]
        assert outcomes == [False, True, True, False]
        assert (buffer.hits, buffer.misses) == (2, 2)

    def test_untouched_buffer_counts_nothing(self):
        buffer = LRUBuffer(4)
        assert (buffer.hits, buffer.misses, len(buffer)) == (0, 0, 0)

    def test_clear_resets_contents_and_counters(self):
        buffer = LRUBuffer(4)
        buffer.access(1)
        buffer.access(1)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.hits == 0
        assert buffer.misses == 0

    def test_repr_mentions_capacity(self):
        assert "capacity=4" in repr(LRUBuffer(4))


class TestOverCapacityAccounting:
    """Regression tests for the over-capacity eviction edge.

    When the buffer is over capacity mid-sequence (a shrink while pages
    are resident, or a pathological single-page buffer), an access must
    never evict the page it just touched — the hit/miss sequence would
    otherwise report a fault for a page the buffer claims to have
    loaded.  The sequences below are pinned exactly.
    """

    def test_just_inserted_page_survives_single_page_buffer(self):
        buffer = LRUBuffer(1)
        sequence = [buffer.access(page) for page in (7, 8, 7, 7)]
        assert sequence == [False, False, False, True]
        assert 7 in buffer and len(buffer) == 1

    def test_direct_capacity_shrink_self_heals_without_evicting_touched_page(self):
        buffer = LRUBuffer(4)
        for page in (1, 2, 3, 4):
            buffer.access(page)
        # A caller assigning the attribute directly leaves the buffer
        # over capacity; the next access must trim only strictly
        # older pages and never the page just touched.
        buffer.capacity = 1
        assert buffer.access(1) is True  # 1 is resident: a hit, and it stays
        assert 1 in buffer and len(buffer) == 1
        assert buffer.access(9) is False  # miss loads 9, evicting 1
        assert 9 in buffer and 1 not in buffer and len(buffer) == 1

    def test_hit_while_over_capacity_keeps_touched_page(self):
        buffer = LRUBuffer(3)
        for page in (1, 2, 3):
            buffer.access(page)
        buffer.capacity = 1
        assert buffer.access(2) is True  # resident page; still a hit
        assert 2 in buffer and len(buffer) == 1

