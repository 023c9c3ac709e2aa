"""Tests for repro.storage.pager, repro.storage.pointfile and counters."""

import numpy as np
import pytest

from repro.geometry.hilbert import hilbert_indices
from repro.storage.counters import IOCounters
from repro.storage.pager import Pager
from repro.storage.pointfile import PointFile


@pytest.fixture
def sample_points():
    return np.random.default_rng(23).uniform(0, 1000, size=(230, 2))


class TestIOCounters:
    def test_page_reads_accumulate(self):
        counters = IOCounters()
        counters.record_page_reads(3)
        counters.record_page_reads()
        assert counters.page_reads == 4

    def test_block_read_counts_both_metrics(self):
        counters = IOCounters()
        counters.record_block_read(pages_in_block=5)
        assert counters.block_reads == 1
        assert counters.page_reads == 5

    def test_reset(self):
        counters = IOCounters()
        counters.record_block_read(2)
        counters.record_sort_pass()
        counters.reset()
        assert counters.snapshot() == {"page_reads": 0, "block_reads": 0, "sort_passes": 0}


class TestPager:
    def test_pages_cover_all_points_in_order(self, sample_points):
        pager = Pager(sample_points, points_per_page=50)
        assert pager.page_count == 5
        reassembled = np.vstack([pager.peek_page(i).points for i in range(pager.page_count)])
        assert np.array_equal(reassembled, sample_points)

    def test_last_page_may_be_partial(self, sample_points):
        pager = Pager(sample_points, points_per_page=50)
        assert len(pager.peek_page(4)) == 30

    def test_read_page_charges_io(self, sample_points):
        pager = Pager(sample_points, points_per_page=50)
        for page_id in range(3):
            pager.read_page(page_id)
        assert pager.counters.page_reads == 3

    def test_peek_does_not_charge_io(self, sample_points):
        pager = Pager(sample_points, points_per_page=50)
        pager.peek_page(0)
        assert pager.counters.page_reads == 0

    def test_out_of_range_page_rejected(self, sample_points):
        pager = Pager(sample_points, points_per_page=50)
        with pytest.raises(IndexError):
            pager.read_page(99)

    def test_invalid_page_size_rejected(self, sample_points):
        with pytest.raises(ValueError):
            Pager(sample_points, points_per_page=0)

    def test_record_ids_follow_points(self, sample_points):
        ids = np.arange(len(sample_points))[::-1].copy()
        pager = Pager(sample_points, points_per_page=64, record_ids=ids)
        assert pager.peek_page(0).record_ids[0] == len(sample_points) - 1

    def test_record_id_length_mismatch_rejected(self, sample_points):
        with pytest.raises(ValueError):
            Pager(sample_points, points_per_page=64, record_ids=np.arange(3))


class TestPointFile:
    def test_block_structure(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        assert pointfile.point_count == 230
        assert pointfile.points_per_block == 100
        assert pointfile.block_count == 3

    def test_blocks_partition_the_file(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        blocks = list(pointfile.iter_blocks())
        total = sum(block.cardinality for block in blocks)
        assert total == len(sample_points)
        all_ids = np.concatenate([block.record_ids for block in blocks])
        assert sorted(all_ids.tolist()) == list(range(len(sample_points)))

    def test_file_is_hilbert_sorted_by_default(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        stored = np.vstack([block.points for block in pointfile.iter_blocks()])
        indices = hilbert_indices(stored)
        assert all(indices[i] <= indices[i + 1] for i in range(len(indices) - 1))

    def test_unsorted_file_keeps_original_order(self, sample_points):
        pointfile = PointFile(
            sample_points, points_per_page=50, block_pages=2, hilbert_sorted=False
        )
        stored = np.vstack([block.points for block in pointfile.iter_blocks()])
        assert np.array_equal(stored, sample_points)

    def test_block_read_charges_io(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        before = pointfile.counters.block_reads
        pointfile.read_block(0)
        assert pointfile.counters.block_reads == before + 1
        assert pointfile.counters.page_reads >= 2

    def test_block_mbr_covers_its_points(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        block = pointfile.read_block(1)
        assert np.all((block.mbr.low <= block.points) & (block.points <= block.mbr.high))

    def test_block_summaries_match_blocks(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        summaries = pointfile.block_summaries()
        blocks = list(pointfile.iter_blocks())
        assert [s.cardinality for s in summaries] == [b.cardinality for b in blocks]
        assert [s.mbr for s in summaries] == [b.mbr for b in blocks]

    def test_out_of_range_block_rejected(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        with pytest.raises(IndexError):
            pointfile.read_block(10)

    def test_invalid_block_pages_rejected(self, sample_points):
        with pytest.raises(ValueError):
            PointFile(sample_points, points_per_page=50, block_pages=0)

    def test_sort_pass_is_recorded(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        assert pointfile.counters.sort_passes == 1
