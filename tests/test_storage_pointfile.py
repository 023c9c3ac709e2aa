"""Tests for repro.storage.pointfile and the I/O it charges to a query's record."""

import numpy as np
import pytest

from repro.geometry.hilbert import hilbert_indices, hilbert_sort
from repro.geometry.mbr import MBR
from repro.core.types import QueryCost
from repro.storage.pointfile import PointFile


@pytest.fixture
def sample_points():
    return np.random.default_rng(23).uniform(0, 1000, size=(230, 2))


def _blocks(pointfile):
    return [pointfile.read_block(index) for index in range(pointfile.block_count)]


class TestPages:
    """A file occupies ``ceil(n / points_per_page)`` pages; block reads charge them."""

    def test_pages_cover_all_points_in_order(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, hilbert_sorted=False)
        assert pointfile.page_count == 5
        assert np.array_equal(pointfile.points, sample_points)

    def test_last_page_may_be_partial(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=1)
        assert pointfile.block_count == 5
        cost = QueryCost()
        assert len(pointfile.read_block(4, cost)) == 30
        assert cost.page_reads == 1

    def test_block_reads_charge_their_pages(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        cost = QueryCost()
        for index in range(3):
            pointfile.read_block(index, cost)
        # pages 0-1, 2-3 and the partial page 4
        assert (cost.page_reads, cost.block_reads) == (5, 3)

    def test_invalid_page_size_rejected(self, sample_points):
        with pytest.raises(ValueError):
            PointFile(sample_points, points_per_page=0)

    def test_record_ids_follow_hilbert_order(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=64, block_pages=1)
        assert np.array_equal(pointfile.record_ids, hilbert_sort(sample_points))
        for block in _blocks(pointfile):
            assert np.array_equal(block.points, sample_points[block.record_ids])


class TestPointFile:
    def test_block_structure(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        assert pointfile.point_count == 230
        assert pointfile.points_per_block == 100
        assert pointfile.block_count == 3

    def test_blocks_partition_the_file(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        blocks = _blocks(pointfile)
        total = sum(block.cardinality for block in blocks)
        assert total == len(sample_points)
        all_ids = np.concatenate([block.record_ids for block in blocks])
        assert sorted(all_ids.tolist()) == list(range(len(sample_points)))

    def test_file_is_hilbert_sorted_by_default(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        stored = np.vstack([block.points for block in _blocks(pointfile)])
        indices = hilbert_indices(stored)
        assert all(indices[i] <= indices[i + 1] for i in range(len(indices) - 1))

    def test_unsorted_file_keeps_original_order(self, sample_points):
        pointfile = PointFile(
            sample_points, points_per_page=50, block_pages=2, hilbert_sorted=False
        )
        stored = np.vstack([block.points for block in _blocks(pointfile)])
        assert np.array_equal(stored, sample_points)

    def test_blocks_are_read_only_views_of_the_file(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        block = pointfile.read_block(1)
        assert np.shares_memory(block.points, pointfile.points)
        with pytest.raises(ValueError):
            block.points[0, 0] = 0.0

    def test_file_does_not_alias_the_callers_points(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, hilbert_sorted=False)
        assert not np.shares_memory(pointfile.points, sample_points)
        assert sample_points.flags.writeable

    def test_block_read_charges_io(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        cost = QueryCost()
        pointfile.read_block(0, cost)
        assert cost.block_reads == 1
        assert cost.page_reads >= 2

    def test_a_read_without_a_record_returns_the_same_block(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        cost = QueryCost()
        for index in range(pointfile.block_count):
            charged = pointfile.read_block(index, cost)
            bare = pointfile.read_block(index)
            np.testing.assert_array_equal(bare.points, charged.points)
            np.testing.assert_array_equal(bare.record_ids, charged.record_ids)
        assert (cost.page_reads, cost.block_reads) == (pointfile.page_count, pointfile.block_count)

    def test_records_count_only_their_own_reads(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=1)
        first, second = QueryCost(), QueryCost()
        for index in range(pointfile.block_count):
            pointfile.read_block(index, first if index % 2 else second)
        assert (first.block_reads, second.block_reads) == (2, 3)
        assert (first.page_reads, second.page_reads) == (2, 3)

    def test_block_summaries_match_blocks(self, sample_points):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        lows, highs, cardinalities = pointfile.block_summaries()
        blocks = _blocks(pointfile)
        assert cardinalities.tolist() == [float(b.cardinality) for b in blocks]
        for low, high, block in zip(lows, highs, blocks):
            assert MBR(low, high) == MBR.from_points(block.points)

    @pytest.mark.parametrize("index", [-1, 3, 10])
    def test_out_of_range_block_rejected(self, sample_points, index):
        pointfile = PointFile(sample_points, points_per_page=50, block_pages=2)
        with pytest.raises(IndexError):
            pointfile.read_block(index)

    def test_invalid_block_pages_rejected(self, sample_points):
        with pytest.raises(ValueError):
            PointFile(sample_points, points_per_page=50, block_pages=0)
