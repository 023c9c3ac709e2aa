"""Tests for the per-query cost record, repro.core.types.QueryCost."""

from repro.core.types import QueryCost

#: The record's counters, in declaration order.
COUNTERS = (
    "node_accesses",
    "leaf_accesses",
    "page_faults",
    "distance_computations",
    "page_reads",
    "block_reads",
    "cpu_time",
)


class TestQueryCost:
    def test_record_node_access_counts_leaves_separately(self):
        cost = QueryCost()
        cost.record_node_access(is_leaf=True)
        cost.record_node_access(is_leaf=False)
        assert cost.node_accesses == 2
        assert cost.leaf_accesses == 1

    def test_buffer_hits_do_not_count_as_page_faults(self):
        cost = QueryCost()
        cost.record_node_access(is_leaf=False, buffer_hit=True)
        cost.record_node_access(is_leaf=False, buffer_hit=False)
        assert cost.node_accesses == 2
        assert cost.page_faults == 1

    def test_distance_computations_accumulate(self):
        cost = QueryCost()
        cost.record_distance_computations(5)
        cost.record_distance_computations()
        assert cost.distance_computations == 6

    def test_block_reads_charge_their_pages(self):
        cost = QueryCost()
        cost.record_block_read(pages_in_block=5)
        cost.record_block_read(2)
        assert (cost.block_reads, cost.page_reads) == (2, 7)

    def test_snapshot_returns_plain_dict(self):
        cost = QueryCost(algorithm="MBM")
        cost.record_node_access(is_leaf=True)
        snapshot = cost.snapshot()
        assert snapshot["node_accesses"] == 1
        assert tuple(snapshot) == COUNTERS  # the label is not a counter

    def test_reset_zeroes_everything(self):
        cost = QueryCost()
        cost.record_node_access(is_leaf=True)
        cost.record_distance_computations(3)
        cost.record_block_read(4)
        cost.reset()
        assert cost.snapshot() == dict.fromkeys(COUNTERS, 0)

    def test_merge_accumulates_counters(self):
        first = QueryCost()
        first.record_node_access(is_leaf=True)
        second = QueryCost()
        second.record_node_access(is_leaf=False)
        second.record_distance_computations(2)
        first.merge(second)
        assert first.node_accesses == 2
        assert first.distance_computations == 2

    def test_add_returns_new_object(self):
        first = QueryCost(node_accesses=1)
        second = QueryCost(node_accesses=2)
        combined = first + second
        assert combined.node_accesses == 3
        assert first.node_accesses == 1
        assert second.node_accesses == 2

    def test_finish_stops_the_clock_and_keeps_the_counts(self):
        cost = QueryCost()
        cost.record_node_access(is_leaf=True)
        assert cost.finish() is cost
        assert cost.cpu_time >= 0.0
        assert cost.node_accesses == 1
