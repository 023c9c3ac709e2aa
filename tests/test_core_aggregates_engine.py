"""Tests for repro.core.aggregates and the GNNEngine facade."""

import math

import numpy as np
import pytest
from aggregate_reference import aggregate_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import QuerySpec
from repro.core.aggregates import aggregate_gnn, group_nn_stream
from repro.core.bruteforce import brute_force_gnn
from repro.core.engine import GNNEngine
from repro.core.mbm import mbm
from repro.core.types import GroupQuery, QueryCost
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.storage.pointfile import PointFile


def _memory(engine, group, k=1, **fields):
    return engine.execute(QuerySpec(group=group, k=k, **fields))


def _disk(engine, group, k=1, algorithm="auto", **options):
    options.setdefault("points_per_page", 50)
    options.setdefault("block_pages", 200)
    return engine.execute(
        QuerySpec(group=group, k=k, residency="disk", algorithm=algorithm, options=options)
    )


class TestGroupNNStream:
    def test_stream_yields_ascending_group_distances(self, small_tree, rng):
        group = rng.uniform(200, 800, size=(6, 2))
        stream = group_nn_stream(small_tree, GroupQuery(group), QueryCost())
        distances = [next(stream).distance for _ in range(25)]
        assert distances == sorted(distances)

    def test_stream_prefix_matches_brute_force(self, small_tree, small_points, rng):
        group = rng.uniform(200, 800, size=(5, 2))
        stream = group_nn_stream(small_tree, GroupQuery(group), QueryCost())
        prefix = [next(stream) for _ in range(10)]
        expected = brute_force_gnn(small_points, GroupQuery(group, k=10))
        assert [n.distance for n in prefix] == pytest.approx(expected.distances())

    def test_stream_enumerates_whole_dataset(self, small_tree, small_points, rng):
        group = rng.uniform(0, 1000, size=(3, 2))
        stream = group_nn_stream(small_tree, GroupQuery(group), QueryCost())
        assert len(list(stream)) == len(small_points)


class TestAggregateGNN:
    @pytest.mark.parametrize("aggregate", ["sum", "max", "min"])
    def test_matches_brute_force(self, small_tree, small_points, rng, aggregate):
        group = rng.uniform(100, 900, size=(7, 2))
        query = GroupQuery(group, k=5, aggregate=aggregate)
        result = aggregate_gnn(small_tree, query)
        expected = brute_force_gnn(small_points, GroupQuery(group, k=5, aggregate=aggregate))
        assert result.distances() == pytest.approx(expected.distances())

    def test_weighted_sum_matches_brute_force(self, small_tree, small_points, rng):
        group = rng.uniform(100, 900, size=(4, 2))
        weights = rng.uniform(0.2, 5.0, size=4)
        query = GroupQuery(group, k=3, weights=weights)
        result = aggregate_gnn(small_tree, query)
        expected = brute_force_gnn(
            small_points, GroupQuery(group, k=3, weights=weights)
        )
        assert result.distances() == pytest.approx(expected.distances())

    def test_cost_algorithm_label_mentions_aggregate(self, small_tree, rng):
        group = rng.uniform(100, 900, size=(3, 2))
        result = aggregate_gnn(small_tree, GroupQuery(group, aggregate="max"))
        assert "max" in result.cost.algorithm


class TestBestFirstAgainstTheStreamReference:
    """``aggregate_gnn`` against ``tests/aggregate_reference.py``: the group-NN stream, the delta scanned first.

    Stopping at the key reads no node the stream would not (on a clean
    snapshot with ``k`` answers exactly the same ones; with fewer, the
    stream reads on to its first emission past ``within``), the root's
    key is free, and delta rows are reached in ascending bound, so
    neither count is ever higher; answers are the reference's, id for id
    and float for float.  ``mbm`` runs ``max``/``min`` in best-first's
    mode, so there it must equal ``aggregate_gnn`` in answers and in
    both counts.  Coordinates are continuous: the order exact ties are
    met in is not pinned.
    """

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_answers_and_no_higher_costs(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        dims = data.draw(st.integers(2, 4), label="dims")
        points = rng.uniform(0, 1000, size=(data.draw(st.integers(1, 300)), dims))
        flat = FlatRTree.bulk_load(points, capacity=data.draw(st.sampled_from([4, 8, 16])))
        cardinality = data.draw(st.integers(1, 8))
        center, extent = rng.uniform(0, 1000, size=dims), rng.uniform(5, 300)
        group = center + extent * rng.uniform(-1, 1, size=(cardinality, dims))
        weights = rng.uniform(0.5, 3.0, size=cardinality) if data.draw(st.booleans()) else None
        aggregate = data.draw(st.sampled_from(["sum", "max", "min"]), label="aggregate")
        k = data.draw(st.integers(1, 6))
        query = GroupQuery(group, k=k, aggregate=aggregate, weights=weights)
        overlay = None
        if data.draw(st.booleans(), label="dirty"):
            overlay = DeltaOverlay(flat)
            dead = data.draw(st.sets(st.integers(0, len(points) - 1), max_size=len(points) // 2))
            for rid in dead:
                assert overlay.delete(points[rid], rid)
            fresh = rng.uniform(0, 1000, size=(data.draw(st.integers(0, 64)), dims))
            for offset, row in enumerate(fresh):
                overlay.insert(row, len(points) + offset)
            if dead:  # a tombstoned id returns in the delta, somewhere else
                overlay.insert(rng.uniform(0, 1000, size=dims), min(dead))
        within = math.inf
        if data.draw(st.booleans(), label="within"):
            distances = np.sort(query.distances_to(points))
            within = float(distances[data.draw(st.integers(0, len(points) - 1))])
        expected = aggregate_reference(flat, query, overlay=overlay, within=within)
        result = aggregate_gnn(flat, query, overlay=overlay, within=within)
        assert result.record_ids() == expected.record_ids()
        assert result.distances() == expected.distances()
        if overlay is None and len(result.neighbors) == query.k:
            assert result.cost.node_accesses == expected.cost.node_accesses
        else:
            assert result.cost.node_accesses <= expected.cost.node_accesses
        assert result.cost.distance_computations <= expected.cost.distance_computations
        if aggregate != "sum":
            twin = mbm(flat, query, overlay=overlay, within=within)
            assert twin.record_ids() == result.record_ids()
            assert twin.distances() == result.distances()
            assert twin.cost.node_accesses == result.cost.node_accesses
            assert twin.cost.distance_computations == result.cost.distance_computations

    def test_delta_rows_are_reached_in_ascending_bound(self):
        """A delta run offers rows only up to the next run's bound, so it waits for a closer page.

        The group is the segment ``[100, 104] x {141}``, ``k = 1``.  Page
        ``near`` straddles the segment (key 0), its rows 10 above or below
        it (bounds 20.0-20.6, best distance 20.42); page ``along`` lies on
        its axis (bounds 16.6, 20.45, 20.5, 20.55, distances 4 more).
        The base, one far leaf, is read first.  ``along`` then offers its
        first row and waits; ``near``'s rows cut ``best_dist`` to 20.42
        and the rest of ``along`` is never reached.  Scanned to
        ``best_dist`` at once, ``along`` would charge its three other
        rows too (32 distance computations, the reference 28).
        """
        flat = FlatRTree.bulk_load(
            np.array([[0.0, 0.0], [1000.0, 0.0], [0.0, 1000.0], [1000.0, 1000.0]]), capacity=4
        )
        overlay = DeltaOverlay(flat)
        along = [[104.0 + d, 141.0] for d in (8.3, 10.225, 10.25, 10.275)]
        near = [[101.5, 151.0], [102.5, 151.1], [102.0, 130.8], [101.8, 130.7]]
        for record_id, point in enumerate(along + near, start=4):
            overlay.insert(np.array(point), record_id)
        pages = overlay.delta_pages()
        assert sorted(pages.record_ids[pages.starts[0] : pages.starts[1]].tolist()) in (
            [4, 5, 6, 7],
            [8, 9, 10, 11],
        )
        query = GroupQuery([[100.0, 141.0], [104.0, 141.0]], k=1)
        expected = aggregate_reference(flat, query, overlay=overlay)
        result = aggregate_gnn(flat, query, overlay=overlay)
        assert result.record_ids() == expected.record_ids() == [8]
        # 2 page keys + 8 row keys + 4 base rows and 4 delta rows at n = 2
        assert result.cost.distance_computations == 26
        assert expected.cost.distance_computations == 28


class TestEngineMemoryQueries:
    def test_auto_uses_mbm_for_sum(self, engine, rng):
        result = _memory(engine, rng.uniform(200, 800, size=(5, 2)), k=2)
        assert result.cost.algorithm.startswith("MBM")

    def test_auto_uses_mbm_for_other_aggregates(self, engine, rng):
        result = _memory(engine, rng.uniform(200, 800, size=(5, 2)), k=2, aggregate="max")
        assert result.cost.algorithm.startswith("MBM")

    @pytest.mark.parametrize("algorithm", ["mqm", "spm", "mbm", "best-first", "brute-force"])
    def test_every_algorithm_gives_the_same_answer(self, engine, rng, algorithm):
        group = rng.uniform(100, 900, size=(8, 2))
        reference = _memory(engine, group, k=4, algorithm="brute-force")
        result = _memory(engine, group, k=4, algorithm=algorithm)
        assert result.distances() == pytest.approx(reference.distances())

    def test_unknown_algorithm_rejected(self, engine):
        with pytest.raises(ValueError):
            _memory(engine, [[0.0, 0.0]], algorithm="quantum")

    def test_options_are_forwarded(self, engine, rng):
        queries = rng.uniform(300, 700, size=(120, 2))
        spec = QuerySpec(group=queries, k=2, residency="disk", algorithm="gcp")
        plain = engine.execute(spec)
        narrow = engine.execute(spec.replace(options={"query_tree_capacity": 4}))
        # A query R-tree of 4-entry nodes has more nodes to read.
        assert narrow.cost.node_accesses > plain.cost.node_accesses
        assert narrow.distances() == pytest.approx(plain.distances())

    def test_engine_length(self, engine, small_points):
        assert len(engine) == len(small_points)


class TestEngineDiskQueries:
    def test_auto_prefers_fmqm_for_few_blocks(self, engine, rng):
        queries = rng.uniform(300, 700, size=(200, 2))
        result = _disk(engine, queries, k=2, block_pages=10)
        assert result.cost.algorithm == "F-MQM"

    def test_auto_prefers_fmbm_for_many_blocks(self, engine, rng):
        queries = rng.uniform(300, 700, size=(600, 2))
        result = _disk(engine, queries, k=2, block_pages=1, points_per_page=50)
        assert result.cost.algorithm == "F-MBM"

    @pytest.mark.parametrize("algorithm", ["fmqm", "fmbm", "gcp"])
    def test_disk_algorithms_agree_with_memory_result(self, engine, rng, algorithm):
        queries = rng.uniform(300, 700, size=(150, 2))
        memory = _memory(engine, queries, k=3, algorithm="brute-force")
        options = {} if algorithm == "gcp" else {"block_pages": 2}
        disk = engine.execute(
            QuerySpec(
                group=queries, k=3, residency="disk", algorithm=algorithm, options=options
            )
        )
        assert disk.distances() == pytest.approx(memory.distances())

    def test_existing_query_file_can_be_passed(self, engine, rng):
        queries = rng.uniform(300, 700, size=(120, 2))
        query_file = PointFile(queries, points_per_page=20, block_pages=2)
        result = engine.execute(QuerySpec(group_file=query_file, k=1, algorithm="fmbm"))
        reference = _memory(engine, queries, k=1, algorithm="brute-force")
        assert result.distances() == pytest.approx(reference.distances())

    def test_missing_input_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec(residency="disk", algorithm="fmbm")

    def test_gcp_requires_raw_points(self, engine, rng):
        queries = rng.uniform(300, 700, size=(60, 2))
        with pytest.raises(ValueError):
            engine.execute(
                QuerySpec(
                    group_file=PointFile(queries, points_per_page=20, block_pages=2),
                    algorithm="gcp",
                )
            )

    def test_unknown_disk_algorithm_rejected(self, engine, rng):
        with pytest.raises(ValueError):
            _disk(engine, rng.uniform(0, 1, size=(10, 2)), algorithm="hash-join")


class TestEngineMaintenance:
    def test_insert_extends_the_dataset(self, small_points):
        engine = GNNEngine(small_points[:100], capacity=8)
        new_id = engine.insert([123.0, 456.0])
        assert new_id == 100
        assert len(engine) == 101
        # The new point must be findable as the best neighbor of a query
        # group sitting right on top of it.
        result = _memory(engine, np.array([[123.0, 456.0], [123.5, 456.5]]), k=1)
        assert result.best.record_id == 100

    def test_buffer_pages_enable_page_fault_accounting(self, small_points, rng):
        engine = GNNEngine(small_points, capacity=8, buffer_pages=10_000)
        group = rng.uniform(200, 800, size=(8, 2))
        _memory(engine, group, k=2)
        second = _memory(engine, group, k=2)
        # Second identical query hits the warm buffer: no new page faults.
        assert second.cost.page_faults == 0
        assert second.cost.node_accesses > 0
