"""The mutable write path: PointStore, DeltaOverlay, engine mutations,
overlay execution, compaction, and the serving/sharding write APIs.

Four historical engine bugs are pinned here as regression tests:

* calling ``tree.delete`` directly (the only delete path that existed)
  left ``engine.points`` and the cached flat snapshot stale, so queries
  kept returning deleted records — ``engine.delete`` updates every view
  together (and the engine no longer holds a second structure to
  forget);
* ``engine.insert`` used to assign ``record_id = len(self.points)``,
  which collides with a live record after any deletion — ids now come
  from a monotonic never-reused counter;
* ``engine.insert`` used to ``np.vstack`` the whole dataset per call
  (O(n²) ingest) — the overlay's :class:`PointStore` appends into an
  amortised doubling buffer;
* ``engine.compact()`` of an emptied engine let the id counter restart
  at 0 — it is now seeded from the outgoing base first.

The overlay invariant checked throughout: queries over a dirty
(base + delta − tombstones) view are bit-identical — record ids *and*
distances — to a from-scratch rebuild over the live dataset (under
exact ties at the k-th distance, up to which tied record is kept).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mbm_reference import mbm_seed_first

from repro.api.spec import QuerySpec
from repro.core.aggregates import aggregate_gnn
from repro.core.bruteforce import brute_force_gnn
from repro.core.engine import GNNEngine
from repro.core.mbm import mbm
from repro.core.mqm import mqm
from repro.core.spm import spm
from repro.core.types import GroupQuery
from repro.rtree.flat import FlatRTree
from repro.rtree.overlay import DeltaOverlay, PointStore

SEED = 20040301

#: The overlay-aware drivers behind the built-in tree algorithms.
DRIVERS = {"mqm": mqm, "spm": spm, "mbm": mbm, "best-first": aggregate_gnn}


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture()
def dataset(rng):
    return rng.uniform(0, 1000, size=(400, 2))


ALGORITHMS = ("mqm", "spm", "mbm", "best-first", "brute-force")


def _rebuilt_reference(engine, capacity=16):
    """An engine over the live dataset, rebuilt from scratch with ids kept."""
    points, ids = engine.overlay.live_points()
    return GNNEngine.from_index(
        FlatRTree.bulk_load(points, capacity=capacity, record_ids=ids)
    )


def _assert_identical(result, reference, label):
    assert result.record_ids() == reference.record_ids(), label
    assert np.array_equal(result.distances(), reference.distances()), label


# ----------------------------------------------------------------------
# PointStore
# ----------------------------------------------------------------------
class TestPointStore:
    def test_live_points_are_id_ordered_whatever_the_arrival_order(self):
        store = PointStore(dims=2)
        for rid in (9, 3, 7):
            store.append([float(rid), -float(rid)], rid)
        points, ids = store.live_points()
        assert ids.tolist() == [3, 7, 9]
        assert points.tolist() == [[3.0, -3.0], [7.0, -7.0], [9.0, -9.0]]
        assert len(store) == 3 and 7 in store and 4 not in store

    def test_delete_needs_the_id_and_the_coordinates(self):
        store = PointStore(dims=2)
        store.append([1.0, 2.0], 5)
        assert not store.delete([1.0, 2.5], 5)  # right id, wrong point
        assert not store.delete([1.0, 2.0], 6)  # unknown id
        assert store.delete([1.0, 2.0], 5)
        assert not store.delete([1.0, 2.0], 5)  # double delete is a no-op
        assert len(store) == 0 and store.live_points()[1].tolist() == []

    def test_dead_rows_are_never_handed_out_and_ids_can_return(self):
        store = PointStore(dims=2)
        store.append([1.0, 1.0], 5)
        store.append([2.0, 2.0], 6)
        assert store.delete([1.0, 1.0], 5)
        store.append([3.0, 3.0], 5)  # same id, new coordinates
        points, ids = store.live_points()
        assert ids.tolist() == [5, 6]
        assert points.tolist() == [[3.0, 3.0], [2.0, 2.0]]

    def test_append_is_amortised_not_per_call_copy(self):
        store = PointStore(dims=2)
        buffers = set()
        for i in range(100):
            store.append([float(i), float(i)], i)
            buffers.add(id(store._data))
        # A per-append vstack would allocate 100 buffers; doubling from
        # 16 rows needs only a handful of growth steps.
        assert len(buffers) <= 5
        points, ids = store.live_points()
        assert points.shape == (100, 2) and ids.tolist() == list(range(100))

    def test_pages_cover_the_live_rows_once_with_their_mbrs(self):
        store = PointStore(dims=2, page_rows=4, extent=([0.0, 0.0], [100.0, 100.0]))
        rng = np.random.default_rng(SEED)
        coordinates = rng.uniform(-10, 110, size=(23, 2))  # some outside the extent
        for rid, point in enumerate(coordinates):
            store.append(point, rid)
        for rid in (3, 8, 15):
            assert store.delete(coordinates[rid], rid)
        pages = store.version()[2]
        assert pages.starts.tolist() == [0, 4, 8, 12, 16, 20]
        assert sorted(pages.record_ids.tolist()) == store.live_points()[1].tolist()
        assert np.array_equal(pages.points, coordinates[pages.record_ids])
        for page, (start, stop) in enumerate(zip(pages.starts[:-1], pages.starts[1:])):
            assert np.array_equal(pages.lows[page], pages.points[start:stop].min(axis=0))
            assert np.array_equal(pages.highs[page], pages.points[start:stop].max(axis=0))
        # Hilbert-ordered: each page spans far less than the whole extent.
        spans = (pages.highs - pages.lows).prod(axis=1)
        assert spans.mean() < 0.5 * np.ptp(coordinates, axis=0).prod()

    def test_pages_and_rows_are_one_version(self):
        store = PointStore(dims=2, page_rows=4)
        for rid in range(6):
            store.append([float(rid), 0.0], rid)
        points, ids, pages = store.version()
        assert store.live_points()[1] is ids
        store.append([9.0, 9.0], 9)
        assert store.version()[2] is not pages and len(store.version()[2].record_ids) == 7
        assert len(pages.record_ids) == 6 and ids.tolist() == list(range(6))
        store.delete([9.0, 9.0], 9)
        paged = store.version()[2].record_ids.tolist()
        assert paged == sorted(paged)
        empty = PointStore(dims=2).version()[2]
        assert empty.starts.tolist() == [0] and empty.lows.shape == (0, 2)

    def test_a_view_handed_out_survives_later_appends(self):
        store = PointStore(dims=2)
        for i in range(16):  # fill the first buffer exactly
            store.append([float(i), 0.0], i)
        points, ids = store.live_points()
        before = points.copy(), ids.copy()
        for i in range(16, 40):  # forces a growth step
            store.append([float(i), 0.0], i)
        store.delete([3.0, 0.0], 3)
        assert np.array_equal(points, before[0]) and np.array_equal(ids, before[1])
        assert len(store.live_points()[1]) == 39


# ----------------------------------------------------------------------
# DeltaOverlay
# ----------------------------------------------------------------------
class TestDeltaOverlay:
    @pytest.fixture()
    def base(self, dataset):
        return FlatRTree.bulk_load(dataset, capacity=16)

    def test_shape_and_dirty_accounting(self, base, dataset):
        overlay = DeltaOverlay(base)
        assert not overlay.dirty and overlay.dirty_ratio == 0.0
        overlay.insert([1.0, 1.0], 400)
        assert overlay.delete(dataset[3], 3)
        assert overlay.dirty
        assert overlay.write_count == 2
        assert len(overlay) == 400  # 400 − 1 + 1
        assert overlay.dirty_ratio == pytest.approx(2 / 400)

    def test_duplicate_live_id_rejected(self, base):
        overlay = DeltaOverlay(base)
        with pytest.raises(ValueError, match="already live"):
            overlay.insert([1.0, 1.0], 3)  # base-resident
        overlay.insert([1.0, 1.0], 400)
        with pytest.raises(ValueError, match="already live"):
            overlay.insert([2.0, 2.0], 400)  # delta-resident

    def test_delete_semantics(self, base, dataset):
        overlay = DeltaOverlay(base)
        overlay.insert([5.0, 5.0], 400)
        # delta-resident: removed physically, no tombstone
        assert not overlay.delete([5.0, 5.5], 400)  # right id, wrong point
        assert overlay.delete([5.0, 5.0], 400)
        assert len(overlay.delta) == 0 and not overlay.tombstones
        # base-resident: tombstoned, base untouched
        assert overlay.delete(dataset[10], 10)
        assert overlay.tombstones == {10}
        assert base.size == 400
        # wrong coordinates never delete
        assert not overlay.delete(dataset[11] + 1.0, 11)
        # unknown / already-dead ids report False
        assert not overlay.delete(dataset[10], 10)
        assert not overlay.delete([0.0, 0.0], 999)

    def test_live_points_are_id_ordered_and_exact(self, base, dataset):
        overlay = DeltaOverlay(base)
        overlay.delete(dataset[0], 0)
        overlay.insert([9.0, 9.0], 401)
        overlay.insert([8.0, 8.0], 400)
        points, ids = overlay.live_points()
        assert ids.tolist() == list(range(1, 402))
        assert np.array_equal(points[-2], [8.0, 8.0])
        assert np.array_equal(points[-1], [9.0, 9.0])

    def test_compact_is_structurally_identical_to_rebuild(self, base, dataset):
        overlay = DeltaOverlay(base)
        overlay.delete(dataset[7], 7)
        overlay.insert([123.0, 456.0], 400)
        compacted = overlay.compact()
        points, ids = overlay.live_points()
        rebuilt = FlatRTree.bulk_load(points, capacity=base.capacity, record_ids=ids)
        assert compacted.generation == base.generation + 1
        assert np.array_equal(compacted.points, rebuilt.points)
        assert np.array_equal(compacted.record_ids, rebuilt.record_ids)
        # compaction leaves the overlay itself untouched
        assert overlay.dirty and len(overlay.delta) == 1

    def test_twin_coordinates_with_distinct_ids_delete_one_of_two(self, base, dataset):
        overlay = DeltaOverlay(base)
        twin = dataset[20].copy()
        overlay.insert(twin, 400)  # twin of a base record
        overlay.insert(twin, 401)  # and a second twin inside the delta
        query = GroupQuery(np.vstack([twin + 0.25, twin - 0.25]), k=3)
        points, ids = overlay.live_points()
        # (exact ties: the order among the three twins is not pinned)
        assert sorted(brute_force_gnn(points, query, record_ids=ids).record_ids()) == [20, 400, 401]
        assert overlay.delete(twin, 400)  # removes exactly the named twin
        assert overlay.delete(twin, 20)
        assert overlay.delta_points()[1].tolist() == [401] and overlay.tombstones == {20}
        compacted = overlay.compact()
        assert compacted.size == 400  # 400 + 2 twins − 2 deletes
        points, ids = compacted.live_points()
        assert ids[(points == twin).all(axis=1)].tolist() == [401]

    def test_delta_points_cache_invalidation(self, base):
        overlay = DeltaOverlay(base)
        overlay.insert([1.0, 1.0], 400)
        points, ids = overlay.delta_points()
        assert ids.tolist() == [400]
        overlay.insert([2.0, 2.0], 401)
        points, ids = overlay.delta_points()
        assert ids.tolist() == [400, 401]
        overlay.delete([1.0, 1.0], 400)
        points, ids = overlay.delta_points()
        assert ids.tolist() == [401]

    def test_out_of_order_explicit_ids_give_an_id_ordered_delta(self, base):
        overlay = DeltaOverlay(base)
        for rid in (450, 410, 430):
            overlay.insert([float(rid), 1.0], rid)
        handed_out = overlay.delta_points()
        assert handed_out[1].tolist() == [410, 430, 450]
        assert handed_out[0][:, 0].tolist() == [410.0, 430.0, 450.0]
        # a pair handed out is not touched by later writes
        overlay.insert([420.0, 1.0], 420)
        assert handed_out[1].tolist() == [410, 430, 450]
        assert overlay.delta_points()[1].tolist() == [410, 420, 430, 450]
        assert overlay.live_points()[1].tolist() == list(range(400)) + [410, 420, 430, 450]

    def test_reinsert_of_a_deleted_explicit_id(self, base, dataset):
        overlay = DeltaOverlay(base)
        overlay.insert([1.0, 1.0], 400)
        assert overlay.delete([1.0, 1.0], 400)
        overlay.insert([2.0, 2.0], 400)  # delta id returns with a new point
        assert overlay.delete(dataset[3], 3)
        overlay.insert([3.0, 3.0], 3)  # tombstoned base id returns in the delta
        points, ids = overlay.delta_points()
        assert ids.tolist() == [3, 400]
        assert points.tolist() == [[3.0, 3.0], [2.0, 2.0]]
        assert len(overlay) == 401 and overlay.tombstones == {3}
        live_points, live_ids = overlay.live_points()
        assert live_ids.tolist() == list(range(401))
        assert live_points[3].tolist() == [3.0, 3.0]

    @pytest.mark.parametrize("layout", ["row", "permuted", "gapped", "compacted"])
    def test_base_row_matches_a_dict_oracle(self, dataset, rng, layout):
        if layout == "compacted":
            first = DeltaOverlay(FlatRTree.bulk_load(dataset, capacity=16))
            for rid in rng.choice(400, size=60, replace=False).tolist():
                first.delete(dataset[rid], rid)
            for rid in (400, 403, 1_000):
                first.insert(rng.uniform(0, 1000, size=2), rid)
            base = first.compact()
        else:
            ids = {
                "row": None,
                "permuted": rng.permutation(400),
                "gapped": np.sort(rng.choice(2_000, size=400, replace=False)),  # shard-style
            }[layout]
            base = FlatRTree.bulk_load(dataset, capacity=16, record_ids=ids)
        oracle = {int(rid): row for row, rid in enumerate(base.record_ids)}
        top = max(oracle)
        absent = sorted(set(range(top + 3)) - set(oracle))[:40]
        probes = [*oracle, *absent, -1, -7, -(2**63), top + 1, top + 1_000, 2**62]
        overlay = DeltaOverlay(base)
        tombstoned = [rid for rid in oracle if rid % 5 == 0]
        for rid in tombstoned:
            assert overlay.delete(base.points[oracle[rid]], rid)
        for rid in probes:
            assert overlay.base_row(rid) == oracle.get(rid), rid
            assert overlay.is_live(rid) == (rid in oracle and rid not in tombstoned), rid


# ----------------------------------------------------------------------
# the pinned engine bugs
# ----------------------------------------------------------------------
class TestEngineMutationBugfixes:
    def test_engine_delete_keeps_every_view_consistent(self, dataset, rng):
        """The stale-delete bug: a delete must reach every view at once.

        The engine used to expose its object tree, and ``tree.delete``
        alone left the snapshot serving the deleted record.  There is no
        second structure to forget now: ``engine.delete`` tombstones the
        record, and ``engine.points`` is read from that same overlay.
        """
        group = np.vstack([dataset[42] + 0.5, dataset[42] - 0.5])
        spec = QuerySpec(group=group, k=1)

        engine = GNNEngine(dataset, capacity=16)
        assert engine.execute(spec).record_ids() == [42]
        assert engine.delete(dataset[42], 42)
        assert engine.execute(spec).record_ids() != [42]
        assert engine.execute(spec.replace(algorithm="brute-force")).record_ids() != [42]
        assert engine.points.shape == (399, 2)
        assert not (engine.points == dataset[42]).all(axis=1).any()

    def test_insert_after_delete_never_reuses_a_live_id(self, dataset):
        """The id-collision bug: ``len(self.points)`` is not an id."""
        engine = GNNEngine(dataset, capacity=16)
        assert engine.delete(dataset[0], 0)
        # Old rule: len(points) == 399 — a *live* record's id.
        assigned = engine.insert([111.0, 222.0])
        assert assigned == 400
        live_ids = {int(i) for i in engine.overlay.live_points()[1]}
        assert assigned in live_ids and 0 not in live_ids
        spec = QuerySpec(group=[[111.0, 222.0]], k=1, algorithm="brute-force")
        assert engine.execute(spec).record_ids() == [assigned]

    def test_ids_are_not_reused_after_compacting_an_emptied_engine(self, dataset):
        """Compaction used to leave the counter to be seeded from the new,
        empty base, so the first insert after it got id 0 again."""
        engine = GNNEngine(dataset[:20], capacity=8)
        for rid in range(20):
            assert engine.delete(dataset[rid], rid)
        assert engine.compact().size == 0
        assigned = engine.insert([5.0, 5.0])
        assert assigned == 20
        result = engine.execute(QuerySpec(group=[[5.0, 5.0]], k=3))
        assert result.record_ids() == [assigned]

    def test_engine_delete_unknown_record_returns_false(self, dataset):
        engine = GNNEngine(dataset, capacity=16)
        assert not engine.delete(dataset[3] + 123.0, 3)  # wrong coordinates
        assert not engine.delete(dataset[3], 999)  # wrong id
        assert len(engine) == 400


# ----------------------------------------------------------------------
# overlay execution: bit-identity and routing
# ----------------------------------------------------------------------
class TestOverlayExecution:
    def _mutate(self, engine, dataset, rng, deletes=30, inserts=30):
        for rid in rng.choice(len(dataset), size=deletes, replace=False):
            assert engine.delete(dataset[rid], int(rid))
        for _ in range(inserts):
            engine.insert(rng.uniform(0, 1000, size=2))

    def test_points_built_dirty_engine_matches_rebuild(self, dataset, rng):
        engine = GNNEngine(dataset, capacity=16)
        group = rng.uniform(200, 800, size=(3, 2))
        self._mutate(engine, dataset, rng)
        assert engine.dirty
        reference = _rebuilt_reference(engine)
        for name in ALGORITHMS:
            spec = QuerySpec(group=group, k=7, algorithm=name)
            _assert_identical(engine.execute(spec), reference.execute(spec), name)

    def test_snapshot_only_dirty_engine_matches_rebuild(self, dataset, rng, tmp_path):
        path = tmp_path / "base.npz"
        GNNEngine(dataset, capacity=16).snapshot().save(path)
        engine = GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))
        self._mutate(engine, dataset, rng)
        group = rng.uniform(200, 800, size=(3, 2))
        reference = _rebuilt_reference(engine)
        for name in ALGORITHMS:
            spec = QuerySpec(group=group, k=7, algorithm=name)
            result = engine.execute(spec)
            _assert_identical(result, reference.execute(spec), name)
            assert result.cost.algorithm.endswith("+overlay"), name

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_overlay_answers_are_labelled_with_the_runner(self, dataset, rng, name):
        """The runner answers the merged view itself; the executor only
        appends ``+overlay`` to the runner's own label."""
        engine = GNNEngine(dataset, capacity=16)
        spec = QuerySpec(group=rng.uniform(200, 800, size=(3, 2)), k=4, algorithm=name)
        clean_label = engine.execute(spec).cost.algorithm
        assert "overlay" not in clean_label
        self._mutate(engine, dataset, rng, deletes=5, inserts=5)
        result = engine.execute(spec)
        assert result.cost.algorithm == f"{clean_label}+overlay"
        _assert_identical(result, _rebuilt_reference(engine).execute(spec), name)

    def test_overlay_counters_are_deterministic(self, dataset, rng):
        engine = GNNEngine(dataset, capacity=16)
        group = rng.uniform(200, 800, size=(4, 2))
        self._mutate(engine, dataset, rng, deletes=20, inserts=20)
        spec = QuerySpec(group=group, k=5, algorithm="mbm")
        first = engine.execute(spec).cost
        second = engine.execute(spec).cost
        assert first.node_accesses == second.node_accesses
        assert first.distance_computations == second.distance_computations
        assert first.algorithm.endswith("+overlay")

    def test_dirty_mbm_counters_are_pinned(self):
        """The delta's pages join MBM's traversal instead of being brute-forced
        beside the base: same nodes, under a quarter of the distances."""
        rng = np.random.default_rng(SEED)
        points = rng.uniform(0, 1000, size=(5000, 2))
        engine = GNNEngine(points, capacity=16)
        for point in rng.uniform(0, 1000, size=(360, 2)):
            engine.insert(point)
        for rid in (7, 11, 13):
            assert engine.delete(points[rid], rid)
        group = rng.uniform(400, 600, size=(16, 2))
        result = engine.execute(QuerySpec(group=group, k=8, algorithm="mbm"))
        # With the delta scanned by brute force beside the base: (11, 8850);
        # with MBM's keys computed eagerly for every pushed child: (11, 3082);
        # with the whole delta scanned before the base: (11, 2537).  Over
        # consecutive parents (before every level was STR-tiled) these were
        # (11, 2073) and (11, 2537).
        assert (result.cost.node_accesses, result.cost.distance_computations) == (7, 1760)
        oracle = mbm_seed_first(engine.flat, GroupQuery(group, k=8), overlay=engine.overlay)
        assert (oracle.cost.node_accesses, oracle.cost.distance_computations) == (7, 2224)
        assert result.record_ids() == _rebuilt_reference(engine).execute(
            QuerySpec(group=group, k=8, algorithm="mbm")
        ).record_ids()

    def test_paged_mbm_charges_no_more_than_the_seed_first_oracle(self):
        """A write-path replay: jittered copies in the delta, groups of 16
        in boxes of 2% of the space.  Per query the paged delta reads the
        oracle's nodes, returns its answer and costs no more distances."""
        rng = np.random.default_rng(SEED)
        points = rng.uniform(0, 1000, size=(5000, 2))
        engine = GNNEngine(points, capacity=16)
        for row in rng.choice(len(points), size=360):
            engine.insert(points[row] + rng.normal(scale=10.0, size=2))
        for rid in rng.choice(len(points), size=60, replace=False).tolist():
            assert engine.delete(points[rid], rid)
        side = np.sqrt(0.02) * 1000
        totals = np.zeros(2)
        for low in rng.uniform(0, 1000 - side, size=(30, 2)):
            query = GroupQuery(rng.uniform(low, low + side, size=(16, 2)), k=8)
            paged = mbm(engine.flat, query, overlay=engine.overlay)
            oracle = mbm_seed_first(engine.flat, query, overlay=engine.overlay)
            assert paged.record_ids() == oracle.record_ids()
            assert paged.distances() == oracle.distances()
            assert paged.cost.node_accesses == oracle.cost.node_accesses
            assert paged.cost.distance_computations <= oracle.cost.distance_computations
            totals += paged.cost.distance_computations, oracle.cost.distance_computations
        assert totals[0] < 0.9 * totals[1], totals

    def test_excluded_records_are_not_charged_distance_computations(self, dataset, rng):
        flat = FlatRTree.bulk_load(dataset, capacity=16)
        group = rng.uniform(200, 800, size=(3, 2))
        query = GroupQuery(group, k=5)
        clean = mbm(flat, query)
        overlay = DeltaOverlay(flat)
        for neighbor in clean.neighbors[:2]:
            assert overlay.delete(neighbor.point, neighbor.record_id)
        excluded = overlay.tombstones
        shifted = mbm(flat, query, overlay=overlay)
        assert len(shifted.neighbors) == 5
        assert not excluded & {n.record_id for n in shifted.neighbors}
        # The excluded records shift the ranking down by exactly two slots.
        assert shifted.record_ids()[:3] == clean.record_ids()[2:5]

    @pytest.mark.parametrize("name", sorted(DRIVERS))
    def test_a_tombstoned_id_back_in_the_delta_is_answered(self, dataset, name):
        """Only snapshot leaves skip the tombstones: a deleted base id
        inserted again lives in the delta, and its page must offer it."""
        flat = FlatRTree.bulk_load(dataset, capacity=16)
        overlay = DeltaOverlay(flat)
        assert overlay.delete(dataset[3], 3)
        overlay.insert([500.0, 500.0], 3)
        query = GroupQuery([[499.0, 500.0], [501.0, 500.0]], k=1)
        result = DRIVERS[name](flat, query, overlay=overlay)
        assert result.record_ids() == [3]
        assert result.distances() == [2.0]

    def test_batch_over_dirty_overlay_matches_per_spec(self, dataset, rng):
        engine = GNNEngine(dataset, capacity=16)
        engine.execute(QuerySpec(group=[[500.0, 500.0]], k=1))
        self._mutate(engine, dataset, rng, deletes=15, inserts=15)
        specs = [
            QuerySpec(group=rng.uniform(200, 800, size=(4, 2)), k=3)
            for _ in range(12)
        ]
        batch = engine.execute_many(specs)
        for spec, outcome in zip(specs, batch):
            _assert_identical(outcome, engine.execute(spec), "batch-vs-solo")

    def test_compaction_clears_overlay_and_preserves_answers(self, dataset, rng):
        engine = GNNEngine(dataset, capacity=16)
        group = rng.uniform(200, 800, size=(3, 2))
        engine.execute(QuerySpec(group=group, k=2))
        self._mutate(engine, dataset, rng)
        before = {
            name: engine.execute(QuerySpec(group=group, k=7, algorithm=name))
            for name in ALGORITHMS
        }
        base_generation = engine.flat.generation
        compacted = engine.compact()
        assert not engine.dirty
        assert compacted.generation == base_generation + 1
        for name, result in before.items():
            after = engine.execute(QuerySpec(group=group, k=7, algorithm=name))
            _assert_identical(after, result, f"{name} post-compaction")
            assert not after.cost.algorithm.endswith("+overlay")

    def test_compaction_round_trips_through_disk(self, dataset, rng, tmp_path):
        engine = GNNEngine(dataset, capacity=16)
        group = rng.uniform(200, 800, size=(3, 2))
        engine.execute(QuerySpec(group=group, k=2))
        self._mutate(engine, dataset, rng)
        expected = engine.execute(QuerySpec(group=group, k=7))
        path = tmp_path / "gen1.npz"
        engine.compact().save(path)
        reloaded = GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))
        assert reloaded.flat.generation == 1
        _assert_identical(
            reloaded.execute(QuerySpec(group=group, k=7)), expected, "reloaded"
        )


# ----------------------------------------------------------------------
# Hypothesis: random mutation schedules
# ----------------------------------------------------------------------
coordinate = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32)
point_strategy = st.tuples(coordinate, coordinate)
initial_points = st.lists(point_strategy, min_size=5, max_size=40)
schedules = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "twin"]),
        point_strategy,
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=25,
)
ks = st.integers(min_value=1, max_value=4)


def _run_schedule(initial, schedule):
    """A dirty engine after ``schedule``, and the dict model of its live records."""
    data = np.array(initial, dtype=np.float64)
    engine = GNNEngine(data, capacity=8)
    engine.execute(QuerySpec(group=[[500.0, 500.0]], k=1))  # build base
    live = {i: data[i] for i in range(len(data))}
    for step, (action, point, selector) in enumerate(schedule):
        if action == "insert":
            rid = engine.insert(point)
            assert rid not in live
            live[rid] = np.asarray(point, dtype=np.float64)
        elif not live:
            continue
        elif action == "twin":
            # A live record's coordinates again, under an explicit id
            # below every id handed out so far in this run: duplicate
            # payloads and out-of-order ids in one move.
            original = sorted(live)[selector % len(live)]
            rid = 50_000 - step
            assert engine.insert(live[original], record_id=rid) == rid
            live[rid] = live[original]
        else:
            rid = sorted(live)[selector % len(live)]
            assert engine.delete(live[rid], rid)
            del live[rid]
    return engine, live


class TestMutationScheduleProperty:
    @given(initial=initial_points, schedule=schedules, k=ks)
    @settings(max_examples=40, deadline=None)
    def test_any_schedule_keeps_overlay_exact(self, initial, schedule, k):
        engine, live = _run_schedule(initial, schedule)
        if not live:
            return
        # The invariant under test: the dirty merged view is a correct
        # top-k over the independently tracked live dataset for every
        # algorithm, and — whenever no two live points tie at *exactly*
        # the same float64 aggregate distance — bit-identical to a
        # from-scratch rebuild.  (Under exact ties the tie order is a
        # traversal artifact with or without an overlay, so only the
        # distance multiset is pinned there.)
        ids = np.array(sorted(live), dtype=np.int64)
        points = np.vstack([live[i] for i in ids])
        assert np.array_equal(engine.points, points)
        group = np.array([[250.0, 250.0], [750.0, 750.0]])
        query = GroupQuery(group, k=k)
        all_distances = query.distances_to(points)
        expected = np.sort(all_distances)[:k]
        distance_of = {int(i): float(d) for i, d in zip(ids, all_distances)}
        tie_free = len(np.unique(all_distances)) == len(all_distances)
        rebuilt = GNNEngine.from_index(
            FlatRTree.bulk_load(points, capacity=8, record_ids=ids)
        )
        for name in ALGORITHMS:
            spec = QuerySpec(group=group, k=k, algorithm=name)
            result = engine.execute(spec)
            # correct top-k: the k smallest distances, each id reported
            # with its true distance
            assert np.allclose(result.distances(), expected, rtol=1e-9), name
            for rid, dist in zip(result.record_ids(), result.distances()):
                assert rid in distance_of, name
                assert np.isclose(dist, distance_of[rid], rtol=1e-9), name
            if tie_free:
                reference = rebuilt.execute(spec)
                assert result.record_ids() == reference.record_ids(), name
                assert np.array_equal(result.distances(), reference.distances()), name

    @given(
        initial=initial_points,
        schedule=schedules,
        k=st.integers(min_value=1, max_value=8),
        group=st.lists(point_strategy, min_size=1, max_size=5),
        aggregate=st.sampled_from(["sum", "max", "min"]),
        within=st.one_of(st.just(float("inf")), st.floats(min_value=0.0, max_value=3000.0)),
    )
    @settings(max_examples=40, deadline=None)
    def test_paged_mbm_matches_the_seed_first_oracle(
        self, initial, schedule, k, group, aggregate, within
    ):
        """MBM reading the delta's pages from its heap returns what the
        whole delta scanned first (``mbm_reference.mbm_seed_first``)
        returns and reads exactly its base nodes.

        Its distance computations may exceed the oracle's on a small
        delta (the replay test holds them below it), but only by the
        page keys plus what reading the delta in another order, and the
        oracle's tighter early ``best_dist``, can save: at most ``n`` per
        delta row and per row of a base leaf read, and ``2n + 1`` per
        child of an internal node read.
        """
        engine, live = _run_schedule(initial, schedule)
        if not engine.dirty:
            return
        query = GroupQuery(np.array(group), k=k, aggregate=aggregate)
        distances = query.distances_to(np.array(list(live.values())).reshape(-1, 2))
        tie_free = len(np.unique(distances)) == len(distances)
        pages, n = engine.overlay.delta_pages(), len(group)
        for use_heuristic3 in (True, False):
            paged = mbm(engine.flat, query, use_heuristic3, engine.overlay, within)
            oracle = mbm_seed_first(engine.flat, query, use_heuristic3, engine.overlay, within)
            assert paged.distances() == oracle.distances()
            if tie_free:
                assert paged.record_ids() == oracle.record_ids()
            cost = paged.cost
            assert cost.node_accesses == oracle.cost.node_accesses
            internal = cost.node_accesses - cost.leaf_accesses
            slack = len(pages.lows) + n * len(pages.record_ids)
            slack += engine.flat.capacity * (n * cost.leaf_accesses + (2 * n + 1) * internal)
            assert cost.distance_computations <= oracle.cost.distance_computations + slack

    @given(initial=initial_points, schedule=schedules, k=ks)
    @settings(max_examples=40, deadline=None)
    def test_the_delta_seed_never_reads_more_base_nodes(self, initial, schedule, k):
        """Seeded from the delta, every driver reads at most the nodes it
        reads over the base with the same tombstones and no delta: its
        pruning bound is the k-th distance of a superset of candidates."""
        engine, _ = _run_schedule(initial, schedule)
        if not engine.dirty:
            return
        base = engine.flat
        tombstones_only = DeltaOverlay(base)
        for rid in engine.overlay.tombstones:
            assert tombstones_only.delete(base.points[tombstones_only.base_row(rid)], rid)
        query = GroupQuery(np.array([[250.0, 250.0], [750.0, 750.0]]), k=k)
        for name, driver in DRIVERS.items():
            seeded = engine.execute(QuerySpec(group=query.points, k=k, algorithm=name))
            unseeded = driver(base, query, overlay=tombstones_only)
            assert seeded.cost.node_accesses <= unseeded.cost.node_accesses, name


# ----------------------------------------------------------------------
# served write path: CompactingWriter + hot-swap
# ----------------------------------------------------------------------
class TestServedWritePath:
    def test_compacting_writer_trigger_logic(self, dataset, tmp_path):
        from repro.serve.compaction import CompactingWriter

        path = tmp_path / "base.npz"
        GNNEngine(dataset, capacity=16).snapshot().save(path)
        engine = GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))
        writer = CompactingWriter(engine, dirty_ratio_trigger=0.005, min_writes=3)
        assert writer.compact_now() is None  # clean engine: nothing to fold
        writer.insert([1.0, 2.0])
        assert not writer.should_compact  # below min_writes
        writer.insert([3.0, 4.0])
        writer.insert([5.0, 6.0])
        assert writer.should_compact
        flat = writer.maybe_compact()
        assert flat is not None and flat.generation == 1
        assert writer.compactions == 1 and not engine.dirty

    def test_server_absorbs_compaction_swap_mid_trace(self, dataset, tmp_path):
        """Acceptance: zero failed requests across a mid-trace hot-swap."""
        from repro.serve import CompactingWriter, GNNServer

        rng = np.random.default_rng(SEED + 3)
        with GNNServer.from_points(dataset, tmp_path, capacity=16, workers=2) as server:
            engine = GNNEngine.from_index(
                FlatRTree.load(server.snapshot_path, mmap_mode="r")
            )
            writer = CompactingWriter(
                engine, server, dirty_ratio_trigger=0.02, min_writes=4
            )
            futures = []
            for i in range(60):
                futures.append(
                    server.submit(QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=4))
                )
                if i % 5 == 0:
                    writer.delete(dataset[i], i)
                    writer.insert(rng.uniform(0, 1000, size=2))
                writer.maybe_compact()
            failures = 0
            for future in futures:
                try:
                    future.result(timeout=60)
                except Exception:
                    failures += 1
            assert failures == 0
            assert writer.compactions >= 1
            assert server.epoch >= writer.compactions
            # Post-swap answers match the local merged view exactly.
            spec = QuerySpec(group=rng.uniform(0, 1000, size=(3, 2)), k=4)
            _assert_identical(
                server.submit(spec).result(timeout=60), engine.execute(spec), "served-post-swap"
            )


# ----------------------------------------------------------------------
# sharded write path: ShardWriter
# ----------------------------------------------------------------------
class TestShardedWritePath:
    @pytest.fixture()
    def partitioned(self, dataset, tmp_path):
        from repro.shard import partition_dataset

        manifest = partition_dataset(dataset, shards=3, directory=tmp_path, capacity=16)
        return tmp_path, manifest

    def test_global_id_allocation_and_routing(self, partitioned, dataset, rng):
        from repro.shard import ShardWriter

        directory, manifest = partitioned
        writer = ShardWriter(directory)
        assert writer.next_record_id == len(dataset)
        seen = []
        for _ in range(10):
            shard_id, record_id = writer.insert(rng.uniform(0, 1000, size=2))
            assert 0 <= shard_id < manifest.shard_count
            seen.append(record_id)
        assert seen == list(range(400, 410))  # global, monotonic, gap-free

    def test_ids_are_not_reused_by_a_writer_reopened_after_compaction(
        self, partitioned, dataset
    ):
        """The largest id, inserted then deleted, must outlive the compaction."""
        from repro.shard import ShardWriter

        directory, _ = partitioned
        writer = ShardWriter(directory)
        point = np.array([500.0, 500.0])
        _, record_id = writer.insert(point)
        assert record_id == len(dataset)
        assert writer.delete(point, record_id) is not None
        assert writer.delete(dataset[7], 7) is not None  # dirty that shard too
        writer.compact()
        assert ShardWriter(directory).next_record_id == len(dataset) + 1

    def test_a_point_inside_exactly_one_root_mbr_routes_there(self, partitioned):
        from repro.shard import ShardWriter

        directory, manifest = partitioned
        writer = ShardWriter(directory)
        lows, highs = manifest.root_bounds()
        probes = np.random.default_rng(SEED + 1).uniform(0, 1000, size=(200, 2))
        inside = ((probes[:, None] > lows) & (probes[:, None] < highs)).all(axis=2)
        owned = np.flatnonzero(inside.sum(axis=1) == 1)
        assert len(owned) > 50
        for row in owned:
            assert writer.route(probes[row]) == int(np.argmax(inside[row]))
        # Outside every box: the nearest one takes it.
        far = highs.max(axis=0) + 10_000.0
        gaps = np.maximum(far - highs, 0.0)
        assert writer.route(far) == int(np.argmin((gaps**2).sum(axis=1)))
        with pytest.raises(ValueError):
            writer.route([1.0, 2.0, 3.0])

    def test_routed_inserts_spread_and_keep_root_mbrs_tight(self, tmp_path):
        """2,000 inserts + compact: every shard takes writes and the root
        MBRs barely move.  (Routing every insert to shard 0 — the key-is-
        always-0 bug — grew the total root-MBR area by 60% here.)"""
        from repro.datasets.real_like import pp_like
        from repro.shard import ShardWriter, partition_dataset

        points = pp_like(20_000)
        before = partition_dataset(points[:18_000], 4, tmp_path)
        writer = ShardWriter(tmp_path)
        inserts = np.bincount(
            [writer.insert(point)[0] for point in points[18_000:]], minlength=4
        )
        after = writer.compact()

        def total_area(manifest):
            lows, highs = manifest.root_bounds()
            return float(np.prod(highs - lows, axis=1).sum())

        assert inserts.sum() == 2_000 and inserts.min() > 0
        assert [row.count for row in after.shards] == [4_500 + n for n in inserts]
        assert total_area(after) < 1.01 * total_area(before)

    def test_delete_probes_past_routing_ties(self, partitioned, dataset):
        from repro.shard import ShardWriter

        writer = ShardWriter(partitioned[0])
        for rid in range(0, 30, 3):
            assert writer.delete(dataset[rid], rid) is not None
        assert writer.delete(dataset[0], 0) is None  # already dead
        assert writer.delete(dataset[1] + 500.0, 1) is None  # wrong point

    def test_compaction_updates_manifest_and_preserves_answers(
        self, partitioned, dataset, rng
    ):
        from repro.shard import ShardManifest, ShardWriter

        directory, manifest = partitioned
        writer = ShardWriter(directory)
        deleted = list(range(0, 40, 2))
        for rid in deleted:
            assert writer.delete(dataset[rid], rid) is not None
        inserted = {}
        for _ in range(20):
            point = rng.uniform(0, 1000, size=2)
            _, rid = writer.insert(point)
            inserted[rid] = point
        updated = writer.compact()
        assert updated.generation == manifest.generation + 1
        assert updated.size == 400
        # The on-disk manifest is the updated one, and every snapshot it
        # names exists (manifest-written-last discipline).
        reloaded = ShardManifest.load(directory)
        assert reloaded.generation == updated.generation
        for shard, original in zip(reloaded.shards, manifest.shards):
            assert (directory / shard.path).exists()
            # The Hilbert range describes the partition, not the writes.
            assert (shard.hilbert_low, shard.hilbert_high) == (
                original.hilbert_low,
                original.hilbert_high,
            )
        # Federated view == single rebuilt index over the live records.
        live = {i: dataset[i] for i in range(400) if i not in set(deleted)}
        live.update(inserted)
        ids = np.array(sorted(live), dtype=np.int64)
        points = np.vstack([live[i] for i in ids])
        reference = GNNEngine.from_index(
            FlatRTree.bulk_load(points, capacity=16, record_ids=ids)
        )
        group = rng.uniform(0, 1000, size=(3, 2))
        expected = reference.execute(QuerySpec(group=group, k=6))
        merged = []
        for shard in reloaded.shards:
            shard_engine = GNNEngine.from_index(
                FlatRTree.load(directory / shard.path, mmap_mode="r")
            )
            result = shard_engine.execute(QuerySpec(group=group, k=6))
            merged.extend((n.distance, n.record_id) for n in result.neighbors)
        merged.sort()
        assert [rid for _, rid in merged[:6]] == expected.record_ids()

    def test_an_emptied_shard_folds_its_tombstones_and_lives_on(self, dataset, tmp_path, rng):
        """delete-all → compact → publish → reopen → insert → query, on one shard."""
        from repro.shard import ShardManifest, ShardWriter, partition_dataset

        before = partition_dataset(dataset[:30], shards=3, directory=tmp_path, capacity=16)
        writer = ShardWriter(tmp_path)
        live = {i: dataset[i] for i in range(30)}
        # Drain one shard completely.
        drained = FlatRTree.load(tmp_path / before.shards[1].path)
        for point, rid in zip(np.asarray(drained.points), np.asarray(drained.record_ids)):
            assert writer.delete(point, int(rid)) == 1
            del live[int(rid)]
        published = writer.compact()
        row = published.shards[1]
        assert (row.count, row.sample, published.size) == (0, (), 20)
        assert (row.hilbert_low, row.hilbert_high) == (
            before.shards[1].hilbert_low,
            before.shards[1].hilbert_high,
        )
        assert FlatRTree.load(tmp_path / row.path, mmap_mode="r").size == 0
        group = rng.uniform(0, 1000, size=(3, 2))
        # Nothing to contribute: the coordinator never contacts it.
        assert np.isinf(published.group_mindist_bounds(group)[1])

        # A fresh writer over the published directory keeps taking writes.
        assert ShardManifest.load(tmp_path) == published
        writer = ShardWriter(tmp_path)
        assert not writer.engine(1).dirty and len(writer.engine(1)) == 0
        for _ in range(12):
            point = rng.uniform(0, 1000, size=2)
            _, rid = writer.insert(point)
            live[rid] = point
        refill = np.array([1.5, 2.5])
        live[writer.engine(1).insert(refill, record_id=1000)] = refill

        ids = np.array(sorted(live), dtype=np.int64)
        points = np.vstack([live[i] for i in ids])
        for k in (1, 5, len(live) + 3):
            query = GroupQuery(group, k=k)
            expected = brute_force_gnn(points, query, record_ids=ids)
            merged = []
            for shard_id in range(3):
                result = writer.engine(shard_id).execute(QuerySpec(group=group, k=k))
                merged.extend((n.distance, n.record_id) for n in result.neighbors)
            merged.sort()
            assert [rid for _, rid in merged[:k]] == expected.record_ids()
            assert [d for d, _ in merged[:k]] == expected.distances()
        assert writer.compact().shards[1].count == 1

    def test_node_swap_snapshot_follows_compaction(self, partitioned, dataset, rng):
        from repro.shard import ShardNode, ShardWriter

        directory, manifest = partitioned
        writer = ShardWriter(directory)
        shard0 = manifest.shards[0]
        with ShardNode(0, directory / shard0.path, workers=1) as node:
            flat = FlatRTree.load(directory / shard0.path)
            rid = int(np.asarray(flat.record_ids)[0])
            assert writer.engine(0).delete(np.asarray(flat.points[0]), rid)
            updated = writer.compact()
            epoch = node.swap_snapshot(directory / updated.shards[0].path)
            assert epoch >= 1
            assert node.generation == updated.generation
            assert node.size == updated.shards[0].count
