"""Tests for the executor layer: execute, execute_many, maintenance."""

import numpy as np
import pytest

from repro.api import QuerySpec
from repro.core.bruteforce import brute_force_gnn
from repro.core.engine import GNNEngine
from repro.core.gcp import PairCapExceeded
from repro.geometry.hilbert import hilbert_indices
from repro.rtree.flat import FlatRTree
from repro.storage.generations import GenerationStore
from repro.storage.pointfile import PointFile

from read_sets import union_of_solo_reads


@pytest.fixture(params=["points", "mmap", "recover"])
def any_engine(request, small_points, tmp_path):
    """The three ways an engine comes to exist, over the same dataset."""
    if request.param == "points":
        yield GNNEngine(small_points, capacity=16)
        return
    flat = FlatRTree.bulk_load(small_points, capacity=16)
    if request.param == "mmap":
        flat.save(tmp_path / "index.npz")
        yield GNNEngine.from_index(FlatRTree.load(tmp_path / "index.npz", mmap_mode="r"))
        return
    GenerationStore(tmp_path).publish(flat)
    engine = GNNEngine.recover(tmp_path, fsync="off")
    yield engine
    engine.wal.close()


class TestExecute:
    def test_execute_matches_brute_force(self, engine, rng):
        group = rng.uniform(100, 900, size=(8, 2))
        reference = engine.execute(QuerySpec(group=group, k=4, algorithm="brute-force"))
        for algorithm in ("mqm", "spm", "mbm", "best-first"):
            result = engine.execute(QuerySpec(group=group, k=4, algorithm=algorithm))
            assert result.distances() == pytest.approx(reference.distances())

    def test_execute_forwards_options(self, engine, rng):
        group = rng.uniform(300, 700, size=(120, 2))
        spec = QuerySpec(group=group, k=2, residency="disk", algorithm="gcp")
        assert engine.execute(spec).neighbors
        with pytest.raises(PairCapExceeded, match="max_pairs=10 "):
            engine.execute(spec.replace(options={"max_pairs": 10}))

    def test_execute_disk_from_group_file(self, engine, rng):
        queries = rng.uniform(300, 700, size=(120, 2))
        file = PointFile(queries, points_per_page=20, block_pages=2)
        result = engine.execute(QuerySpec(group_file=file, k=1, algorithm="fmbm"))
        reference = engine.execute(QuerySpec(group=queries, k=1, algorithm="brute-force"))
        assert result.distances() == pytest.approx(reference.distances())

    def test_execute_disk_builds_file_from_points(self, engine, rng):
        queries = rng.uniform(300, 700, size=(150, 2))
        spec = QuerySpec(
            group=queries,
            k=3,
            residency="disk",
            options={"points_per_page": 50, "block_pages": 2},
        )
        result = engine.execute(spec)
        reference = engine.execute(QuerySpec(group=queries, k=3, algorithm="brute-force"))
        assert result.distances() == pytest.approx(reference.distances())

    def test_execute_unknown_algorithm_raises(self, engine):
        with pytest.raises(ValueError, match="unknown algorithm"):
            engine.execute(QuerySpec(group=[[0.0, 0.0]], algorithm="quantum"))


class TestExecuteMany:
    def test_batch_of_100_matches_per_query_execute(self, engine, rng):
        """Acceptance: >= 100 memory-resident groups, identical results."""
        specs = []
        for _ in range(100):
            n = int(rng.integers(2, 12))
            center = rng.uniform(100, 900, size=2)
            group = rng.uniform(center - 120, center + 120, size=(n, 2))
            specs.append(QuerySpec(group=group, k=int(rng.integers(1, 5))))
        batch = engine.execute_many(specs)
        assert len(batch) == 100
        for spec, outcome in zip(specs, batch):
            single = engine.execute(spec)
            assert outcome.record_ids() == single.record_ids()
            assert outcome.distances() == single.distances()

    def test_batch_mixes_algorithms_and_aggregates(self, engine, rng):
        group = rng.uniform(200, 800, size=(6, 2))
        specs = [
            QuerySpec(group=group, k=3),
            QuerySpec(group=group, k=3, aggregate="max"),
            QuerySpec(group=group, k=3, algorithm="mqm"),
            QuerySpec(group=group, k=3, algorithm="brute-force"),
            QuerySpec(group=group, k=3, weights=np.full(6, 2.0)),
            QuerySpec(group=group, k=3, aggregate="max", algorithm="best-first"),
        ]
        batch = engine.execute_many(specs)
        reference = engine.execute(specs[0])
        assert batch[0].distances() == pytest.approx(reference.distances())
        assert batch[2].distances() == pytest.approx(reference.distances())
        assert batch[3].distances() == pytest.approx(reference.distances())
        assert batch[1].distances() == batch[5].distances()
        labels = [outcome.cost.algorithm for outcome in batch]
        assert labels[1].startswith("MBM")
        assert labels[3] == "brute-force"
        assert labels[5].startswith("best-first")

    @pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
    def test_brute_force_batch_matches_per_spec_execute(
        self, any_engine, dirty, small_points, rng
    ):
        """Brute-force specs in a batch reproduce per-query answers exactly.

        On every engine kind, clean or dirty: they all read the same
        live array, which must equal the dict model's.
        """
        engine = any_engine
        live = dict(enumerate(small_points))
        if dirty:
            for _ in range(12):
                point = rng.uniform(0, 1000, size=2)
                live[engine.insert(point)] = point
            for rid in (3, 250, 605):  # two base records, one delta record
                assert engine.delete(live.pop(rid), rid)
        assert engine.dirty == dirty
        model_ids = np.array(sorted(live))
        model = np.array([live[i] for i in model_ids])
        assert np.array_equal(engine.points, model)
        specs = []
        for _ in range(30):
            group = rng.uniform(0, 1000, size=(5, 2))
            specs.append(QuerySpec(group=group, k=4, algorithm="brute-force"))
        specs.append(QuerySpec(group=rng.uniform(0, 1000, size=(5, 2)), k=4,
                               algorithm="brute-force", aggregate="max"))
        batch = engine.execute_many(specs)
        for spec, outcome in zip(specs, batch):
            single = engine.execute(spec)
            assert outcome.record_ids() == single.record_ids()
            assert outcome.distances() == single.distances()
            assert outcome.cost.distance_computations == single.cost.distance_computations
            # the batch runs each brute-force spec on the per-spec route
            assert outcome.cost.algorithm == single.cost.algorithm
            assert single.cost.algorithm == ("brute-force+overlay" if dirty else "brute-force")
            reference = brute_force_gnn(model, spec.query, record_ids=model_ids)
            assert single.record_ids() == reference.record_ids()
            assert single.distances() == reference.distances()

    def test_batch_includes_disk_specs(self, engine, rng):
        queries = rng.uniform(300, 700, size=(120, 2))
        specs = [
            QuerySpec(group=rng.uniform(200, 800, size=(4, 2)), k=2),
            QuerySpec(
                group=queries,
                k=2,
                residency="disk",
                options={"points_per_page": 20, "block_pages": 2},
            ),
        ]
        batch = engine.execute_many(specs)
        assert batch[1].distances() == pytest.approx(
            engine.execute(QuerySpec(group=queries, k=2, algorithm="brute-force")).distances()
        )

    def test_empty_batch(self, engine):
        assert engine.execute_many([]) == []

    def test_traced_specs_keep_their_plan_in_batches(self, engine, rng):
        group = rng.uniform(0, 1000, size=(4, 2))
        specs = [
            QuerySpec(group=group, k=2, algorithm="brute-force", trace=True),
            QuerySpec(group=group, k=2, trace=True),
            QuerySpec(group=group, k=2),
        ]
        batch = engine.execute_many(specs)
        assert batch[0].plan is not None and batch[0].plan.algorithm.name == "brute-force"
        assert batch[1].plan is not None and batch[1].plan.algorithm.name == "mbm"
        assert batch[2].plan is None

    def test_batch_with_buffer_keeps_answers(self, small_points, rng):
        buffered = GNNEngine(small_points, capacity=8, buffer_pages=64)
        specs = [
            QuerySpec(group=rng.uniform(100, 900, size=(4, 2)), k=3) for _ in range(40)
        ]
        batch = buffered.execute_many(specs)
        for spec, outcome in zip(specs, batch):
            single = buffered.execute(spec)
            assert outcome.record_ids() == single.record_ids()


class TestSharedTraversalBatches:
    """``execute_many``'s one read scope: solo answers, each node paid for once."""

    def _specs(self, rng, count=24, n=6, k=3):
        specs = []
        for _ in range(count):
            center = rng.uniform(200, 800, size=2)
            specs.append(
                QuerySpec(group=rng.uniform(center - 100, center + 100, size=(n, 2)), k=k)
            )
        return specs

    def test_shared_batch_matches_per_query_execute(self, engine, rng):
        specs = self._specs(rng)
        batch = engine.execute_many(specs)
        for spec, outcome in zip(specs, batch):
            single = engine.execute(spec)
            assert outcome.record_ids() == single.record_ids()
            assert outcome.distances() == single.distances()
            assert outcome.cost.algorithm == single.cost.algorithm
        assert _node_accesses(batch) == union_of_solo_reads(engine.flat, engine.execute, specs)

    def test_within_specs_join_the_bucket(self, engine, small_points, rng):
        """Each member of a bucket keeps its own ``within`` ceiling."""
        specs = []
        for position, spec in enumerate(self._specs(rng)):
            distances = np.sort(spec.query.distances_to(small_points))
            if position % 3 == 0:
                specs.append(spec)  # no ceiling, in the same bucket
                continue
            # A ceiling at one of the four smallest distances: 1 to k qualify.
            within = float(distances[position % 4])
            specs.append(spec.replace(options={"within": within}))
        batch = engine.execute_many(specs)
        assert _node_accesses(batch) == union_of_solo_reads(engine.flat, engine.execute, specs)
        for spec, outcome in zip(specs, batch):
            single = engine.execute(spec)
            assert outcome.record_ids() == single.record_ids()
            assert outcome.distances() == single.distances()
            within = spec.options.get("within", np.inf)
            expected = brute_force_gnn(small_points, spec.query)
            assert outcome.distances() == [d for d in expected.distances() if d <= within]

    def test_writes_never_rebuild_the_snapshot(self, small_points, rng, monkeypatch):
        """The index is bulk-loaded once, at construction; batches and
        writes never trigger another build.  An insert lands in the
        delta overlay and batches keep the original base — zero
        rebuilds, with answers still matching per-query execute.
        """
        builds = []
        original = FlatRTree.bulk_load.__func__

        def counting(cls, *args, **kwargs):
            builds.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(FlatRTree, "bulk_load", classmethod(counting))
        engine = GNNEngine(small_points, capacity=16)
        assert len(builds) == 1

        specs = self._specs(rng)
        engine.execute_many(specs)
        engine.execute_many(specs)
        assert len(builds) == 1

        engine.insert([500.0, 500.0])  # absorbed by the delta overlay
        assert engine.dirty
        batch = engine.execute_many(specs)
        for spec, outcome in zip(specs, batch):
            single = engine.execute(spec)
            assert outcome.record_ids() == single.record_ids()
        assert len(builds) == 1  # the overlay shadows the base; no rebuild

    def test_insert_invalidation_never_serves_stale_batch_answers(self, rng):
        """An insert between batches must be visible to the next batch.

        Each group is two pairs ``center ± offset``: by the triangle
        inequality a pair's summed distance is smallest on the segment
        between its points, so ``center``, where the two segments cross,
        is the group's unique minimiser, and the point inserted there is
        the answer by construction — any stale pre-insert snapshot would
        provably return a wrong one.
        """
        points = rng.uniform(0, 1000, size=(300, 2))
        engine = GNNEngine(points, capacity=16)
        center = np.array([444.0, 444.0])
        specs = []
        for _ in range(8):
            offsets = rng.uniform(-15, 15, size=(2, 2))
            specs.append(QuerySpec(group=center + np.vstack([offsets, -offsets]), k=1))
        stale = engine.execute_many(specs)  # materialises the snapshot
        assert all(outcome.record_ids() != [300] for outcome in stale)

        inserted = engine.insert(center)
        fresh = engine.execute_many(specs)
        for spec, outcome in zip(specs, fresh):
            assert outcome.record_ids() == [inserted]
            oracle = engine.execute(spec.replace(algorithm="brute-force"))
            assert oracle.record_ids() == [inserted]
            single = engine.execute(spec)
            assert outcome.record_ids() == single.record_ids()
            assert outcome.distances() == single.distances()

    def test_dirty_overlay_batches_share_their_reads(self):
        """Over pending writes a batch still pays for each base node once.

        Delta pages are not node reads, so each member pages the delta
        itself and the batch reads the union of its solo read sets.
        """
        rng = np.random.default_rng(7)
        engine = GNNEngine(rng.uniform(0, 1000, size=(5000, 2)), capacity=16)
        for point in rng.uniform(0, 1000, size=(60, 2)):
            engine.insert(point)
        for record_id in rng.choice(5000, size=20, replace=False).tolist():
            assert engine.delete(engine.flat.live_points()[0][record_id], record_id)
        assert engine.dirty
        specs = self._specs(rng, count=16, n=6, k=4)
        batch = engine.execute_many(specs)
        solo = [engine.execute(spec) for spec in specs]
        for outcome, single in zip(batch, solo):
            assert outcome.record_ids() == single.record_ids()
            assert outcome.distances() == single.distances()
        reads = union_of_solo_reads(engine.flat, engine.execute, specs)
        assert _node_accesses(batch) == reads < _node_accesses(solo)
        computations = sum(r.cost.distance_computations for r in batch)
        assert computations == sum(r.cost.distance_computations for r in solo)
        # Pinned: 139 node accesses while dirty batches ran member by member;
        # 11794 distances before base leaves joined the delta's run heap;
        # (51, 11546) over consecutive parents, before every level was tiled.
        assert (_node_accesses(batch), computations) == (48, 10573)

    def test_mixed_ks_bucket_separately_with_identical_answers(self, engine, rng):
        specs = []
        for k in (1, 4, 8, 4, 1, 8, 4, 1):
            center = rng.uniform(200, 800, size=2)
            specs.append(
                QuerySpec(group=rng.uniform(center - 80, center + 80, size=(5, 2)), k=k)
            )
        batch = engine.execute_many(specs)
        for spec, outcome in zip(specs, batch):
            single = engine.execute(spec)
            assert outcome.record_ids() == single.record_ids()
            assert outcome.distances() == single.distances()

    def test_single_flat_spec_stays_on_per_query_path(self, engine, rng):
        spec = QuerySpec(group=rng.uniform(200, 800, size=(5, 2)), k=3)
        (outcome,) = engine.execute_many([spec])
        assert outcome.cost.algorithm.startswith("MBM-best_first")
        single = engine.execute(spec)
        assert outcome.record_ids() == single.record_ids()

    def test_boundary_ties_keep_k_exact_distances_in_order(self):
        """An exact k-th-distance tie keeps k records at ``execute``'s distances.

        Four points tie at the same aggregate distance; each member keeps
        the first tied records its traversal meets, so the ids are any
        two of the four, reported in (distance, record_id) order.
        """
        data = np.array(
            [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0],
             [100.0, 100.0], [101.0, 100.0], [100.0, 101.0], [101.0, 101.0],
             [50.0, 50.0], [51.0, 50.0]]
        )
        engine = GNNEngine(data, capacity=4)
        spec = QuerySpec(group=np.array([[5.0, 5.0], [5.0, 5.0]]), k=2)
        single = engine.execute(spec)
        batch = engine.execute_many([spec, spec])
        assert _node_accesses(batch) == single.cost.node_accesses  # the second reads free
        for outcome in batch:
            assert outcome.distances() == single.distances()
            assert set(outcome.record_ids()) <= {0, 1, 2, 3}
            pairs = [(nb.distance, nb.record_id) for nb in outcome.neighbors]
            assert pairs == sorted(pairs) and len(pairs) == 2

    def test_a_shared_node_is_charged_to_its_earliest_member_in_input_order(self):
        """A batch runs its members in input order, so each pays for the
        nodes no earlier member read, and the first pays its solo cost."""
        rng = np.random.default_rng(1)
        engine = GNNEngine(rng.uniform(0, 1000, size=(600, 2)), capacity=16)
        specs = [
            QuerySpec(group=center + rng.uniform(-30, 30, size=(4, 2)), k=2)
            for center in rng.uniform(100, 900, size=(12, 2))
        ]
        # The batch is chosen so that the Hilbert curve of its centroids
        # does not start at spec 0: a curve-ordered batch would charge
        # spec 0 less than its solo cost.
        centroids = np.stack([spec.group.mean(axis=0) for spec in specs])
        assert np.argmin(hilbert_indices(centroids)) != 0

        batch = engine.execute_many(specs)
        solo = engine.execute(specs[0])
        assert (batch[0].cost.node_accesses, batch[0].cost.distance_computations) == (
            solo.cost.node_accesses,
            solo.cost.distance_computations,
        )
        read_before: set = set()
        for spec, outcome in zip(specs, batch):
            with engine.flat.read_scope() as read:
                engine.execute(spec)
            assert outcome.cost.node_accesses == len(read - read_before)
            read_before |= read
        assert _node_accesses(batch) == union_of_solo_reads(engine.flat, engine.execute, specs)

    def test_a_batch_runs_memory_specs_in_input_order_then_disk_specs(self, monkeypatch):
        """Beyond two dimensions too: memory specs run as given, disk specs after them."""
        from repro.api import executor

        ran, original = [], executor.execute_spec

        def recording(context, spec, planner=None, plan=None):
            ran.append(spec)
            return original(context, spec, planner, plan)

        rng = np.random.default_rng(3)
        engine = GNNEngine(rng.uniform(0, 1000, size=(600, 3)), capacity=16)
        specs = [
            QuerySpec(group=center + rng.uniform(-30, 30, size=(4, 3)), k=2)
            for center in rng.uniform(100, 900, size=(8, 3))
        ]
        disk = QuerySpec(
            group=rng.uniform(300, 700, size=(40, 3)),
            k=2,
            residency="disk",
            options={"points_per_page": 10, "block_pages": 1},
        )
        specs.insert(3, disk)
        monkeypatch.setattr(executor, "execute_spec", recording)
        batch = engine.execute_many(specs)
        monkeypatch.undo()
        memory = [spec for spec in specs if spec is not disk]
        assert [id(spec) for spec in ran] == [id(spec) for spec in memory + [disk]]
        for spec, outcome in zip(specs, batch):
            assert outcome.distances() == engine.execute(spec).distances()


def _node_accesses(results):
    """A batch's node accesses: its members' costs summed."""
    return sum(result.cost.node_accesses for result in results)


class TestMaintenance:
    def test_insert_validates_dimensionality(self, small_points):
        engine = GNNEngine(small_points[:50], capacity=8)
        with pytest.raises(ValueError, match="dimension 2"):
            engine.insert([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="dimension 2"):
            engine.insert([[1.0, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            engine.insert([1.0, float("nan")])
        # The failed inserts must not have corrupted the dataset.
        assert engine.points.shape == (50, 2)
        assert engine.insert([123.0, 456.0]) == 50
        assert len(engine) == 51

    def test_buffer_is_reachable(self, small_points):
        engine = GNNEngine(small_points[:50], capacity=8, buffer_pages=16)
        assert engine.buffer is not None
        assert GNNEngine(small_points[:50], capacity=8).buffer is None
