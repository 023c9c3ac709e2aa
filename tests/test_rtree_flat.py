"""Tests for the flat array-backed R-tree snapshot (repro.rtree.flat).

The contract under test: a ``FlatRTree``'s traversals produce exactly
the results, node-access and distance-computation counts and buffer
hit/miss sequences the object-tree traversals produced (pinned as
literals captured from the object paths at the commit that removed
them), and it round-trips losslessly through its ``.npz`` persistence in
both eager and memory-mapped modes.
"""

import hashlib

import numpy as np
import pytest

from repro.api.spec import QuerySpec
from repro.core.aggregates import aggregate_gnn
from repro.core.engine import GNNEngine
from repro.core.mbm import mbm
from repro.core.mqm import mqm
from repro.core.spm import spm
from repro.core.types import GroupQuery
from repro.rtree.flat import FlatRTree
from repro.rtree.traversal import best_first_nearest, incremental_nearest
from repro.storage.buffer import LRUBuffer

ARRAY_FIELDS = (
    "lows",
    "highs",
    "child_start",
    "child_count",
    "levels",
    "node_ids",
    "points",
    "record_ids",
)


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(42).uniform(0, 1000, size=(900, 2))


@pytest.fixture(scope="module")
def flat(dataset):
    return FlatRTree.bulk_load(dataset, capacity=16)


def _costs(result):
    """``(node accesses, leaf accesses, distance computations)``."""
    return (
        result.cost.node_accesses,
        result.cost.leaf_accesses,
        result.cost.distance_computations,
    )


def _sha256(values, dtype) -> str:
    return hashlib.sha256(np.array(values, dtype=dtype).tobytes()).hexdigest()


class RecordingBuffer(LRUBuffer):
    """An LRU buffer that also keeps its hit/miss sequence."""

    def __init__(self, pages):
        super().__init__(pages)
        self.trace = ""

    def access(self, page_id):
        hit = super().access(page_id)
        self.trace += "h" if hit else "m"
        return hit


class TestConstruction:
    def test_every_point_round_trips(self, dataset, flat):
        recovered, ids = flat.live_points()
        assert np.array_equal(recovered, dataset)
        assert np.array_equal(ids, np.arange(len(dataset)))
        assert flat.live_points()[0] is recovered  # cached

    def test_bulk_load_rejects_unknown_method(self, dataset):
        with pytest.raises(ValueError, match="unknown bulk-load method"):
            FlatRTree.bulk_load(dataset, capacity=16, method="zorder")

    def test_empty_tree_snapshot(self):
        flat = FlatRTree.bulk_load(np.zeros((0, 2)))
        assert len(flat) == 0
        assert list(incremental_nearest(flat, [0.0, 0.0])) == []

    def test_single_leaf_snapshot(self):
        flat = FlatRTree.bulk_load(np.array([[1.0, 2.0], [3.0, 4.0]]), capacity=16)
        stream = [n.as_tuple() for n in incremental_nearest(flat, [1.0, 2.0])]
        assert stream == [(0, 0.0), (1, float(np.sqrt(8.0)))]


#: What the object-tree traversals returned and charged for the module
#: dataset (rng(42), capacity 16) at the commit that removed them: per
#: group cardinality ``n in (2, 7, 31)`` of the rng(99) workload, k=5 —
#: the answer shared by every algorithm, then each algorithm's
#: ``(node accesses, leaf accesses, distance computations)``.
ANSWER_PINS = [
    (
        [587, 563, 179, 671, 529],
        [244.39087028606951, 244.49398672620083, 245.94399493407155,
         253.84704712935996, 255.88652850702863],
    ),
    (
        [70, 784, 634, 843, 739],
        [1147.3671551571972, 1148.0669488127946, 1148.7373309127515,
         1150.9553600867446, 1151.7278424502044],
    ),
    (
        [538, 151, 737, 279, 678],
        [6121.196841634461, 6154.304599518472, 6191.111687500248,
         6197.558363497583, 6214.345305489122],
    ),
]
COST_PINS = {
    "mqm": [(18, 12, 168), (103, 79, 1834), (529, 418, 19654)],
    "spm": [(21, 18, 326), (35, 30, 2058), (45, 40, 13578)],
    # MBM's keys deferred to the heap head; computed eagerly for every
    # pushed child they cost (7, 4, 308), (5, 2, 593), (4, 2, 1881).  At
    # n = 2 a child's own bound is only 2 or 4 distances, so the plane
    # evaluation charged per box and per leaf point (one each) outweighs
    # what deferring saves, and that count rises.
    "mbm": [(7, 4, 348), (5, 2, 465), (4, 2, 1482)],
    "best-first": [(7, 4, 202), (9, 6, 931), (11, 8, 5115)],
}
ALGORITHMS = {"mqm": mqm, "spm": spm, "mbm": mbm, "best-first": aggregate_gnn}

#: LRU(32) behaviour over the four-group workload of
#: ``test_buffer_hit_miss_sequences``: ``(hits, misses)``, page faults
#: per query, and the full hit/miss sequence.
BUFFER_PINS = {
    "mbm": ((13, 8), [5, 2, 0, 1], "mmmmmhhhhmmhhhhhhhhmh"),
    "spm": (
        (55, 25),
        [21, 2, 0, 2],
        "mmmmmmmmmmmmmmmmmmmmmhhhhhhhhhhhhhhhmhmhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhmm",
    ),
    "best-first": ((20, 9), [8, 0, 0, 1], "mmmmmmmmhhhhhhhhhhhhhhhhhhhmh"),
}


class TestTraversalPins:
    """Streams and algorithms must reproduce the object-tree paths bit for bit."""

    def test_incremental_stream_with_counters(self, flat):
        flat.reset_stats()
        stream = [n.as_tuple() for n in incremental_nearest(flat, [411.0, 290.0])]
        assert stream[:5] == [
            (23, 23.580964558647786),
            (791, 23.821580764111197),
            (572, 32.05048520431053),
            (438, 33.41679897878444),
            (53, 42.27253212698781),
        ]
        assert _sha256([i for i, _ in stream], np.int64) == (
            "8bf5ac7e322899bd472c6a63f890397eb18680386ad270aef784f6c00847b360"
        )
        assert _sha256([d for _, d in stream], np.float64) == (
            "0a217947c1fec365cadad52617e9bece128ef874939b68e09b9ba0e09ff9c90a"
        )
        assert flat.stats.snapshot() == {
            "node_accesses": 68,
            "leaf_accesses": 63,
            "page_faults": 68,
            "distance_computations": 0,
        }

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_algorithms_match_object_path_pins(self, flat, name):
        rng = np.random.default_rng(99)
        for (ids, distances), costs, n in zip(ANSWER_PINS, COST_PINS[name], (2, 7, 31)):
            group = rng.uniform(200, 800, size=(n, 2))
            result = ALGORITHMS[name](flat, GroupQuery(group, k=5))
            assert result.record_ids() == ids, n
            assert result.distances() == distances, n
            assert _costs(result) == costs, n

    def test_weighted_mbm_falls_back_to_general_kernels(self, flat):
        rng = np.random.default_rng(3)
        group = rng.uniform(300, 700, size=(6, 2))
        weights = rng.uniform(0.5, 2.0, size=6)
        result = mbm(flat, GroupQuery(group, k=4, weights=weights))
        assert result.record_ids() == [199, 568, 155, 874]
        assert result.distances() == [
            1022.7416703926588, 1024.090726428807, 1031.0959163155565, 1033.0078950092518
        ]
        assert _costs(result) == (5, 2, 419)  # (5, 2, 518) with eager keys

    @pytest.mark.parametrize(
        "aggregate, ids, distances, costs",
        [
            ("max", [28, 644, 682],
             [378.09012844464445, 378.12880062580604, 380.96985350610345], (6, 3, 765)),
            ("min", [595, 274, 56],
             [5.511092164029355, 6.28114477399344, 6.610876050041234], (12, 7, 1620)),
        ],
    )
    def test_aggregate_generalisations(self, flat, aggregate, ids, distances, costs):
        group = np.random.default_rng(8).uniform(100, 900, size=(9, 2))
        result = aggregate_gnn(flat, GroupQuery(group, k=3, aggregate=aggregate))
        assert result.record_ids() == ids
        assert result.distances() == distances
        assert _costs(result) == costs

    def test_small_buffer_thrashes_exactly_like_the_object_tree(self, dataset):
        group = np.random.default_rng(12).uniform(200, 800, size=(8, 2))
        buffer = LRUBuffer(4)
        flat = FlatRTree.bulk_load(dataset, capacity=16, buffer=buffer)
        for _ in range(3):  # repeated queries: 5 pages cycle through 4 frames
            mbm(flat, GroupQuery(group, k=4))
        assert (buffer.hits, buffer.misses) == (0, 15)

    @pytest.mark.parametrize("name", sorted(BUFFER_PINS))
    def test_buffer_hit_miss_sequences(self, dataset, name):
        base = np.random.default_rng(12).uniform(350, 650, size=(8, 2))
        buffer = RecordingBuffer(32)
        flat = FlatRTree.bulk_load(dataset, capacity=16, buffer=buffer)
        faults = [
            ALGORITHMS[name](flat, GroupQuery(group, k=4)).cost.page_faults
            for group in (base, base + 40.0, base, base - 60.0)
        ]
        counts, fault_pins, trace = BUFFER_PINS[name]
        assert (buffer.hits, buffer.misses) == counts
        assert faults == fault_pins
        assert buffer.trace == trace

    def test_stream_buffer_hit_miss_sequence(self, dataset):
        buffer = RecordingBuffer(32)
        flat = FlatRTree.bulk_load(dataset, capacity=16, buffer=buffer)
        for query in ([411.0, 290.0], [120.0, 880.0], [411.0, 290.0]):
            best_first_nearest(flat, query, k=25)
        assert (buffer.hits, buffer.misses) == (10, 14)
        assert buffer.trace == "mmmmmmmmmhmmmmmhhhhhhhhh"


class TestPersistence:
    def test_save_load_round_trip_is_exact(self, flat, tmp_path):
        path = tmp_path / "index.npz"
        flat.save(path)
        loaded = FlatRTree.load(path)
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(flat, name)), name
        assert (loaded.dims, loaded.size, loaded.capacity, loaded.height) == (
            flat.dims,
            flat.size,
            flat.capacity,
            flat.height,
        )

    def test_save_respects_exact_path_without_npz_suffix(self, flat, tmp_path):
        # np.savez silently appends ".npz" when handed a bare path;
        # save() must write exactly where it was told so load(path)
        # always round-trips.
        path = tmp_path / "index-no-suffix"
        flat.save(path)
        assert path.exists()
        loaded = FlatRTree.load(path)
        assert np.array_equal(loaded.points, flat.points)
        mapped = FlatRTree.load(path, mmap_mode="r")
        assert np.array_equal(mapped.points, flat.points)

    def test_mmap_load_is_exact_and_memory_mapped(self, flat, tmp_path):
        path = tmp_path / "index.npz"
        flat.save(path)
        mapped = FlatRTree.load(path, mmap_mode="r")
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(mapped, name), getattr(flat, name)), name
        assert isinstance(mapped.points, np.memmap)
        assert isinstance(mapped.lows, np.memmap)
        counters = mapped.mmap_io.snapshot()
        # only the index arrays that stay mapped are counted (not the
        # transient "meta" header, which load() copies and discards)
        assert counters["arrays_mapped"] == len(ARRAY_FIELDS)
        assert counters["bytes_mapped"] >= flat.points.nbytes
        assert counters["pages_mapped"] >= counters["bytes_mapped"] // 4096

    def test_queries_over_mmap_snapshot_match(self, flat, tmp_path):
        path = tmp_path / "index.npz"
        flat.save(path)
        mapped = FlatRTree.load(path, mmap_mode="r")
        group = np.random.default_rng(21).uniform(250, 750, size=(12, 2))
        reference = mbm(flat, GroupQuery(group, k=6))
        result = mbm(mapped, GroupQuery(group, k=6))
        assert [x.as_tuple() for x in result.neighbors] == [
            x.as_tuple() for x in reference.neighbors
        ]
        assert result.record_ids() == [603, 279, 538, 887, 461, 142]
        assert _costs(result) == _costs(reference) == (7, 4, 754)  # 1360 with eager keys

    def test_compressed_archives_cannot_be_mapped(self, flat, tmp_path):
        path = tmp_path / "compressed.npz"
        payload = {name: np.asarray(getattr(flat, name)) for name in ARRAY_FIELDS}
        payload["meta"] = np.array(
            [1, flat.dims, flat.size, flat.capacity, flat.height], dtype=np.int64
        )
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="compressed"):
            FlatRTree.load(path, mmap_mode="r")
        # eager loading still works
        assert len(FlatRTree.load(path)) == len(flat)

    def test_write_mmap_modes_are_rejected(self, flat, tmp_path):
        path = tmp_path / "index.npz"
        flat.save(path)
        with pytest.raises(ValueError, match="read-only"):
            FlatRTree.load(path, mmap_mode="r+")

    def test_unknown_format_version_is_rejected(self, flat, tmp_path):
        path = tmp_path / "future.npz"
        payload = {name: np.asarray(getattr(flat, name)) for name in ARRAY_FIELDS}
        payload["meta"] = np.array(
            [99, flat.dims, flat.size, flat.capacity, flat.height], dtype=np.int64
        )
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version"):
            FlatRTree.load(path)


class TestEngineIntegration:
    @pytest.fixture()
    def engine(self, dataset):
        return GNNEngine(dataset, capacity=16)

    def test_engine_holds_one_flat_index(self, engine):
        assert isinstance(engine.flat, FlatRTree)  # built eagerly, no object tree
        assert not hasattr(engine, "tree")
        rng = np.random.default_rng(31)
        spec = QuerySpec(group=rng.uniform(200, 800, size=(8, 2)), k=4)
        executed = engine.execute(spec)
        direct = mbm(engine.flat, spec.group_query())
        assert executed.record_ids() == direct.record_ids()
        assert executed.distances() == direct.distances()
        assert _costs(executed) == _costs(direct)

    def test_insert_overlays_snapshot_instead_of_invalidating(self, engine):
        spec = QuerySpec(group=[[400.0, 400.0]], k=1)
        engine.execute(spec)
        base = engine.flat
        assert base is not None
        inserted = engine.insert([400.0, 400.0])
        # The base snapshot survives untouched; the write sits in the
        # overlay and snapshot-routed queries answer from the merged view.
        assert engine.flat is base
        assert engine.dirty
        assert engine.execute(spec).record_ids() == [inserted]
        # Compaction folds the overlay into a generation-N+1 snapshot.
        compacted = engine.compact()
        assert not engine.dirty
        assert compacted.generation == base.generation + 1
        assert len(compacted) == len(engine.points)
        assert engine.execute(spec).record_ids() == [inserted]

    def test_unknown_index_preference_rejected(self):
        with pytest.raises(ValueError, match="index preference"):
            QuerySpec(group=[[0.0, 0.0]], index="quantum")

    def test_from_index_round_trip(self, engine, tmp_path):
        path = tmp_path / "engine.npz"
        engine.snapshot().save(path)
        readonly = GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))
        # read out of the mapped snapshot on demand, on every engine kind
        assert np.array_equal(readonly.points, engine.points)
        rng = np.random.default_rng(55)
        spec = QuerySpec(group=rng.uniform(300, 700, size=(5, 2)), k=3)
        assert readonly.execute(spec).record_ids() == engine.execute(spec).record_ids()
        assert len(readonly) == len(engine)
        assert readonly.explain(spec).estimate is not None

    def test_from_index_brute_force_reconstructs_lazily(self, engine, tmp_path):
        path = tmp_path / "engine.npz"
        engine.snapshot().save(path)
        readonly = GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))
        rng = np.random.default_rng(56)
        spec = QuerySpec(group=rng.uniform(300, 700, size=(4, 2)), k=3, algorithm="brute-force")
        assert readonly.execute(spec).record_ids() == engine.execute(spec).record_ids()

    def test_from_index_accepts_writes_via_overlay(self, engine, tmp_path):
        # from_index engines used to reject writes outright; the delta
        # overlay is their write path now — the mmap'd base stays frozen.
        path = tmp_path / "engine.npz"
        engine.snapshot().save(path)
        writable = GNNEngine.from_index(FlatRTree.load(path, mmap_mode="r"))
        size = len(writable)
        inserted = writable.insert([400.0, 400.0])
        assert writable.dirty and len(writable) == size + 1
        spec = QuerySpec(group=[[400.0, 400.0]], k=1)
        assert writable.execute(spec).record_ids() == [inserted]

    def test_from_index_rejects_non_snapshots(self, dataset):
        with pytest.raises(TypeError, match="FlatRTree"):
            GNNEngine.from_index(dataset)

    def test_execute_many_uses_flat_and_matches(self, engine):
        rng = np.random.default_rng(60)
        specs = [QuerySpec(group=rng.uniform(200, 800, size=(6, 2)), k=3) for _ in range(8)]
        batch = engine.execute_many(specs)
        singles = [engine.execute(spec) for spec in specs]
        assert [r.record_ids() for r in batch] == [r.record_ids() for r in singles]
        assert [r.distances() for r in batch] == [r.distances() for r in singles]
