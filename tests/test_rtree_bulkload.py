"""The array packer against the object packer it replaced.

``tests/bulkload_reference.py`` keeps an object bulk loader — one
``LeafEntry`` per record, one ``Node`` per page, its STR split a
recursion over every axis, flattened breadth-first.  The contract:
``FlatRTree.bulk_load`` reproduces every array of that snapshot except
the *values* of ``node_ids`` (which only have to be process-unique), so
node accesses, distance computations and answers of every algorithm
stay where they were; and the vectorised Hilbert keys equal Hamilton's
curve evaluated point by point.  Every builder that
packs through it — the engine and the overlay's compaction included —
rejects bad input with the same messages and defaults to the same page
size.
"""

import hashlib
import inspect
import itertools
import json
import zipfile

import numpy as np
import pytest
from bulkload_reference import _resolve_record_ids, reference_hilbert_indices, reference_snapshot
from hilbert_reference import reference_hilbert_indices as per_bit_hilbert_indices
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GNNEngine
from repro.datasets.real_like import pp_like
from repro.geometry.hilbert import _normalise_to_grid, cell_key, hilbert_indices
from repro.geometry.point import GeometryError
from repro.rtree.flat import DEFAULT_CAPACITY, FlatRTree
from repro.rtree.overlay import DeltaOverlay
from repro.serve.server import GNNServer
from repro.shard.manifest import MANIFEST_FILENAME
from repro.shard import partition as partition_module
from repro.shard.partition import partition_dataset, partition_points
from repro.storage.pointfile import PointFile

STRUCTURE_FIELDS = ("lows", "highs", "child_start", "child_count", "levels", "points", "record_ids")
META_FIELDS = ("dims", "size", "capacity", "height", "generation")

#: ``manifest.json`` of ``partition_dataset(pp_like(5000), 4, ...)`` as the
#: object packers and the per-point Hilbert loop wrote it.
PARENT_MANIFEST_SHA256 = "50a1decfef89a22805c270673a65ca2af5fa2eb5f9444de3289fa30f40a542ab"


def assert_same_structure(built: FlatRTree, reference: FlatRTree, label=""):
    for name in STRUCTURE_FIELDS:
        ours, theirs = getattr(built, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype, (label, name)
        assert ours.shape == theirs.shape, (label, name)
        assert np.array_equal(ours, theirs), (label, name)
    for name in META_FIELDS:
        assert getattr(built, name) == getattr(reference, name), (label, name)
    assert built.node_ids.dtype == reference.node_ids.dtype
    assert built.node_ids.shape == reference.node_ids.shape


@st.composite
def tied_points(draw):
    """Point sets dominated by coordinate ties and repeated rows."""
    size = draw(st.integers(1, 3000))
    dims = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(("lattice", "columns", "copies", "continuous")))
    if style == "lattice":  # every coordinate from a handful of values
        points = rng.integers(0, draw(st.integers(1, 6)), size=(size, dims)).astype(np.float64)
    elif style == "columns":  # first axis tied, the rest free (and signed zeros)
        points = rng.normal(size=(size, dims))
        points[:, 0] = rng.choice([-0.0, 0.0, 1.5], size=size)
    elif style == "copies":  # a few distinct points, each stored many times
        distinct = rng.uniform(-50, 50, size=(draw(st.integers(1, 7)), dims))
        points = distinct[rng.integers(0, len(distinct), size=size)]
    else:
        points = rng.uniform(0, 1000, size=(size, dims))
    return points, rng


class TestDifferential:
    @given(
        drawn=tied_points(),
        capacity=st.integers(4, 64),
        explicit_ids=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_array_equals_the_object_packer(self, drawn, capacity, explicit_ids):
        points, rng = drawn
        ids = rng.permutation(len(points)) * 3 + 7 if explicit_ids else None
        reference = reference_snapshot(points, capacity, record_ids=ids)
        direct = FlatRTree.bulk_load(points, capacity=capacity, record_ids=ids)
        assert_same_structure(direct, reference, "bulk_load")

        # Shared-LRU safety: page ids never repeat, within or across indexes.
        again = FlatRTree.bulk_load(points, capacity=capacity, record_ids=ids)
        pages = [direct.node_ids.tolist(), again.node_ids.tolist()]
        assert len(set().union(*pages)) == sum(len(page_ids) for page_ids in pages)

    def test_pp_like_100k_at_the_paper_capacity(self):
        points = pp_like(100_000, seed=7)
        assert_same_structure(
            FlatRTree.bulk_load(points, capacity=50), reference_snapshot(points, 50)
        )

    @pytest.mark.parametrize("dims", [3, 5])
    def test_uniform_20k_at_the_paper_capacity(self, dims):
        points = np.random.default_rng(dims).uniform(0, 1, size=(20_000, dims))
        assert_same_structure(
            FlatRTree.bulk_load(points, capacity=50), reference_snapshot(points, 50)
        )

    @pytest.mark.parametrize("dims", [1, 2, 5])
    def test_no_points_is_the_empty_single_leaf_snapshot(self, dims):
        empty = FlatRTree.bulk_load(np.zeros((0, dims)), capacity=8)
        assert_same_structure(empty, reference_snapshot(np.zeros((0, dims)), 8))
        assert empty.live_points()[0].shape == (0, dims)
        with pytest.raises(GeometryError, match="non-empty"):
            FlatRTree.bulk_load([])  # no dimensionality to build over


def _engine_build(points, capacity=DEFAULT_CAPACITY):
    return GNNEngine(points, capacity=capacity).flat


def _compacted_overlay(points, capacity=DEFAULT_CAPACITY):
    """Every point written through the overlay of an empty base, then compacted."""
    overlay = DeltaOverlay(FlatRTree.bulk_load(np.zeros((0, points.shape[1]))))
    for record_id, point in enumerate(points):
        overlay.insert(point, record_id)
    return overlay.compact(capacity=capacity)


class TestRejectedInput:
    """The parent's messages, from every builder."""

    BUILDERS = {
        "flat": lambda points, **kw: FlatRTree.bulk_load(points, **kw),
        "reference": lambda points, capacity=50: reference_snapshot(points, capacity),
        "engine": _engine_build,
        "overlay": _compacted_overlay,
    }

    @pytest.fixture(params=sorted(BUILDERS))
    def build(self, request):
        return self.BUILDERS[request.param]

    def test_capacity_below_four(self, build):
        with pytest.raises(ValueError, match="node capacity must be at least 4"):
            build(np.zeros((10, 2)), capacity=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates(self, build, bad):
        points = np.ones((10, 2))
        points[4, 1] = bad
        with pytest.raises(GeometryError, match="point coordinates must be finite"):
            build(points, capacity=8)


class TestDefaultCapacity:
    """One page size: every builder defaults to the paper's 50 entries."""

    BUILDERS = {
        "bulk_load": FlatRTree.bulk_load,
        "engine": GNNEngine,
        "server": GNNServer.from_points,
        "partition": partition_dataset,
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_builder_defaults_to_the_paper_page(self, name):
        default = inspect.signature(self.BUILDERS[name]).parameters["capacity"].default
        assert default is DEFAULT_CAPACITY
        assert DEFAULT_CAPACITY == 50

    def test_default_built_indexes_use_it(self, tmp_path):
        points = pp_like(400)
        assert FlatRTree.bulk_load(points).capacity == DEFAULT_CAPACITY
        assert GNNEngine(points).flat.capacity == DEFAULT_CAPACITY
        manifest = partition_dataset(points, 2, tmp_path)
        for shard in manifest.shards:
            assert FlatRTree.load(tmp_path / shard.path).capacity == DEFAULT_CAPACITY


class TestRecordIds:
    POINTS = np.arange(12, dtype=np.float64).reshape(6, 2)

    def test_fractional_ids_are_rejected_not_truncated(self):
        with pytest.raises(ValueError, match=r"record ids must be integers, got 0\.5"):
            FlatRTree.bulk_load(self.POINTS, capacity=4, record_ids=[4, 3, 0.5, 1, 2, 9])
        with pytest.raises(ValueError, match="record ids must be integers, got nan"):
            FlatRTree.bulk_load(self.POINTS, capacity=4, record_ids=[4, 3, np.nan, 1, 2, 9])

    def test_duplicate_ids_are_rejected(self):
        with pytest.raises(ValueError, match="record ids must be unique, got 3 twice"):
            FlatRTree.bulk_load(self.POINTS, capacity=4, record_ids=[4, 3, 8, 3, 2, 9])

    # Dense ids (above) are checked with a mark per possible id, sparse or
    # negative ones by sorting: both find the repeat.
    @pytest.mark.parametrize("first", (4000, -4))
    def test_duplicate_sparse_or_negative_ids_are_rejected(self, first):
        with pytest.raises(ValueError, match="record ids must be unique, got 3 twice"):
            FlatRTree.bulk_load(self.POINTS, capacity=4, record_ids=[first, 3, 8, 3, 2, 9])

    def test_shape_check_keeps_its_message(self):
        with pytest.raises(ValueError, match=r"one id per point \(6\), got shape \(5,\)"):
            FlatRTree.bulk_load(self.POINTS, capacity=4, record_ids=np.arange(5))

    def test_whole_numbers_of_any_dtype_are_kept(self):
        given_ids = [40.0, 30.0, 0.0, 10.0, 20.0, 90.0]
        flat = FlatRTree.bulk_load(self.POINTS, capacity=4, record_ids=given_ids)
        assert flat.record_ids.dtype == np.int64
        assert sorted(flat.record_ids.tolist()) == sorted(int(v) for v in given_ids)


class TestVectorisedHilbertKeys:
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from((2, 3, 4, 5)),
        order=st.sampled_from((1, 8, 16, "largest")),
    )
    @settings(max_examples=60, deadline=None)
    def test_keys_equal_the_scalar_curve_point_by_point(self, seed, dims, order):
        rng = np.random.default_rng(seed)
        # A dozen distinct values per axis: many shared cells, many ties.
        points = rng.choice(rng.uniform(-9, 9, size=12), size=(int(rng.integers(1, 400)), dims))
        order = 63 // dims if order == "largest" else min(order, 63 // dims)
        keys = hilbert_indices(points, order)
        assert keys.dtype == np.int64
        grid = _normalise_to_grid(points, order).tolist()
        assert keys.tolist() == [cell_key(cell, order) for cell in grid]
        assert np.array_equal(keys, reference_hilbert_indices(points, order))

    @pytest.mark.parametrize("dims,order", [(2, 32), (3, 22), (4, 16), (2, -1)])
    def test_keys_that_cannot_fit_int64_are_refused(self, dims, order):
        with pytest.raises(ValueError, match="int64 keys hold 63"):
            hilbert_indices(np.zeros((3, dims)), order)


class TestPartitionUnchanged:
    def test_manifest_bytes_and_assignments_match_the_parent(self, tmp_path):
        points = pp_like(5000)
        manifest = partition_dataset(points, 4, tmp_path)
        raw = (tmp_path / MANIFEST_FILENAME).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == PARENT_MANIFEST_SHA256
        assert json.loads(raw)["shards"][2]["count"] == 1250

        ranked = np.argsort(reference_hilbert_indices(points), kind="stable")
        for shard, rows in zip(manifest.shards, np.array_split(ranked, 4)):
            assert_same_structure(
                FlatRTree.load(tmp_path / shard.path),
                reference_snapshot(points[rows], 50, record_ids=rows),
                shard.path,
            )

    def test_the_ranking_is_the_stable_argsort(self):
        points = pp_like(20000)
        assignments, keys = partition_points(points, 3)
        assert np.array_equal(np.concatenate(assignments), np.argsort(keys, kind="stable"))
        assert np.array_equal(keys, per_bit_hilbert_indices(points))

    @pytest.mark.parametrize("shards", (2, 3))
    def test_shard_files_equal_the_parents_path(self, shards, tmp_path, monkeypatch):
        """Keys by the per-bit loop, a comparison argsort and a sort-based id
        check (the parent's partition) write the same manifest bytes and the
        same bytes in every snapshot member; the archives differ only in
        their zip timestamps.  Both builds number their pages from the same
        counter value, as two fresh processes do."""
        points = pp_like(20000)
        with monkeypatch.context() as old:
            old.setattr(partition_module, "hilbert_indices", per_bit_hilbert_indices)
            old.setattr(partition_module, "rank_keys", lambda keys: np.argsort(keys, kind="stable"))
            old.setattr("repro.rtree.flat.resolve_record_ids", _resolve_record_ids)
            old.setattr("repro.rtree.flat._page_ids", itertools.count())
            partition_dataset(points, shards, tmp_path / "parent")
        monkeypatch.setattr("repro.rtree.flat._page_ids", itertools.count())
        partition_dataset(points, shards, tmp_path / "change")

        names = sorted(path.name for path in (tmp_path / "parent").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "change").iterdir())
        assert len(names) == shards + 1
        for name in names:
            parent, change = tmp_path / "parent" / name, tmp_path / "change" / name
            if name == MANIFEST_FILENAME:
                assert parent.read_bytes() == change.read_bytes()
                continue
            with zipfile.ZipFile(parent) as before, zipfile.ZipFile(change) as after:
                assert before.namelist() == after.namelist()
                for member in before.namelist():
                    assert before.read(member) == after.read(member), (name, member)


class TestNoStableSortOfManyKeys:
    """NumPy's stable argsort of float64 is a timsort, several times slower
    than its default argsort; the build path ranks through ``rank_keys``
    (the default argsort with its ties repaired) instead.  A spy on
    ``np.argsort`` records every stable call; ``ndarray.argsort`` is a
    method of a C type and cannot be replaced, so the build path calls the
    function form."""

    MAX_STABLE_KEYS = 4096

    def test_build_paths_sort_no_large_input_stably(self, monkeypatch, tmp_path):
        stable_sizes, default_sizes = [], []  # keys per call
        real_argsort = np.argsort

        def spy(a, *args, **kwargs):
            kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
            stable = kind in ("stable", "mergesort") or kwargs.get("stable")
            (stable_sizes if stable else default_sizes).append(np.size(a))
            return real_argsort(a, *args, **kwargs)

        points = pp_like(100_000)
        monkeypatch.setattr(np, "argsort", spy)
        FlatRTree.bulk_load(points)
        FlatRTree.bulk_load(np.random.default_rng(0).uniform(0, 1, size=(100_000, 3)))
        partition_dataset(points, 2, tmp_path)
        PointFile(points)
        engine = GNNEngine(points)
        engine.insert([1.0, 2.0])
        engine.overlay.live_points()

        seen = stable_sizes + default_sizes
        assert max(seen) >= len(points), "the spy saw no large sort: is it still installed?"
        assert max(stable_sizes, default=0) <= self.MAX_STABLE_KEYS, sorted(stable_sizes)[-5:]
