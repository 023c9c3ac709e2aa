"""Tests for repro.datasets: synthetic generators, real-like stand-ins, workloads."""

import datasets_reference
import numpy as np
import pytest

from repro.datasets.real_like import PP_CARDINALITY, TS_CARDINALITY, pp_like, ts_like
from repro.datasets.synthetic import (
    DEFAULT_WORKSPACE,
    _line_parts,
    gaussian_clusters,
    uniform_points,
)
from repro.datasets.workload import (
    WorkloadSpec,
    generate_query_group,
    generate_request_trace,
    generate_workload,
    place_with_overlap,
    scale_into_workspace,
)
from repro.geometry.mbr import MBR


def _covers(outer, inner):
    """Whether box ``outer`` covers box ``inner``, bound by bound."""
    return bool(np.all(outer.low <= inner.low) and np.all(inner.high <= outer.high))


class TestSyntheticGenerators:
    def test_uniform_points_shape_and_bounds(self):
        points = uniform_points(500, seed=0)
        assert points.shape == (500, 2)
        low, high = DEFAULT_WORKSPACE
        assert points.min() >= low
        assert points.max() <= high

    def test_uniform_points_deterministic_by_seed(self):
        assert np.array_equal(uniform_points(50, seed=1), uniform_points(50, seed=1))
        assert not np.array_equal(uniform_points(50, seed=1), uniform_points(50, seed=2))

    def test_uniform_points_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            uniform_points(0)

    def test_gaussian_clusters_shape_and_bounds(self):
        points = gaussian_clusters(800, clusters=5, seed=0)
        assert points.shape == (800, 2)
        low, high = DEFAULT_WORKSPACE
        assert points.min() >= low and points.max() <= high

    def test_gaussian_clusters_are_more_clustered_than_uniform(self):
        # Compare mean nearest-neighbor distances: a clustered set has a much
        # smaller value than a uniform one of the same size.
        def mean_nn_distance(points):
            deltas = points[:, None, :] - points[None, :, :]
            distances = np.sqrt((deltas**2).sum(axis=2))
            np.fill_diagonal(distances, np.inf)
            return distances.min(axis=1).mean()

        clustered = gaussian_clusters(400, clusters=4, spread_fraction=0.01, seed=3)
        uniform = uniform_points(400, seed=3)
        assert mean_nn_distance(clustered) < 0.5 * mean_nn_distance(uniform)

    def test_gaussian_clusters_custom_weights(self):
        points = gaussian_clusters(200, clusters=2, cluster_weights=[0.9, 0.1], seed=4)
        assert points.shape == (200, 2)

    def test_gaussian_clusters_invalid_args(self):
        with pytest.raises(ValueError):
            gaussian_clusters(0)
        with pytest.raises(ValueError):
            gaussian_clusters(10, clusters=0)

    def test_line_segments_shape(self):
        # TS's poly-lines: ``count`` points in all, none outside the workspace.
        points = np.vstack(_line_parts(300, 10, 2, DEFAULT_WORKSPACE, 5))
        assert points.shape == (300, 2)
        low, high = DEFAULT_WORKSPACE
        assert points.min() >= low and points.max() <= high


class TestRealLikeDatasets:
    def test_default_cardinalities_match_the_paper(self):
        assert PP_CARDINALITY == 24_493
        assert TS_CARDINALITY == 194_971

    def test_pp_like_respects_count(self):
        points = pp_like(count=2_000)
        assert points.shape == (2_000, 2)

    def test_ts_like_respects_count(self):
        points = ts_like(count=3_000)
        assert points.shape == (3_000, 2)

    def test_generators_are_deterministic(self):
        assert np.array_equal(pp_like(count=500, seed=1), pp_like(count=500, seed=1))
        assert np.array_equal(ts_like(count=500, seed=1), ts_like(count=500, seed=1))

    def test_pp_like_is_clustered(self):
        points = pp_like(count=1_000)
        low, high = DEFAULT_WORKSPACE
        # Split the workspace into a 10x10 grid; a clustered distribution
        # leaves a substantial fraction of cells (nearly) empty.
        side = (high - low) / 10
        cells = np.floor((points - low) / side).astype(int)
        cells = np.clip(cells, 0, 9)
        occupancy = np.zeros((10, 10))
        for x, y in cells:
            occupancy[x, y] += 1
        assert (occupancy < 2).sum() > 20

    def test_too_small_counts_rejected(self):
        with pytest.raises(ValueError):
            pp_like(count=5)
        with pytest.raises(ValueError):
            ts_like(count=5)


#: The workspaces the byte-equality grid runs each count and seed over.
_WORKSPACES = (DEFAULT_WORKSPACE, (-5.0, 17.5))


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStandInsAgainstStackedShuffle:
    """The stand-ins are the stacked, row-shuffled datasets, byte for byte.

    ``datasets_reference`` keeps the generators that stacked their parts
    and shuffled the ``(N, 2)`` rows in place; both sides draw from the
    same NumPy ``Generator``, so equality holds on any NumPy version.
    """

    @pytest.mark.parametrize("count", [10, 11, 39, 1200, 24_493, 100_000])
    def test_pp_like_is_the_stacked_shuffle(self, count):
        for workspace in _WORKSPACES:
            for seed in (0, 3, 7, 11, 2004):
                got = pp_like(count, workspace=workspace, seed=seed)
                want = datasets_reference.pp_like(count, workspace=workspace, seed=seed)
                assert _same_bytes(got, want), (count, workspace, seed)

    @pytest.mark.parametrize("count", [10, 800, 24_371, TS_CARDINALITY])
    def test_ts_like_is_the_stacked_shuffle(self, count):
        for workspace in _WORKSPACES:
            for seed in (4, 11):
                got = ts_like(count, workspace=workspace, seed=seed)
                want = datasets_reference.ts_like(count, workspace=workspace, seed=seed)
                assert _same_bytes(got, want), (count, workspace, seed)

    def test_line_segments_is_the_stacked_reference(self):
        # TS's poly-lines, stacked, are the reference's line_segments rows,
        # also where a segment gets one point or the last one is short.
        for count, segments in ((1, 200), (300, 10), (1_001, 7)):
            got = np.vstack(_line_parts(count, segments, 2, DEFAULT_WORKSPACE, 5))
            want = datasets_reference.line_segments(count, segments=segments, seed=5)
            assert _same_bytes(got, want), (count, segments)

    def test_no_generator_shuffles_rows(self, monkeypatch):
        # Generator.shuffle permutes the rows of a 2-D array by a
        # Python-level loop of swaps; only a 1-D index may be shuffled.
        shuffled_ndims = []
        make_rng = np.random.default_rng

        class SpyGenerator:
            def __init__(self, generator):
                self._generator = generator

            def __getattr__(self, name):
                return getattr(self._generator, name)

            def shuffle(self, x, axis=0):
                shuffled_ndims.append(np.ndim(x))
                self._generator.shuffle(x, axis)

        monkeypatch.setattr(
            np.random, "default_rng", lambda *args, **kw: SpyGenerator(make_rng(*args, **kw))
        )
        pp_like(1_200)
        ts_like(800)
        uniform_points(50)
        gaussian_clusters(50, clusters=3)
        data = uniform_points(100, seed=2)
        generate_workload(data, WorkloadSpec(n=4, mbr_fraction=0.08, k=2, queries=3), seed=1)
        generate_request_trace(
            data, requests=5, rate_per_s=100.0, n=4, mbr_fraction=0.08, k=2, seed=1
        )
        assert shuffled_ndims, "the spy saw no shuffle: is it still installed?"
        assert max(shuffled_ndims) == 1, shuffled_ndims


class TestWorkloadGeneration:
    def test_query_group_shape_and_extent(self):
        data_mbr = MBR([0.0, 0.0], [1000.0, 1000.0])
        rng = np.random.default_rng(0)
        group = generate_query_group(data_mbr, n=64, mbr_fraction=0.08, rng=rng)
        assert group.shape == (64, 2)
        group_mbr = MBR.from_points(group)
        assert _covers(data_mbr, group_mbr)
        # The group's extent cannot exceed the requested square side.
        expected_side = np.sqrt(0.08 * data_mbr.area())
        assert group_mbr.extents.max() <= expected_side + 1e-9

    @pytest.mark.parametrize("dims", [1, 3, 5])
    def test_query_box_is_the_fraction_of_the_volume_off_2d(self, dims):
        """The box's side is the ``dims``-th root of its volume, not a square root."""
        data_mbr = MBR(np.zeros(dims), np.full(dims, 10_000.0))
        rng = np.random.default_rng(dims)
        for _ in range(20):
            spans = np.ptp(generate_query_group(data_mbr, 64, 0.04, rng), axis=0) / 10_000.0
            assert spans.max() <= 0.04 ** (1 / dims) + 1e-12
            if dims == 3:
                assert spans.max() <= 0.35

    def test_query_group_invalid_parameters(self):
        data_mbr = MBR([0.0, 0.0], [10.0, 10.0])
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_query_group(data_mbr, n=0, mbr_fraction=0.1, rng=rng)
        with pytest.raises(ValueError):
            generate_query_group(data_mbr, n=4, mbr_fraction=0.0, rng=rng)

    def test_workload_has_requested_number_of_groups(self):
        data = uniform_points(500, seed=1)
        spec = WorkloadSpec(n=16, mbr_fraction=0.08, k=8, queries=7)
        workload = generate_workload(data, spec, seed=3)
        assert len(workload) == 7
        assert all(group.shape == (16, 2) for group in workload)

    def test_workload_is_deterministic_by_seed(self):
        data = uniform_points(500, seed=1)
        spec = WorkloadSpec(n=8, mbr_fraction=0.04, k=1, queries=3)
        first = generate_workload(data, spec, seed=5)
        second = generate_workload(data, spec, seed=5)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


class TestRequestTrace:
    """The seeded Poisson/Zipf serving trace generator."""

    @staticmethod
    def _trace(**overrides):
        data = uniform_points(800, seed=3)
        settings = dict(
            requests=300,
            rate_per_s=200.0,
            n=6,
            mbr_fraction=0.08,
            k=4,
            hotspots=8,
            zipf_exponent=2.0,
            seed=42,
        )
        settings.update(overrides)
        return data, generate_request_trace(data, **settings)

    def test_same_seed_reproduces_the_trace_exactly(self):
        _, first = self._trace()
        _, second = self._trace()
        assert len(first) == len(second) == 300
        for left, right in zip(first, second):
            assert left.arrival_s == right.arrival_s
            assert left.hotspot == right.hotspot
            assert np.array_equal(left.group, right.group)

    def test_different_seed_differs(self):
        _, first = self._trace()
        _, second = self._trace(seed=43)
        assert first[0].arrival_s != second[0].arrival_s

    def test_arrivals_are_increasing_at_roughly_the_requested_rate(self):
        _, trace = self._trace()
        arrivals = [request.arrival_s for request in trace]
        assert all(later > earlier for earlier, later in zip(arrivals, arrivals[1:]))
        # 300 arrivals at 200/s take ~1.5s; Poisson noise stays well
        # within a factor of two at this sample size.
        assert 0.75 < arrivals[-1] < 3.0

    def test_zipf_skews_traffic_toward_the_first_hotspots(self):
        _, trace = self._trace()
        counts = np.bincount([request.hotspot for request in trace], minlength=8)
        assert counts[0] > counts[-1]
        assert counts[0] >= 0.4 * len(trace)  # exponent 2.0 is heavily skewed

    def test_groups_have_requested_shape_inside_the_workspace(self):
        data, trace = self._trace()
        workspace = MBR.from_points(data)
        for request in trace[:50]:
            assert request.group.shape == (6, 2)
            assert request.k == 4
            assert _covers(workspace, MBR.from_points(request.group))

    def test_invalid_parameters_rejected(self):
        data = uniform_points(100, seed=0)
        for overrides in (
            {"requests": 0},
            {"rate_per_s": 0.0},
            {"hotspots": 0},
            {"zipf_exponent": -1.0},
            {"n": 0},
            {"mbr_fraction": 0.0},
        ):
            settings = dict(
                requests=10, rate_per_s=10.0, n=2, mbr_fraction=0.1, k=1
            )
            settings.update(overrides)
            with pytest.raises(ValueError):
                generate_request_trace(data, **settings)

    def test_explicit_extent_confines_every_group(self):
        extent = MBR(np.array([200.0, 300.0]), np.array([400.0, 500.0]))
        _, trace = self._trace(extent=extent)
        for request in trace:
            assert _covers(extent, MBR.from_points(request.group))

    def test_extent_accepts_a_low_high_pair(self):
        _, from_pair = self._trace(extent=([200.0, 300.0], [400.0, 500.0]))
        extent = MBR(np.array([200.0, 300.0]), np.array([400.0, 500.0]))
        _, from_mbr = self._trace(extent=extent)
        for left, right in zip(from_pair, from_mbr):
            assert np.array_equal(left.group, right.group)

    def test_extent_overrides_data_points(self):
        """When both are given, the extent wins — the trace ignores the
        dataset's bounding box entirely."""
        extent = MBR(np.array([0.0, 0.0]), np.array([10.0, 10.0]))
        _, trace = self._trace(extent=extent)
        for request in trace[:20]:
            assert request.group.max() <= 10.0

    def test_extent_only_needs_no_data_points(self):
        extent = MBR(np.array([0.0, 0.0]), np.array([100.0, 100.0]))
        trace = generate_request_trace(
            requests=20, rate_per_s=10.0, n=3, mbr_fraction=0.1, k=2,
            seed=5, extent=extent,
        )
        assert len(trace) == 20

    def test_neither_workspace_source_rejected(self):
        with pytest.raises(ValueError, match="workspace"):
            generate_request_trace(
                requests=10, rate_per_s=10.0, n=2, mbr_fraction=0.1, k=1
            )

    def test_default_path_is_seed_stable_without_extent(self):
        """The extent parameter must not perturb the default trace: the
        same seed consumes the RNG identically with extent omitted."""
        data, default_trace = self._trace()
        _, explicit = self._trace(extent=MBR.from_points(data))
        for left, right in zip(default_trace, explicit):
            assert left.arrival_s == right.arrival_s
            assert left.hotspot == right.hotspot
            assert np.array_equal(left.group, right.group)


class TestWorkspacePlacement:
    def test_scale_into_workspace_area_fraction(self):
        data = uniform_points(2_000, seed=7)
        queries = uniform_points(500, seed=8)
        scaled = scale_into_workspace(queries, data, area_fraction=0.08)
        data_mbr = MBR.from_points(data)
        scaled_mbr = MBR.from_points(scaled)
        assert _covers(data_mbr, scaled_mbr)
        assert scaled_mbr.area() / data_mbr.area() == pytest.approx(0.08, rel=0.05)
        # Centres coincide.
        assert np.allclose(scaled_mbr.center, data_mbr.center, atol=1.0)

    def test_scale_into_workspace_invalid_fraction(self):
        data = uniform_points(100, seed=0)
        with pytest.raises(ValueError):
            scale_into_workspace(data, data, area_fraction=0.0)

    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 1.0])
    def test_place_with_overlap_produces_requested_overlap(self, overlap):
        data = uniform_points(2_000, seed=9)
        queries = uniform_points(800, seed=10)
        placed = place_with_overlap(queries, data, overlap)
        data_mbr = MBR.from_points(data)
        placed_mbr = MBR.from_points(placed)
        low = np.maximum(data_mbr.low, placed_mbr.low)
        high = np.minimum(data_mbr.high, placed_mbr.high)
        measured = float(np.prod(np.clip(high - low, 0.0, None))) / data_mbr.area()
        assert measured == pytest.approx(overlap, abs=0.03)

    def test_place_with_full_overlap_matches_data_workspace(self):
        data = uniform_points(1_000, seed=11)
        queries = uniform_points(300, seed=12)
        placed = place_with_overlap(queries, data, 1.0)
        assert _covers(MBR.from_points(data), MBR.from_points(placed))

    def test_place_with_overlap_invalid_fraction(self):
        data = uniform_points(100, seed=0)
        with pytest.raises(ValueError):
            place_with_overlap(data, data, 1.5)
