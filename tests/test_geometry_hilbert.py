"""Tests for repro.geometry.hilbert."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from hilbert_reference import (
    hamilton_key,
    reference_grid,
    reference_hilbert_sort,
    reference_keys_2d,
)

from repro.geometry.hilbert import (
    DEFAULT_ORDER,
    _grid_keys,
    _normalise_to_grid,
    _state_table,
    cell_key,
    hilbert_indices,
    hilbert_sort,
    rank_keys,
)


def _grid_in_curve_order(order):
    """The full ``2**order`` square grid sorted by Hilbert index: ``(indices, cells)``."""
    side = 1 << order
    cells = np.array([(x, y) for x in range(side) for y in range(side)])
    indices = np.array([cell_key((x, y), order) for x, y in cells])
    rank = np.argsort(indices)
    return indices[rank], cells[rank]


class TestHilbertCurve2D:
    @pytest.mark.parametrize("order", [1, 3, 4])
    def test_curve_is_a_bijection(self, order):
        indices, _ = _grid_in_curve_order(order)
        assert indices.tolist() == list(range(4**order))

    def test_consecutive_indices_are_adjacent_cells(self):
        # The defining locality property of the Hilbert curve: successive
        # curve positions are Manhattan-distance-1 neighbors.
        _, cells = _grid_in_curve_order(5)
        steps = np.abs(np.diff(cells, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError):
            cell_key((4, 0), 2)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            cell_key((0, -1), 2)


class TestHilbertIndices:
    def test_indices_shape_matches_input(self):
        points = np.random.default_rng(0).uniform(0, 100, size=(40, 2))
        indices = hilbert_indices(points)
        assert indices.shape == (40,)
        assert indices.dtype == np.int64

    def test_identical_points_get_identical_indices(self):
        points = np.array([[5.0, 5.0], [5.0, 5.0], [1.0, 9.0]])
        indices = hilbert_indices(points)
        assert indices[0] == indices[1]

    def test_three_dimensional_points_are_supported(self):
        points = np.random.default_rng(1).uniform(0, 1, size=(10, 3))
        indices = hilbert_indices(points, order=8)
        assert indices.shape == (10,)

    def test_keys_wider_than_int64_rejected(self):
        points = np.random.default_rng(1).uniform(0, 1, size=(10, 3))
        assert hilbert_indices(points, order=21).dtype == np.int64
        with pytest.raises(ValueError):
            hilbert_indices(points, order=22)


class TestHilbertSort:
    def test_sort_returns_a_permutation(self):
        points = np.random.default_rng(2).uniform(0, 1000, size=(100, 2))
        order = hilbert_sort(points)
        assert sorted(order.tolist()) == list(range(100))

    def test_sort_improves_locality_over_random_order(self):
        # The summed distance between consecutive points along the Hilbert
        # order should be far smaller than along the original random order.
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1000, size=(500, 2))
        order = hilbert_sort(points)
        sorted_points = points[order]

        def path_length(pts):
            return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

        assert path_length(sorted_points) < 0.5 * path_length(points)

    def test_sort_is_deterministic(self):
        points = np.random.default_rng(4).uniform(0, 10, size=(50, 2))
        assert np.array_equal(hilbert_sort(points), hilbert_sort(points))


class TestDefaultOrder:
    @pytest.mark.parametrize("dims,order", [(1, 16), (2, 16), (3, 16)])
    def test_low_dimensions_keep_order_16(self, dims, order):
        points = np.random.default_rng(5).uniform(0, 1000, size=(200, dims))
        assert order == DEFAULT_ORDER
        assert np.array_equal(hilbert_indices(points), hilbert_indices(points, order))

    @pytest.mark.parametrize("dims,order", [(4, 15), (5, 12), (6, 10)])
    def test_four_to_six_dimensions_lower_the_order_to_fit_int64(self, dims, order):
        points = np.random.default_rng(dims).uniform(0, 1, size=(64, dims))
        assert np.array_equal(hilbert_indices(points), hilbert_indices(points, order))
        assert sorted(hilbert_sort(points).tolist()) == list(range(64))


class TestChunkTableAgainstThePerBitLoop:
    """The table lookup against the per-bit loop it replaced (tests/hilbert_reference.py)."""

    @pytest.mark.parametrize("order", range(1, 17))
    def test_keys_equal_the_oracle_at_every_order(self, order):
        side = 1 << order
        rng = np.random.default_rng(order)
        edges = np.unique(np.clip([0, 1, side // 2 - 1, side // 2, side - 2, side - 1], 0, side - 1))
        edge_x, edge_y = np.meshgrid(edges, edges)
        x = np.concatenate([edge_x.ravel(), rng.integers(0, side, 3000)])
        y = np.concatenate([edge_y.ravel(), rng.integers(0, side, 3000)])
        keys = _grid_keys(np.column_stack((x, y)), order)
        assert np.array_equal(keys, reference_keys_2d(x, y, order))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_whole_small_grids_equal_the_oracle(self, order):
        cells = np.arange(1 << order)
        x, y = (axis.ravel() for axis in np.meshgrid(cells, cells))
        assert np.array_equal(_grid_keys(np.column_stack((x, y)), order), reference_keys_2d(x, y, order))

    def test_the_grid_columns_are_left_untouched(self):
        x = np.arange(64, dtype=np.int64)
        y = x[::-1].copy()
        grid = np.asfortranarray(np.column_stack((x, y)))
        _grid_keys(grid, 6)
        assert grid[:, 0].tolist() == list(range(64)) and grid[:, 1].tolist() == list(range(63, -1, -1))

    @pytest.mark.parametrize("order", (1, 8, 16))
    def test_grid_cells_equal_the_oracle(self, order):
        rng = np.random.default_rng(order)
        points = rng.uniform(-50, 50, size=(500, 2))
        points[:, 1] = 7.0  # a degenerate axis
        points[:3] = [[-50, 7], [50, 7], [0.1, 7]]
        assert np.array_equal(_normalise_to_grid(points, order), reference_grid(points, order))

    @pytest.mark.parametrize("count", (7, 20000))
    def test_hilbert_sort_equals_the_oracle(self, count):
        rng = np.random.default_rng(count)
        # Few distinct values per axis: many shared cells, many ties.
        points = rng.choice(rng.uniform(0, 1000, size=40), size=(count, 2))
        assert np.array_equal(hilbert_sort(points), reference_hilbert_sort(points))


#: Per dimensionality, the largest order whose whole grid a test walks.
_WHOLE_GRID_ORDER = {2: 6, 3: 4, 4: 3, 5: 2}


class TestHilbertCurveInAnyDimension:
    """Hamilton's curve at 2-5 dims, against ``hilbert_reference.hamilton_key``
    (one level at a time, Python ints, no table)."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_keys_are_a_bijection_of_the_grid_in_unit_steps(self, data):
        dims = data.draw(st.integers(2, 5), label="dims")
        order = data.draw(st.integers(1, _WHOLE_GRID_ORDER[dims]), label="order")
        cells = np.array(list(itertools.product(range(1 << order), repeat=dims)))
        keys = hilbert_indices(cells.astype(np.float64), order)  # the grid maps onto itself
        rank = np.argsort(keys)
        assert keys[rank].tolist() == list(range(1 << (order * dims)))
        steps = np.abs(np.diff(cells[rank], axis=0)).sum(axis=1)
        assert np.all(steps == 1)  # Z-order jumps here
        picks = data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=40), label="picks")
        for pick in picks:
            assert keys[pick] == hamilton_key(cells[pick].tolist(), order)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_keys_equal_the_per_level_reference_at_every_order(self, data):
        dims = data.draw(st.integers(1, 8), label="dims")
        # Whole and partial chunks of the table, and the widest key int64 holds.
        order = data.draw(st.one_of(st.integers(1, 63 // dims), st.just(63 // dims)), label="order")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        grid = np.random.default_rng(seed).integers(0, 1 << order, size=(50, dims))
        grid[0] = 0
        grid[1] = (1 << order) - 1
        keys = _grid_keys(np.asfortranarray(grid), order)
        want = [hamilton_key(cell, order) for cell in grid.tolist()]
        assert keys.tolist() == want
        assert [cell_key(cell, order) for cell in grid.tolist()] == want

    @pytest.mark.parametrize("dims", range(1, 7))
    def test_the_table_holds_every_reachable_state(self, dims):
        table, entries, levels, state_bits = _state_table(dims)
        assert table.size == (dims << (dims - 1)) << (dims * levels)  # d * 2**(d - 1) states
        assert list(entries) == table.tolist()
        assert table.max() >> state_bits < 1 << (dims * levels)

    def test_two_dimensions_take_four_levels_per_lookup(self):
        assert _state_table(2)[2] == 4
        assert _state_table(7) is None  # stepped one level at a time


#: Tie-heavy float keys: signed zeros compare equal, infinities tie too.
_FLOAT_LATTICE = (-np.inf, -2.5, -0.0, 0.0, 1.0, 3.5, np.inf)


@st.composite
def _rank_inputs(draw):
    """1-D or row-wise 2-D float64/int64 keys: lattice ties, extremes, all-equal rows."""
    dtype = draw(st.sampled_from((np.float64, np.int64)))
    shape = draw(
        st.one_of(
            st.tuples(st.integers(0, 80)),
            st.tuples(st.integers(0, 6), st.integers(0, 40)),
        )
    )
    if dtype is np.float64:
        lattice, spread = st.sampled_from(_FLOAT_LATTICE), st.floats(allow_nan=False)
    else:
        info = np.iinfo(np.int64)
        lattice, spread = st.integers(-3, 3), st.integers(info.min, info.max)
    keys = draw(arrays(dtype, shape, elements=draw(st.sampled_from((lattice, spread)))))
    if keys.size and draw(st.booleans()):
        row = keys if keys.ndim == 1 else keys[draw(st.integers(0, keys.shape[0] - 1))]
        row[...] = row[0]  # one all-equal row
    return keys


class TestRankKeys:
    @pytest.mark.parametrize("count", (0, 1, 2, 1000, 30000))
    @pytest.mark.parametrize("bits", (1, 16, 17, 32, 62))
    def test_ranks_are_the_stable_argsort(self, count, bits):
        rng = np.random.default_rng(count + bits)
        keys = rng.integers(0, 1 << bits, size=count, dtype=np.int64)
        if count:
            keys[::3] = keys[0]  # ties across every digit
        assert np.array_equal(rank_keys(keys), np.argsort(keys, kind="stable"))

    @settings(max_examples=300, deadline=None)
    @given(keys=_rank_inputs())
    @example(keys=np.zeros(0))
    @example(keys=np.zeros((3, 0), dtype=np.int64))
    @example(keys=np.zeros((0, 4)))
    @example(keys=np.array([7.0]))
    @example(keys=np.array([0.0, -0.0, np.inf, -np.inf, 0.0, -np.inf]))
    @example(keys=np.full((2, 5), 4, dtype=np.int64))
    def test_equals_the_stable_argsort(self, keys):
        before = keys.copy()
        ranked = rank_keys(keys)
        want = np.argsort(keys, axis=-1, kind="stable")
        assert ranked.dtype == want.dtype
        assert np.array_equal(ranked, want), keys
        assert np.array_equal(keys, before)  # the keys are read, not sorted in place
