"""Shared fixtures for the benchmark suite.

The benchmarks regenerate every figure of the paper's evaluation
(Section 5).  By default they run at the ``smoke`` scale so the whole
suite finishes in CI time; set ``REPRO_BENCH_SCALE=quick`` (or ``paper``)
to run closer to the paper's sizes.  The ``*_finding`` tests
(``test_fig5_1_finding``, ``test_fig5_5_finding``,
``test_ablation_finding``) assert the shape-level comparison against
the paper.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.config import get_scale
from repro.datasets.real_like import pp_like, ts_like
from repro.rtree.flat import FlatRTree


@pytest.fixture(scope="session")
def scale():
    """Benchmark scale, selected by the REPRO_BENCH_SCALE environment variable."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "smoke"))


@pytest.fixture(scope="session")
def pp_points(scale):
    """The PP-like dataset (clustered 'populated places' stand-in)."""
    return pp_like(scale.pp_size)


@pytest.fixture(scope="session")
def ts_points(scale):
    """The TS-like dataset (stream-centroid stand-in, ~8x larger than PP)."""
    return ts_like(scale.ts_size)


@pytest.fixture(scope="session")
def pp_tree(pp_points, scale):
    """Flat R-tree snapshot over the PP-like dataset."""
    return FlatRTree.bulk_load(pp_points, capacity=scale.node_capacity)


@pytest.fixture(scope="session")
def ts_tree(ts_points, scale):
    """Flat R-tree snapshot over the TS-like dataset."""
    return FlatRTree.bulk_load(ts_points, capacity=scale.node_capacity)


@pytest.fixture(scope="module")
def node_accesses():
    """Per-module table a figure's sweep fills with its average node accesses.

    Keyed by the sweep's own setting; the module's ``*_finding`` test, which
    runs after the sweep, asserts the paper's finding over it.
    """
    return {}


@pytest.fixture(scope="session")
def datasets(pp_points, ts_points, pp_tree, ts_tree):
    """Convenience bundle mapping dataset names to (points, tree)."""
    return {
        "pp": (pp_points, pp_tree),
        "ts": (ts_points, ts_tree),
    }
