"""Shared fixtures for the test suite.

The fixtures build small-but-nontrivial datasets and indexes once per
session so the many correctness tests (every algorithm against brute
force, under many query shapes) stay fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import GNNEngine
from repro.rtree.flat import FlatRTree


@pytest.fixture()
def rng():
    """Deterministic random generator, fresh per test so test order cannot change data."""
    return np.random.default_rng(20040330)


@pytest.fixture(scope="session")
def small_points():
    """A small clustered dataset (600 points in [0, 1000]^2)."""
    generator = np.random.default_rng(11)
    clusters = generator.uniform(100, 900, size=(6, 2))
    assignments = generator.integers(0, 6, size=600)
    noise = generator.normal(scale=40.0, size=(600, 2))
    return np.clip(clusters[assignments] + noise, 0, 1000)


@pytest.fixture(scope="session")
def uniform_points_1k():
    """1,000 uniform points in [0, 1000]^2."""
    return np.random.default_rng(5).uniform(0, 1000, size=(1000, 2))


@pytest.fixture(scope="session")
def small_tree(small_points):
    """Bulk-loaded flat R-tree over the small clustered dataset."""
    return FlatRTree.bulk_load(small_points, capacity=16)


@pytest.fixture(scope="session")
def uniform_tree(uniform_points_1k):
    """Bulk-loaded flat R-tree over the uniform dataset."""
    return FlatRTree.bulk_load(uniform_points_1k, capacity=16)


@pytest.fixture(scope="session")
def engine(small_points):
    """A GNNEngine over the small clustered dataset."""
    return GNNEngine(small_points, capacity=16)


@pytest.fixture()
def query_groups(rng):
    """A list of diverse query groups used by cross-algorithm tests."""
    groups = []
    for n in (1, 2, 3, 8, 25):
        center = rng.uniform(200, 800, size=2)
        spread = rng.uniform(10, 250)
        groups.append(rng.uniform(center - spread, center + spread, size=(n, 2)))
    # A degenerate group: every query point identical.
    groups.append(np.tile(rng.uniform(0, 1000, size=2), (5, 1)))
    # A group straddling the whole workspace.
    groups.append(rng.uniform(0, 1000, size=(12, 2)))
    return groups
