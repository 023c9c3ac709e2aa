"""Tests for the declarative QuerySpec: validation, immutability, derived data."""

import numpy as np
import pytest

from repro.api import QuerySpec
from repro.api.registry import available_algorithms
from repro.api.spec import AUTO
from repro.core.types import GroupQuery
from repro.storage.pointfile import PointFile


GROUP = [[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]]


class TestValidation:
    def test_requires_group_or_file(self):
        with pytest.raises(ValueError, match="needs a query group"):
            QuerySpec()

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="non-empty|at least one point"):
            QuerySpec(group=np.empty((0, 2)))

    @pytest.mark.parametrize("k", [0, -1, 0.5])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be"):
            QuerySpec(group=GROUP, k=k)

    def test_rejects_weights_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match the group cardinality"):
            QuerySpec(group=GROUP, weights=[1.0, 2.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            QuerySpec(group=GROUP, weights=[1.0, -2.0, 3.0])

    def test_rejects_non_vector_weights(self):
        with pytest.raises(ValueError, match="1-d vector"):
            QuerySpec(group=GROUP, weights=[[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize(
        "algorithm", [AUTO] + [info.name for info in available_algorithms()]
    )
    def test_rejects_all_zero_weights_for_every_algorithm(self, algorithm):
        # A weightless group has no nearest neighbour.  The spec used to
        # plan, and MBM then failed mid-traversal on a zero divisor.
        with pytest.raises(ValueError, match="all be zero"):
            QuerySpec(group=GROUP, weights=np.zeros(3), algorithm=algorithm)
        with pytest.raises(ValueError, match="all be zero"):
            GroupQuery(GROUP, weights=[0.0, 0.0, 0.0])

    def test_rejects_unknown_aggregate(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            QuerySpec(group=GROUP, aggregate="median")

    def test_rejects_unknown_residency(self):
        with pytest.raises(ValueError, match="unknown residency"):
            QuerySpec(group=GROUP, residency="tape")

    @pytest.mark.parametrize("index", ["object", "flat"])
    def test_rejects_physical_index_names(self, index):
        # A spec says where the data lives, not which structure answers.
        with pytest.raises(ValueError) as excinfo:
            QuerySpec(group=GROUP, index=index)
        assert "('auto', 'sharded')" in str(excinfo.value)


class TestNormalisationAndImmutability:
    def test_algorithm_and_residency_are_lowercased(self):
        spec = QuerySpec(group=GROUP, algorithm="MBM", residency="MEMORY")
        assert spec.algorithm == "mbm"
        assert spec.residency == "memory"

    def test_group_is_a_readonly_copy(self):
        source = np.array(GROUP)
        spec = QuerySpec(group=source)
        source[0, 0] = 999.0
        assert spec.group[0, 0] == 10.0
        with pytest.raises(ValueError):
            spec.group[0, 0] = 1.0

    def test_fields_cannot_be_assigned(self):
        spec = QuerySpec(group=GROUP)
        with pytest.raises(AttributeError):
            spec.k = 5

    def test_options_mapping_is_readonly(self):
        spec = QuerySpec(group=GROUP, options={"use_heuristic3": False})
        with pytest.raises(TypeError):
            spec.options["use_heuristic3"] = True

    def test_replace_returns_new_spec(self):
        spec = QuerySpec(group=GROUP, k=2)
        other = spec.replace(k=7, aggregate="max")
        assert spec.k == 2 and spec.aggregate == "sum"
        assert other.k == 7 and other.aggregate == "max"


class TestDerivedData:
    def test_cardinality_and_dims_from_group(self):
        spec = QuerySpec(group=GROUP)
        assert spec.cardinality == 3
        assert spec.dims == 2

    def test_cardinality_from_file(self, rng):
        points = rng.uniform(0, 100, size=(40, 2))
        spec = QuerySpec(group_file=PointFile(points, points_per_page=10, block_pages=2))
        assert spec.cardinality == 40
        assert spec.dims == 2

    def test_auto_residency_resolution(self, rng):
        assert QuerySpec(group=GROUP).resolved_residency() == "memory"
        file = PointFile(rng.uniform(0, 1, size=(20, 2)), points_per_page=10, block_pages=1)
        assert QuerySpec(group_file=file).resolved_residency() == "disk"
        assert QuerySpec(group=GROUP, residency="disk").resolved_residency() == "disk"

    def test_group_query_materialisation(self):
        spec = QuerySpec(group=GROUP, k=4, aggregate="max", weights=[1.0, 2.0, 3.0])
        query = spec.group_query()
        assert isinstance(query, GroupQuery)
        assert query.k == 4
        assert query.aggregate == "max"
        assert query.weights == pytest.approx([1.0, 2.0, 3.0])

    def test_group_query_requires_points(self, rng):
        file = PointFile(rng.uniform(0, 1, size=(20, 2)), points_per_page=10, block_pages=1)
        with pytest.raises(ValueError, match="disk-resident"):
            QuerySpec(group_file=file).group_query()

    def test_plan_signature_ignores_coordinates(self, rng):
        a = QuerySpec(group=rng.uniform(0, 1, size=(5, 2)), k=3)
        b = QuerySpec(group=rng.uniform(0, 1, size=(5, 2)), k=3)
        assert a.plan_signature() == b.plan_signature()
        assert a.plan_signature() != a.replace(k=4).plan_signature()
        assert a.plan_signature() != a.replace(aggregate="max").plan_signature()
