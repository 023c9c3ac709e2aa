"""Tests for the algorithm catalogue and the query planner."""

import pytest

import repro.api
from repro.api import (
    DISK,
    MEMORY,
    QueryPlanner,
    QuerySpec,
    available_algorithms,
    get_algorithm,
)
from repro.api.planner import AUTO_FMQM_MAX_BLOCKS
from repro.api.registry import BUILTIN_ALGORITHMS
from repro.storage.pointfile import PointFile


GROUP = [[100.0, 100.0], [200.0, 150.0], [150.0, 300.0]]


class TestRegistry:
    def test_builtins_are_registered(self):
        names = {info.name for info in available_algorithms()}
        assert names == {"mqm", "spm", "mbm", "best-first", "brute-force", "fmqm", "fmbm", "gcp"}

    def test_residency_filter(self):
        memory = {info.name for info in available_algorithms("memory")}
        disk = {info.name for info in available_algorithms("disk")}
        assert "mbm" in memory and "mbm" not in disk
        assert "fmbm" in disk and "fmbm" not in memory

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown algorithm 'quantum'.*mbm"):
            get_algorithm("quantum")

    def test_lookup_is_case_insensitive(self):
        assert get_algorithm("MBM").name == "mbm"

    def test_the_catalogue_is_the_builtin_table(self):
        assert available_algorithms() == sorted(BUILTIN_ALGORITHMS, key=lambda info: info.name)
        for info in BUILTIN_ALGORITHMS:
            assert get_algorithm(info.name) is info
        assert not hasattr(repro.api, "register_algorithm")
        assert not hasattr(repro.api, "unregister_algorithm")

    def test_every_builtin_declares_a_known_residency(self):
        residencies = {info.residency for info in available_algorithms()}
        assert residencies == {MEMORY, DISK}
        assert all(callable(info.runner) and info.description for info in available_algorithms())


class TestCapabilityChecks:
    def test_mbm_rejects_max_aggregate(self):
        planner = QueryPlanner()
        with pytest.raises(ValueError, match="mbm.*supports aggregates.*'max'"):
            planner.plan(QuerySpec(group=GROUP, algorithm="mbm", aggregate="max"))

    def test_mqm_rejects_weighted_queries(self):
        planner = QueryPlanner()
        with pytest.raises(ValueError, match="mqm does not support weighted"):
            planner.plan(QuerySpec(group=GROUP, algorithm="mqm", weights=[1.0, 2.0, 3.0]))

    def test_memory_algorithm_rejects_disk_residency(self):
        planner = QueryPlanner()
        with pytest.raises(ValueError, match="mbm handles memory-resident"):
            planner.plan(QuerySpec(group=GROUP, algorithm="mbm", residency="disk"))

    def test_disk_algorithm_rejects_memory_residency(self):
        planner = QueryPlanner()
        with pytest.raises(ValueError, match="fmbm handles disk-resident"):
            planner.plan(QuerySpec(group=GROUP, algorithm="fmbm", residency="memory"))

    def test_memory_algorithm_needs_raw_points(self, rng):
        file = PointFile(rng.uniform(0, 1, size=(30, 2)), points_per_page=10, block_pages=1)
        planner = QueryPlanner()
        with pytest.raises(ValueError, match="mbm needs the raw query points"):
            planner.plan(QuerySpec(group_file=file, residency="memory", algorithm="mbm"))

    def test_unknown_option_rejected_at_plan_time(self):
        planner = QueryPlanner()
        with pytest.raises(ValueError, match="does not understand option.*use_heuristic_3"):
            planner.plan(
                QuerySpec(group=GROUP, algorithm="mbm", options={"use_heuristic_3": False})
            )

    def test_unknown_option_error_lists_valid_names_and_suggests(self):
        """The plan-time error must name every valid option for the
        chosen algorithm, suggest the closest match for the offender,
        and mention the always-accepted file-geometry options."""
        planner = QueryPlanner()
        with pytest.raises(ValueError) as excinfo:
            planner.plan(
                QuerySpec(group=GROUP, algorithm="mbm", options={"use_heuristic_3": False})
            )
        message = str(excinfo.value)
        assert "'use_heuristic3'" in message
        assert "did you mean" in message and "use_heuristic3" in message
        assert "points_per_page" in message and "block_pages" in message

    def test_unknown_option_error_names_the_ceiling_option(self):
        planner = QueryPlanner()
        with pytest.raises(ValueError, match=r"options valid for 'mqm': \['within'\]"):
            planner.plan(
                QuerySpec(group=GROUP, algorithm="mqm", options={"window": 3})
            )

    def test_gcp_needs_raw_points(self, rng):
        file = PointFile(rng.uniform(0, 1, size=(30, 2)), points_per_page=10, block_pages=1)
        planner = QueryPlanner()
        with pytest.raises(ValueError, match="gcp needs the raw query points"):
            planner.plan(QuerySpec(group_file=file, algorithm="gcp"))

    def test_candidates_reflect_capabilities(self):
        planner = QueryPlanner()
        sum_names = {info.name for info in planner.candidates(QuerySpec(group=GROUP))}
        max_names = {
            info.name
            for info in planner.candidates(QuerySpec(group=GROUP, aggregate="max"))
        }
        assert "mbm" in sum_names and "mqm" in sum_names
        assert max_names <= {"best-first", "brute-force"}


class TestAutoPolicy:
    def test_memory_sum_chooses_mbm(self):
        plan = QueryPlanner().plan(QuerySpec(group=GROUP))
        assert plan.algorithm.name == "mbm"
        assert "overall winner" in plan.rationale

    @pytest.mark.parametrize("aggregate", ["max", "min"])
    def test_memory_other_aggregates_choose_best_first(self, aggregate):
        plan = QueryPlanner().plan(QuerySpec(group=GROUP, aggregate=aggregate))
        assert plan.algorithm.name == "best-first"
        assert aggregate in plan.rationale
        assert "sums only" in plan.rationale

    def test_memory_weighted_sum_chooses_mbm(self):
        # MBM answers weighted sums exactly and reads fewer nodes than
        # best-first on them (the weighted pin in tests/test_rtree_flat.py:
        # 5 node accesses against 9).
        plan = QueryPlanner().plan(QuerySpec(group=GROUP, weights=[1.0, 2.0, 3.0]))
        assert plan.algorithm.name == "mbm"
        assert "weighted" in plan.rationale

    def test_memory_weighted_max_chooses_best_first(self):
        spec = QuerySpec(group=GROUP, weights=[1.0, 2.0, 3.0], aggregate="max")
        plan = QueryPlanner().plan(spec)
        assert plan.algorithm.name == "best-first"
        assert "weighted max aggregate" in plan.rationale

    def test_disk_few_blocks_chooses_fmqm(self, rng):
        file = PointFile(rng.uniform(0, 1, size=(100, 2)), points_per_page=50, block_pages=10)
        assert file.block_count <= AUTO_FMQM_MAX_BLOCKS
        plan = QueryPlanner().plan(QuerySpec(group_file=file))
        assert plan.algorithm.name == "fmqm"
        assert "F-MQM" in plan.rationale

    def test_disk_many_blocks_chooses_fmbm(self, rng):
        file = PointFile(rng.uniform(0, 1, size=(600, 2)), points_per_page=50, block_pages=1)
        assert file.block_count > AUTO_FMQM_MAX_BLOCKS
        plan = QueryPlanner().plan(QuerySpec(group_file=file))
        assert plan.algorithm.name == "fmbm"
        assert "F-MBM" in plan.rationale

    def test_disk_block_count_estimated_from_geometry(self, rng):
        # 600 points at 50/page, 1 page/block -> 12 blocks, no file needed.
        spec = QuerySpec(
            group=rng.uniform(0, 1, size=(600, 2)),
            residency="disk",
            options={"points_per_page": 50, "block_pages": 1},
        )
        assert QueryPlanner().plan(spec).algorithm.name == "fmbm"

    def test_file_geometry_options_are_not_forwarded_to_runners(self, rng):
        spec = QuerySpec(
            group=rng.uniform(0, 1, size=(600, 2)),
            residency="disk",
            options={"points_per_page": 50, "block_pages": 1},
        )
        plan = QueryPlanner().plan(spec)
        assert "points_per_page" not in plan.options
        assert "block_pages" not in plan.options


class TestExplainAndEstimates:
    def test_describe_mentions_algorithm_and_rationale(self, engine):
        plan = engine.explain(QuerySpec(group=GROUP, k=4))
        text = plan.describe()
        assert "mbm" in text
        assert "rationale" in text
        assert "overall winner" in text
        assert "estimate" in text

    def test_estimate_requires_an_engine(self):
        assert QueryPlanner().plan(QuerySpec(group=GROUP)).estimate is None

    def test_estimate_scales_with_mqm_cardinality(self, engine, rng):
        group = rng.uniform(200, 800, size=(16, 2))
        planner = engine.planner
        mqm_plan = planner.plan(QuerySpec(group=group, algorithm="mqm"))
        mbm_plan = planner.plan(QuerySpec(group=group, algorithm="mbm"))
        assert mqm_plan.estimate.node_accesses > mbm_plan.estimate.node_accesses

    def test_brute_force_estimate_counts_the_scan(self, engine):
        plan = engine.explain(QuerySpec(group=GROUP, algorithm="brute-force"))
        assert plan.estimate.node_accesses == 0
        assert plan.estimate.distance_computations == len(engine.points) * 3

    def test_trace_attaches_plan_to_result(self, engine):
        result = engine.execute(QuerySpec(group=GROUP, trace=True))
        assert result.plan is not None
        assert result.plan.algorithm.name == "mbm"
        untraced = engine.execute(QuerySpec(group=GROUP))
        assert untraced.plan is None

    def test_plan_signature_reuses_cached_plans(self, engine, rng):
        specs = [QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2) for _ in range(5)]
        signatures = {spec.plan_signature() for spec in specs}
        assert len(signatures) == 1
