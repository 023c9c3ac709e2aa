"""Tests for the algorithm catalogue and the query planner."""

import threading

import pytest

import repro.api
from repro import GNNEngine
from repro.api import (
    DISK,
    MEMORY,
    QueryPlanner,
    QuerySpec,
    available_algorithms,
    get_algorithm,
)
from repro.api.planner import AUTO_FMQM_MAX_BLOCKS
from repro.api.registry import BUILTIN_ALGORITHMS, available_algorithms
from repro.core.bruteforce import brute_force_gnn
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
    def test_spm_rejects_max_aggregate(self):
        planner = QueryPlanner()
        with pytest.raises(ValueError, match="spm.*supports aggregates.*'max'"):
            planner.plan(QuerySpec(group=GROUP, algorithm="spm", aggregate="max"))

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

    def test_auto_memory_plan_needs_raw_points(self, rng):
        file = PointFile(rng.uniform(0, 1, size=(30, 2)), points_per_page=10, block_pages=1)
        with pytest.raises(ValueError, match="mbm needs the raw query points"):
            QueryPlanner().plan(QuerySpec(group_file=file, residency="memory"))

    def test_auto_disk_plan_rejects_weights(self):
        # The file algorithms answer unweighted sums: auto must not drop
        # the weights silently.
        spec = QuerySpec(group=GROUP, weights=[1.0, 2.0, 3.0], residency="disk")
        with pytest.raises(ValueError, match="fmqm does not support weighted"):
            QueryPlanner().plan(spec)

    def test_candidates_reflect_capabilities(self):
        def candidates(spec):
            return {
                info.name
                for info in available_algorithms(spec.resolved_residency())
                if not info.capability_errors(spec)
            }

        sum_names = candidates(QuerySpec(group=GROUP))
        max_names = candidates(QuerySpec(group=GROUP, aggregate="max"))
        assert "mbm" in sum_names and "mqm" in sum_names
        assert max_names == {"mbm", "best-first", "brute-force"}


class TestAutoPolicy:
    def test_memory_sum_chooses_mbm(self):
        plan = QueryPlanner().plan(QuerySpec(group=GROUP))
        assert plan.algorithm.name == "mbm"
        assert "overall winner" in plan.rationale

    @pytest.mark.parametrize("aggregate", ["max", "min"])
    def test_memory_other_aggregates_choose_mbm(self, aggregate):
        # MBM keys max/min by the paper's bound, the traversal best-first runs.
        plan = QueryPlanner().plan(QuerySpec(group=GROUP, aggregate=aggregate))
        assert plan.algorithm.name == "mbm"
        assert "overall winner" in plan.rationale

    def test_memory_weighted_sum_chooses_mbm(self):
        # MBM answers weighted sums exactly and reads fewer nodes than
        # best-first on them (the weighted pin in tests/test_rtree_flat.py:
        # 5 node accesses against 9).
        plan = QueryPlanner().plan(QuerySpec(group=GROUP, weights=[1.0, 2.0, 3.0]))
        assert plan.algorithm.name == "mbm"
        assert plan.rationale == QueryPlanner().plan(QuerySpec(group=GROUP)).rationale

    def test_memory_weighted_max_chooses_mbm(self):
        spec = QuerySpec(group=GROUP, weights=[1.0, 2.0, 3.0], aggregate="max")
        plan = QueryPlanner().plan(spec)
        assert plan.algorithm.name == "mbm"
        assert "overall winner" in plan.rationale

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


class TestExplain:
    def test_describe_mentions_algorithm_and_rationale(self, engine):
        plan = engine.explain(QuerySpec(group=GROUP, k=4))
        text = plan.describe()
        assert "mbm" in text
        assert "rationale" in text
        assert "overall winner" in text
        assert "estimate" not in text

    def test_trace_attaches_plan_to_result(self, engine):
        result = engine.execute(QuerySpec(group=GROUP, trace=True))
        assert result.plan is not None
        assert result.plan.algorithm.name == "mbm"
        untraced = engine.execute(QuerySpec(group=GROUP))
        assert untraced.plan is None

    def test_explain_describes_the_spec_it_is_asked_for(self, engine, rng):
        specs = [QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2) for _ in range(3)]
        texts = [engine.explain(spec).describe().splitlines() for spec in specs]
        for spec, lines in zip(specs, texts):
            assert lines[0] == f"QueryPlan for {spec!r}"
        # One shape, one decision: only the header naming the spec differs.
        assert texts[0][1:] == texts[1][1:] == texts[2][1:]


class TestStatelessPlanning:
    @pytest.fixture()
    def fresh_engine(self, small_points):
        return GNNEngine(small_points, capacity=16)

    def test_planner_keeps_no_per_spec_state(self, fresh_engine, rng):
        specs = [QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=k) for k in (1, 2, 2, 5)]
        plans = [fresh_engine.explain(spec) for spec in specs]
        fresh_engine.execute_many(specs)
        assert [plan.spec for plan in plans] == specs
        assert vars(fresh_engine.planner) == {"engine": fresh_engine}

    def test_every_entry_point_plans_each_spec_afresh(self, fresh_engine, rng, monkeypatch):
        planned = []
        real = fresh_engine.planner.plan

        def spy(spec):
            planned.append(spec)
            return real(spec)

        monkeypatch.setattr(fresh_engine.planner, "plan", spy)
        specs = [QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=2) for _ in range(6)]
        fresh_engine.execute(specs[0])
        fresh_engine.execute_many(specs[1:4])
        plans = [fresh_engine.explain(spec) for spec in specs[4:]]
        fresh_engine.execute(specs[0])
        assert [id(spec) for spec in planned] == [id(spec) for spec in specs + specs[:1]]
        assert [plan.spec for plan in plans] == specs[4:]

    def test_plans_of_one_shape_differ_only_in_their_spec(self, rng):
        planner = QueryPlanner()
        a = QuerySpec(group=rng.uniform(0, 1, size=(5, 2)), k=3)
        b = QuerySpec(group=rng.uniform(0, 1, size=(5, 2)), k=3)
        plan_a, plan_b = planner.plan(a), planner.plan(b)
        assert (plan_a.spec, plan_b.spec) == (a, b)
        assert (plan_a.algorithm, plan_a.residency, plan_a.rationale, plan_a.options) == (
            plan_b.algorithm,
            plan_b.residency,
            plan_b.rationale,
            plan_b.options,
        )
        assert planner.plan(a.replace(k=4)).spec.k == 4
        assert planner.plan(a.replace(aggregate="max")).algorithm.name == "mbm"

    def test_concurrent_planning_matches_serial_planning(self):
        planner = QueryPlanner()
        specs = [
            QuerySpec(group=GROUP, k=k % 23 + 1, aggregate=("sum", "max", "min")[k % 3])
            for k in range(60)
        ]
        serial = [planner.plan(spec) for spec in specs]
        errors = []

        def plan_all(offset):
            try:
                for i in range(len(specs)):
                    spec = specs[(i + offset) % len(specs)]
                    plan = planner.plan(spec)
                    expected = serial[(i + offset) % len(specs)]
                    assert plan.spec is spec
                    assert (plan.algorithm, plan.rationale) == (
                        expected.algorithm,
                        expected.rationale,
                    )
            except AssertionError as error:  # surfaced on the main thread
                errors.append(error)

        threads = [threading.Thread(target=plan_all, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert vars(planner) == {"engine": None}

    def test_each_plan_takes_its_specs_own_within(self, fresh_engine, rng):
        group = rng.uniform(300, 700, size=(3, 2))
        specs = [
            QuerySpec(group=group, k=5, options={"within": within})
            for within in (50.0, 900.0, 4000.0)
        ]
        planner = fresh_engine.planner
        plans = [planner.plan(spec) for spec in specs]
        assert [plan.options["within"] for plan in plans] == [50.0, 900.0, 4000.0]
        for spec, result in zip(specs, fresh_engine.execute_many(specs)):
            reference = brute_force_gnn(fresh_engine.points, spec.query)
            expected = [n for n in reference.neighbors if n.distance <= spec.options["within"]]
            assert result.record_ids() == [n.record_id for n in expected]

    def test_plan_survives_insert_and_compact(self, fresh_engine):
        spec = QuerySpec(group=[[410.0, 405.0], [395.0, 390.0]], k=3)
        before = fresh_engine.explain(spec)
        inserted = fresh_engine.insert([400.0, 400.0])
        fresh_engine.compact()
        result = fresh_engine.execute(spec)
        assert result.record_ids()[0] == inserted
        assert result.record_ids() == brute_force_gnn(fresh_engine.points, spec.query).record_ids()
        after = fresh_engine.explain(spec)
        assert (after.algorithm, after.rationale, after.options) == (
            before.algorithm,
            before.rationale,
            before.options,
        )

    def test_file_only_spec_does_not_reuse_a_raw_points_plan(self, fresh_engine, rng):
        # Both specs name GCP over the same file; only the first carries
        # the raw points GCP needs.  The second must fail at planning,
        # not inside the query-tree bulk load.
        group = rng.uniform(0, 1000, size=(30, 2))
        file = PointFile(group, points_per_page=10, block_pages=1)
        with pytest.raises(ValueError, match="gcp needs the raw query points"):
            fresh_engine.execute_many(
                [
                    QuerySpec(group=group, group_file=file, algorithm="gcp"),
                    QuerySpec(group_file=file, algorithm="gcp"),
                ]
            )
