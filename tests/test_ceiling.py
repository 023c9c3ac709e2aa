"""The ``within`` ceiling: a distance bound every memory-resident algorithm accepts.

``QuerySpec(options={"within": c})`` returns only the records whose
aggregate distance is ``<= c``.  The contract pinned here, over every
memory-resident algorithm x aggregate (sum/max/min, weighted or not) x
clean/dirty engine: the bounded answer is exactly the unbounded answer's
prefix of distances ``<= c`` — including when ``c`` is a record's own
distance and when twin records (same coordinates, distinct ids) sit at
``c``.  The shard coordinator pushes its pilot's k-th distance into
every wave sub-query through this option, so a record exactly at the
bound must still come back: it may be a tie with a smaller record id
than the pilot's own k-th answer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GNNEngine, QuerySpec
from repro.api.registry import available_algorithms
from repro.api.spec import MEMORY
from repro.core.types import BestList

AGGREGATES = ("sum", "max", "min")

#: Every (algorithm, aggregate, weighted) the catalogue accepts in memory.
CELLS = [
    (info.name, aggregate, weighted)
    for info in available_algorithms(MEMORY)
    for aggregate in AGGREGATES
    for weighted in (False, True)
    if info.supports(
        QuerySpec(
            group=[[0.0, 0.0], [1.0, 1.0]],
            aggregate=aggregate,
            weights=[1.0, 2.0] if weighted else None,
        )
    )
]


def _engine(seed: int, dirty: bool) -> GNNEngine:
    """A small engine on a coarse grid (many exact ties), with twin records.

    ``dirty`` leaves pending inserts (twins of base records among them)
    and deletes in the overlay.
    """
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 40, size=(150, 2)).astype(np.float64)
    twins = points[rng.choice(150, size=20, replace=False)]
    engine = GNNEngine(np.vstack([points, twins]), capacity=8)
    if dirty:
        for row in rng.integers(0, 40, size=(12, 2)).astype(np.float64):
            engine.insert(row)
        for row in points[rng.choice(150, size=6, replace=False)]:
            engine.insert(row)
        for record_id in rng.choice(170, size=5, replace=False).tolist():
            engine.delete(engine.points[record_id], record_id)
        assert engine.dirty
    return engine


def _assert_is_prefix(bounded, unbounded, within, k):
    """``bounded`` is ``unbounded`` cut at ``<= within`` (ties at the k-th slot aside)."""
    expected = [n for n in unbounded.neighbors if n.distance <= within]
    assert bounded.distances() == [n.distance for n in expected]
    if len(expected) < k:
        # Fewer than k qualify: the bounded answer holds every one of them.
        assert bounded.record_ids() == [n.record_id for n in expected]
    else:
        # Records tied at the k-th distance may be picked differently.
        last = expected[-1].distance
        assert [n.record_id for n in bounded.neighbors if n.distance < last] == [
            n.record_id for n in expected if n.distance < last
        ]
    assert len(set(bounded.record_ids())) == len(bounded.neighbors)


class TestCeilingIsAPrefix:
    @pytest.mark.parametrize("dirty", (False, True), ids=("clean", "dirty"))
    @pytest.mark.parametrize("algorithm,aggregate,weighted", CELLS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 12),
        where=st.sampled_from(("twin", "record", "between", "below", "inf")),
        pick=st.integers(0, 10**6),
    )
    @settings(max_examples=15, deadline=None)
    def test_bounded_answer_is_the_unbounded_prefix(
        self, algorithm, aggregate, weighted, dirty, seed, k, where, pick
    ):
        engine = _engine(seed, dirty)
        rng = np.random.default_rng(seed + 1)
        group = rng.integers(0, 40, size=(int(rng.integers(1, 6)), 2)).astype(np.float64)
        weights = rng.uniform(0.5, 2.0, size=len(group)) if weighted else None
        spec = QuerySpec(
            group=group, k=k, aggregate=aggregate, weights=weights, algorithm=algorithm
        )
        unbounded = engine.execute(spec)
        # Every live record's distance, from the exhaustive scan.
        scan = engine.execute(
            spec.replace(algorithm="brute-force", k=len(engine.points))
        ).neighbors
        distances = sorted(n.distance for n in scan)
        if where == "twin":
            counts = {}
            for n in scan:
                counts[n.distance] = counts.get(n.distance, 0) + 1
            tied = sorted(d for d, count in counts.items() if count > 1)
            within = tied[pick % len(tied)] if tied else distances[pick % len(distances)]
        elif where == "record":
            within = distances[pick % len(distances)]
        elif where == "between":
            within = math.nextafter(distances[pick % len(distances)], -math.inf)
        elif where == "below":
            within = math.nextafter(distances[0], -math.inf)
        else:
            within = math.inf
        bounded = engine.execute(spec.replace(options={"within": within}))
        _assert_is_prefix(bounded, unbounded, within, k)
        if where == "below":
            assert bounded.neighbors == []

    @pytest.mark.parametrize("algorithm", ("mbm", "spm", "mqm", "best-first"))
    def test_a_ceiling_prunes_work(self, algorithm):
        """A bound at the true k-th distance costs no more than none; MBM
        (what sharded sub-queries plan to) saves distance computations.
        SPM consumes its centroid stream in the same order either way
        until ``k`` answers exist, so it saves nothing at this bound."""
        rng = np.random.default_rng(7)
        engine = GNNEngine(rng.uniform(0, 1000, size=(4000, 2)), capacity=16)
        spec = QuerySpec(group=rng.uniform(400, 600, size=(8, 2)), k=8, algorithm=algorithm)
        unbounded = engine.execute(spec)
        bounded = engine.execute(spec.replace(options={"within": unbounded.distances()[-1]}))
        assert bounded.distances() == unbounded.distances()
        assert bounded.cost.node_accesses <= unbounded.cost.node_accesses
        assert bounded.cost.distance_computations <= unbounded.cost.distance_computations
        if algorithm == "mbm":
            assert bounded.cost.distance_computations < unbounded.cost.distance_computations


class TestBatchedCeilings:
    def test_execute_many_answers_each_spec_under_its_own_bound(self):
        """Specs of one shape in one batch are each answered under their own bound."""
        rng = np.random.default_rng(11)
        engine = GNNEngine(rng.uniform(0, 1000, size=(2000, 2)), capacity=16)
        base = [
            QuerySpec(group=rng.uniform(0, 1000, size=(4, 2)), k=6, algorithm=algorithm)
            for algorithm in ("mbm", "mbm", "mbm", "brute-force", "brute-force")
        ]
        unbounded = [engine.execute(spec).distances() for spec in base]
        bounded = [
            spec.replace(options={"within": distances[i]})
            for i, (spec, distances) in enumerate(zip(base, unbounded))
        ]
        for i, result in enumerate(engine.execute_many(bounded)):
            assert result.distances() == unbounded[i][: i + 1]

    def test_each_plan_keeps_the_bound_of_the_spec_it_serves(self):
        engine = GNNEngine(np.zeros((1, 2)))
        first = QuerySpec(group=[[0.0, 0.0]], options={"within": 1.0})
        plan = engine.explain(first)
        other = engine.explain(first.replace(options={"within": 2.0}))
        assert other.options["within"] == 2.0
        assert plan.options["within"] == 1.0


class TestBestListCeiling:
    def test_a_record_exactly_at_within_enters(self):
        best = BestList(3, within=5.0)
        assert best.best_dist == math.nextafter(5.0, math.inf)
        assert best.offer(1, None, 5.0)
        assert not best.offer(2, None, math.nextafter(5.0, math.inf))
        assert best.best_dist == math.nextafter(5.0, math.inf)
        assert [n.record_id for n in best.neighbors()] == [1]

    def test_best_dist_is_the_kth_distance_once_full(self):
        best = BestList(2, within=5.0)
        best.offer(1, None, 4.0)
        best.offer(2, None, 3.0)
        assert best.best_dist == 4.0
        assert best.offer(3, None, 1.0)
        assert best.best_dist == 3.0

    def test_default_is_unbounded(self):
        best = BestList(1)
        assert best.best_dist == math.inf
        assert best.offer(1, None, 1e300)

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            BestList(1, within=math.nan)
