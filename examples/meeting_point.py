"""Meeting-point planning for a distributed team (GIS / mobile computing).

The paper's headline application: ``Q`` is a set of user locations, ``P``
is a database of facilities, and the GNN query returns the facility that
minimises the total travel distance of all users.  This example scales
the scenario up — a whole department spread over a metropolitan area —
answering the day's meeting requests as one ``execute_many`` batch, and
shows how the three memory-resident algorithms behave as the group
grows, mirroring Figure 5.1 of the paper.

Run with::

    python examples/meeting_point.py
"""

from __future__ import annotations

import numpy as np

from repro import GNNEngine, QuerySpec


def print_meeting(attendees: np.ndarray, result) -> None:
    """Print the best venues for one planned meeting."""
    print(f"  attendees: {len(attendees):4d}   best venues:")
    for neighbor in result.neighbors:
        x, y = neighbor.point
        average = neighbor.distance / len(attendees)
        print(
            f"    venue #{neighbor.record_id:6d} at ({x:8.1f}, {y:8.1f}) — "
            f"total {neighbor.distance:10.1f}, average per attendee {average:7.1f}"
        )


def compare_algorithms(engine: GNNEngine, attendees: np.ndarray) -> None:
    """Show the cost of the three algorithms on the same query group."""
    print(f"  cost comparison for a group of {len(attendees)} attendees:")
    for algorithm in ("mqm", "spm", "mbm"):
        spec = QuerySpec(group=attendees, k=8, algorithm=algorithm)
        outcome = engine.execute(spec)
        print(
            f"    {algorithm.upper():4s}: {outcome.cost.node_accesses:6d} node accesses, "
            f"{outcome.cost.distance_computations:8d} distance computations, "
            f"{outcome.cost.cpu_time * 1000:8.2f} ms"
        )


def main() -> None:
    rng = np.random.default_rng(7)

    # Candidate venues: a clustered, city-like distribution (the PP-like
    # generator mirrors the "populated places" dataset of the paper).
    from repro.datasets import pp_like

    venues = pp_like(count=20_000, seed=3)
    engine = GNNEngine(venues, buffer_pages=512)
    workspace_low = venues.min(axis=0)
    workspace_high = venues.max(axis=0)

    print("Meeting-point planning over", len(venues), "candidate venues")
    print()

    # The day's meeting requests, answered as ONE batch: execute_many
    # runs them in one read scope of the index, so an R-tree node two
    # meetings both need is read (and buffered) once.
    groups = []
    for group_size in (3, 8, 5, 4, 6):
        center = rng.uniform(workspace_low, workspace_high)
        spread = 0.05 * (workspace_high - workspace_low)
        groups.append(rng.normal(loc=center, scale=spread, size=(group_size, 2)))
    specs = [QuerySpec(group=group, k=3, label=f"meeting-{i}") for i, group in enumerate(groups)]
    results = engine.execute_many(specs)
    for attendees, result in zip(groups, results):
        print_meeting(attendees, result)
        print()

    # Department offsite: hundreds of attendees.  MQM degrades sharply with
    # the group size while SPM and MBM stay flat — the effect behind
    # Figure 5.1 of the paper.
    for group_size in (16, 64, 256):
        center = rng.uniform(workspace_low, workspace_high)
        spread = 0.1 * (workspace_high - workspace_low)
        attendees = rng.normal(loc=center, scale=spread, size=(group_size, 2))
        compare_algorithms(engine, attendees)
        print()


if __name__ == "__main__":
    main()
