"""What a batch must read: the union of its members' solo read sets."""

from __future__ import annotations


def union_of_solo_reads(flat, run, items) -> int:
    """How many distinct nodes of ``flat`` the calls ``run(item)`` read, each alone.

    Each call gets a read scope of its own, which collects its read set
    (so an MQM run's repeated reads of one node count once); a batch of
    the same queries in one scope must charge exactly this many node
    accesses.
    """
    union = set()
    for item in items:
        with flat.read_scope() as read:
            run(item)
        union |= read
    return len(union)
