"""The one counter protocol, and the mapped-page counters built on it.

Every counter class in the package — :class:`MappedPageCounters` here,
:class:`~repro.core.types.QueryCost`,
:class:`~repro.serve.stats.ServingCounters` and
:class:`~repro.shard.coordinator.CoordinatorStats` — is a dataclass of
``int``/``float`` fields plus its ``record_*`` methods, and inherits
``snapshot/reset/merge/__add__`` from :class:`CounterSet`, which
derives them once from the field declarations.  Hot paths keep
incrementing plain attributes; the protocol only runs per query, per
batch or per scrape.

Counting is additive all the way up.  A query charges its own
:class:`~repro.core.types.QueryCost` where the work happens; that
record is the only per-query counter (an index or a query file keeps
no running total).  A worker sums its batch's result costs into its
:class:`~repro.serve.stats.ServingCounters`, and a shard coordinator
its sub-queries' into :class:`~repro.shard.coordinator.CoordinatorStats`.
No cost is taken as a before/after difference of shared counters, so
queries running at once never charge each other's work.  Snapshots are
plain numeric dictionaries, so they cross process boundaries as they
are: workers ship them to the server, shard nodes to the coordinator,
and :meth:`CounterSet.merge` folds them back together in any order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import Mapping

#: Default OS page size used to report memory-mapped extents.
OS_PAGE_BYTES = 4096


@functools.cache
def _counter_defaults(cls) -> dict[str, float]:
    """``{name: default}`` of a counter dataclass's ``int``/``float`` fields."""
    return {
        spec.name: spec.default
        for spec in fields(cls)
        if isinstance(spec.default, (int, float))
    }


class CounterSet:
    """Mixin giving a counter dataclass its snapshot/merge protocol.

    The counters are the dataclass's ``int``/``float`` fields; any other
    field (a label such as ``QueryCost.algorithm``) is left alone by
    every method.  Fields named in :attr:`MAXIMA` are high-water marks:
    they merge by ``max`` where every other counter sums.  A subclass
    nesting another counter set (``CoordinatorStats.cost``) extends
    :meth:`snapshot` and :meth:`merge` to carry it.
    """

    #: Names of the fields that merge by maximum instead of by sum.
    MAXIMA: tuple[str, ...] = ()

    def snapshot(self) -> dict:
        """The counters as a plain (picklable, mergeable) dictionary."""
        return {name: getattr(self, name) for name in _counter_defaults(type(self))}

    def reset(self) -> None:
        """Restore every counter to its declared default."""
        for name, default in _counter_defaults(type(self)).items():
            setattr(self, name, default)

    def merge(self, other):
        """Fold another counter set (or a snapshot dictionary) into this one.

        Keys this class does not declare are ignored and keys the
        snapshot lacks count as zero, so heterogeneous snapshots fold
        safely — a ``QueryCost`` into a ``ServingCounters``, say.
        """
        snapshot = other if isinstance(other, Mapping) else other.snapshot()
        for name, default in _counter_defaults(type(self)).items():
            if name not in snapshot:
                continue
            value = type(default)(snapshot[name])
            current = getattr(self, name)
            setattr(
                self, name, max(current, value) if name in self.MAXIMA else current + value
            )
        return self

    def __add__(self, other):
        return type(self)().merge(self).merge(other)


@dataclass
class MappedPageCounters(CounterSet):
    """Extent of the arrays a memory-mapped flat snapshot spans.

    A ``FlatRTree`` opened with ``mmap_mode="r"`` copies nothing: the OS
    pages array data in on demand.  These counters record how much
    *could* be paged in — the number of arrays mapped, their total bytes
    and the OS pages (:data:`OS_PAGE_BYTES`) they span — so benchmarks
    and reports can put logical node accesses next to the physical
    footprint of the index.
    """

    arrays_mapped: int = 0
    bytes_mapped: int = 0
    pages_mapped: int = 0

    def record_mapped(self, nbytes: int, page_bytes: int = OS_PAGE_BYTES) -> None:
        """Charge one mapped array of ``nbytes`` bytes."""
        nbytes = int(nbytes)
        self.arrays_mapped += 1
        self.bytes_mapped += nbytes
        self.pages_mapped += -(-nbytes // page_bytes)
