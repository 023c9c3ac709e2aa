"""Disk simulation: page I/O accounting, an LRU buffer and paged point files.

The paper's disk-resident algorithms (Section 4) assume the query set
``Q`` lives on disk, Hilbert-sorted and read in memory-sized blocks.  No
real disk is involved in this reproduction: a :class:`PointFile` keeps
the sorted file as one array, and each block read hands out views of its
rows while charging the block and its pages to the reading query's cost
record, so the experiments can report I/O alongside R-tree node
accesses.
"""

from repro.storage.atomicio import atomic_output, fsync_directory, write_json_atomic
from repro.storage.buffer import LRUBuffer
from repro.storage.counters import MappedPageCounters
from repro.storage.generations import GenerationStore, snapshot_name
from repro.storage.pointfile import PointFile, QueryBlock
from repro.storage.wal import WalCorruptionError, WalRecord, WalScan, WriteAheadLog

__all__ = [
    "GenerationStore",
    "LRUBuffer",
    "MappedPageCounters",
    "PointFile",
    "QueryBlock",
    "WalCorruptionError",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "atomic_output",
    "fsync_directory",
    "snapshot_name",
    "write_json_atomic",
]
