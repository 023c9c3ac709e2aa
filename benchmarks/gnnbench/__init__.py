"""gnnbench: the repository's performance benchmark.

Four workloads at a cardinality where the R-tree matters
(``pp_like(100000)``), end-to-end metrics with regression bounds,
per-layer probes timed from outside the program, and a traced run.
``run.py`` is the one entry point; ``README.md`` explains the design.
"""
