"""Benchmark scales.

The paper runs on a 2.4 GHz Pentium with C++ code, 24k/195k-point real
datasets and 100-query workloads.  A pure-Python reproduction cannot run
that full matrix in CI time, so the harness defines three scales:

* ``smoke`` — the sizes the test suite runs: every experiment, in a
  few seconds together.
* ``quick`` — the default for ``python -m repro.bench``; large enough
  for the figures' qualitative shape (orderings, growth trends,
  crossovers) to be clearly visible.
* ``paper`` — the paper's cardinalities and workload sizes.  Measured:
  ``fig5_1_pp`` takes 212 s (24,493 points, 100 queries x 5 cardinalities
  x 3 algorithms), 166 s of it MQM at n=1024; the disk figures with an
  uncapped GCP have not been timed.

Absolute numbers differ from the paper at every scale (different
hardware, language and datasets); only shapes are compared, by
``benchmarks/test_figures.py``, which asserts each figure's finding on
its ``smoke`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchScale:
    """Sizing knobs shared by every experiment at one scale."""

    name: str
    pp_size: int
    ts_size: int
    queries_per_setting: int
    cardinalities: tuple[int, ...]
    mbr_fractions: tuple[float, ...]
    k_values: tuple[int, ...]
    overlap_fractions: tuple[float, ...]
    node_capacity: int = 50
    #: Disk-resident settings: pages per block (block size = pages * 50 points).
    block_pages: int = 200
    #: Safety cap on emitted closest pairs for GCP (None = uncapped).
    gcp_max_pairs: int | None = None
    #: Default k for the experiments that keep k fixed (the paper uses 8).
    fixed_k: int = 8
    #: Default n for the experiments that keep n fixed (the paper uses 64).
    fixed_n: int = 64
    #: Default MBR fraction for the experiments that keep M fixed (8%).
    fixed_mbr_fraction: float = 0.08


_SCALES: dict[str, BenchScale] = {
    "smoke": BenchScale(
        name="smoke",
        pp_size=1_200,
        ts_size=5_000,
        queries_per_setting=2,
        cardinalities=(4, 16, 64),
        mbr_fractions=(0.02, 0.08, 0.32),
        k_values=(1, 8, 32),
        overlap_fractions=(0.0, 0.5, 1.0),
        block_pages=6,
        gcp_max_pairs=50_000,
        fixed_n=16,
    ),
    "quick": BenchScale(
        name="quick",
        pp_size=4_000,
        ts_size=16_000,
        queries_per_setting=4,
        cardinalities=(4, 16, 64, 256, 1024),
        mbr_fractions=(0.02, 0.04, 0.08, 0.16, 0.32),
        k_values=(1, 2, 4, 8, 16, 32),
        overlap_fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
        block_pages=20,
        gcp_max_pairs=500_000,
    ),
    "paper": BenchScale(
        name="paper",
        pp_size=24_493,
        ts_size=194_971,
        queries_per_setting=100,
        cardinalities=(4, 16, 64, 256, 1024),
        mbr_fractions=(0.02, 0.04, 0.08, 0.16, 0.32),
        k_values=(1, 2, 4, 8, 16, 32),
        overlap_fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
        block_pages=200,
        gcp_max_pairs=None,
    ),
}


def get_scale(name: str = "quick") -> BenchScale:
    """Return the named scale (``smoke``, ``quick`` or ``paper``)."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; expected one of {sorted(_SCALES)}") from None


def available_scales() -> list[str]:
    """Names of the defined scales."""
    return sorted(_SCALES)
