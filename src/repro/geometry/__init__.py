"""Geometric primitives used by every other subsystem.

The module exposes the small vocabulary that the paper's algorithms are
written in:

* :class:`~repro.geometry.mbr.MBR` — axis-aligned minimum bounding
  rectangles with the ``mindist`` metrics,
* distance helpers in :mod:`repro.geometry.distance` — point-to-point,
  point-to-group aggregate distances (validating wrappers),
* the vectorised kernel layer in :mod:`repro.geometry.kernels` — the
  array-at-a-time engine the wrappers and every hot path delegate to,
* the Hilbert space-filling curve in :mod:`repro.geometry.hilbert`, used
  to sort query points for locality (Sections 3.1, 4.2 and 4.3 of the
  paper).
"""

from repro.geometry import kernels
from repro.geometry.distance import (
    euclidean,
    group_distance,
    group_mindist,
    squared_euclidean,
)
from repro.geometry.hilbert import hilbert_sort
from repro.geometry.mbr import MBR
from repro.geometry.point import as_point, as_points

__all__ = [
    "MBR",
    "as_point",
    "as_points",
    "euclidean",
    "group_distance",
    "group_mindist",
    "hilbert_sort",
    "kernels",
    "squared_euclidean",
]
