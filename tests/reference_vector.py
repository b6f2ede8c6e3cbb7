"""The pair-by-pair BOW/TF-IDF distance that the batched kernel
``textrep.vector_distances`` replaced, kept verbatim as a test-only
reference: align the two supports on their union, then ``math.fsum`` the
per-id terms."""

from __future__ import annotations

import math

import numpy as np

from wmdlab.textrep import SparseVector, VectorMetric


def _aligned(a: SparseVector, b: SparseVector) -> tuple[np.ndarray, np.ndarray]:
    ids = np.union1d(a.ids, b.ids)
    av = np.zeros(ids.size)
    bv = np.zeros(ids.size)
    av[np.searchsorted(ids, a.ids)] = a.values
    bv[np.searchsorted(ids, b.ids)] = b.values
    return av, bv


def reference_distance(a: SparseVector, b: SparseVector,
                       metric: VectorMetric) -> float:
    av, bv = _aligned(a, b)
    diff = av - bv
    if metric is VectorMetric.L1:
        return math.fsum(np.abs(diff).tolist())
    return math.sqrt(math.fsum((diff * diff).tolist()))
