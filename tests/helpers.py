"""Dense views of sparse library objects, for assertions in the tests."""

from __future__ import annotations

import numpy as np

from wmdlab.ot_core import TransportPlan
from wmdlab.textrep import SparseVector


def row_sums(plan: TransportPlan, n_rows: int) -> np.ndarray:
    out = np.zeros(n_rows)
    for i, _, m in plan.entries:
        out[i] += m
    return out


def col_sums(plan: TransportPlan, n_cols: int) -> np.ndarray:
    out = np.zeros(n_cols)
    for _, j, m in plan.entries:
        out[j] += m
    return out


def plan_to_dense(plan: TransportPlan, n_rows: int, n_cols: int) -> np.ndarray:
    out = np.zeros((n_rows, n_cols))
    for i, j, m in plan.entries:
        out[i, j] = m
    return out


def vector_to_dense(v: SparseVector) -> np.ndarray:
    out = np.zeros(v.dim)
    out[v.ids] = v.values
    return out
