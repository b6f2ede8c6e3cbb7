"""Dense views of sparse library objects, and broken cache files, for the
tests."""

from __future__ import annotations

import io
import pickle

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


def _npy(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def _npz(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, values=array)
    return buf.getvalue()


def corrupt_cache_files(values: np.ndarray) -> dict[str, bytes]:
    """Files that must not load as the cached float64 matrix ``values``
    (at least 2 x 2, no NaN or negative cell), by what is wrong with them."""
    values = np.asarray(values, dtype=np.float64)
    nan, negative = values.copy(), values.copy()
    nan[0, 1] = np.nan
    negative[1, 0] = -0.5
    return {
        "empty": b"",
        "text": b"2 2\n0 1\n0 1\n1.0 2.0\n3.0 x\n",
        "truncated": _npy(values)[:-3],
        "truncated-header": _npy(values)[:20],
        "pickled-object-array": _npy(values.astype(object)),
        "pickle": pickle.dumps(values.tolist()),
        "float32": _npy(values.astype(np.float32)),
        "wrong-shape": _npy(values[:, :-1].copy()),
        "npz": _npz(values),
        "nan": _npy(nan),
        "negative": _npy(negative),
    }
