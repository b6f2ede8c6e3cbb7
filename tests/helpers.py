"""Sparse vectors from pairs and dense views of sparse library objects,
count vectors of token lists, embedding rows by word, broken cache files,
the pair store's cell layout, the dual certificate of a transport plan,
and spies on the files modules open, for the tests."""

from __future__ import annotations

import io
import math
import pickle
from typing import Iterable, Mapping, Sequence

import numpy as np

from wmdlab.embeddings import EmbeddingStore
from wmdlab.ot_core import TransportPlan, TransportProblem
from wmdlab.textrep import SparseVector, Vocabulary, bow_vector


def from_pairs(dim: int, pairs: Iterable[tuple[int, float]]) -> SparseVector:
    pairs = sorted((int(i), float(v)) for i, v in pairs if v != 0.0)
    ids = np.array([i for i, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    return SparseVector(dim, ids, values)


def entries(v: SparseVector) -> list[tuple[int, float]]:
    return list(zip(v.ids.tolist(), v.values.tolist()))


def vector_sum(v: SparseVector) -> float:
    return math.fsum(v.values.tolist())


def counts_of(tokens: Mapping[int, Sequence[str]],
              vocab: Vocabulary) -> dict[int, SparseVector]:
    """Each document's count vector, as ``Resources.counts`` holds it."""
    return {i: bow_vector(doc, vocab) for i, doc in tokens.items()}


def word_vector(store: EmbeddingStore, token: str) -> np.ndarray:
    return store.matrix[store.index[token]]


def _spy_on_open(monkeypatch, modules, record) -> None:
    """Call ``record(file, file object)`` for each file ``modules`` open
    from now on."""
    def spy(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        record(file, fh)
        return fh

    for module in modules:
        monkeypatch.setattr(module, "open", spy, raising=False)


def opened_paths(monkeypatch, *modules) -> list[str]:
    """The paths ``modules`` open from now on, in order."""
    opened = []
    _spy_on_open(monkeypatch, modules,
                 lambda file, fh: opened.append(str(file)))
    return opened


def opened_files(monkeypatch, *modules) -> list:
    """The file objects ``modules`` open from now on, in order."""
    opened = []
    _spy_on_open(monkeypatch, modules, lambda file, fh: opened.append(fh))
    return opened


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


def certify(problem: TransportProblem, plan: TransportPlan) -> None:
    """Assert that ``plan`` is optimal for ``problem`` by its own duals u, v.

    The plan meets the marginals; u_i + v_j <= c_ij on every cell, with
    equality on the support; and the objective equals u . supply +
    v . demand. Tolerances scale with the largest cost or potential.
    """
    ns, nt = problem.cost.shape
    u, v = plan.row_potentials, plan.col_potentials
    assert u.shape == (ns,) and v.shape == (nt,)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    assert np.all(np.abs(row_sums(plan, ns) - problem.supply) <= 1e-9)
    assert np.all(np.abs(col_sums(plan, nt) - problem.demand) <= 1e-9)
    scale = max(1.0, float(np.abs(problem.cost).max(initial=0.0)),
                float(np.abs(u).max(initial=0.0)),
                float(np.abs(v).max(initial=0.0)))
    tol = 1e-12 * scale
    slack = problem.cost - u[:, None] - v[None, :]
    assert slack.min(initial=0.0) >= -tol
    for i, j, _ in plan.entries:
        assert abs(slack[i, j]) <= tol
    dual = math.fsum((u * problem.supply).tolist()
                     + (v * problem.demand).tolist())
    assert math.isclose(plan.objective, dual, rel_tol=1e-12, abs_tol=tol)


def plan_to_dense(plan: TransportPlan, n_rows: int, n_cols: int) -> np.ndarray:
    out = np.zeros((n_rows, n_cols))
    for i, j, m in plan.entries:
        out[i, j] = m
    return out


def vector_to_dense(v: SparseVector) -> np.ndarray:
    out = np.zeros(v.dim)
    out[v.ids] = v.values
    return out


def npy_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def npz_bytes(array: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, values=array)
    return buf.getvalue()


def condensed_index(n: int, i: int, j: int) -> int:
    """Where a pair store over n ids keeps the pair of the ids at positions
    i and j, in either order: the upper triangle of the n x n matrix, row
    by row, puts (i, j), i < j, at i (2n - i - 1) / 2 + j - i - 1."""
    i, j = min(i, j), max(i, j)
    assert 0 <= i < j < n
    return i * (2 * n - i - 1) // 2 + j - i - 1


def store_file(values: np.ndarray) -> np.ndarray:
    """The uint8 array a pair-store file holds for the condensed float64
    ``values``, built from the layout: the cell count as a little-endian
    uint64, the presence bits of the cells (a cell is present when it is
    not NaN), then the present values as little-endian float64."""
    present = ~np.isnan(values)
    count = np.array([values.size], "<u8").view(np.uint8)
    return np.concatenate([count, np.packbits(present),
                           values[present].astype("<f8").view(np.uint8)])


def corrupt_cache_files(values: np.ndarray) -> dict[str, bytes]:
    """Files that must not load as the cached pair store ``values`` (a
    float64 condensed array of at least 2 cells), by what is wrong with
    them. A NaN cell is a pair not computed yet and a finite negative one
    minus a lower bound, not errors."""
    values = np.asarray(values, dtype=np.float64)
    data = store_file(values)
    minus_inf = values.copy()
    minus_inf[0] = -np.inf
    nan_value = data.copy()  # the first present cell's value made NaN
    n_bits = -(-values.size // 8)
    nan_value[8 + n_bits:16 + n_bits] = np.array([np.nan], "<f8").view(np.uint8)
    return {
        "empty": b"",
        "text": b"2 2\n0 1\n0 1\n1.0 2.0\n3.0 x\n",
        "truncated": npy_bytes(data)[:-3],
        "truncated-header": npy_bytes(data)[:20],
        "pickled-object-array": npy_bytes(data.astype(object)),
        "pickle": pickle.dumps(values.tolist()),
        "float32": npy_bytes(values.astype(np.float32)),
        "wrong-shape": npy_bytes(data[None, :].copy()),
        # one present cell more
        "wrong-length": npy_bytes(store_file(np.append(values, 1.0))),
        # the cells of a store twice the size: bits and values that fit
        "wrong-cell-count": npy_bytes(np.concatenate([
            np.array([2 * values.size], "<u8").view(np.uint8),
            data[8:]])),
        "npz": npz_bytes(data),
        "negative-inf": npy_bytes(store_file(minus_inf)),
        # the dense layout of versions before 0.5.0
        "dense-float64": npy_bytes(values),
        # the file's bytes, zero-padded to whole values, under a float64
        # header
        "float64-bytes": npy_bytes(np.frombuffer(
            data.tobytes() + bytes(-data.size % 8), "<f8")),
        "payload-short": npy_bytes(data[:-8]),
        "payload-long": npy_bytes(np.append(data, data[-8:])),
        "nan-value": npy_bytes(nan_value),
    }
