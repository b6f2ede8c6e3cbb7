"""Word mover's distance between documents and batch distance matrices."""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingStore, WordDistances, cost_submatrix
from .errors import EmptySupport, InvalidInput, ParseError
from .ot_core import TransportPlan, TransportProblem, solve_transport
from .textrep import (
    NormScheme,
    SparseVector,
    VectorBlock,
    VectorMetric,
    Vocabulary,
    distance_row,
    normalize,
    tfidf_vector,
)
# unused here; perfbench/tracer.py rebinds them at these names
from .textrep import bow_vector, vector_distance  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DocumentMeasure:
    """A document as a probability distribution over its support words."""

    words: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.words) != weights.size:
            raise InvalidInput("words and weights lengths differ")
        if len(set(self.words)) != len(self.words):
            raise InvalidInput("support words must be unique")
        if weights.size == 0:
            raise EmptySupport("measure has no support")
        if not np.all(np.isfinite(weights)) or not np.all(weights > 0):
            raise InvalidInput("weights must be finite and > 0")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > 1e-9:
            raise InvalidInput(f"weights sum to {total!r}, expected 1")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class Method:
    """A document-distance method: transport-based or a vector baseline."""

    kind: str  # 'wmd' | 'wmd-tfidf' | 'bow' | 'tfidf'
    norm: NormScheme | None = None
    metric: VectorMetric | None = None

    def __post_init__(self):
        if self.kind in ("wmd", "wmd-tfidf"):
            if self.norm is not None or self.metric is not None:
                raise InvalidInput(f"{self.kind} takes no norm/metric")
        elif self.kind in ("bow", "tfidf"):
            if self.norm is None or self.metric is None:
                raise InvalidInput(f"{self.kind} requires a norm and a metric")
        else:
            raise InvalidInput(f"unknown method kind {self.kind!r}")

    @property
    def uses_transport(self) -> bool:
        return self.kind in ("wmd", "wmd-tfidf")

    @property
    def label(self) -> str:
        if self.uses_transport:
            return self.kind
        return f"{self.kind}({self.norm.value},{self.metric.value})"

    @classmethod
    def parse(cls, spec: str) -> "Method":
        """Parse e.g. ``wmd``, ``bow(l1,l1)``, ``tfidf(none,l2)``; a bare
        ``bow`` or ``tfidf`` means ``(l1,l1)``."""
        spec = spec.strip().lower()
        if spec in ("wmd", "wmd-tfidf"):
            return cls(spec)
        kind, sep, rest = spec.partition("(")
        if kind not in ("bow", "tfidf"):
            raise InvalidInput(f"unknown method {spec!r}")
        if sep:
            if not rest.endswith(")"):
                raise InvalidInput(f"unbalanced parentheses in {spec!r}")
            parts = [p.strip() for p in rest[:-1].split(",")]
            if len(parts) != 2:
                raise InvalidInput(f"expected (norm,metric) in {spec!r}")
            norm_s, metric_s = parts
        else:
            norm_s, metric_s = "l1", "l1"
        try:
            return cls(kind, NormScheme(norm_s), VectorMetric(metric_s))
        except ValueError as exc:
            raise InvalidInput(f"bad norm/metric in {spec!r}: {exc}") from None


@dataclass(frozen=True)
class DistanceMatrix:
    """Distances from each query document to each reference document.

    Cells are finite and nonnegative, except for a +inf sentinel marking
    documents unusable under the method: their rows and columns are +inf
    throughout, the diagonal included.
    """

    row_ids: tuple[int, ...]
    col_ids: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.row_ids), len(self.col_ids)):
            raise InvalidInput(
                f"values shape {values.shape} does not match ids "
                f"({len(self.row_ids)}, {len(self.col_ids)})"
            )
        if np.any(np.isnan(values)) or np.any(values < 0):
            raise InvalidInput("distances must be >= 0 and not NaN")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def submatrix(self, row_ids: Sequence[int],
                  col_ids: Sequence[int]) -> "DistanceMatrix":
        rpos = {d: i for i, d in enumerate(self.row_ids)}
        cpos = {d: j for j, d in enumerate(self.col_ids)}
        ri = [rpos[d] for d in row_ids]
        ci = [cpos[d] for d in col_ids]
        return DistanceMatrix(tuple(row_ids), tuple(col_ids),
                              self.values[np.ix_(ri, ci)].copy())


@dataclass
class Resources:
    """Shared inputs for batch distance computation.

    ``counts`` maps document id to its count vector over ``vocab``.
    ``doc_freq``/``n_docs`` are corpus-level statistics used by the tfidf
    weightings. ``workers`` processes solve the rows of a transport matrix;
    BOW/TF-IDF matrices are computed in the calling process.
    """

    counts: Mapping[int, SparseVector]
    vocab: Vocabulary
    store: EmbeddingStore | None = None
    doc_freq: np.ndarray | None = None
    n_docs: int | None = None
    workers: int = 1


def make_measure(vec: SparseVector, vocab: Vocabulary) -> DocumentMeasure:
    """The L1-normalized measure of a count or TF-IDF vector over its
    support words."""
    if vec.nnz == 0:
        raise EmptySupport("document has no usable words")
    vec = normalize(vec, NormScheme.L1)
    words = tuple(vocab.words[i] for i in vec.ids.tolist())
    return DocumentMeasure(words=words, weights=vec.values)


def transport_plan(
    m1: DocumentMeasure, m2: DocumentMeasure,
    store: EmbeddingStore | WordDistances,
) -> tuple[TransportPlan, np.ndarray]:
    """Optimal coupling between two document measures plus its cost matrix.

    ``store`` gives the word distances: an embedding store, or a block of
    distances covering both documents' words."""
    cost = cost_submatrix(store, m1.words, m2.words)
    plan = solve_transport(TransportProblem(m1.weights, m2.weights, cost))
    return plan, cost


def wmd_distance(
    m1: DocumentMeasure, m2: DocumentMeasure,
    store: EmbeddingStore | WordDistances,
) -> float:
    """Minimum total embedding distance to move one document onto the other."""
    plan, _ = transport_plan(m1, m2, store)
    return plan.objective


# -- batch computation --------------------------------------------------------

_STATE: dict = {}


def representations(ids: Sequence[int], method: Method,
                    res: Resources) -> dict[int, object]:
    """Each document's representation under ``method``: its measure for the
    transport methods, its normalized vector for the others, or None when
    the document is unusable (no support, or an empty vector that the norm
    cannot scale)."""
    tfidf = method.kind in ("tfidf", "wmd-tfidf")
    if tfidf and (res.doc_freq is None or res.n_docs is None):
        raise InvalidInput("tfidf methods need doc_freq and n_docs")
    reps: dict[int, object] = {}
    for doc_id in ids:
        vec = res.counts[doc_id]
        if tfidf:
            vec = tfidf_vector(vec, res.doc_freq, res.n_docs)
        # a transport method has no norm: an empty measure is unusable too
        if vec.nnz == 0 and method.norm is not NormScheme.NONE:
            reps[doc_id] = None
        elif method.uses_transport:
            reps[doc_id] = make_measure(vec, res.vocab)
        else:
            reps[doc_id] = normalize(vec, method.norm)
    return reps


def _vector_rows(queries: Sequence[int], refs: Sequence[int], reps: Mapping,
                 metric: VectorMetric, dim: int) -> np.ndarray:
    """BOW/TF-IDF cells a query row at a time, +inf where either document is
    unusable; a vector's distance to itself is already an exact 0.0."""
    cols = [j for j, r in enumerate(refs) if reps[r] is not None]
    block = VectorBlock([reps[refs[j]] for j in cols], dim)
    values = np.full((len(queries), len(refs)), np.inf)
    for i, q in enumerate(queries):
        if reps[q] is not None:
            values[i, cols] = distance_row(reps[q], block, metric)
    return values


def _row_values(query_id: int, reps: Mapping, ref_ids: Sequence[int],
                store: EmbeddingStore) -> np.ndarray:
    """One query's row of a transport matrix: +inf for an unusable query or
    reference, 0.0 on a document against itself, the WMD elsewhere. Every
    cost matrix is a slice of the store's table or, beyond its bound, of one
    block: the query's words x the words of the row's references."""
    a = reps[query_id]
    out = np.full(len(ref_ids), np.inf)
    if a is None:
        return out
    cells = []
    for j, ref_id in enumerate(ref_ids):
        if ref_id == query_id:
            out[j] = 0.0
        elif reps[ref_id] is not None:
            cells.append((j, reps[ref_id]))
    costs = store.distances(a.words, [w for _, b in cells for w in b.words])
    for j, b in cells:
        out[j] = wmd_distance(a, b, costs)
    return out


def _init_worker(reps, ref_ids, store):
    _STATE["args"] = (reps, ref_ids, store)


def _worker_row(query_id):
    return _row_values(query_id, *_STATE["args"])


def pairwise_distances(
    queries: Sequence[int],
    refs: Sequence[int],
    method: Method,
    resources: Resources,
) -> DistanceMatrix:
    """Distance matrix between query and reference documents.

    BOW/TF-IDF matrices are computed in the calling process, transport rows
    by ``resources.workers`` processes. Self cells are 0; documents with no
    usable representation produce +inf sentinel cells.
    """
    store = resources.store
    if method.uses_transport and store is None:
        raise InvalidInput(f"method {method.label} needs an embedding store")
    all_ids = list(dict.fromkeys(list(queries) + list(refs)))
    reps = representations(all_ids, method, resources)
    unusable = sorted(d for d, r in reps.items() if r is None)
    if unusable:
        logger.warning("%s: %d unusable document(s): %s", method.label,
                       len(unusable), unusable[:10])
    workers = max(1, int(resources.workers))
    if not method.uses_transport:
        values = _vector_rows(queries, refs, reps, method.metric,
                              len(resources.vocab))
    elif workers == 1 or len(queries) < 2:
        values = [_row_values(q, reps, refs, store) for q in queries]
    else:
        store.table()  # built once here, so the forked workers share it
        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=(reps, tuple(refs), store)) as pool:
            values = list(pool.map(_worker_row, queries, chunksize=max(
                1, len(queries) // (4 * workers))))
    return DistanceMatrix(tuple(queries), tuple(refs),
                          np.reshape(values, (len(queries), len(refs))))


# -- cache file format ---------------------------------------------------------


def write_distance_matrix(dm: DistanceMatrix, path: str) -> None:
    """Save the values as one float64 ``.npy`` array. The ids are not
    stored: the cache key that names the file covers them."""
    with open(path, "wb") as fh:
        np.save(fh, dm.values, allow_pickle=False)


def read_distance_matrix(path: str, row_ids: Sequence[int],
                         col_ids: Sequence[int]) -> DistanceMatrix:
    """Load a matrix saved by ``write_distance_matrix`` for these ids."""
    with open(path, "rb") as fh:
        try:
            values = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ParseError(f"not a .npy array: {exc}") from None
        # an .npz gives an NpzFile, which is only valid while fh is open
        if not isinstance(values, np.ndarray) or values.dtype != np.float64:
            raise ParseError("not a float64 array")
    try:
        return DistanceMatrix(tuple(row_ids), tuple(col_ids), values)
    except InvalidInput as exc:
        raise ParseError(str(exc)) from None
