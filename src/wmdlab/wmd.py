"""Word mover's distance between documents and batch distance matrices."""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingStore, cost_submatrix, load_scipy
from .errors import EmptySupport, InvalidInput, ParseError
from .ot_core import TransportPlan, TransportProblem, solve_transport
from .textrep import (
    NormScheme,
    SparseVector,
    VectorBlock,
    VectorMetric,
    Vocabulary,
    bow_vector,
    distance_row,
    normalize,
    tfidf_vector,
)
# unused here; perfbench/tracer.py rebinds it at this name
from .textrep import vector_distance  # noqa: F401

logger = logging.getLogger(__name__)

UNIFORM_COUNT = "uniform-count"
TFIDF_WEIGHTING = "tfidf"


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

    ``tokens`` maps document id to its (already vocabulary-filtered)
    token sequence. ``doc_freq``/``n_docs`` are corpus-level statistics
    used by the tfidf weightings.
    """

    tokens: Mapping[int, Sequence[str]]
    vocab: Vocabulary
    store: EmbeddingStore | None = None
    doc_freq: np.ndarray | None = None
    n_docs: int | None = None
    workers: int = 1


def make_measure(
    doc: Sequence[str],
    weighting: str,
    vocab: Vocabulary,
    doc_freq: np.ndarray | None = None,
    n_docs: int | None = None,
) -> DocumentMeasure:
    """Turn a token list into an L1-normalized measure over its support."""
    if weighting == UNIFORM_COUNT:
        vec, _ = bow_vector(doc, vocab)
    elif weighting == TFIDF_WEIGHTING:
        if doc_freq is None or n_docs is None:
            raise InvalidInput("tfidf weighting needs doc_freq and n_docs")
        vec = tfidf_vector(doc, vocab, doc_freq, n_docs)
    else:
        raise InvalidInput(f"unknown weighting {weighting!r}")
    if vec.nnz == 0:
        raise EmptySupport("document has no usable words")
    total = math.fsum(vec.values.tolist())
    words = tuple(vocab.words[i] for i in vec.ids.tolist())
    return DocumentMeasure(words=words, weights=vec.values / total)


def transport_plan(
    m1: DocumentMeasure, m2: DocumentMeasure, store: EmbeddingStore
) -> tuple[TransportPlan, np.ndarray]:
    """Optimal coupling between two document measures plus its cost matrix."""
    cost = cost_submatrix(store, m1.words, m2.words)
    plan = solve_transport(TransportProblem(m1.weights, m2.weights, cost))
    return plan, cost


def wmd_distance(
    m1: DocumentMeasure, m2: DocumentMeasure, store: EmbeddingStore
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
    reps: dict[int, object] = {}
    for doc_id in ids:
        doc = res.tokens[doc_id]
        if method.uses_transport:
            weighting = (UNIFORM_COUNT if method.kind == "wmd"
                         else TFIDF_WEIGHTING)
            try:
                reps[doc_id] = make_measure(doc, weighting, res.vocab,
                                            res.doc_freq, res.n_docs)
            except EmptySupport:
                reps[doc_id] = None
        else:
            if method.kind == "bow":
                vec, _ = bow_vector(doc, res.vocab)
            else:
                if res.doc_freq is None or res.n_docs is None:
                    raise InvalidInput("tfidf methods need doc_freq and n_docs")
                vec = tfidf_vector(doc, res.vocab, res.doc_freq, res.n_docs)
            if vec.nnz == 0 and method.norm is not NormScheme.NONE:
                reps[doc_id] = None
            else:
                reps[doc_id] = normalize(vec, method.norm)
    return reps


def _row_values(query_id: int, reps: Mapping, ref_ids: Sequence[int],
                method: Method, store, block: VectorBlock | None) -> np.ndarray:
    """One query's row: transport cells one by one, vector cells all at
    once from ``block`` (the reference vectors, in ``ref_ids`` order)."""
    a = reps[query_id]
    if a is None:
        return np.full(len(ref_ids), np.inf)
    transport = method.uses_transport
    out = (np.empty(len(ref_ids)) if transport
           else distance_row(a, block, method.metric))
    for j, ref_id in enumerate(ref_ids):
        b = reps[ref_id]
        if b is None:
            out[j] = np.inf
        elif query_id == ref_id:
            out[j] = 0.0
        elif transport:
            out[j] = wmd_distance(a, b, store)
    return out


def _init_worker(reps, ref_ids, method, store, block):
    _STATE["args"] = (reps, ref_ids, method, store, block)


def _worker_row(args):
    idx, query_id = args
    return idx, _row_values(query_id, *_STATE["args"])


def pairwise_distances(
    queries: Sequence[int],
    refs: Sequence[int],
    method: Method,
    resources: Resources,
) -> DistanceMatrix:
    """Distance matrix between query and reference documents.

    Rows are computed independently (optionally across processes); cells
    between a document and itself are 0 by definition, and documents with
    no usable representation produce +inf sentinel cells.
    """
    store = resources.store if method.uses_transport else None
    if method.uses_transport and store is None:
        raise InvalidInput(f"method {method.label} needs an embedding store")
    all_ids = list(dict.fromkeys(list(queries) + list(refs)))
    reps = representations(all_ids, method, resources)
    unusable = sorted(d for d, r in reps.items() if r is None)
    if unusable:
        logger.warning("%s: %d unusable document(s): %s", method.label,
                       len(unusable), unusable[:10])

    block = None
    if not method.uses_transport:
        empty = SparseVector(len(resources.vocab), [], [])
        block = VectorBlock([empty if reps[r] is None else reps[r]
                             for r in refs], len(resources.vocab))

    values = np.empty((len(queries), len(refs)))
    workers = max(1, int(resources.workers))
    if workers == 1 or len(queries) < 2:
        for i, q in enumerate(queries):
            values[i] = _row_values(q, reps, refs, method, store, block)
    else:
        if method.uses_transport:
            load_scipy()  # once here, not once in every forked worker
        tasks = list(enumerate(queries))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(reps, tuple(refs), method, store, block),
        ) as pool:
            for idx, row in pool.map(_worker_row, tasks,
                                     chunksize=max(1, len(tasks) // (4 * workers))):
                values[idx] = row
    return DistanceMatrix(tuple(queries), tuple(refs), values)


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
