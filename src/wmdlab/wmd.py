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
    VectorMetric,
    Vocabulary,
    normalize,
    tfidf_vector,
    vector_distances,
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
    weightings. ``workers`` processes solve the pairs of a transport matrix;
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


def _vector_cells(queries: Sequence[int], refs: Sequence[int],
                  rows: np.ndarray, cols: np.ndarray, reps: Mapping,
                  metric: VectorMetric) -> np.ndarray:
    """The BOW/TF-IDF distance of each cell ``(queries[rows[k]],
    refs[cols[k]])`` of usable documents, all in one call of the kernel."""
    docs = [d for d, rep in reps.items() if rep is not None]
    at = {d: i for i, d in enumerate(docs)}
    return vector_distances(
        [reps[d] for d in docs],
        np.array([at.get(d, -1) for d in queries], dtype=np.int64)[rows],
        np.array([at.get(d, -1) for d in refs], dtype=np.int64)[cols], metric)


def _row_values(query_id: int, reps: Mapping, ref_ids: Sequence[int],
                costs: EmbeddingStore | WordDistances) -> np.ndarray:
    """The transport distances from one document to each of ``ref_ids``,
    all usable and other than it. Every cost matrix is a slice of
    ``costs``, the table of ``pair_distances``, or, given the store, of one
    block: the query's words x the words of its references."""
    a = reps[query_id]
    if isinstance(costs, EmbeddingStore):
        costs = costs.distances(a.words,
                                [w for r in ref_ids for w in reps[r].words])
    return np.array([wmd_distance(a, reps[r], costs) for r in ref_ids])


def _init_worker(reps, costs):
    _STATE["args"] = (reps, costs)


def _worker_row(task):
    reps, costs = _STATE["args"]
    return _row_values(task[0], reps, task[1], costs)


# The most bytes of the one word x word table a call may share with every
# row and worker: W**2 * 8 <= _TABLE_BYTES, i.e. W <= 5,792 words. Beyond
# it, or where the blocks cost fewer distances, each source document gets a
# block of just the words its pairs need.
_TABLE_BYTES = 256 << 20


def pair_distances(pairs: Sequence[tuple[int, int]], reps: Mapping,
                   store: EmbeddingStore, workers: int = 1) -> np.ndarray:
    """The transport distance of each pair of distinct usable documents
    (``reps`` maps both to their measures), in the order asked. Each
    unordered pair is solved once, from its lower id, so a pair and its
    reverse get the same bits. A source's pairs are one task; ``workers``
    processes solve the tasks. Their costs come from one table of the
    distances between the W words of the pairs' documents, which computes
    W(W+1)/2 distances, when it fits ``_TABLE_BYTES`` and the tasks' own
    blocks would compute as many or more: |words(a)| x |the words of a's
    references| for each source a. Otherwise each task builds its block.
    A distance has the same bits in a block as in the table."""
    ends = [(a, b) if a < b else (b, a) for a, b in pairs]
    by_source: dict[int, list[int]] = {}
    for a, b in dict.fromkeys(ends):
        by_source.setdefault(a, []).append(b)
    tasks = list(by_source.items())
    docs = dict.fromkeys(d for p in ends for d in p)
    words = list(dict.fromkeys(w for d in docs for w in reps[d].words))
    n = len(words)
    blocks = sum(len(reps[a].words) * len({w for b in refs
                                           for w in reps[b].words})
                 for a, refs in tasks)
    costs = store.distances(words, words) \
        if n * n * 8 <= _TABLE_BYTES and n * (n + 1) // 2 <= blocks else store
    if workers <= 1 or len(tasks) < 2:
        rows = [_row_values(a, reps, refs, costs) for a, refs in tasks]
    else:
        with ProcessPoolExecutor(workers, initializer=_init_worker,
                                 initargs=(reps, costs)) as pool:
            rows = list(pool.map(_worker_row, tasks, chunksize=max(
                1, len(tasks) // (4 * workers))))
    solved = {(a, b): v for (a, refs), row in zip(tasks, rows)
              for b, v in zip(refs, row.tolist())}
    return np.array([solved[p] for p in ends], dtype=np.float64)


def pairwise_distances(
    queries: Sequence[int],
    refs: Sequence[int],
    method: Method,
    resources: Resources,
    known: np.ndarray | None = None,
) -> DistanceMatrix:
    """Distance matrix between query and reference documents.

    ``known``, a ``queries`` x ``refs`` array, holds cells computed before
    and NaN where a cell is missing; only the missing cells are computed.
    A BOW/TF-IDF matrix computes its missing cells in one batched call, in
    the calling process. A transport matrix solves each missing
    unordered pair once, from the document with the lower id, in
    ``resources.workers`` processes. Self cells are 0 and the cells of a
    document with no usable representation are +inf, whatever ``known``
    holds there.
    """
    store = resources.store
    if method.uses_transport and store is None:
        raise InvalidInput(f"method {method.label} needs an embedding store")
    values = np.full((len(queries), len(refs)), np.nan) if known is None \
        else np.array(known, dtype=np.float64)
    all_ids = list(dict.fromkeys(list(queries) + list(refs)))
    reps = representations(all_ids, method, resources)
    unusable = sorted(d for d, r in reps.items() if r is None)
    if unusable:
        logger.warning("%s: %d unusable document(s): %s", method.label,
                       len(unusable), unusable[:10])
    q, r = np.asarray(queries, dtype=np.int64), np.asarray(refs, dtype=np.int64)
    usable = np.array([reps[d] is not None for d in queries])[:, None] \
        & np.array([reps[d] is not None for d in refs])[None, :]
    values[~usable] = np.inf
    values[usable & (q[:, None] == r[None, :])] = 0.0
    rows, cols = np.nonzero(np.isnan(values))
    if not method.uses_transport:
        values[rows, cols] = _vector_cells(queries, refs, rows, cols, reps,
                                           method.metric)
    else:
        pairs = list(zip(q[rows].tolist(), r[cols].tolist()))
        values[rows, cols] = pair_distances(pairs, reps, store,
                                            resources.workers)
    return DistanceMatrix(tuple(queries), tuple(refs), values)


# -- cache file format ---------------------------------------------------------


class PairStore:
    """Distances between every two of ``ids``, each unordered pair stored
    once: ``values`` is the upper triangle of the ``ids`` x ``ids`` matrix,
    condensed row by row (N(N-1)/2 cells for N ids). NaN marks a pair not
    computed yet, +inf a pair with an unusable document. A document's
    distance to itself is not stored: a matrix read from the store gives
    0.0 where the row or column of the self cell holds a finite distance,
    else +inf (an unusable document's)."""

    def __init__(self, ids: Sequence[int], values: np.ndarray):
        n = len(ids)
        if values.shape != (n * (n - 1) // 2,):
            raise InvalidInput(f"values shape {values.shape} does not match "
                               f"{n} ids")
        if np.any(values < 0):
            raise InvalidInput("distances must be >= 0")
        self.ids = tuple(ids)
        self.values = values
        self._pos = {d: p for p, d in enumerate(self.ids)}

    @classmethod
    def empty(cls, ids: Sequence[int]) -> "PairStore":
        return cls(ids, np.full(len(ids) * (len(ids) - 1) // 2, np.nan))

    def _positions(self, ids: Sequence[int]) -> np.ndarray:
        return np.array([self._pos[d] for d in ids], dtype=np.int64)

    def _cells(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Condensed index of each (r, c) cell of id positions, broadcast;
        ``len(values)`` on a self cell."""
        i, j = np.minimum(r, c), np.maximum(r, c)
        n = len(self.ids)
        return np.where(i == j, self.values.size,
                        i * (2 * n - i - 1) // 2 + j - i - 1)

    def _read(self, cells: np.ndarray) -> np.ndarray:
        return np.append(self.values, np.nan)[cells]

    def matrix(self, queries: Sequence[int],
               refs: Sequence[int]) -> np.ndarray:
        """The ``queries`` x ``refs`` distances, NaN where a pair is
        missing."""
        cells = self._cells(self._positions(queries)[:, None],
                            self._positions(refs)[None, :])
        out = self._read(cells)
        i, j = np.nonzero(cells == self.values.size)
        finite = np.isfinite(out)  # self cells read NaN here
        out[i, j] = np.where(finite[i].any(axis=1) | finite[:, j].any(axis=0),
                             0.0, np.inf)
        return out

    def pair_values(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        """The distance of each pair of distinct documents, NaN where
        missing."""
        return self._read(self._pair_cells(pairs))

    def set_pair_values(self, pairs: Sequence[tuple[int, int]],
                        values: Sequence[float]) -> None:
        self.values[self._pair_cells(pairs)] = values

    def _pair_cells(self, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
        return self._cells(self._positions([a for a, _ in pairs]),
                           self._positions([b for _, b in pairs]))

    def update(self, dm: DistanceMatrix) -> None:
        """Store every cell of ``dm`` but its self cells."""
        cells = self._cells(self._positions(dm.row_ids)[:, None],
                            self._positions(dm.col_ids)[None, :])
        pair = cells < self.values.size
        self.values[cells[pair]] = dm.values[pair]

    def merge(self, other: "PairStore") -> None:
        """Take ``other``'s distance for every pair this store lacks."""
        np.copyto(self.values, other.values, where=np.isnan(self.values))


def write_distance_matrix(pairs: PairStore, path: str) -> None:
    """Save a pair store's values as one float64 ``.npy`` array. The ids
    are not stored: the cache key that names the file covers them."""
    with open(path, "wb") as fh:
        np.save(fh, pairs.values, allow_pickle=False)


def read_distance_matrix(path: str, ids: Sequence[int]) -> PairStore:
    """Load a pair store saved by ``write_distance_matrix`` for these ids."""
    with open(path, "rb") as fh:
        try:
            values = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ParseError(f"not a .npy array: {exc}") from None
        # an .npz gives an NpzFile, which is only valid while fh is open
        if not isinstance(values, np.ndarray) or values.dtype != np.float64:
            raise ParseError("not a float64 array")
    try:
        return PairStore(ids, values)
    except InvalidInput as exc:
        raise ParseError(str(exc)) from None
