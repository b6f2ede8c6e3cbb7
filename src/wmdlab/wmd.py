"""Word mover's distance between documents and batch distance matrices."""

from __future__ import annotations

import bisect
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

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
    throughout, the diagonal included. In a matrix filled with
    ``pairwise_distances(..., k=k)`` +inf also marks a cell outside its
    row's k nearest, or one the caller does not read.
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
    ``representations`` keeps what it builds in ``built``, so that each
    document's TF-IDF vector, and its representation under a weighting
    and a norm, is built once however many methods share them.
    """

    counts: Mapping[int, SparseVector]
    vocab: Vocabulary
    store: EmbeddingStore | None = None
    doc_freq: np.ndarray | None = None
    n_docs: int | None = None
    workers: int = 1
    # "tfidf" -> {doc id: TF-IDF vector}; (tfidf, norm) -> {doc id:
    # representation}, with norm None for a transport method's measure
    built: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


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
    reps = res.built.setdefault((tfidf, method.norm), {})
    weighted = res.built.setdefault("tfidf", {})
    for doc_id in ids:
        if doc_id in reps:
            continue
        vec = res.counts[doc_id]
        if tfidf:
            if doc_id not in weighted:
                weighted[doc_id] = tfidf_vector(vec, res.doc_freq, res.n_docs)
            vec = weighted[doc_id]
        # a transport method has no norm: an empty measure is unusable too
        if vec.nnz == 0 and method.norm is not NormScheme.NONE:
            reps[doc_id] = None
        elif method.uses_transport:
            reps[doc_id] = make_measure(vec, res.vocab)
        else:
            reps[doc_id] = normalize(vec, method.norm)
    return {doc_id: reps[doc_id] for doc_id in ids}


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


def _rwmd(a: DocumentMeasure, refs: Sequence[DocumentMeasure],
          costs: WordDistances) -> np.ndarray:
    """A lower bound on the transport distance from ``a`` to each of
    ``refs``: the relaxed WMD of Kusner et al. (2015), max(sum_i a_i min_j
    c_ij, sum_j b_j min_i c_ij), from one slice of ``costs`` (a's words x
    the references' words, concatenated), deflated by a relative 1e-12 so
    that the rounding of these sums cannot lift it over the exact value.

    The first sum runs over a's words from left to right, each step over
    every reference at once, so a reference's bound has the same bits
    whichever references share the call; a matrix product, or a pairwise
    ``sum``, may round one reference alone differently from a batch."""
    starts = np.cumsum([0] + [len(b.words) for b in refs[:-1]])
    c = cost_submatrix(costs, a.words, [w for b in refs for w in b.words])
    weights = np.concatenate([b.weights for b in refs])
    mins = np.minimum.reduceat(c, starts, axis=1)
    moved_out = a.weights[0] * mins[0]
    for w, row in zip(a.weights[1:], mins[1:]):
        moved_out += w * row
    moved_in = np.add.reduceat(weights * c.min(axis=0), starts)
    return np.maximum(moved_out, moved_in) * (1.0 - 1e-12)


def _row_values(query_id: int, reps: Mapping, ref_ids: Sequence[int],
                costs: EmbeddingStore | WordDistances,
                known: np.ndarray | None = None,
                k: int | None = None) -> np.ndarray:
    """The transport distances from one document to each of ``ref_ids``,
    all usable and other than it; each pair is solved from its lower id.
    Every cost matrix is a slice of ``costs``, the table of
    ``_fill_rows``, or, given the store, of one block: the query's words x
    the words of its references.

    ``known`` holds what is known of each cell: its distance (>= 0), minus
    a lower bound (< 0), or NaN; only the cells without a distance are
    worked on. With ``k`` and more than k references the row is an exact
    top-k search: each NaN cell gets its ``_rwmd`` bound, and the cells
    are solved in ascending (bound, id) order until the next bound lies
    strictly above the k-th smallest distance of the row. The cells left
    unsolved hold minus their bounds."""
    a = reps[query_id]
    if isinstance(costs, EmbeddingStore):
        costs = costs.distances(a.words,
                                [w for r in ref_ids for w in reps[r].words])
    back = WordDistances(costs.cols, costs.rows, costs.values.T)
    values = np.full(len(ref_ids), np.nan) if known is None \
        else np.array(known, dtype=np.float64)
    todo = np.flatnonzero(~(values >= 0))
    search = k is not None and len(ref_ids) > k
    if search:
        bounds = -values[todo]
        fresh = np.isnan(bounds)
        if fresh.any():
            bounds[fresh] = _rwmd(
                a, [reps[ref_ids[i]] for i in todo[fresh]], costs)
        order = np.lexsort((np.asarray(ref_ids)[todo], bounds))
        todo, bounds = todo[order], bounds[order]
        nearest = sorted(values[values >= 0].tolist())[:k]
    for n, i in enumerate(todo.tolist()):
        if search and len(nearest) == k and bounds[n] > nearest[-1]:
            values[todo[n:]] = -bounds[n:]
            break
        r = ref_ids[i]
        d = wmd_distance(a, reps[r], costs) if query_id < r \
            else wmd_distance(reps[r], a, back)
        values[i] = d
        if search:
            bisect.insort(nearest, d)
            del nearest[k:]
    return values


def _init_worker(reps, costs):
    _STATE["args"] = (reps, costs)


def _worker_row(task):
    reps, costs = _STATE["args"]
    return _row_values(task[0], reps, task[1], costs, *task[2:])


# The most bytes of the one word x word table a call may share with every
# row and worker: W**2 * 8 <= _TABLE_BYTES, i.e. W <= 5,792 words. Beyond
# it, or where the blocks cost fewer distances, each task gets a block of
# just the words its row needs.
_TABLE_BYTES = 256 << 20


def _fill_rows(tasks: Sequence[tuple], reps: Mapping, store: EmbeddingStore,
               workers: int) -> list[np.ndarray]:
    """``_row_values`` of each task ``(query, refs[, known, k])``, in
    ``workers`` processes, or one per task if fewer. Their costs come from
    one table of the distances between the W words of the tasks'
    documents, which computes W(W+1)/2 distances, when it fits
    ``_TABLE_BYTES`` and the tasks' own blocks would compute as many or
    more: |words(query)| x |the words of its references| for each task.
    Otherwise each task builds its block. A distance has the same bits in
    a block as in the table."""
    if not tasks:
        return []
    docs = dict.fromkeys(d for q, refs, *_ in tasks for d in (q, *refs))
    words = list(dict.fromkeys(w for d in docs for w in reps[d].words))
    n = len(words)
    blocks = sum(len(reps[q].words) * len({w for b in refs
                                           for w in reps[b].words})
                 for q, refs, *_ in tasks)
    costs = store.distances(words, words) \
        if n * n * 8 <= _TABLE_BYTES and n * (n + 1) // 2 <= blocks else store
    workers = min(workers, len(tasks))  # a pool starts all its workers
    if workers <= 1:
        return [_row_values(q, reps, refs, costs, *rest)
                for q, refs, *rest in tasks]
    with ProcessPoolExecutor(workers, initializer=_init_worker,
                             initargs=(reps, costs)) as pool:
        return list(pool.map(_worker_row, tasks, chunksize=max(
            1, len(tasks) // (4 * workers))))


def pair_distances(pairs: Sequence[tuple[int, int]], reps: Mapping,
                   store: EmbeddingStore, workers: int = 1) -> np.ndarray:
    """The transport distance of each pair of distinct usable documents
    (``reps`` maps both to their measures), in the order asked. Each
    unordered pair is solved once, from its lower id, so a pair and its
    reverse get the same bits. A source's pairs are one task of
    ``_fill_rows``."""
    ends = [(a, b) if a < b else (b, a) for a, b in pairs]
    by_source: dict[int, list[int]] = {}
    for a, b in dict.fromkeys(ends):
        by_source.setdefault(a, []).append(b)
    tasks = list(by_source.items())
    rows = _fill_rows(tasks, reps, store, workers)
    solved = {(a, b): v for (a, refs), row in zip(tasks, rows)
              for b, v in zip(refs, row.tolist())}
    return np.array([solved[p] for p in ends], dtype=np.float64)


def open_rows(known: np.ndarray, k: int | None = None) -> np.ndarray:
    """Which rows of ``known`` a fill has to work on. A cell holds a
    distance (>= 0, +inf for a cell that is unusable or not read), minus a
    lower bound (< 0) or NaN. Without ``k`` a row is done when every cell
    holds a distance. With ``k`` a row is also done when it proves its k
    nearest: it has more than k cells that are not +inf, at least k of
    them finite distances, and a bound strictly above the k-th smallest of
    those in each of the others."""
    pending = ~(known >= 0)
    if k is None:
        return pending.any(axis=1)
    exact = np.where(known >= 0, known, np.inf)
    kth = np.partition(exact, k - 1, axis=1)[:, k - 1] \
        if known.shape[1] >= k else np.full(known.shape[0], np.inf)
    proven = (~pending | (-known > kth[:, None])).all(axis=1) \
        & ((~np.isposinf(known)).sum(axis=1) > k)
    return pending.any(axis=1) & ~proven


def pairwise_distances(
    queries: Sequence[int],
    refs: Sequence[int],
    method: Method,
    resources: Resources,
    known: np.ndarray | None = None,
    k: int | None = None,
) -> DistanceMatrix:
    """Distance matrix between query and reference documents.

    ``known``, a ``queries`` x ``refs`` float64 array, holds cells computed
    before, as ``open_rows`` reads them, and is filled in place: NaN marks
    a missing cell, +inf one not to compute. A BOW/TF-IDF matrix computes
    its missing cells in one batched call, in the calling process. A
    transport matrix solves each missing unordered pair once, from the
    document with the lower id, in ``resources.workers`` processes; a
    bound counts as missing. With ``k`` it only completes the rows that
    ``open_rows`` leaves open, each as one ``_row_values`` search, which
    stores minus the bound of each cell it leaves unsolved. Self cells are
    0, or +inf with ``k``, and the cells of a document with no usable
    representation are +inf, whatever ``known`` holds there; the returned
    matrix reads +inf where ``known`` holds a bound.
    """
    store = resources.store
    if method.uses_transport and store is None:
        raise InvalidInput(f"method {method.label} needs an embedding store")
    values = np.full((len(queries), len(refs)), np.nan) if known is None \
        else np.asarray(known, dtype=np.float64)
    all_ids = list(dict.fromkeys(list(queries) + list(refs)))
    reps = representations(all_ids, method, resources)
    unusable = sorted(d for d, r in reps.items() if r is None)
    if unusable:
        logger.warning("%s: %d unusable document(s): %s", method.label,
                       len(unusable), unusable[:10])
    q, r = np.asarray(queries, dtype=np.int64), np.asarray(refs, dtype=np.int64)
    usable = np.array([reps[d] is not None for d in queries])[:, None] \
        & np.array([reps[d] is not None for d in refs])[None, :]
    search = k is not None and method.uses_transport
    values[~usable] = np.inf
    # a search ranks a row's neighbours, and a document is not its own
    values[usable & (q[:, None] == r[None, :])] = np.inf if search else 0.0
    if not search:
        rows, cols = np.nonzero(~(values >= 0))
        if not method.uses_transport:
            values[rows, cols] = _vector_cells(queries, refs, rows, cols,
                                               reps, method.metric)
        else:
            pairs = list(zip(q[rows].tolist(), r[cols].tolist()))
            values[rows, cols] = pair_distances(pairs, reps, store,
                                                resources.workers)
    else:
        cells = [(i, np.flatnonzero(~np.isposinf(values[i])))
                 for i in np.flatnonzero(open_rows(values, k)).tolist()]
        tasks = [(queries[i], r[c].tolist(), values[i, c], k)
                 for i, c in cells]
        for (i, c), row in zip(cells, _fill_rows(tasks, reps, store,
                                                 resources.workers)):
            values[i, c] = row
    return DistanceMatrix(tuple(queries), tuple(refs),
                          np.where(values >= 0, values, np.inf))


# -- cache file format ---------------------------------------------------------

# Cells a pair store's file is read and written by, a multiple of 8: 256 KiB
# of float64 values and 4 KiB of presence bits a block.
_BLOCK = 1 << 15


class PairStore:
    """Distances between every two of ``ids``, each unordered pair stored
    once: ``values`` is the upper triangle of the ``ids`` x ``ids`` matrix,
    condensed row by row (N(N-1)/2 cells for N ids). A cell is in one of
    four states: NaN, a pair not computed yet; +inf, a pair with an
    unusable document; >= 0, the pair's distance; < 0, minus a lower bound
    on it, left by a top-k search of ``pairwise_distances``. A document's
    distance to itself is not stored: a matrix read from the store gives
    0.0 where the row or column of the self cell holds a finite value,
    else +inf (an unusable document's). On disk a store keeps only its
    cells that are not NaN (``write_distance_matrix``)."""

    def __init__(self, ids: Sequence[int], values: np.ndarray):
        n = len(ids)
        if values.shape != (n * (n - 1) // 2,):
            raise InvalidInput(f"values shape {values.shape} does not match "
                               f"{n} ids")
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

    def matrix(self, queries: Sequence[int],
               refs: Sequence[int]) -> np.ndarray:
        """The ``queries`` x ``refs`` distances, NaN where a pair is
        missing."""
        cells = self._cells(self._positions(queries)[:, None],
                            self._positions(refs)[None, :])
        i, j = np.nonzero(cells == self.values.size)
        # a self cell is read from a stored cell, then set to NaN: a NaN
        # cell appended to values would copy the whole store
        out = (self.values.take(cells, mode="clip") if self.values.size
               else np.empty(cells.shape))
        out[i, j] = np.nan
        finite = np.isfinite(out)
        out[i, j] = np.where(finite[i].any(axis=1) | finite[:, j].any(axis=0),
                             0.0, np.inf)
        return out

    def update(self, row_ids: Sequence[int], col_ids: Sequence[int],
               values: np.ndarray) -> None:
        """Store the cells of a ``row_ids`` x ``col_ids`` array but its self
        cells, as ``_fill`` takes them; a pair named in both orientations
        is one cell named twice."""
        cells = self._cells(self._positions(row_ids)[:, None],
                            self._positions(col_ids)[None, :])
        pair = cells < self.values.size
        self._fill(cells[pair], np.asarray(values)[pair])

    def _fill(self, cells: np.ndarray, values: np.ndarray) -> None:
        """Store ``values`` at ``cells``: a distance fills a missing cell or
        replaces a bound, a bound fills a missing cell, and nothing
        replaces a distance. A cell named twice takes a distance over a
        bound."""
        old = self.values[cells]
        bound = np.isnan(old) & (values < 0)
        exact = ~(old >= 0) & (values >= 0)
        self.values[cells[bound]] = values[bound]
        self.values[cells[exact]] = values[exact]


def write_distance_matrix(pairs: PairStore, path: str) -> None:
    """Save a pair store as one 1-D uint8 ``.npy`` array of three parts:
    its cell count N(N-1)/2 as a little-endian uint64; the
    ``np.packbits`` presence bits of the cells, a cell being present when
    it is not NaN; then the present cells' values as little-endian
    float64, in cell order. Exact distances, bounds and +inf are kept bit
    for bit, and a missing pair costs one bit. The ids are not stored: the
    cache key that names the file covers them. Written a block of
    ``_BLOCK`` cells at a time, so no copy of the store is made."""
    values = pairs.values
    blocks = range(0, values.size, _BLOCK)
    n_bits = -(-values.size // 8)
    present = values.size - sum(int(np.isnan(values[lo:lo + _BLOCK]).sum())
                                for lo in blocks)
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": "|u1", "fortran_order": False,
            "shape": (8 + n_bits + 8 * present,)})
        fh.write(np.array(values.size, "<u8").tobytes())
        bits_at = fh.tell()
        at = bits_at + n_bits
        for lo in blocks:
            block = values[lo:lo + _BLOCK]
            kept = ~np.isnan(block)
            fh.seek(bits_at + lo // 8)
            fh.write(np.packbits(kept))
            fh.seek(at)
            at += fh.write(block[kept].astype("<f8", copy=False))


def _stored_cells(path: str,
                  size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The present cells of a ``write_distance_matrix`` file of ``size``
    cells, as (cell indices, values) blocks of up to ``_BLOCK`` cells read
    through a memory map.

    ParseError, before the first block, unless the file is a 1-D uint8
    ``.npy`` array that holds ``size`` as its cell count, whose presence
    bits past the last cell are 0 and whose values are 8 bytes for each
    presence bit set, none NaN or -inf: a truncated, foreign or older
    dense file, or one written for other ids, is never misread."""
    n_bits = -(-size // 8)
    try:
        data = np.load(path, mmap_mode="r", allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ParseError(f"not a .npy array: {exc}") from None
    if not isinstance(data, np.ndarray):  # an .npz archive
        data.close()
        raise ParseError("not a .npy array")
    data = data.view(np.ndarray)  # the same mapped bytes, minus memmap's cost
    if data.dtype != np.uint8 or data.ndim != 1 or data.size < 8 + n_bits:
        raise ParseError(f"not a pair store of {size} cells: a {data.dtype} "
                         f"array of shape {data.shape}")
    count = int(data[:8].view("<u8")[0])
    if count != size:
        raise ParseError(f"a pair store of {count} cells, not {size}")
    bits, payload = data[8:8 + n_bits], data[8 + n_bits:]
    if size % 8 and bits[-1] & (0xFF >> size % 8):
        raise ParseError(f"presence bits set past the {size} cells")
    present = sum(int(np.unpackbits(bits[lo:lo + _BLOCK // 8]).sum())
                  for lo in range(0, n_bits, _BLOCK // 8))
    if payload.size != 8 * present:
        raise ParseError(f"{payload.size} bytes of values for {present} "
                         "present cells")
    values = payload.view("<f8")
    for lo in range(0, present, _BLOCK):
        if not (values[lo:lo + _BLOCK] > -np.inf).all():
            raise ParseError("a present cell holds NaN or -inf")
    at = 0
    for lo in range(0, size, _BLOCK):
        kept = np.unpackbits(bits[lo // 8:(lo + _BLOCK) // 8],
                             count=min(_BLOCK, size - lo)).view(bool)
        cells = lo + np.flatnonzero(kept)
        yield cells, values[at:at + cells.size]
        at += cells.size


def read_distance_matrix(path: str, ids: Sequence[int]) -> PairStore:
    """Load the pair store that ``write_distance_matrix`` saved for these
    ids, its absent cells NaN; ParseError as ``_stored_cells`` raises
    it."""
    pairs = PairStore.empty(ids)
    for cells, values in _stored_cells(path, pairs.values.size):
        pairs.values[cells] = values
    return pairs


def merge_distance_matrix(path: str, pairs: PairStore) -> None:
    """Take the cells of the file that ``write_distance_matrix`` saved for
    the ids of ``pairs`` into it, as ``PairStore._fill`` takes them; no
    cell is taken when ``_stored_cells`` raises ParseError."""
    for cells, values in _stored_cells(path, pairs.values.size):
        pairs._fill(cells, values)
