"""Vocabulary building, sparse bag-of-words / TF-IDF vectors, and vector metrics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    EmptyCorpus,
    InconsistentStats,
    InvalidInput,
    ZeroVector,
)


class NormScheme(Enum):
    """How a count/weight vector is normalized before comparison."""

    NONE = "none"
    L1 = "l1"
    L2 = "l2"


class VectorMetric(Enum):
    """Which norm measures the difference of two vectors."""

    L1 = "l1"
    L2 = "l2"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered set of unique tokens with stable integer ids."""

    words: tuple[str, ...]
    index: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return token in self.index


class SparseVector:
    """Sparse nonnegative vector over a fixed-dimension id space.

    Entries are stored as parallel ``ids`` / ``values`` arrays with ids
    strictly increasing and values strictly positive, so equal vectors
    have identical representations.
    """

    __slots__ = ("dim", "ids", "values")

    def __init__(self, dim: int, ids: np.ndarray, values: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if dim < 0:
            raise InvalidInput(f"negative dimension {dim}")
        if ids.ndim != 1 or values.ndim != 1 or ids.size != values.size:
            raise InvalidInput("ids and values must be 1-D arrays of equal length")
        if ids.size:
            if not (ids[1:] > ids[:-1]).all():
                raise InvalidInput("ids must be strictly increasing")
            if ids[0] < 0 or ids[-1] >= dim:
                raise InvalidInput("ids out of range")
            if not ((values > 0) & (values < math.inf)).all():
                raise InvalidInput("values must be finite and > 0")
        ids.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    @property
    def nnz(self) -> int:
        return int(self.ids.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"SparseVector(dim={self.dim}, nnz={self.nnz})"


def build_vocabulary(documents: Sequence[Sequence[str]]) -> Vocabulary:
    """Collect the distinct tokens of ``documents``, ordered by first occurrence."""
    if not documents:
        raise EmptyCorpus("no documents")
    index: dict[str, int] = {}
    for doc in documents:
        for tok in doc:
            if not tok:
                raise InvalidInput("empty token")
            if tok not in index:
                index[tok] = len(index)
    return Vocabulary(words=tuple(index), index=index)


def bow_vector(doc: Sequence[str], vocab: Vocabulary) -> SparseVector:
    """Count each in-vocabulary token of ``doc``; other tokens are ignored."""
    counts = Counter(vocab.index[t] for t in doc if t in vocab.index)
    ids = sorted(counts)
    return SparseVector(len(vocab), np.array(ids, dtype=np.int64),
                        np.array([counts[i] for i in ids], dtype=np.float64))


def document_frequencies(
    documents: Iterable[Sequence[str]], vocab: Vocabulary
) -> np.ndarray:
    """Number of documents each vocabulary word appears in."""
    df = np.zeros(len(vocab), dtype=np.int64)
    for doc in documents:
        seen = {vocab.index[t] for t in doc if t in vocab.index}
        for i in seen:
            df[i] += 1
    return df


def tfidf_vector(counts: SparseVector, doc_freq: np.ndarray,
                 n_docs: int) -> SparseVector:
    """Weight each count by log2(n_docs / doc_freq).

    Words occurring in every document get weight zero and are omitted.
    """
    if n_docs < 1:
        raise InconsistentStats(f"n_docs must be >= 1, got {n_docs}")
    df = doc_freq[counts.ids].tolist()
    for i, d in zip(counts.ids.tolist(), df):
        if d < 1 or d > n_docs:
            raise InconsistentStats(
                f"word id {i} has document frequency {d} "
                f"out of range [1, {n_docs}]"
            )
    # math.log2, not np.log2: the two may differ in the last bit
    weights = counts.values * np.array([math.log2(n_docs / d) for d in df])
    keep = weights > 0.0
    return SparseVector(counts.dim, counts.ids[keep], weights[keep])


def normalize(v: SparseVector, scheme: NormScheme) -> SparseVector:
    """Rescale ``v`` per ``scheme``; identity for ``NormScheme.NONE``."""
    if scheme is NormScheme.NONE:
        return v
    if v.nnz == 0:
        raise ZeroVector("cannot normalize an empty vector")
    if scheme is NormScheme.L1:
        total = math.fsum(v.values.tolist())
    else:
        total = math.sqrt(math.fsum((x * x for x in v.values.tolist())))
    return SparseVector(v.dim, v.ids, v.values / total)


class VectorBlock:
    """Sparse vectors of one dimension, flattened row by row in CSR order:
    the reference side of ``distance_row``. Row r's entries are
    ``ids[indptr[r]:indptr[r + 1]]`` and ``values[...]``; ``rows`` holds each
    entry's row."""

    __slots__ = ("dim", "n_rows", "indptr", "rows", "ids", "values")

    def __init__(self, vectors: Sequence[SparseVector], dim: int):
        for v in vectors:
            if v.dim != dim:
                raise DimMismatch(f"dimensions differ: {v.dim} != {dim}")
        nnz = [v.nnz for v in vectors]
        self.dim = dim
        self.n_rows = len(vectors)
        self.indptr = np.fromiter(accumulate(nnz, initial=0), np.int64,
                                  self.n_rows + 1)
        self.rows = np.repeat(np.arange(self.n_rows), nnz)
        self.ids = np.concatenate([v.ids for v in vectors]
                                  + [np.zeros(0, np.int64)])
        self.values = np.concatenate([v.values for v in vectors]
                                     + [np.zeros(0)])


def distance_row(q: SparseVector, block: VectorBlock,
                 metric: VectorMetric) -> np.ndarray:
    """Distance from ``q`` to every vector of ``block`` under ``metric``.

    Each cell is ``math.fsum`` of |q_i - v_i| (L1), or the square root of
    ``math.fsum`` of (q_i - v_i)^2 (L2), over the union of the two supports.
    A row's terms are laid out in CSR order, each cell's own terms only: the
    reference's entries, then the query ids the reference lacks. ``fsum`` is
    correctly rounded whatever the order of its terms, so every cell is the
    same float as the sum over the two vectors aligned pair by pair.
    """
    if q.dim != block.dim:
        raise DimMismatch(f"dimensions differ: {q.dim} != {block.dim}")
    l1 = metric is VectorMetric.L1
    n = q.nnz
    # reference entries whose id the query has, and that id's query position
    pos = np.searchsorted(q.ids, block.ids)
    shared = np.flatnonzero(np.append(q.ids, -1)[pos] == block.ids)
    q_pos = pos[shared]
    diff = -block.values  # q_i - v_i, with q_i = 0 where the query lacks i
    diff[shared] += q.values[q_pos]
    # every row's reference terms followed by all n query terms, then the
    # query terms of ids the row shares are dropped
    q_at = block.indptr[1:] + n * np.arange(block.n_rows)
    terms = np.empty(block.ids.size + n * block.n_rows)
    terms[np.arange(block.ids.size) + n * block.rows] = (
        np.abs(diff) if l1 else diff * diff)
    terms[q_at[:, None] + np.arange(n)] = q.values if l1 else q.values * q.values
    shared_rows = block.rows[shared]
    keep = np.ones(terms.size, dtype=bool)
    keep[q_at[shared_rows] + q_pos] = False
    # a row ends where its n query terms did, less the terms dropped so far
    ends = (q_at + n - np.add.accumulate(
        np.bincount(shared_rows, minlength=block.n_rows))).tolist()
    flat = terms[keep].tolist()
    cells = map(flat.__getitem__, map(slice, [0] + ends[:-1], ends))
    sums = np.fromiter(map(math.fsum, cells), float, block.n_rows)
    return sums if l1 else np.sqrt(sums)


def vector_distance(a: SparseVector, b: SparseVector, metric: VectorMetric) -> float:
    """Distance between two sparse vectors under the given metric."""
    return float(distance_row(a, VectorBlock([b], b.dim), metric)[0])
