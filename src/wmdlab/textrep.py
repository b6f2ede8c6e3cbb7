"""Vocabulary building, sparse bag-of-words / TF-IDF vectors, and vector metrics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
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
        self._set(dim, ids, values)

    def _set(self, dim: int, ids: np.ndarray, values: np.ndarray) -> None:
        if ids.size and not ((values > 0) & (values < math.inf)).all():
            raise InvalidInput("values must be finite and > 0")
        ids.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)

    def _with(self, ids: np.ndarray, values: np.ndarray) -> "SparseVector":
        """A vector of ``ids``, this vector's or some of them in order,
        and new ``values``: only the values need checking."""
        out = object.__new__(SparseVector)
        out._set(self.dim, ids, values)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("SparseVector is immutable")

    def __reduce__(self):
        return SparseVector, (self.dim, self.ids, self.values)

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
    return counts._with(counts.ids[keep], weights[keep])


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
    return v._with(v.ids, v.values / total)


# The most cells one batch of ``vector_distances`` sums at once. A batch
# keeps about twenty float64 or int64 arrays of its cells and no table of
# their terms, so the kernel's extra memory is a few MiB whatever the
# number of cells or the length of the documents.
_BATCH_CELLS = 1 << 15


def vector_distances(vectors: Sequence[SparseVector], left, right,
                     metric: VectorMetric) -> np.ndarray:
    """The distance of each cell k, ``vectors[left[k]]`` to
    ``vectors[right[k]]``, under ``metric``: the correctly rounded sum of
    |a_i - b_i| (L1), or the square root of that of (a_i - b_i)^2 (L2),
    over the union of the two supports. That is ``math.fsum`` of the same
    terms, to the bit, and fsum is the sum for every cell ``_Sums`` cannot
    prove.

    A batch of ``_BATCH_CELLS`` cells is summed a term column at a time:
    first term j of each cell's a-side (a_i, or a_i - b_i where b has id i),
    over the cells with more than j entries in a, then term j of each b-side
    (b_i, or 0.0 where a has id i).
    """
    if len({v.dim for v in vectors}) > 1:
        raise DimMismatch(f"dimensions differ: "
                          f"{sorted({v.dim for v in vectors})}")
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    l1 = metric is VectorMetric.L1
    flat = _Entries(vectors)
    out = np.empty(left.size)
    # an overflow is never proven: such a cell is fsum's, inf or an error
    with np.errstate(over="ignore", invalid="ignore"):
        terms = flat.values if l1 else flat.values * flat.values
        for lo in range(0, left.size, _BATCH_CELLS):
            a, b = left[lo:lo + _BATCH_CELLS], right[lo:lo + _BATCH_CELLS]
            result, exact, order = _batch(flat, terms, a, b, l1)
            for p in np.flatnonzero(~exact).tolist():
                k = int(order[p])
                result[p] = math.fsum(_union_terms(vectors[a[k]],
                                                   vectors[b[k]], l1))
            out[lo + order] = result
    return out if l1 else np.sqrt(out)


def _batch(flat: "_Entries", terms: np.ndarray, a: np.ndarray,
           b: np.ndarray, l1: bool):
    """The ``_Sums`` result of the cells (a[k], b[k]), and the order of the
    cells in it."""
    values, nnz, starts = flat.values, flat.nnz, flat.starts
    sums = _Sums(a.size)
    # a's side: each entry less b's entry on the same id
    order, first = _by_count(nnz[a])
    at, other = starts[a][order], b[order]
    shared_cell, shared_at = [], []
    for j in range(first.size):
        at_j = at[first[j]:] + j
        hit, b_at = flat.find(at_j, other[first[j]:])
        x = terms[at_j]
        diff = values[at_j[hit]] - values[b_at]
        x[hit] = np.abs(diff) if l1 else diff * diff
        sums.add(first[j], x)
        shared_cell.append(order[first[j] + hit])
        shared_at.append(b_at)
    # b's side: 0.0 where a has the id
    new_order, first = _by_count(nnz[b])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    sums.take(rank[new_order])
    rank[new_order] = np.arange(order.size)
    cell = np.concatenate([np.zeros(0, np.int64), *shared_cell])
    place = np.concatenate([np.zeros(0, np.int64), *shared_at]) \
        - starts[b[cell]]
    by_place = np.argsort(place, kind="stable")
    ends = np.searchsorted(place[by_place], np.arange(first.size), "right")
    at = starts[b][new_order]
    for j in range(first.size):
        x = terms[at[first[j]:] + j]
        x[rank[cell[by_place[ends[j - 1] if j else 0:ends[j]]]]
          - first[j]] = 0.0
        sums.add(first[j], x)
    return *sums.result(), new_order


def _by_count(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells in order of ``count``, and for each j < max(count) the
    first position in that order whose count exceeds j."""
    # counts that fit 16 bits get a radix sort
    order = np.argsort(count.astype(np.uint16) if count.max(initial=0)
                       < 1 << 16 else count, kind="stable")
    return order, np.searchsorted(count[order],
                                  np.arange(count.max(initial=0)), "right")


class _Entries:
    """The entries of ``vectors``, flattened in order (vector i's are
    ``starts[i]:starts[i] + nnz[i]``), and the set of their (vector, id)
    pairs: ``keys`` = vector * U + the id's rank among the U ids present,
    which sort as the entries do, and a hash table of 16 to 32 slots per
    key that rules out most pairs before a binary search in ``keys``."""

    def __init__(self, vectors: Sequence[SparseVector]):
        self.nnz = np.array([v.nnz for v in vectors], dtype=np.int64)
        self.starts = np.cumsum(self.nnz) - self.nnz
        self.values = np.concatenate([v.values for v in vectors]
                                     + [np.zeros(0)])
        ids, self.id_rank = np.unique(
            np.concatenate([v.ids for v in vectors] + [np.zeros(0, np.int64)]),
            return_inverse=True)
        self.n_ids = max(1, ids.size)
        self.keys = self.id_rank + self.n_ids * np.repeat(
            np.arange(len(vectors)), self.nnz)
        bits = max(6, int(16 * self.keys.size).bit_length())
        self._shift = np.uint64(64 - bits)
        self._table = np.zeros(1 << bits, dtype=bool)
        self._table[self._slot(self.keys)] = True
        self._keys_end = np.append(self.keys, -1)  # -1 is no key

    def _slot(self, key: np.ndarray) -> np.ndarray:
        # Fibonacci hashing: the top bits of key * 2**64 / golden ratio
        return ((key.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> self._shift).view(np.int64)

    def find(self, at: np.ndarray, vec: np.ndarray):
        """The i whose entry ``at[i]`` has an id that vector ``vec[i]``
        has too, and the position of that vector's entry."""
        key = self.id_rank.take(at) + vec * self.n_ids
        maybe = np.flatnonzero(self._table.take(self._slot(key)))
        pos = np.searchsorted(self.keys, key[maybe])
        hit = self._keys_end[pos] == key[maybe]
        return maybe[hit], pos[hit]


def _union_terms(a: SparseVector, b: SparseVector, l1: bool) -> list[float]:
    """The terms of one cell, aligned on the union of the two supports."""
    ids = np.union1d(a.ids, b.ids)
    diff = np.zeros(ids.size)
    diff[np.searchsorted(ids, a.ids)] = a.values
    diff[np.searchsorted(ids, b.ids)] -= b.values
    return (np.abs(diff) if l1 else diff * diff).tolist()


class _Sums:
    """Many sums of nonnegative floats, each a TwoSum cascade (Ogita, Rump
    and Oishi 2005) that also sums its compensation by TwoSum.

    Adding x to s gives s' + e = s + x exactly; e is added to the
    compensation c as c' + d = c + e, exactly, and D = fl(sum |d|). So the
    exact sum is s + c + sum d, with |sum d| <= 2D (a float sum of
    nonnegative numbers is at least half their exact sum), and the result
    r = fl(s + c) has r + f = s + c exactly. ``result`` proves r correctly
    rounded when D = 0 (r is then the round-to-nearest-even of the exact
    sum, ties included) or when [f - 2D, f + 2D] lies strictly inside r's
    rounding interval: half the spacing above r and half the spacing below
    it, which differ at a power of two. Overflow is never proven."""

    def __init__(self, n: int):
        self.s, self.c, self.d = np.zeros(n), np.zeros(n), np.zeros(n)
        self._scratch = np.empty((4, n))

    def add(self, lo: int, x: np.ndarray) -> None:
        """Add ``x[i]`` to sum ``lo + i``, for every i."""
        e, d, t, z = self._scratch[:, :x.size]
        _two_sum(self.s[lo:], x, e, t, z)
        _two_sum(self.c[lo:], e, d, t, z)
        self.d[lo:] += np.abs(d, out=d)

    def take(self, order: np.ndarray) -> None:
        """Renumber the sums: sum i is the old sum ``order[i]``."""
        self.s, self.c, self.d = self.s[order], self.c[order], self.d[order]

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Each r, and whether it is proven correctly rounded."""
        r, f, t, z = self.s, *self._scratch[:3]
        _two_sum(r, self.c, f, t, z)
        half_up = (np.nextafter(r, np.inf) - r) * 0.5
        half_down = (r - np.nextafter(r, -np.inf)) * 0.5
        bound = 2.0 * self.d
        exact = np.isfinite(half_up) & ((self.d == 0.0) | (
            (f + bound < half_up) & (f - bound > -half_down)))
        return r, exact


def _two_sum(a, b, err, t, z) -> None:
    """a <- fl(a + b) and err <- a + b - fl(a + b), exactly (Knuth's
    TwoSum); ``t`` and ``z`` are scratch. No argument may share memory with
    ``err``, ``t`` or ``z``."""
    np.add(a, b, out=t)
    np.subtract(t, a, out=z)
    np.subtract(t, z, out=err)
    np.subtract(a, err, out=err)
    np.subtract(b, z, out=z)
    np.add(err, z, out=err)
    a[...] = t


def vector_distance(a: SparseVector, b: SparseVector, metric: VectorMetric) -> float:
    """Distance between two sparse vectors under the given metric."""
    return float(vector_distances([a, b], [0], [1], metric)[0])
