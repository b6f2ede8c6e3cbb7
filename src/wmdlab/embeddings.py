"""Word embedding storage: loading, unit-norm scaling, cost matrices, PCA.

Cost matrices are slices of a block of Euclidean distances between the
words asked for, built with NumPy alone and bit-identical to SciPy's
``cdist``: for each pair the kernel forms (a_k - b_k)**2 and adds the
squares over k from left to right, starting at 0.0, then takes the square
root, which is what ``cdist`` computes. Each of those is a single IEEE-754
float64 operation, correctly rounded, so the same operations in the same
order give the same bits whichever library runs them, and a cell has the
same bits in every block that holds it. A NumPy reduction (``sum``,
``einsum``, ``linalg.norm``, a dot product) may add in another order and
differs from ``cdist`` in the last bits of most cells. Which blocks to
build, and which to share between documents, is decided by the caller
(``wmd.pair_distances``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Container, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    InvalidInput,
    MissingWord,
    ParseError,
    RankDeficient,
    ZeroVector,
)

TEXT = "text"
WORD2VEC_BINARY = "word2vec-binary"

logger = logging.getLogger(__name__)


class EmbeddingStore:
    """Immutable token -> dense vector map.

    ``distances`` gives the Euclidean distances between the words asked
    for, as a new block each call.
    """

    __slots__ = ("tokens", "matrix", "index", "dim", "normalized")

    def __init__(self, tokens: Sequence[str], matrix: np.ndarray,
                 normalized: bool = False):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(tokens):
            raise InvalidInput("matrix must be (n_tokens, dim)")
        matrix.setflags(write=False)
        object.__setattr__(self, "tokens", tuple(tokens))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.tokens)})
        object.__setattr__(self, "dim", int(matrix.shape[1]))
        object.__setattr__(self, "normalized", bool(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("EmbeddingStore is immutable")

    def __reduce__(self):
        return EmbeddingStore, (self.tokens, self.matrix, self.normalized)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def rows(self, words: Sequence[str]) -> np.ndarray:
        return self.matrix[_positions(self.index, words)]

    def distances(self, src_words: Sequence[str],
                  dst_words: Sequence[str]) -> WordDistances:
        """A read-only block of the ``src_words`` x ``dst_words`` distances,
        each word once; only its upper half is computed when both lists
        hold the same words in the same order."""
        src, dst = list(dict.fromkeys(src_words)), list(dict.fromkeys(dst_words))
        values = _euclidean(self.rows(src), self.rows(dst), self.normalized,
                            symmetric=src == dst)
        values.setflags(write=False)
        return WordDistances({w: i for i, w in enumerate(src)},
                             {w: j for j, w in enumerate(dst)}, values)


# Bytes read from a word2vec-binary file at a time: a load holds the kept
# rows plus at most three blocks, whatever the size of the file.
_BLOCK_BYTES = 16 << 20


class _TextRecords:
    """The records of a text embedding file, each checked as it is read.

    Iterating yields ``(token, vector)`` for every record line, duplicates
    included; ``dim`` is known once the first record has been read.
    """

    def __init__(self, path: str):
        self.path = path
        self.dim: int | None = None

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                fields = line.split()
                if not fields:
                    continue
                if lineno == 1 and len(fields) == 2:
                    try:
                        int(fields[0]), int(fields[1])
                        continue  # optional "count dim" header
                    except ValueError:
                        pass
                try:
                    vec = np.array([float(x) for x in fields[1:]],
                                   dtype=np.float64)
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: {exc}",
                                     line=lineno) from None
                if vec.size == 0:
                    raise ParseError(f"line {lineno}: no vector components",
                                     line=lineno)
                if self.dim is None:
                    self.dim = vec.size
                elif vec.size != self.dim:
                    raise DimMismatch(f"line {lineno}: expected {self.dim} "
                                      f"components, got {vec.size}")
                yield fields[0], vec
        if self.dim is None:
            raise ParseError("no embedding records found", line=1)

    @staticmethod
    def is_zero(vec: np.ndarray) -> bool:
        # the norm is 0 exactly when every square is 0, underflow included
        return not (vec * vec).any()

    def matrix(self, rows: list[np.ndarray]) -> np.ndarray:
        return np.array(rows, dtype=np.float64).reshape(len(rows), self.dim)


class _Word2VecRecords:
    """The records of a word2vec-binary file, read in fixed-size blocks.

    Iterating yields ``(token, raw)`` for every record, duplicates included,
    where ``raw`` is the record's ``4 * dim`` little-endian float32 bytes;
    ``dim`` is known once the header has been read.
    """

    def __init__(self, path: str):
        self.path = path
        self.dim: int | None = None

    def __iter__(self) -> Iterator[tuple[str, bytes]]:
        with open(self.path, "rb") as fh:
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise ParseError("missing header line", offset=0)
            header = line.split()
            if len(header) != 2:
                raise ParseError("header must be 'count dim'", offset=0)
            try:
                count, dim = int(header[0]), int(header[1])
            except ValueError:
                raise ParseError("header must be 'count dim'",
                                 offset=0) from None
            if count < 1 or dim < 1:
                raise ParseError(f"bad header counts {count} {dim}", offset=0)
            self.dim = dim
            rec_bytes = 4 * dim
            # buf[0] sits at file offset `base`, buf[pos:] is not parsed yet
            # and n == len(buf). Each inner loop reads on only when a record
            # runs past buf.
            block = _BLOCK_BYTES
            buf, base, pos, n = b"", len(line), 0, 0
            for _ in range(count):
                while True:
                    while pos < n and buf[pos] == 10:  # b"\n"
                        pos += 1
                    if pos < n:
                        break
                    chunk = fh.read(block)
                    if not chunk:
                        break
                    buf, base, pos, n = chunk, base + n, 0, len(chunk)
                sp = buf.find(b" ", pos)
                while sp < 0:
                    chunk = fh.read(block)
                    if not chunk:
                        raise ParseError("truncated record: no token terminator",
                                         offset=base + pos)
                    scanned = n - pos
                    buf, base, pos = buf[pos:] + chunk, base + pos, 0
                    n = len(buf)
                    sp = buf.find(b" ", scanned)
                try:
                    token = buf[pos:sp].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"bad token bytes: {exc}",
                                     offset=base + pos) from None
                end = sp + 1 + rec_bytes
                while end > n:
                    chunk = fh.read(block)
                    if not chunk:
                        raise ParseError("truncated record: short vector",
                                         offset=base + sp + 1)
                    buf, base = buf[pos:] + chunk, base + pos
                    sp, end, pos, n = sp - pos, end - pos, 0, len(buf)
                yield token, buf[sp + 1:end]
                pos = end

    @staticmethod
    def is_zero(raw: bytes) -> bool:
        # a float32 zero has zero low bytes; check the first component's
        # before decoding the record
        return (raw[0] == 0 and raw[1] == 0 and raw[2] == 0
                and not np.frombuffer(raw, dtype="<f4").any())

    def matrix(self, rows: list[bytes]) -> np.ndarray:
        flat = np.frombuffer(b"".join(rows), dtype="<f4")
        return flat.reshape(len(rows), self.dim).astype(np.float64)


def load_embeddings(path: str, format: str = TEXT,
                    vocabulary: Container[str] | None = None
                    ) -> EmbeddingStore:
    """Read an embedding file in the text or word2vec-binary layout.

    Every record is parsed and checked, and the first occurrence of a token
    wins. With ``vocabulary``, only the rows of its tokens are kept, so
    memory follows the vocabulary, not the file; ``None`` keeps every row.
    Word2vec-binary files are read in blocks of ``_BLOCK_BYTES``.

    A filtered load followed by ``l2_normalize`` fails as the whole file
    would: a parse error anywhere in the file comes first, then
    ``ZeroVector`` for the file's first all-zero row. The loader raises
    that itself when the row is one it drops.
    """
    if format == TEXT:
        records = _TextRecords(path)
    elif format == WORD2VEC_BINARY:
        records = _Word2VecRecords(path)
    else:
        raise InvalidInput(f"unknown embedding format {format!r}")
    kept: dict = {}  # token -> row, in file order
    # zero rows dropped before the first kept zero row, as
    # (record number, token); some may repeat an earlier token
    dropped_zeros: list[tuple[int, str]] = []
    kept_zero = False
    n_records = 0
    is_zero = records.is_zero
    for n_records, (token, raw) in enumerate(records, start=1):
        if token in kept:
            continue
        if vocabulary is None or token in vocabulary:
            kept[token] = raw
            if vocabulary is not None and not kept_zero:
                kept_zero = is_zero(raw)
        elif not kept_zero and is_zero(raw):
            dropped_zeros.append((n_records, token))
    if dropped_zeros:
        token = _first_occurrence(records, dropped_zeros)
        if token is not None:
            raise ZeroVector(token)
    logger.info("embeddings: kept %d of %d rows (dim %d)", len(kept),
                n_records, records.dim)
    return EmbeddingStore(list(kept), records.matrix(list(kept.values())))


def _first_occurrence(records, candidates: list[tuple[int, str]]
                      ) -> str | None:
    """The token of the first candidate ``(record number, token)`` that is
    its token's first occurrence in ``records``, or None.

    Re-reads the file as far as the last candidate, so that a load need not
    remember every token of the file for the rare file with a zero row.
    """
    wanted = {token for _, token in candidates}
    last = candidates[-1][0]
    first_at: dict[str, int] = {}
    for n, (token, _) in enumerate(records, start=1):
        if n > last:
            break
        if token in wanted:
            first_at.setdefault(token, n)
    for n, token in candidates:
        if first_at[token] == n:
            return token
    return None


def l2_normalize(store: EmbeddingStore) -> EmbeddingStore:
    """Scale every vector to unit Euclidean norm."""
    norms = np.linalg.norm(store.matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(store.tokens[int(zero[0])])
    return EmbeddingStore(store.tokens, store.matrix / norms[:, None],
                          normalized=True)


# rows of the left operand per kernel pass: bounds the work arrays to
# 2 * _KERNEL_ROWS * len(b) * 8 bytes
_KERNEL_ROWS = 64


def _euclidean(a: np.ndarray, b: np.ndarray, clip: bool,
               symmetric: bool = False) -> np.ndarray:
    """``out[i, j]`` = sqrt(sum_k (a[i, k] - b[j, k])**2), summed over k left
    to right, as SciPy's ``cdist`` sums it.

    Each subtraction, square, addition and square root is one IEEE operation
    on float64, correctly rounded, and the additions come in the same order,
    so every bit equals ``cdist``'s. Reductions (``sum``, ``einsum``, norms,
    dot products) may pair terms in another order, and differ in most cells.
    With ``clip`` every distance is capped at 2.0, the diameter of the unit
    sphere. With ``symmetric`` (``a`` is ``b``) only the upper half is
    computed; (x - y)**2 and (y - x)**2 are the same bits, so the mirror is
    exact.
    """
    at, bt = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    out = np.empty((a.shape[0], b.shape[0]))
    for r0 in range(0, a.shape[0], _KERNEL_ROWS):
        r1 = min(r0 + _KERNEL_ROWS, a.shape[0])
        c0 = r0 if symmetric else 0
        acc = np.zeros((r1 - r0, b.shape[0] - c0))
        diff = np.empty_like(acc)
        for ak, bk in zip(at[:, r0:r1], bt[:, c0:]):
            np.subtract(ak[:, None], bk[None, :], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(acc, diff, out=acc)
        np.sqrt(acc, out=acc)
        out[r0:r1, c0:] = acc
        if symmetric:
            out[r1:, r0:r1] = acc[:, r1 - r0:].T
    if clip:
        np.minimum(out, 2.0, out=out)
    return out


@dataclass(frozen=True)
class WordDistances:
    """Euclidean distances from the embeddings of the ``rows`` words to those
    of the ``cols`` words (each a word -> position map); read-only."""

    rows: Mapping[str, int]
    cols: Mapping[str, int]
    values: np.ndarray

    def cost(self, src_words: Sequence[str],
             dst_words: Sequence[str]) -> np.ndarray:
        """The ``src_words`` x ``dst_words`` distances, as a new array."""
        return self.values[np.ix_(_positions(self.rows, src_words),
                                  _positions(self.cols, dst_words))]


def _positions(index: Mapping[str, int], words: Sequence[str]) -> list[int]:
    try:
        return [index[w] for w in words]
    except KeyError as exc:
        raise MissingWord(exc.args[0]) from None


def cost_submatrix(store: EmbeddingStore | WordDistances,
                   src_words: Sequence[str],
                   dst_words: Sequence[str]) -> np.ndarray:
    """Pairwise Euclidean distances between two word lists' embeddings, as a
    new array: a slice of a block of distances that covers these words, or
    of a new block of just these words when ``store`` is the embedding
    store."""
    if isinstance(store, EmbeddingStore):
        store = store.distances(src_words, dst_words)
    return store.cost(src_words, dst_words)


def project_pca(store: EmbeddingStore, target_dim: int,
                fit_vocab: Sequence[str]) -> EmbeddingStore:
    """Project the whole store onto the top principal directions of a vocabulary.

    The projection is fit on the mean-centered embeddings of ``fit_vocab``
    (duplicates ignored) via eigendecomposition of the sample covariance.
    Each principal direction is sign-fixed so its largest-magnitude entry
    is positive, making the output deterministic.
    """
    if not 1 <= target_dim <= store.dim:
        raise InvalidInput(
            f"target_dim {target_dim} out of range [1, {store.dim}]"
        )
    fit_words = list(dict.fromkeys(fit_vocab))
    if len(fit_words) < target_dim:
        raise InvalidInput(
            f"need at least {target_dim} fit words, got {len(fit_words)}"
        )
    x = store.rows(fit_words)
    mean = x.mean(axis=0)
    if x.shape[0] < 2:
        raise RankDeficient("cannot fit a covariance on fewer than 2 vectors")
    cov = np.cov(x, rowvar=False, ddof=1).reshape(store.dim, store.dim)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    tol = max(float(eigvals[0]), 0.0) * max(x.shape) * np.finfo(np.float64).eps
    n_nonzero = int(np.count_nonzero(eigvals > tol))
    if n_nonzero < target_dim:
        raise RankDeficient(
            f"{n_nonzero} nonzero principal directions, need {target_dim}"
        )
    basis = eigvecs[:, :target_dim].copy()
    for c in range(target_dim):
        k = int(np.argmax(np.abs(basis[:, c])))
        if basis[k, c] < 0:
            basis[:, c] = -basis[:, c]
    projected = (store.matrix - mean) @ basis
    return EmbeddingStore(store.tokens, projected, normalized=False)
