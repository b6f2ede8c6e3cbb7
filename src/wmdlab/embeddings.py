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
(``wmd._fill_rows``).
"""

from __future__ import annotations

import logging
import mmap
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from typing import Collection, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidInput,
    MissingWord,
    ParseError,
    RankDeficient,
    ZeroVector,
    text_lines,
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


# Bytes of a word2vec-binary file parsed at a time (a text file is read by
# errors.text_lines, as every other text input is). It is mapped read-only
# a window of this size at a time, from where the last whole record ended;
# its records are parsed in place, only the kept rows' vectors are copied
# out, and each window is unmapped before the next is mapped. A load holds
# the kept rows, the record it is reading and at most one window of mapped
# file pages, whatever the size of the file, while every record fits in a
# window. A longer record also costs a few copies of its token (the match,
# the join, the decode) and is mapped again at twice the size that holds
# it. A filtered load (556 rows kept) of a 121 MB, 100k x 300
# word2vec-binary file in a fresh process, median of 12 interleaved runs
# per size on 2 cores: 256 KiB 0.051 s, 1 MiB 0.041 s, 4 MiB 0.038 s; peak
# RSS 38.9-39.2, 38.9-39.2 and 39.6-39.8 MB: 1 MiB maps a quarter of the
# pages of 4 MiB for 3 ms more. Copying each 1 MiB block out of the file
# instead took 0.051 s (39.8-39.9 MB).
_BLOCK_BYTES = 1 << 20


@contextmanager
def _window(fd: int, file_size: int, pos: int, size: int
            ) -> Iterator[tuple[mmap.mmap | bytes, int]]:
    """``(buf, base)``: the file ``fd``, of ``file_size`` bytes,
    mapped read-only from ``base``, ``pos`` rounded down to the map
    granularity, to ``pos + size`` or the file's end. No NumPy array or
    memoryview of ``buf`` may outlive the ``with`` block, which unmaps it.
    A window of no bytes, which cannot be mapped, is ``b""``."""
    base = pos - pos % mmap.ALLOCATIONGRANULARITY
    length = min(pos + size, file_size) - base
    if length <= 0:
        yield b"", base
        return
    with mmap.mmap(fd, length, access=mmap.ACCESS_READ, offset=base) as buf:
        yield buf, base


class _TextRecords:
    """The records of a text embedding file, each checked as it is read;
    ``dim`` is known once the first record has been read, and ``count``
    is the number of records read so far."""

    def __init__(self):
        self.dim: int | None = None
        self.count = 0

    def select(self, path: str, vocabulary: Collection[str] | None
               ) -> Iterator[tuple[int, str, np.ndarray, bool]]:
        """``(line number, token, vector, is zero)`` for every record of
        the file ``path`` whose token is in ``vocabulary`` (every record
        when None) or whose vector is zero, duplicates included."""
        for lineno, line in text_lines(path):
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
                vec = np.array(fields[1:], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if vec.size == 0:
                raise ParseError("no vector components", line=lineno)
            if self.dim is None:
                self.dim = vec.size
            elif vec.size != self.dim:
                raise ParseError(f"expected {self.dim} components, got "
                                 f"{vec.size}", line=lineno)
            self.count += 1
            # the norm is 0 exactly when every square is 0, underflow included
            zero = not (vec * vec).any()
            if vocabulary is None or fields[0] in vocabulary or zero:
                yield lineno, fields[0], vec, zero
        if self.dim is None:
            raise ParseError("no embedding records found", line=1)

    def matrix(self, rows: list[np.ndarray]) -> np.ndarray:
        return np.array(rows, dtype=np.float64).reshape(len(rows), self.dim)


@lru_cache(maxsize=4)
def _record_pattern(rec_bytes: int) -> re.Pattern:
    # a record (its token after any newlines), its space and its vector.
    # Built only once a whole record is in memory: ``re`` rejects a count
    # above 2**32 - 1, which a header may claim for a file too short to
    # hold one such record.
    return re.compile(rb"(\n*[^ ]*) .{%d}" % rec_bytes, re.DOTALL)


class _Word2VecRecords:
    """The records of a word2vec-binary file, found and checked a block at
    a time; ``dim`` is known once the header has been read, and ``count``
    is the number of records read so far. A record's vector is its
    ``4 * dim`` little-endian float32 bytes."""

    def __init__(self):
        self.dim: int | None = None
        self.count = 0

    def select(self, path: str, vocabulary: Collection[str] | None
               ) -> Iterator[tuple[int, str, bytes, bool]]:
        """``(offset, token, vector bytes, is zero)`` for every record of
        the file ``path`` whose token is in ``vocabulary`` (every record
        when None) or whose vector is zero, duplicates included; the offset
        is the token's."""
        with open(path, "rb", buffering=0) as stream:
            fd = stream.fileno()
            file_size = os.fstat(fd).st_size
            size = _BLOCK_BYTES
            while True:
                with _window(fd, file_size, 0, size) as (buf, _):
                    newline = buf.find(b"\n")
                    header = buf[:max(newline, 0)].split()
                if newline >= 0 or size >= file_size:
                    break
                size *= 2
            if newline < 0:
                raise ParseError("missing header line", offset=0)
            try:
                count, dim = map(int, header)  # exactly two integers
            except ValueError:
                raise ParseError("header must be 'count dim'",
                                 offset=0) from None
            if count < 1 or dim < 1:
                raise ParseError(f"bad header counts {count} {dim}", offset=0)
            self.dim = dim
            rec_bytes = 4 * dim
            wanted = None if vocabulary is None else {
                t.encode("utf-8", "surrogatepass") for t in vocabulary}
            # pos: the next record's offset
            pos, size = newline + 1, _BLOCK_BYTES
            while self.count < count:
                with _window(fd, file_size, pos, size) as (buf, base):
                    at = pos - base
                    # Every record that ends in the window has its token
                    # terminator at or before the last space that leaves room
                    # for a vector, and the records up to there match the
                    # pattern one after another. Ending the search there also
                    # bounds what findall retries after the last record to
                    # rec_bytes positions.
                    cut = buf.rfind(b" ", at, max(at, len(buf) - rec_bytes))
                    if cut >= 0:
                        found = _record_pattern(rec_bytes).findall(
                            buf, at, cut + 1 + rec_bytes)[:count - self.count]
                        pos = base + (yield from self._records(
                            found, buf, at, base, wanted))
                        size = _BLOCK_BYTES
                        continue
                    if len(buf) - at < size:
                        raise _truncated(buf[at:], pos)
                size *= 2  # the record at pos is longer than the window

    def _records(self, found: list[bytes], buf: mmap.mmap, start: int,
                 base: int, wanted: set[bytes] | None
                 ) -> Iterator[tuple[int, str, bytes, bool]]:
        """Check the records ``found`` from ``buf[start]`` on, where ``buf``
        sits at file offset ``base``, each as the bytes before its space,
        and yield the ones ``select`` picks; return where in ``buf`` the
        last one ends."""
        rec_bytes = 4 * self.dim
        k = len(found)
        # where each record's vector starts in buf
        vectors = start + np.cumsum(np.fromiter(map(len, found), np.int64, k)
                                    + (1 + rec_bytes)) - rec_bytes
        # no Python statement runs once per record: map, set methods and
        # compress walk the window's tokens in C
        tokens = list(map(bytes.lstrip, found, repeat(b"\n", k)))
        try:
            # no invalid sequence is made valid by joining at an ASCII byte
            b" ".join(tokens).decode("utf-8")
        except UnicodeDecodeError:
            for token, at in zip(tokens, vectors.tolist()):
                _check_token(token, base + at - 1 - len(token))
        # a float32 zero has zero low bytes: only a vector whose first three
        # bytes are zero can be all zeros (-0.0 included)
        u8 = np.frombuffer(buf, np.uint8)
        low = u8[vectors] | u8[vectors + 1] | u8[vectors + 2]
        zeros = {i for i in np.flatnonzero(low == 0).tolist()
                 if not np.frombuffer(buf, "<f4", self.dim,
                                      int(vectors[i])).any()}
        # a view of buf that an exception's traceback kept would make
        # unmapping the window fail
        del u8
        if wanted is None:
            picks = range(k)
        elif wanted.isdisjoint(tokens):  # a window with no corpus word
            picks = sorted(zeros)
        else:
            picks = sorted(zeros.union(
                compress(range(k), map(wanted.__contains__, tokens))))
        self.count += k
        for i in picks:
            at = int(vectors[i])
            yield (base + at - 1 - len(tokens[i]), tokens[i].decode("utf-8"),
                   buf[at:at + rec_bytes], i in zeros)
        return int(vectors[-1]) + rec_bytes

    def matrix(self, rows: list[bytes]) -> np.ndarray:
        flat = np.frombuffer(b"".join(rows), dtype="<f4")
        return flat.reshape(len(rows), self.dim).astype(np.float64)


def _check_token(token: bytes, offset: int) -> None:
    try:
        token.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"bad token bytes: {exc}", offset=offset) from None


def _truncated(data: bytes, offset: int) -> ParseError:
    """The error for a last record that the file cuts short: ``data`` runs
    from its file ``offset`` to the end of the file. Bad token bytes are
    raised first, as a record is checked in that order."""
    start = len(data) - len(data.lstrip(b"\n"))
    space = data.find(b" ")
    if space < 0:
        return ParseError("truncated record: no token terminator",
                          offset=offset + start)
    _check_token(data[start:space], offset + start)
    return ParseError("truncated record: short vector",
                      offset=offset + space + 1)


def load_embeddings(path: str, format: str = TEXT,
                    vocabulary: Collection[str] | None = None
                    ) -> EmbeddingStore:
    """Read an embedding file in the text or word2vec-binary layout.

    Every record is parsed and checked, and the first occurrence of a token
    wins. With ``vocabulary``, only the rows of its tokens are kept, so
    memory follows the vocabulary, not the file; ``None`` keeps every row.
    The file is read once, and again to place a dropped zero row. A text
    file is read by ``errors.text_lines``, as every other text input is.
    A word2vec-binary file is mapped read-only a window of ``_BLOCK_BYTES``
    at a time, and each window is unmapped before the next is mapped: a
    window starts where the last whole record ended, and one that holds no
    whole record is mapped again at twice the size. Only the kept rows'
    vectors are copied out of a window. A word2vec-binary file that another
    process truncates while a window of it is mapped kills the process with
    SIGBUS, not a ``ParseError``.

    Every ``ParseError`` names ``path``. A load fails as a whole-file load
    would: a parse error anywhere comes first, then the first all-zero
    row, kept or dropped, at its token's first line or byte offset. So
    ``l2_normalize`` cannot fail on a loaded store.
    """
    if format == TEXT:
        records = _TextRecords()
    elif format == WORD2VEC_BINARY:
        records = _Word2VecRecords()
    else:
        raise InvalidInput(f"unknown embedding format {format!r}")
    kept: dict = {}  # token -> row, in file order
    # (place, token) of the first kept zero row, and of the zero rows
    # dropped before it: a record's place is its line, or its byte offset
    # in a word2vec-binary file; a dropped one may repeat an earlier token
    first_zero = None
    dropped_zeros: list[tuple[int, str]] = []
    try:
        for n, token, raw, zero in records.select(path, vocabulary):
            if token in kept:
                continue
            if vocabulary is None or token in vocabulary:
                kept[token] = raw
                if zero and first_zero is None:
                    first_zero = n, token
            elif zero and first_zero is None:
                dropped_zeros.append((n, token))
        if dropped_zeros:
            first_zero = _first_occurrence(path, type(records)(),
                                           dropped_zeros) or first_zero
    except ParseError as exc:
        exc.path = path
        raise
    if first_zero is not None:
        n, token = first_zero
        raise ParseError(f"all-zero vector for {token!r}", path,
                         *((n, None) if format == TEXT else (None, n)))
    logger.info("embeddings: kept %d of %d rows (dim %d)", len(kept),
                records.count, records.dim)
    return EmbeddingStore(list(kept), records.matrix(list(kept.values())))


def _first_occurrence(path: str, records, candidates: list[tuple[int, str]]
                      ) -> tuple[int, str] | None:
    """The first candidate ``(place, token)`` that is its token's first
    occurrence in the file, or None.

    Re-reads the file as far as the last candidate, so that a load need not
    remember every token of the file for the rare file with a zero row.
    """
    wanted = {token for _, token in candidates}
    last = candidates[-1][0]
    first_at: dict[str, int] = {}
    for n, token, _, _ in records.select(path, wanted):
        if n > last:
            break
        if token in wanted:
            first_at.setdefault(token, n)
    return next(((n, token) for n, token in candidates
                 if first_at[token] == n), None)


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
