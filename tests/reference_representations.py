"""The token-based representation builders that ``wmd.representations``
replaced, kept verbatim as a test-only reference: each method counted the
document again, ``tfidf_vector`` through ``bow_vector``, and
``make_measure`` chose its weighting by name."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from wmdlab.errors import EmptySupport, InconsistentStats, InvalidInput
from wmdlab.textrep import NormScheme, SparseVector, Vocabulary, normalize
from wmdlab.wmd import DocumentMeasure, Method

from helpers import from_pairs

UNIFORM_COUNT = "uniform-count"
TFIDF_WEIGHTING = "tfidf"


@dataclass
class TokenResources:
    tokens: Mapping[int, Sequence[str]]
    vocab: Vocabulary
    doc_freq: np.ndarray | None = None
    n_docs: int | None = None


def bow_vector(doc: Sequence[str], vocab: Vocabulary) -> tuple[SparseVector, int]:
    """Count in-vocabulary occurrences; returns (vector, number of dropped tokens)."""
    counts: Counter[int] = Counter()
    dropped = 0
    for tok in doc:
        i = vocab.index.get(tok)
        if i is None:
            dropped += 1
        else:
            counts[i] += 1
    vec = from_pairs(len(vocab), counts.items())
    return vec, dropped


def tfidf_vector(
    doc: Sequence[str],
    vocab: Vocabulary,
    doc_freq: np.ndarray,
    n_docs: int,
) -> SparseVector:
    """Weight each in-vocabulary word by count * log2(n_docs / doc_freq).

    Words occurring in every document get weight zero and are omitted.
    """
    if n_docs < 1:
        raise InconsistentStats(f"n_docs must be >= 1, got {n_docs}")
    counts, _ = bow_vector(doc, vocab)
    pairs = []
    for i, c in zip(counts.ids.tolist(), counts.values.tolist()):
        df = int(doc_freq[i])
        if df < 1 or df > n_docs:
            raise InconsistentStats(
                f"word {vocab.words[i]!r} has document frequency {df} "
                f"out of range [1, {n_docs}]"
            )
        w = c * math.log2(n_docs / df)
        if w > 0.0:
            pairs.append((i, w))
    return from_pairs(len(vocab), pairs)


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


def representations(ids: Sequence[int], method: Method,
                    res: TokenResources) -> dict[int, object]:
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
