"""Seeded synthetic corpora and word2vec-binary embeddings for the benchmark.

The shapes copy the dataset table of Kusner et al. 2015 at a reduced size:
documents of a fixed number of unique words, repeated words within a
document, class-topic embeddings (so kNN errors are nonzero and depend on
the distances being right), and for the twitter-like shapes tokens that
the embedding file does not hold. The embedding file holds far more rows
than the corpus uses, as pretrained files do.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 300
EMBEDDING_ROWS = 100_000
TOKEN_LEN = 7  # "w" + 6 digits; fixed width lets numpy write the records


@dataclass(frozen=True)
class Shape:
    n_docs: int
    n_classes: int
    unique_words: int        # distinct words per document
    n_folds: int             # fold files written next to the corpus
    class_pool: int          # topic words per class
    shared_pool: int         # topic-free words every class draws from
    own_frac: float          # share of a document's words from its class
    topic_noise: float       # spread of a class's words around its centre
    oov_frac: float = 0.0    # share of tokens missing from the embeddings
    all_oov_docs: int = 0    # documents whose every token is missing
    train_frac: float = 0.7


@dataclass
class Generated:
    """What the checks need to know about the files, besides the files."""

    tokens: list[list[str]]
    folds: list[tuple[list[int], list[int]]]  # (train ids, test ids)
    vectors: dict[str, np.ndarray]   # float32 rows of every in-file corpus word


def _fold_split(rng, labels, all_oov, train_frac):
    """Class-stratified split; all-OOV documents form their own stratum."""
    strata: dict[object, list[int]] = {}
    for i, lab in enumerate(labels):
        strata.setdefault("oov" if i in all_oov else lab, []).append(i)
    train, test = [], []
    for key in sorted(strata, key=str):
        ids = strata[key]
        perm = rng.permutation(len(ids))
        n_train = int(round(len(ids) * train_frac))
        if key == "oov":
            n_train = len(ids) // 2
        train += [ids[p] for p in perm[:n_train]]
        test += [ids[p] for p in perm[n_train:]]
    return sorted(train), sorted(test)


def generate(shape: Shape, seed: int, out_dir: Path) -> Generated:
    """Write ``docs.txt``, ``docs.fold<k>.txt`` and ``vectors.bin``."""
    rng = np.random.default_rng(seed)
    k, p, g = shape.n_classes, shape.class_pool, shape.shared_pool

    # Embeddings: class words cluster around a class centre, shared words
    # and the unused rows are isotropic.
    centres = rng.standard_normal((k, DIM))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    matrix = rng.standard_normal((EMBEDDING_ROWS, DIM)).astype(np.float32)
    row_of_word = rng.permutation(EMBEDDING_ROWS)[:k * p + g]
    topic = np.repeat(centres, p, axis=0)
    noise = rng.standard_normal((k * p, DIM)) * (shape.topic_noise / np.sqrt(DIM))
    matrix[row_of_word[:k * p]] = (topic + noise).astype(np.float32)
    names = np.array([f"w{i:06d}" for i in range(EMBEDDING_ROWS)])
    words = names[row_of_word].tolist()
    class_words = [words[c * p:(c + 1) * p] for c in range(k)]
    shared_words = words[k * p:]

    # Documents: unique words drawn without replacement, then repeated.
    labels, tokens = [], []
    all_oov = set(rng.choice(shape.n_docs, size=shape.all_oov_docs,
                             replace=False).tolist())
    n_own = int(round(shape.unique_words * shape.own_frac))
    oov_serial = 0
    for i in range(shape.n_docs):
        c = i % k
        own = rng.choice(p, size=n_own, replace=False)
        other = rng.choice(g, size=shape.unique_words - n_own, replace=False)
        uniq = [class_words[c][j] for j in own] + [shared_words[j] for j in other]
        if i in all_oov:
            uniq = [f"q{oov_serial + j:06d}" for j in range(len(uniq))]
            oov_serial += len(uniq)
        repeats = rng.geometric(0.6, size=len(uniq))
        doc = [w for w, r in zip(uniq, repeats.tolist()) for _ in range(r)]
        doc = [doc[j] for j in rng.permutation(len(doc))]
        if shape.oov_frac:
            swap = rng.random(len(doc)) < shape.oov_frac
            for j in np.flatnonzero(swap).tolist():
                doc[j] = f"q{oov_serial:06d}"
                oov_serial += 1
        labels.append(f"class{c}")
        tokens.append(doc)

    folds = [_fold_split(rng, labels, all_oov, shape.train_frac)
             for _ in range(shape.n_folds)]

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "docs.txt", "w", encoding="utf-8") as fh:
        for lab, doc in zip(labels, tokens):
            fh.write(f"{lab}\t{' '.join(doc)}\n")
    for f, (train, test) in enumerate(folds):
        with open(out_dir / f"docs.fold{f}.txt", "w", encoding="utf-8") as fh:
            fh.write("train: " + " ".join(map(str, train)) + "\n")
            fh.write("test: " + " ".join(map(str, test)) + "\n")

    records = np.empty(EMBEDDING_ROWS, dtype=[
        ("tok", f"S{TOKEN_LEN}"), ("sp", "S1"), ("vec", "<f4", (DIM,)),
        ("nl", "S1")])
    records["tok"] = names.astype(f"S{TOKEN_LEN}")
    records["sp"] = b" "
    records["vec"] = matrix
    records["nl"] = b"\n"
    with open(out_dir / "vectors.bin", "wb") as fh:
        fh.write(f"{EMBEDDING_ROWS} {DIM}\n".encode())
        fh.write(records.tobytes())
        fh.flush()
        os.fsync(fh.fileno())  # no writeback of 120 MB while runs are timed

    used = {w for doc in tokens for w in doc if w.startswith("w")}
    index = {w: r for w, r in zip(words, row_of_word.tolist())}
    vectors = {w: matrix[index[w]].copy() for w in used}
    return Generated(tokens=tokens, folds=folds, vectors=vectors)


def in_vocab_counts(gen: Generated) -> list[Counter]:
    """Per document, the counts of its tokens that the embeddings hold."""
    return [Counter(t for t in doc if t in gen.vectors) for doc in gen.tokens]
