"""Labeled corpus ingestion, vocabulary filtering, duplicates, and folds.

Corpus file: UTF-8, one document per line, ``label TAB token SP token ...``.
Fold files are siblings named ``<stem>.fold<k><ext>`` (``<stem>.fold<k>`` for
extension-less corpora), each holding a ``train: id id ...`` line and a
``test: id id ...`` line of 0-based document line numbers.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Container

import numpy as np

from .errors import InvalidInput, ParseError, TooSmall

logger = logging.getLogger(__name__)

ONE_FOLD = "one-fold"
FIVE_FOLD = "five-fold"


@dataclass(frozen=True)
class Document:
    doc_id: int
    label: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Fold:
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]


@dataclass(frozen=True)
class Corpus:
    """Labeled documents plus optional train/test fold assignments."""

    documents: tuple[Document, ...]
    folds: tuple[Fold, ...] = ()
    name: str = ""

    def __post_init__(self):
        ids = [d.doc_id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise InvalidInput("document ids must be unique")
        id_set = set(ids)
        for d in self.documents:
            if not d.label:
                raise InvalidInput(f"document {d.doc_id} has an empty label")
        for f in self.folds:
            train, test = set(f.train_ids), set(f.test_ids)
            if train & test:
                raise InvalidInput("fold train/test ids overlap")
            if not (train | test) <= id_set:
                raise InvalidInput("fold references unknown document ids")

    @property
    def split_type(self) -> str:
        if len(self.folds) == 1:
            return ONE_FOLD
        if len(self.folds) == 5:
            return FIVE_FOLD
        return f"{len(self.folds)}-fold" if self.folds else "unsplit"

    def ids(self) -> tuple[int, ...]:
        return tuple(d.doc_id for d in self.documents)

    def tokens_by_id(self) -> dict[int, tuple[str, ...]]:
        return {d.doc_id: d.tokens for d in self.documents}

    def labels_by_id(self) -> dict[int, str]:
        return {d.doc_id: d.label for d in self.documents}

    def empty_ids(self) -> tuple[int, ...]:
        return tuple(d.doc_id for d in self.documents if not d.tokens)


@dataclass(frozen=True)
class DuplicateReport:
    """Pairs and samples of documents with identical token multisets."""

    pairs: tuple[tuple[int, int], ...]
    samples: tuple[int, ...]
    cross_split: tuple[tuple[int, int], ...]
    conflicting: tuple[tuple[int, int], ...]
    classes: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def n_samples(self) -> int:
        return len(self.samples)


def _parse_fold_file(path: Path, n_docs: int) -> Fold:
    lines = path.read_text(encoding="utf-8").splitlines()
    sides: dict[str, tuple[int, ...]] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        head, sep, rest = line.partition(":")
        head = head.strip()
        if not sep or head not in ("train", "test") or head in sides:
            raise ParseError(f"{path}: bad fold line", line=lineno)
        try:
            ids = tuple(int(x) for x in rest.split())
        except ValueError:
            raise ParseError(f"{path}: non-integer id", line=lineno) from None
        if any(i < 0 or i >= n_docs for i in ids):
            raise ParseError(f"{path}: id out of range", line=lineno)
        sides[head] = ids
    if set(sides) != {"train", "test"}:
        raise ParseError(f"{path}: need one train line and one test line",
                         line=len(lines))
    return Fold(train_ids=sides["train"], test_ids=sides["test"])


def fold_paths_for(path: str | Path) -> list[Path]:
    """Sibling fold files of a corpus file, ordered by fold index."""
    p = Path(path)
    prefix = f"{p.stem}.fold"
    found = []
    for cand in p.parent.glob(f"{prefix}*{p.suffix}"):
        k = cand.name[len(prefix):]
        if p.suffix:
            k = k[:-len(p.suffix)]
        if k.isdigit():
            found.append((int(k), cand))
    return [c for _, c in sorted(found)]


def load_corpus(path: str | Path) -> Corpus:
    """Parse a corpus file; attaches sibling fold files when present."""
    path = Path(path)
    documents = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            # document ids are 0-based line numbers, so every line must parse
            label, sep, text = line.rstrip("\n").partition("\t")
            if not sep:
                raise ParseError(f"{path}: no TAB separator", line=lineno)
            if not label:
                raise ParseError(f"{path}: empty label", line=lineno)
            documents.append(Document(doc_id=lineno - 1, label=label,
                                      tokens=tuple(text.split())))
    folds = tuple(_parse_fold_file(fp, len(documents))
                  for fp in fold_paths_for(path))
    return Corpus(documents=tuple(documents), folds=folds, name=path.stem)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Re-emit a corpus in the one-document-per-line format.

    Documents are renumbered by line position, so sibling fold files of the
    source corpus do not apply to the written file.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for d in corpus.documents:
            fh.write(f"{d.label}\t{' '.join(d.tokens)}\n")


def read_stopwords(path: str | Path) -> frozenset[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return frozenset(w.strip() for w in fh if w.strip())


def filter_vocabulary(corpus: Corpus, store: Container[str] | None,
                      stopwords: Container[str] | None = None,
                      keep_oov: bool = False) -> Corpus:
    """Drop tokens missing from the embedding store (and any stopwords).

    With ``keep_oov`` only stopwords are removed and ``store`` is never
    consulted, so it may be None. Documents may end up empty; they are
    retained (``Corpus.empty_ids`` reports them).
    """
    docs = []
    for d in corpus.documents:
        tokens = tuple(
            t for t in d.tokens
            if (keep_oov or t in store)
            and (stopwords is None or t not in stopwords)
        )
        docs.append(Document(d.doc_id, d.label, tokens))
    return Corpus(documents=tuple(docs), folds=corpus.folds, name=corpus.name)


def find_duplicates(corpus: Corpus) -> DuplicateReport:
    """Group documents whose token multisets are identical."""
    groups: dict[tuple[str, ...], list[int]] = {}
    for d in corpus.documents:
        groups.setdefault(tuple(sorted(d.tokens)), []).append(d.doc_id)
    labels = corpus.labels_by_id()
    classes = tuple(tuple(sorted(g)) for g in groups.values() if len(g) > 1)
    classes = tuple(sorted(classes))
    pairs = tuple(pair for cls in classes
                  for pair in itertools.combinations(cls, 2))
    samples = tuple(sorted({i for cls in classes for i in cls}))
    cross = []
    conflicting = []
    fold_sides = [(set(f.train_ids), set(f.test_ids)) for f in corpus.folds]
    for i, j in pairs:
        if labels[i] != labels[j]:
            conflicting.append((i, j))
        if any((i in tr and j in te) or (j in tr and i in te)
               for tr, te in fold_sides):
            cross.append((i, j))
    return DuplicateReport(pairs=pairs, samples=samples,
                           cross_split=tuple(cross),
                           conflicting=tuple(conflicting), classes=classes)


def deduplicate(corpus: Corpus, report: DuplicateReport) -> Corpus:
    """Keep one representative per duplicate class; drop conflicting classes.

    Classes whose members disagree on the label are removed entirely. For
    a corpus with a single fixed fold, a training-side member (smallest id)
    is preferred as representative to avoid train/test leakage; otherwise
    the smallest id wins.
    """
    labels = corpus.labels_by_id()
    train0 = set(corpus.folds[0].train_ids) if len(corpus.folds) == 1 else None
    drop: set[int] = set()
    for cls in report.classes:
        if len({labels[i] for i in cls}) > 1:
            drop.update(cls)
            logger.info("dropping conflicting-label duplicates %s", cls)
            continue
        if train0 is not None:
            train_members = [i for i in cls if i in train0]
            keep = min(train_members) if train_members else min(cls)
        else:
            keep = min(cls)
        removed = [i for i in cls if i != keep]
        drop.update(removed)
        logger.info("duplicate class %s: keeping %d, dropping %s",
                    cls, keep, removed)
    documents = tuple(d for d in corpus.documents if d.doc_id not in drop)
    folds = tuple(
        Fold(train_ids=tuple(i for i in f.train_ids if i not in drop),
             test_ids=tuple(i for i in f.test_ids if i not in drop))
        for f in corpus.folds
    )
    return Corpus(documents=documents, folds=folds, name=corpus.name)


def make_folds(corpus: Corpus, n_folds: int, train_fraction: float,
               seed: int) -> Corpus:
    """Attach seeded random train/test splits (one shuffle per fold)."""
    if n_folds < 1:
        raise InvalidInput(f"n_folds must be >= 1, got {n_folds}")
    if not 0 < train_fraction < 1:
        raise InvalidInput(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    ids = corpus.ids()
    n = len(ids)
    n_train = round(n * train_fraction)
    if n < 2 or n_train < 1 or n_train >= n:
        raise TooSmall(
            f"{n} documents at fraction {train_fraction} leaves an empty side"
        )
    folds = []
    for f in range(n_folds):
        rng = np.random.default_rng([seed, f])
        perm = rng.permutation(n)
        train = tuple(sorted(ids[i] for i in perm[:n_train]))
        test = tuple(sorted(ids[i] for i in perm[n_train:]))
        folds.append(Fold(train_ids=train, test_ids=test))
    return Corpus(documents=corpus.documents, folds=tuple(folds),
                  name=corpus.name)
