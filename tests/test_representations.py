"""``wmd.representations``, built from one count vector per document,
against the token-based builders it replaced, compared bit for bit for the
12 BOW/TF-IDF grid methods, ``wmd`` and ``wmd-tfidf``."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmdlab.corpus import Corpus, Document, filter_vocabulary
from wmdlab.textrep import NormScheme, build_vocabulary, document_frequencies
from wmdlab import wmd
from wmdlab.wmd import DocumentMeasure, Method, Resources, representations

import reference_representations as reference
from helpers import counts_of

GRID = [f"{kind}({norm},{metric})" for kind in ("bow", "tfidf")
        for norm in ("none", "l1", "l2") for metric in ("l1", "l2")]
METHODS = [Method.parse(s) for s in GRID + ["wmd", "wmd-tfidf"]]


def resources_of(tokens, vocab_docs=None):
    """``Resources`` over ``tokens``, with the vocabulary of ``vocab_docs``
    (default: all documents)."""
    vocab = build_vocabulary(list(tokens.values() if vocab_docs is None
                                  else vocab_docs))
    return Resources(counts=counts_of(tokens, vocab), vocab=vocab,
                     doc_freq=document_frequencies(tokens.values(), vocab),
                     n_docs=len(tokens))


def same_bits(a, b):
    """Whether two representations (or None) are equal bit for bit."""
    if a is None or b is None:
        return a is b
    if isinstance(a, DocumentMeasure):
        return (a.words, a.weights.tobytes()) \
            == (b.words, b.weights.tobytes())
    return (a.dim, a.ids.tobytes(), a.values.tobytes()) \
        == (b.dim, b.ids.tobytes(), b.values.tobytes())


def compare(tokens, vocab_docs=None):
    """Check every method's representations of ``tokens`` against the
    reference; the vocabulary comes from ``vocab_docs`` (default: all
    documents). Returns the number of usable documents per method."""
    res = resources_of(tokens, vocab_docs)
    ref = reference.TokenResources(tokens, res.vocab, res.doc_freq,
                                   len(tokens))
    ids = list(tokens)
    usable = {}
    for method in METHODS:
        got = representations(ids, method, res)
        want = reference.representations(ids, method, ref)
        assert list(got) == list(want)
        for i in ids:
            assert same_bits(got[i], want[i]), (method.label, i)
        usable[method.label] = sum(r is not None for r in got.values())
    return usable


ALL_OOV = (5, 18, 31)


def seeded_corpus(seed, keep_oov, every_everywhere):
    """40 documents of skewed word counts, with out-of-vocabulary words
    (dropped, or kept as ``--keep-oov`` keeps them), three all-OOV
    documents, the word "every" in every other document (in all of them
    with ``every_everywhere``) and one word repeated 1000 times."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(40)] + [f"oov{i}" for i in range(8)]
    p = 1.0 / np.arange(1, len(words) + 1)
    docs = []
    for n in range(40):
        if n in ALL_OOV:
            doc = rng.choice(words[40:], size=3).tolist()
            doc += ["every"] if every_everywhere else []
        else:
            size = int(rng.integers(1, 30))
            doc = rng.choice(words, size=size, p=p / p.sum()).tolist()
            doc.append("every")
        docs.append(Document(n, "x", tuple(doc)))
    docs[7] = Document(7, "x", docs[7].tokens + ("w3",) * 1000)
    corpus = filter_vocabulary(Corpus(documents=tuple(docs)),
                               frozenset(words[:40] + ["every"]),
                               keep_oov=keep_oov)
    return corpus.tokens_by_id()


@pytest.mark.parametrize("every_everywhere", [False, True])
@pytest.mark.parametrize("keep_oov", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_corpora_bit_identical(seed, keep_oov, every_everywhere):
    tokens = seeded_corpus(seed, keep_oov, every_everywhere)
    usable = compare(tokens)
    n = len(tokens)
    for method in METHODS:
        if keep_oov or method.norm is NormScheme.NONE:
            want = n
        elif method.kind in ("bow", "wmd") and every_everywhere:
            want = n  # the all-OOV documents keep "every"
        else:
            # the all-OOV documents are empty, or hold only "every",
            # whose TF-IDF weight is 0 when it is in every document
            want = n - len(ALL_OOV)
        assert usable[method.label] == want, method.label


@pytest.mark.parametrize("n_docs,df", [(49, 44), (124, 123), (129, 128)])
def test_tfidf_weights_keep_their_bits(n_docs, df):
    """Corpora where log2(n_docs / df) differs in the last bit between
    ``math.log2`` and ``np.log2``: a word in ``df`` of ``n_docs`` documents,
    up to three times in each."""
    assert math.log2(n_docs / df) != np.log2(n_docs / df)
    tokens = {i: (f"own{i}",) + ("common",) * (1 + i % 3 if i < df else 0)
              for i in range(n_docs)}
    usable = compare(tokens)
    assert usable["tfidf(l1,l1)"] == usable["wmd-tfidf"] == n_docs


def test_one_document_corpus():
    usable = compare({0: ("a", "b", "a", "c")})
    # every word is in every document: all TF-IDF weights are zero
    assert usable["bow(l1,l1)"] == usable["wmd"] == 1
    assert usable["tfidf(l1,l1)"] == usable["wmd-tfidf"] == 0
    assert usable["tfidf(none,l2)"] == 1


def test_words_outside_the_vocabulary_are_ignored():
    tokens = {0: ("a", "b", "b"), 1: ("b", "zz"), 2: ("zz", "yy"), 3: ()}
    usable = compare(tokens, vocab_docs=[tokens[0]])
    assert usable["bow(l2,l2)"] == 2 and usable["wmd"] == 2


corpora = st.dictionaries(
    st.integers(0, 50),
    st.lists(st.sampled_from(["a", "b", "c", "d", "e", "every"]), max_size=12),
    min_size=1, max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(corpora, st.data())
def test_random_corpora_bit_identical(corpus, data):
    tokens = {i: tuple(doc) for i, doc in corpus.items()}
    if data.draw(st.booleans()):  # one word in every document
        tokens = {i: doc + ("every",) for i, doc in tokens.items()}
    vocab_docs = None
    if data.draw(st.booleans()):  # some words outside the vocabulary
        vocab_docs = data.draw(st.lists(st.sampled_from(list(tokens.values())),
                                        min_size=1))
    compare(tokens, vocab_docs)


@pytest.mark.parametrize("seed", [0, 1])
def test_methods_share_one_build_bit_equal_to_a_fresh_one(monkeypatch, seed):
    """Every method (the 12 of the grid, wmd and wmd-tfidf), built over
    overlapping id sets in a drawn order from one ``Resources``, gets
    representations bit-equal to a fresh build; each document's TF-IDF
    vector is built once, and its representation once per weighting and
    norm."""
    tokens = seeded_corpus(seed, keep_oov=False, every_everywhere=False)
    shared = resources_of(tokens)
    calls = Counter()
    for name in ("tfidf_vector", "normalize"):
        real = getattr(wmd, name)
        monkeypatch.setattr(wmd, name, lambda *a, name=name, real=real:
                            calls.update([name]) or real(*a))
    rng = np.random.default_rng(seed)
    ids = list(tokens)
    builds = [(METHODS[m], rng.permutation(ids)[:25].tolist())
              for _ in range(3) for m in rng.permutation(len(METHODS))]
    got = [representations(part, method, shared) for method, part in builds]
    monkeypatch.undo()
    for (method, part), reps in zip(builds, got):
        fresh = representations(part, method, resources_of(tokens))
        assert list(reps) == part
        assert all(same_bits(reps[i], fresh[i]) for i in part), method.label
    # each (weighting, norm) builds a document once, and the 12 grid
    # methods need 6 vector sets; a usable representation makes one
    # normalize call, an unusable one none
    asked, usable = {}, {}
    for (method, part), reps in zip(builds, got):
        key = (method.kind in ("tfidf", "wmd-tfidf"), method.norm)
        asked.setdefault(key, set()).update(part)
        usable.setdefault(key, set()).update(
            i for i in part if reps[i] is not None)
    assert sum(norm is not None for _, norm in asked) == 6
    assert calls["tfidf_vector"] == len(set().union(
        *(d for (tfidf, _), d in asked.items() if tfidf)))
    assert calls["normalize"] == sum(map(len, usable.values()))
