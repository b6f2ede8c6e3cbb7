"""``wmd.representations``, built from one count vector per document,
against the token-based builders it replaced, compared bit for bit for the
12 BOW/TF-IDF grid methods, ``wmd`` and ``wmd-tfidf``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmdlab.corpus import Corpus, Document, filter_vocabulary
from wmdlab.textrep import NormScheme, build_vocabulary, document_frequencies
from wmdlab.wmd import Method, Resources, representations

import reference_representations as reference
from helpers import counts_of

GRID = [f"{kind}({norm},{metric})" for kind in ("bow", "tfidf")
        for norm in ("none", "l1", "l2") for metric in ("l1", "l2")]
METHODS = [Method.parse(s) for s in GRID + ["wmd", "wmd-tfidf"]]


def compare(tokens, vocab_docs=None):
    """Check every method's representations of ``tokens`` against the
    reference; the vocabulary comes from ``vocab_docs`` (default: all
    documents). Returns the number of usable documents per method."""
    vocab = build_vocabulary(list(tokens.values() if vocab_docs is None
                                  else vocab_docs))
    df = document_frequencies(tokens.values(), vocab)
    res = Resources(counts=counts_of(tokens, vocab), vocab=vocab,
                    doc_freq=df, n_docs=len(tokens))
    ref = reference.TokenResources(tokens, vocab, df, len(tokens))
    ids = list(tokens)
    usable = {}
    for method in METHODS:
        got = representations(ids, method, res)
        want = reference.representations(ids, method, ref)
        assert list(got) == list(want)
        for i in ids:
            a, b = got[i], want[i]
            if b is None:
                assert a is None, (method.label, i)
            elif method.uses_transport:
                assert a.words == b.words, (method.label, i)
                assert a.weights.tobytes() == b.weights.tobytes(), \
                    (method.label, i)
            else:
                assert a.dim == b.dim, (method.label, i)
                assert a.ids.tobytes() == b.ids.tobytes(), (method.label, i)
                assert a.values.tobytes() == b.values.tobytes(), \
                    (method.label, i)
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
