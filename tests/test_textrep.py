import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmdlab.errors import (
    DimMismatch,
    EmptyCorpus,
    InconsistentStats,
    InvalidInput,
    ZeroVector,
)
from wmdlab.textrep import (
    NormScheme,
    SparseVector,
    VectorMetric,
    Vocabulary,
    bow_vector,
    build_vocabulary,
    document_frequencies,
    normalize,
    tfidf_vector,
    vector_distance,
)

from helpers import entries, from_pairs, vector_sum, vector_to_dense
from oracle import ot_uniform


def vec(dense):
    return from_pairs(len(dense), enumerate(dense))


# -- vocabulary ------------------------------------------------------------------


def test_vocabulary_first_occurrence_order():
    vocab = build_vocabulary([["a", "b", "a"]])
    assert vocab.words == ("a", "b")
    assert len(vocab) == 2
    assert vocab.index["b"] == 1


def test_vocabulary_spans_documents():
    vocab = build_vocabulary([["b"], ["a", "b"], ["c"]])
    assert vocab.words == ("b", "a", "c")
    assert all(vocab.index[vocab.words[i]] == i for i in range(3))


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        build_vocabulary([])


def test_empty_token_rejected():
    with pytest.raises(InvalidInput):
        build_vocabulary([["a", ""]])


# -- sparse vectors ---------------------------------------------------------------


def test_sparse_vector_validates_order():
    with pytest.raises(InvalidInput):
        SparseVector(3, np.array([1, 0]), np.array([1.0, 2.0]))


def test_sparse_vector_rejects_nonpositive_values():
    with pytest.raises(InvalidInput):
        SparseVector(3, np.array([0]), np.array([0.0]))


def test_sparse_vector_is_immutable():
    v = vec([1.0, 2.0])
    with pytest.raises(AttributeError):
        v.dim = 5
    with pytest.raises(ValueError):
        v.values[0] = 9.0


@pytest.mark.parametrize("dense", [[], [0.0], [1.0, 0.0, 2.5]])
def test_sparse_vector_survives_pickle_and_copy(dense):
    v = vec(dense)
    for other in (pickle.loads(pickle.dumps(v)), copy.copy(v),
                  copy.deepcopy(v)):
        assert other == v and other.dim == v.dim
        assert other.ids.dtype == np.int64 and other.values.dtype == np.float64
        with pytest.raises(AttributeError):
            other.dim = 5
        with pytest.raises(ValueError):
            other.values[:] = 9.0


# -- bow -------------------------------------------------------------------------


def test_bow_counts():
    vocab = build_vocabulary([["a", "b", "c"]])
    v = bow_vector(["a", "a", "b"], vocab)
    assert entries(v) == [(0, 2.0), (1, 1.0)]


def test_bow_empty_document():
    vocab = build_vocabulary([["a"]])
    v = bow_vector([], vocab)
    assert v.nnz == 0


def test_bow_drops_unknown_tokens():
    vocab = build_vocabulary([["a", "b"]])
    v = bow_vector(["z"], vocab)
    assert v.nnz == 0


# -- tfidf -----------------------------------------------------------------------


def test_tfidf_hand_computed():
    docs = [["a", "a", "b"], ["a", "c"]]
    vocab = build_vocabulary(docs)
    df = document_frequencies(docs, vocab)
    assert df.tolist() == [2, 1, 1]
    v = tfidf_vector(bow_vector(docs[0], vocab), df, n_docs=2)
    # "a" appears in both docs -> weight 0, dropped; "b" gets 1 * log2(2/1)
    assert entries(v) == [(vocab.index["b"], 1.0)]


def test_tfidf_everywhere_word_omitted():
    docs = [["a", "b"], ["a"]]
    vocab = build_vocabulary(docs)
    df = document_frequencies(docs, vocab)
    v = tfidf_vector(bow_vector(["a"], vocab), df, n_docs=2)
    assert v.nnz == 0


def test_tfidf_single_document_corpus_is_empty():
    docs = [["a", "b"]]
    vocab = build_vocabulary(docs)
    df = document_frequencies(docs, vocab)
    assert tfidf_vector(bow_vector(docs[0], vocab), df, n_docs=1).nnz == 0


def test_tfidf_rejects_zero_document_frequency():
    vocab = build_vocabulary([["a"]])
    with pytest.raises(InconsistentStats):
        tfidf_vector(bow_vector(["a"], vocab), np.array([0]), n_docs=3)


def test_tfidf_weight_formula():
    docs = [["a", "a", "a", "b"], ["b"], ["b"], ["c"]]
    vocab = build_vocabulary(docs)
    df = document_frequencies(docs, vocab)
    v = tfidf_vector(bow_vector(docs[0], vocab), df, n_docs=4)
    weights = dict(entries(v))
    assert weights[vocab.index["a"]] == pytest.approx(3 * math.log2(4 / 1))
    assert weights[vocab.index["b"]] == pytest.approx(1 * math.log2(4 / 3))


# -- normalize -------------------------------------------------------------------


def test_normalize_l1():
    out = normalize(vec([2.0, 0.0, 2.0]), NormScheme.L1)
    assert vector_to_dense(out).tolist() == [0.5, 0.0, 0.5]


def test_normalize_none_is_identity():
    v = vec([3.0, 0.0, 1.0])
    assert normalize(v, NormScheme.NONE) == v


def test_normalize_l2():
    out = normalize(vec([3.0, 4.0]), NormScheme.L2)
    assert vector_to_dense(out) == pytest.approx([0.6, 0.8], abs=1e-15)


def test_normalize_empty_vector_raises():
    with pytest.raises(ZeroVector):
        normalize(from_pairs(4, []), NormScheme.L1)


count_vectors = st.lists(st.integers(0, 8), min_size=1, max_size=12).map(
    lambda xs: [float(x) for x in xs]
)


@settings(max_examples=80, deadline=None)
@given(count_vectors)
def test_property_l1_normalization_sums_to_one(dense):
    v = vec(dense)
    if v.nnz == 0:
        return
    out = normalize(v, NormScheme.L1)
    assert abs(vector_sum(out) - 1.0) <= 1e-12


# -- vector_distance ---------------------------------------------------------------


def test_distance_zero_on_equal():
    v = vec([0.3, 0.0, 0.7])
    assert vector_distance(v, v, VectorMetric.L1) == 0.0
    assert vector_distance(v, v, VectorMetric.L2) == 0.0


def test_distance_l1_hand_case():
    a = vec([0.5, 0.5, 0.0])
    b = vec([0.0, 0.5, 0.5])
    assert vector_distance(a, b, VectorMetric.L1) == pytest.approx(1.0)


def test_distance_l2_hand_case():
    a = vec([1.0, 0.0])
    b = vec([0.0, 1.0])
    assert vector_distance(a, b, VectorMetric.L2) == pytest.approx(
        math.sqrt(2.0)
    )


def test_distance_dim_mismatch():
    with pytest.raises(DimMismatch):
        vector_distance(vec([1.0]), vec([1.0, 2.0]), VectorMetric.L1)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_property_metric_axioms(data):
    dim = data.draw(st.integers(1, 10))
    dense = st.lists(st.integers(0, 8), min_size=dim, max_size=dim)
    a = vec([float(x) for x in data.draw(dense)])
    b = vec([float(x) for x in data.draw(dense)])
    c = vec([float(x) for x in data.draw(dense)])
    for metric in VectorMetric:
        dab = vector_distance(a, b, metric)
        assert dab >= 0.0
        assert dab == vector_distance(b, a, metric)
        assert (dab == 0.0) == (a == b)
        dac = vector_distance(a, c, metric)
        dcb = vector_distance(c, b, metric)
        assert dab <= dac + dcb + 1e-12


@settings(max_examples=80, deadline=None)
@given(count_vectors, count_vectors)
def test_property_l1l1_bridges_to_uniform_transport(da, db):
    dim = max(len(da), len(db))
    a = vec(da + [0.0] * (dim - len(da)))
    b = vec(db + [0.0] * (dim - len(db)))
    if a.nnz == 0 or b.nnz == 0:
        return
    na = normalize(a, NormScheme.L1)
    nb = normalize(b, NormScheme.L1)
    d = vector_distance(na, nb, VectorMetric.L1)
    assert d == pytest.approx(ot_uniform(na, nb), abs=1e-9)
    assert 0.0 <= d <= 2.0 + 1e-12
    disjoint = not set(na.ids.tolist()) & set(nb.ids.tolist())
    assert (abs(d - 2.0) <= 1e-9) == disjoint
