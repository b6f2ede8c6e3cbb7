import io
import math

import numpy as np
import pytest

from wmdlab.embeddings import EmbeddingStore, cost_submatrix, l2_normalize
from wmdlab.errors import EmptySupport, InvalidInput, ParseError
from wmdlab.ot_core import TransportProblem, solve_transport
from wmdlab.textrep import NormScheme, VectorMetric, build_vocabulary, \
    bow_vector, document_frequencies, normalize, vector_distance
from wmdlab.wmd import (
    UNIFORM_COUNT,
    TFIDF_WEIGHTING,
    DistanceMatrix,
    DocumentMeasure,
    Method,
    Resources,
    make_measure,
    pairwise_distances,
    read_distance_matrix,
    wmd_distance,
    write_distance_matrix,
)

from helpers import corrupt_cache_files, vector_to_dense
from oracle import brute_force_transport


@pytest.fixture
def orthogonal_store():
    """Six words on orthogonal axes scaled so every cross distance is 2."""
    n = 6
    tokens = [f"w{i}" for i in range(n)]
    return EmbeddingStore(tokens, np.eye(n) * math.sqrt(2.0))


def uniform_measure(tokens):
    vocab = build_vocabulary([tokens])
    return make_measure(tokens, UNIFORM_COUNT, vocab)


# -- measures --------------------------------------------------------------------


def test_measure_counts_normalized():
    vocab = build_vocabulary([["a", "b"]])
    m = make_measure(["a", "a", "b"], UNIFORM_COUNT, vocab)
    assert m.words == ("a", "b")
    assert m.weights.tolist() == [2 / 3, 1 / 3]


def test_measure_singleton():
    vocab = build_vocabulary([["a"]])
    m = make_measure(["a"], UNIFORM_COUNT, vocab)
    assert m.words == ("a",) and m.weights.tolist() == [1.0]


def test_measure_tfidf_drops_zero_idf_words():
    docs = [["a", "a", "b"], ["a"]]
    vocab = build_vocabulary(docs)
    df = document_frequencies(docs, vocab)  # a in both docs, b in one
    m = make_measure(["a", "a", "b"], TFIDF_WEIGHTING, vocab, df, n_docs=2)
    assert m.words == ("b",)
    assert m.weights.tolist() == [1.0]


def test_measure_empty_support():
    vocab = build_vocabulary([["a"]])
    with pytest.raises(EmptySupport):
        make_measure(["zzz"], UNIFORM_COUNT, vocab)


def test_measure_validates_weights():
    with pytest.raises(InvalidInput):
        DocumentMeasure(words=("a", "b"), weights=np.array([0.9, 0.3]))
    with pytest.raises(InvalidInput):
        DocumentMeasure(words=("a", "a"), weights=np.array([0.5, 0.5]))


# -- wmd_distance -----------------------------------------------------------------


def test_wmd_identity_is_zero(orthogonal_store):
    m = uniform_measure(["w0", "w1", "w1"])
    assert wmd_distance(m, m, orthogonal_store) == 0.0


def test_wmd_equilateral_disjoint_supports(orthogonal_store):
    # every route costs exactly 2, so every feasible plan costs 2
    m1 = uniform_measure(["w0", "w1", "w1"])
    m2 = uniform_measure(["w2", "w3"])
    got = wmd_distance(m1, m2, orthogonal_store)
    assert got == pytest.approx(2.0, abs=1e-9)
    cost = cost_submatrix(orthogonal_store, m1.words, m2.words)
    oracle = brute_force_transport(
        TransportProblem(m1.weights, m2.weights, cost)
    )
    assert got == pytest.approx(oracle, abs=1e-9)


def test_wmd_reduces_to_l1_bow_under_onehot_geometry(orthogonal_store):
    rng = np.random.default_rng(21)
    words = list(orthogonal_store.tokens)
    vocab = build_vocabulary([words])
    for _ in range(20):
        d1 = rng.choice(words, size=rng.integers(1, 8)).tolist()
        d2 = rng.choice(words, size=rng.integers(1, 8)).tolist()
        m1 = make_measure(d1, UNIFORM_COUNT, vocab)
        m2 = make_measure(d2, UNIFORM_COUNT, vocab)
        got = wmd_distance(m1, m2, orthogonal_store)
        a = normalize(bow_vector(d1, vocab)[0], NormScheme.L1)
        b = normalize(bow_vector(d2, vocab)[0], NormScheme.L1)
        want = vector_distance(a, b, VectorMetric.L1)
        assert got == pytest.approx(want, abs=1e-9)


def test_wmd_symmetric_and_bounded(clustered_store):
    rng = np.random.default_rng(22)
    words = list(clustered_store.tokens)
    for _ in range(15):
        m1 = uniform_measure(rng.choice(words, size=6).tolist())
        m2 = uniform_measure(rng.choice(words, size=4).tolist())
        forward = wmd_distance(m1, m2, clustered_store)
        backward = wmd_distance(m2, m1, clustered_store)
        assert forward == pytest.approx(backward, abs=1e-9)
        assert 0.0 <= forward <= 2.0
        cost = cost_submatrix(clustered_store, m1.words, m2.words)
        assert forward <= cost.max() + 1e-12
        if not set(m1.words) & set(m2.words):
            assert forward >= cost.min() - 1e-12


def test_wmd_scales_with_embedding_scale():
    rng = np.random.default_rng(23)
    tokens = [f"w{i}" for i in range(8)]
    base = EmbeddingStore(tokens, rng.normal(size=(8, 3)))
    scaled = EmbeddingStore(tokens, base.matrix * 2.5)
    m1 = uniform_measure(["w0", "w1", "w2"])
    m2 = uniform_measure(["w3", "w4"])
    assert wmd_distance(m1, m2, scaled) == pytest.approx(
        2.5 * wmd_distance(m1, m2, base), rel=1e-12
    )


def test_support_restriction_matches_full_problem(orthogonal_store):
    # same optimum whether zero-mass coordinates are dropped or kept
    words = list(orthogonal_store.tokens)
    vocab = build_vocabulary([words])
    d1, d2 = ["w0", "w1", "w1"], ["w1", "w3"]
    m1 = make_measure(d1, UNIFORM_COUNT, vocab)
    m2 = make_measure(d2, UNIFORM_COUNT, vocab)
    restricted = wmd_distance(m1, m2, orthogonal_store)
    full_cost = cost_submatrix(orthogonal_store, words, words)
    x = vector_to_dense(normalize(bow_vector(d1, vocab)[0], NormScheme.L1))
    y = vector_to_dense(normalize(bow_vector(d2, vocab)[0], NormScheme.L1))
    full = solve_transport(TransportProblem(x, y, full_cost)).objective
    assert restricted == pytest.approx(full, abs=1e-9)


# -- method parsing ---------------------------------------------------------------


def test_method_parse_variants():
    assert Method.parse("wmd").label == "wmd"
    assert Method.parse("WMD-TFIDF").label == "wmd-tfidf"
    m = Method.parse("bow(l1,l2)")
    assert m.norm is NormScheme.L1 and m.metric is VectorMetric.L2
    assert m.label == "bow(l1,l2)"
    assert Method.parse("tfidf").label == "tfidf(l1,l1)"
    assert Method.parse(" BOW ") == Method.parse("bow(l1,l1)")


def test_method_parse_rejects_garbage():
    for bad in ("sinkhorn", "bow(l1", "bow(l1,l2,l3)", "bow(l3,l1)"):
        with pytest.raises(InvalidInput):
            Method.parse(bad)


def test_method_kind_constraints():
    with pytest.raises(InvalidInput):
        Method("wmd", NormScheme.L1, VectorMetric.L1)
    with pytest.raises(InvalidInput):
        Method("bow")


# -- pairwise_distances -------------------------------------------------------------


@pytest.fixture
def small_resources(clustered_store):
    rng = np.random.default_rng(31)
    words = list(clustered_store.tokens)
    tokens = {}
    for i in range(6):
        cluster = words[(i % 3) * 10:(i % 3) * 10 + 10]
        tokens[i] = tuple(rng.choice(cluster, size=5).tolist())
    tokens[6] = ()  # vocabulary-filtered to nothing
    vocab = build_vocabulary([t for t in tokens.values() if t])
    df = document_frequencies(tokens.values(), vocab)
    return Resources(tokens=tokens, vocab=vocab, store=clustered_store,
                     doc_freq=df, n_docs=len(tokens))


def test_pairwise_wmd_zero_diagonal(small_resources):
    ids = [0, 1, 2, 3]
    dm = pairwise_distances(ids, ids, Method.parse("wmd"), small_resources)
    assert np.all(np.diag(dm.values) == 0.0)
    assert np.all(np.abs(dm.values - dm.values.T) <= 1e-9)


def test_pairwise_bow_matches_direct_distance(small_resources):
    ids = [0, 1, 2, 3, 4]
    method = Method.parse("bow(l1,l1)")
    dm = pairwise_distances(ids, ids, method, small_resources)
    for i in ids:
        for j in ids:
            a = normalize(bow_vector(small_resources.tokens[i],
                                     small_resources.vocab)[0], NormScheme.L1)
            b = normalize(bow_vector(small_resources.tokens[j],
                                     small_resources.vocab)[0], NormScheme.L1)
            want = 0.0 if i == j else vector_distance(a, b, VectorMetric.L1)
            assert dm.values[i, j] == want


def test_pairwise_marks_unusable_documents(small_resources):
    ids = [0, 1, 6]
    dm = pairwise_distances(ids, ids, Method.parse("wmd"), small_resources)
    # the sentinel wins even on the diagonal, so the whole row is excludable
    assert np.all(np.isinf(dm.values[2])) and np.all(np.isinf(dm.values[:, 2]))
    assert np.all(np.isfinite(dm.values[:2, :2]))


def test_pairwise_empty_doc_usable_without_normalization(small_resources):
    dm = pairwise_distances([0, 6], [0, 6], Method.parse("bow(none,l1)"),
                            small_resources)
    assert np.all(np.isfinite(dm.values))


def test_pairwise_deterministic_across_worker_counts(small_resources):
    ids = [0, 1, 2, 3, 4, 5]
    method = Method.parse("wmd")
    serial = pairwise_distances(ids, ids, method, small_resources)
    small_resources.workers = 2
    parallel = pairwise_distances(ids, ids, method, small_resources)
    assert np.array_equal(serial.values, parallel.values)


def test_pairwise_tfidf_method(small_resources):
    ids = [0, 1, 2, 3]
    dm = pairwise_distances(ids, ids, Method.parse("tfidf(l2,l2)"),
                            small_resources)
    assert np.all(np.diag(dm.values) == 0.0)
    assert np.all(dm.values >= 0.0)


def test_wmd_tfidf_differs_from_wmd(small_resources):
    ids = [0, 1, 2, 3, 4, 5]
    plain = pairwise_distances(ids, ids, Method.parse("wmd"), small_resources)
    weighted = pairwise_distances(ids, ids, Method.parse("wmd-tfidf"),
                                  small_resources)
    assert not np.array_equal(plain.values, weighted.values)


# -- distance matrix + cache --------------------------------------------------------


def test_distance_matrix_rejects_nan():
    with pytest.raises(InvalidInput):
        DistanceMatrix((0,), (1,), np.array([[math.nan]]))


def test_distance_matrix_submatrix():
    dm = DistanceMatrix((10, 11, 12), (20, 21),
                        np.arange(6, dtype=float).reshape(3, 2))
    sub = dm.submatrix([12, 10], [21])
    assert sub.row_ids == (12, 10) and sub.col_ids == (21,)
    assert sub.values.tolist() == [[5.0], [1.0]]


def test_cache_round_trip(tmp_path, small_resources):
    ids = [0, 1, 2, 6]
    dm = pairwise_distances(ids, ids, Method.parse("wmd"), small_resources)
    path = tmp_path / "cache.npy"
    write_distance_matrix(dm, str(path))
    back = read_distance_matrix(str(path), dm.row_ids, dm.col_ids)
    assert back.row_ids == dm.row_ids and back.col_ids == dm.col_ids
    # float64 round-trips bit for bit, inf included
    assert np.isinf(dm.values).any()
    assert back.values.tobytes() == dm.values.tobytes()


def test_cache_file_bytes(tmp_path):
    dm = DistanceMatrix((3, 10), (7, 0, 1), [
        [math.inf, 0.0, 5e-324],
        [0.1, 1 / 3, 1.7976931348623157e308],
    ])
    path = tmp_path / "pinned.npy"
    write_distance_matrix(dm, str(path))
    # a plain float64 .npy of the values alone, as np.save writes it
    expected = io.BytesIO()
    np.save(expected, dm.values)
    assert path.read_bytes() == expected.getvalue()
    loaded = np.load(path)
    assert loaded.dtype == np.float64 and loaded.shape == (2, 3)
    assert loaded.tobytes() == dm.values.tobytes()


def test_cache_rejects_corrupt_file(tmp_path):
    values = np.array([[0.0, 1.5, np.inf], [2.5, 0.0, 4.0]])
    for name, data in corrupt_cache_files(values).items():
        path = tmp_path / f"{name}.npy"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            read_distance_matrix(str(path), (0, 1), (0, 1, 2))
    # the ids a matrix is read for must match its shape
    path = tmp_path / "good.npy"
    write_distance_matrix(DistanceMatrix((0, 1), (0, 1, 2), values), path)
    with pytest.raises(ParseError):
        read_distance_matrix(str(path), (0, 1, 2), (0, 1))
    assert np.array_equal(read_distance_matrix(path, (5, 6), (7, 8, 9))
                          .values, values)
