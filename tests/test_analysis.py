import math

import numpy as np
import pytest

from wmdlab import analysis
from wmdlab.analysis import (
    CROSS_SPLIT,
    LEAVE_ONE_OUT,
    TransportHistogram,
    bow_wmd_scatter,
    dim_comparison,
    nearest_neighbor_pairs,
    pearson,
    sample_document_pairs,
    transport_histogram,
    write_histogram_csv,
    write_scatter_csv,
)
from wmdlab.corpus import Corpus, Document
from wmdlab.embeddings import EmbeddingStore, l2_normalize
from wmdlab.errors import DegenerateInput, InvalidInput, NoFiniteNeighbor
from wmdlab.textrep import NormScheme, bow_vector, build_vocabulary, normalize
from wmdlab.wmd import DistanceMatrix, UNIFORM_COUNT, make_measure

from conftest import dim_sweep


def measures_for(token_lists):
    vocab = build_vocabulary(token_lists)
    return {i: make_measure(toks, UNIFORM_COUNT, vocab)
            for i, toks in enumerate(token_lists)}


@pytest.fixture
def onehot_store():
    tokens = [f"w{i}" for i in range(8)]
    return EmbeddingStore(tokens, np.eye(8) * math.sqrt(2.0))


# -- nearest neighbors -------------------------------------------------------------


def test_nn_single_cell():
    dm = DistanceMatrix((0,), (1,), np.array([[0.4]]))
    assert nearest_neighbor_pairs(dm, CROSS_SPLIT) == [(0, 1)]


def test_nn_leave_one_out_two_docs():
    dm = DistanceMatrix((0, 1), (0, 1),
                        np.array([[0.0, 0.7], [0.7, 0.0]]))
    assert nearest_neighbor_pairs(dm, LEAVE_ONE_OUT) == [(0, 1), (1, 0)]


def test_nn_tie_goes_to_lower_id():
    dm = DistanceMatrix((0,), (5, 3), np.array([[0.5, 0.5]]))
    assert nearest_neighbor_pairs(dm, CROSS_SPLIT) == [(0, 3)]


def test_nn_no_finite_neighbor():
    dm = DistanceMatrix((0,), (1,), np.array([[math.inf]]))
    with pytest.raises(NoFiniteNeighbor):
        nearest_neighbor_pairs(dm, CROSS_SPLIT)


def test_nn_skips_infinite_cells():
    dm = DistanceMatrix((0,), (1, 2), np.array([[math.inf, 0.9]]))
    assert nearest_neighbor_pairs(dm, CROSS_SPLIT) == [(0, 2)]


# -- transport histogram ------------------------------------------------------------


def test_histogram_identical_pair_in_zero_bin(onehot_store):
    measures = measures_for([["w0", "w1"], ["w0", "w1"]])
    hist = transport_histogram([(0, 1)], measures, onehot_store,
                               bin_width=0.02)
    assert hist.total_mass == pytest.approx(1.0, abs=1e-12)
    assert hist.masses[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(hist.masses[1:] == 0.0)


def test_histogram_equilateral_pair_in_cost_bin(onehot_store):
    # disjoint supports, every route costs exactly 2 (the last bin, closed)
    measures = measures_for([["w0", "w1"], ["w2", "w3", "w3"]])
    hist = transport_histogram([(0, 1)], measures, onehot_store,
                               bin_width=0.5)
    assert hist.bin_edges[-1] == pytest.approx(2.0)
    assert hist.masses[-1] == pytest.approx(1.0, abs=1e-12)
    assert hist.total_mass == pytest.approx(1.0, abs=1e-12)


def test_histogram_mass_conservation(onehot_store):
    rng = np.random.default_rng(41)
    words = list(onehot_store.tokens)
    token_lists = [rng.choice(words, size=rng.integers(1, 6)).tolist()
                   for _ in range(12)]
    measures = measures_for(token_lists)
    pairs = [tuple(rng.choice(12, size=2, replace=False)) for _ in range(30)]
    hist = transport_histogram(pairs, measures, onehot_store, bin_width=0.02)
    assert hist.total_mass == pytest.approx(len(pairs), abs=1e-9)
    assert math.fsum(hist.masses.tolist()) == pytest.approx(hist.total_mass,
                                                            abs=1e-9)


def test_histogram_zero_bin_mass_is_shared_mass_under_uniform_costs(
        onehot_store):
    # distinct per-word embeddings with all off-diagonal costs equal: the
    # in-place mass is sum_i min(x_i, y_i)
    measures = measures_for([["w0", "w0", "w1", "w2"], ["w0", "w2", "w3"]])
    x = {"w0": 0.5, "w1": 0.25, "w2": 0.25}
    y = {"w0": 1 / 3, "w2": 1 / 3, "w3": 1 / 3}
    shared = sum(min(x.get(w, 0.0), y.get(w, 0.0)) for w in set(x) | set(y))
    hist = transport_histogram([(0, 1)], measures, onehot_store,
                               bin_width=0.02)
    assert hist.masses[0] == pytest.approx(shared, abs=1e-9)


def test_histogram_bimodal_in_high_dimension():
    # random unit vectors in high dimension are near-equidistant, so mass
    # splits into an in-place spike at 0 and a bulk near sqrt(2)
    rng = np.random.default_rng(42)
    words = [f"w{i}" for i in range(40)]
    store = l2_normalize(EmbeddingStore(words, rng.normal(size=(40, 300))))
    token_lists = [rng.choice(words, size=10).tolist() for _ in range(30)]
    measures = measures_for(token_lists)
    pairs = [tuple(rng.choice(30, size=2, replace=False)) for _ in range(60)]
    hist = transport_histogram(pairs, measures, store, bin_width=0.02)
    centers = (hist.bin_edges[:-1] + hist.bin_edges[1:]) / 2.0
    moved = hist.masses[centers > 0.02].sum()
    near_sqrt2 = hist.masses[(centers > 1.2) & (centers < 1.6)].sum()
    assert hist.masses[0] > 0.0
    assert near_sqrt2 >= 0.95 * moved


def test_histogram_validates_inputs(onehot_store):
    measures = measures_for([["w0"]])
    with pytest.raises(InvalidInput):
        transport_histogram([], measures, onehot_store, 0.02)
    with pytest.raises(InvalidInput):
        transport_histogram([(0, 0)], measures, onehot_store, 0.0)


def test_histogram_type_validates():
    with pytest.raises(InvalidInput):
        TransportHistogram(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 3.0)
    with pytest.raises(InvalidInput):
        TransportHistogram(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0]),
                           3.0)


# -- pearson --------------------------------------------------------------------


def test_pearson_identity_and_antisymmetry():
    xs = [1.0, 2.0, 5.0, 3.0]
    assert pearson(xs, xs) == 1.0
    assert pearson(xs, [-x for x in xs]) == -1.0


def test_pearson_against_single_pass_oracle():
    xs, ys = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    oracle = (n * sxy - sx * sy) / math.sqrt(
        (n * sxx - sx * sx) * (n * syy - sy * sy)
    )
    assert pearson(xs, ys) == pytest.approx(oracle, abs=1e-12)


def test_pearson_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        pearson([1.0], [2.0])
    with pytest.raises(DegenerateInput):
        pearson([1.0, 1.0], [2.0, 3.0])
    with pytest.raises(InvalidInput):
        pearson([1.0, 2.0], [1.0])


def test_pearson_affine_invariance():
    rng = np.random.default_rng(43)
    xs = rng.random(20).tolist()
    ys = rng.random(20).tolist()
    base = pearson(xs, ys)
    shifted = pearson([3.5 * x + 2.0 for x in xs], ys)
    assert shifted == pytest.approx(base, abs=1e-12)
    flipped = pearson([-2.0 * x + 1.0 for x in xs], ys)
    assert flipped == pytest.approx(-base, abs=1e-12)


# -- dimension comparison ------------------------------------------------------------


def _random_corpus(rng, words, n_docs, min_len=4, max_len=12):
    popularity = 1.0 / np.arange(1, len(words) + 1)
    popularity /= popularity.sum()
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(min_len, max_len))
        docs.append(Document(i, "x",
                             tuple(rng.choice(words, size=length,
                                              p=popularity))))
    return Corpus(documents=tuple(docs))


def test_bow_wmd_scatter_scores_each_pair_in_order(onehot_store):
    # under the uniform geometry the transport distance is the L1 distance
    token_lists = [["w0", "w1"], ["w0", "w0", "w2"], ["w3"]]
    vocab = build_vocabulary(token_lists)
    bows = {i: normalize(bow_vector(t, vocab)[0], NormScheme.L1)
            for i, t in enumerate(token_lists)}
    points = bow_wmd_scatter([(0, 1), (2, 0), (1, 1)], bows,
                             measures_for(token_lists), onehot_store)
    assert points == [pytest.approx((1.0, 1.0)), pytest.approx((2.0, 2.0)),
                      (0.0, 0.0)]


def test_dim_comparison_reuses_the_bow_column(monkeypatch):
    # the L1/L1 distances come from the scatter; only transport is re-solved
    rng = np.random.default_rng(48)
    words = [f"w{i}" for i in range(30)]
    store = l2_normalize(EmbeddingStore(words, rng.normal(size=(30, 6))))
    token_lists = [list(rng.choice(words, size=5)) for _ in range(12)]
    vocab = build_vocabulary(token_lists)
    bows = {i: normalize(bow_vector(t, vocab)[0], NormScheme.L1)
            for i, t in enumerate(token_lists)}
    measures = measures_for(token_lists)
    pairs = sample_document_pairs(sorted(measures), 30, seed=4)
    points = bow_wmd_scatter(pairs, bows, measures, store)
    calls = []
    monkeypatch.setattr(analysis, "vector_distance",
                        lambda *a: calls.append(a))
    table = dim_comparison(pairs, [x for x, _ in points], measures, store,
                           [2, 6], vocab.words)
    assert calls == []
    assert table[6] == pearson([x for x, _ in points],
                               [y for _, y in points])
    assert set(table) == {2, 6}


def test_dim_comparison_full_dim_beats_low_dim():
    rng = np.random.default_rng(44)
    words = [f"w{i}" for i in range(60)]
    store = l2_normalize(EmbeddingStore(words, rng.normal(size=(60, 40))))
    corp = _random_corpus(rng, words, 40)
    table = dim_sweep(corp, store, [3, 40], sample_pairs=80, seed=7)
    assert set(table) == {3, 40}
    assert table[40] > table[3]


def test_dim_comparison_uniform_geometry_is_exactly_bow(onehot_store):
    # scaled one-hot embeddings realize the uniform cost matrix, where the
    # transport distance equals the L1/L1 baseline: correlation is exactly 1
    rng = np.random.default_rng(45)
    words = list(onehot_store.tokens)
    corp = _random_corpus(rng, words, 15, min_len=1, max_len=6)
    table = dim_sweep(corp, onehot_store, [onehot_store.dim],
                      sample_pairs=40, seed=8)
    assert table[onehot_store.dim] == 1.0


def test_dim_comparison_single_pair_degenerate(onehot_store):
    rng = np.random.default_rng(46)
    corp = _random_corpus(rng, list(onehot_store.tokens), 10)
    with pytest.raises(DegenerateInput):
        dim_sweep(corp, onehot_store, [2], sample_pairs=1, seed=9)


def test_dim_comparison_validates_dims(onehot_store):
    rng = np.random.default_rng(47)
    corp = _random_corpus(rng, list(onehot_store.tokens), 10)
    with pytest.raises(InvalidInput):
        dim_sweep(corp, onehot_store, [99], sample_pairs=5, seed=0)


def test_sample_pairs_seeded_and_distinct():
    ids = [3, 5, 9, 11]
    a = sample_document_pairs(ids, 25, seed=1)
    b = sample_document_pairs(ids, 25, seed=1)
    assert a == b
    assert all(x != y for x, y in a)
    with pytest.raises(DegenerateInput):
        sample_document_pairs([1], 5, seed=0)


# -- csv outputs ----------------------------------------------------------------


def test_histogram_csv(tmp_path, onehot_store):
    measures = measures_for([["w0"], ["w0"]])
    hist = transport_histogram([(0, 1)], measures, onehot_store, 0.25)
    path = tmp_path / "hist.csv"
    write_histogram_csv(hist, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,mass"
    assert len(lines) == 1 + hist.masses.size


def test_scatter_csv(tmp_path):
    path = tmp_path / "scatter.csv"
    write_scatter_csv([(0.5, 0.25), (1.0, 0.9)], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "bow_l1l1,wmd"
    assert lines[1] == "0.5,0.25"
