"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Criteria 8 and 9 need real datasets (and pretrained embeddings) that are
not bundled; point WMDLAB_DATA_DIR / WMDLAB_EMBEDDINGS at local copies to
enable them (see README).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from wmdlab.analysis import transport_histogram
from wmdlab.corpus import Corpus, Document, filter_vocabulary, find_duplicates, \
    load_corpus, make_folds
from wmdlab.embeddings import EmbeddingStore, l2_normalize, load_embeddings
from wmdlab.knn_eval import (
    KNN,
    Hyperparams,
    LabeledSplit,
    evaluate,
    knn_predict,
    make_validation_split,
    relative_performance,
    tune,
    wknn_predict,
)
from wmdlab.ot_core import TransportProblem, solve_transport
from wmdlab.textrep import bow_vector, build_vocabulary
from wmdlab.wmd import Method, Resources, make_measure, pairwise_distances

from conftest import dim_sweep, random_balanced_problem, random_simplex_pair
from helpers import col_sums, counts_of, plan_to_dense, row_sums
from oracle import brute_force_transport, uniform_cost_matrix


def report(num, name, ok):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -- criteria 1-4: solver sweeps ---------------------------------------------------


@pytest.fixture(scope="module")
def uniform_cost_sweep():
    """500 seeded uniform-geometry instances: (x, y, problem, plan)."""
    rng = np.random.default_rng(20220101)
    runs = []
    start = time.perf_counter()
    for _ in range(500):
        m = int(rng.integers(2, 51))
        x, y = random_simplex_pair(rng, m)
        problem = TransportProblem(x, y, uniform_cost_matrix(m))
        plan = solve_transport(problem)
        runs.append((x, y, problem, plan))
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def random_instance_sweep():
    """1000 seeded random balanced instances vs the brute-force reference."""
    rng = np.random.default_rng(20220202)
    runs = []
    start = time.perf_counter()
    for _ in range(1000):
        problem = random_balanced_problem(rng, max_side=6)
        plan = solve_transport(problem)
        reference = brute_force_transport(problem)
        runs.append((problem, plan, reference))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_uniform_geometry_closed_form(uniform_cost_sweep):
    runs, elapsed = uniform_cost_sweep
    worst = max(abs(plan.objective - np.abs(x - y).sum())
                for x, y, _, plan in runs)
    ok = worst <= 1e-9 and elapsed < 5.0
    print(f"\n  500 pairs: worst |OT - L1| = {worst:.3e}, {elapsed:.2f}s")
    report(1, "uniform-cost transport equals the L1 closed form", ok)


def test_criterion_2_solver_matches_brute_force(random_instance_sweep):
    runs, elapsed = random_instance_sweep
    worst = max(abs(plan.objective - ref) / max(1.0, abs(ref))
                for _, plan, ref in runs)
    ok = worst <= 1e-9 and elapsed < 30.0
    print(f"\n  1000 instances: worst relative gap = {worst:.3e}, "
          f"{elapsed:.2f}s")
    report(2, "solver optimal on 1000 random instances", ok)


def test_criterion_3_feasibility_suite(uniform_cost_sweep,
                                       random_instance_sweep):
    worst_marginal = 0.0
    basic_ok = True
    plans = [(p, plan) for _, _, p, plan in uniform_cost_sweep[0]]
    plans += [(p, plan) for p, plan, _ in random_instance_sweep[0]]
    for problem, plan in plans:
        rows = row_sums(plan, problem.supply.size) - problem.supply
        cols = col_sums(plan, problem.demand.size) - problem.demand
        worst_marginal = max(worst_marginal, np.abs(rows).max(),
                             np.abs(cols).max())
        if len(plan.entries) > problem.supply.size + problem.demand.size - 1:
            basic_ok = False
        if any(m <= 0 for _, _, m in plan.entries):
            basic_ok = False
    ok = worst_marginal <= 1e-9 and basic_ok
    print(f"\n  {len(plans)} plans: worst marginal gap = {worst_marginal:.3e}")
    report(3, "all plans feasible with basic support", ok)


def test_criterion_4_diagonal_saturation(uniform_cost_sweep):
    worst = 0.0
    for x, y, problem, plan in uniform_cost_sweep[0]:
        dense = plan_to_dense(plan, problem.supply.size, problem.demand.size)
        worst = max(worst, np.abs(np.diag(dense)
                                  - np.minimum(x, y)).max())
    ok = worst <= 1e-9
    print(f"\n  worst |P_ii - min(x_i, y_i)| = {worst:.3e}")
    report(4, "uniform-cost plans keep shared mass in place", ok)


# -- criterion 5: classifier properties ----------------------------------------------


def _gaussian_count_rows(rng, n_train=60, planted_ties=6):
    """Distance rows from 3-class Gaussian count vectors, with exact ties."""
    centers = rng.uniform(1.0, 8.0, size=(3, 12))
    counts, labels = [], []
    for i in range(n_train):
        c = i % 3
        counts.append(np.maximum(0.0, np.round(
            centers[c] + rng.normal(scale=2.0, size=12)
        )))
        labels.append("ABC"[c])
    for i in range(planted_ties):  # duplicated docs create exact ties
        counts.append(counts[i].copy())
        labels.append("ABC"[(i + 1) % 3])
    train = np.array(counts)
    train = train / np.maximum(train.sum(axis=1, keepdims=True), 1.0)
    query = centers[int(rng.integers(3))] + rng.normal(scale=2.0, size=12)
    query = np.maximum(0.0, np.round(query))
    query = query / max(query.sum(), 1.0)
    row = np.abs(train - query).sum(axis=1)
    return row, labels


def test_criterion_5_classifier_properties():
    rng = np.random.default_rng(20220303)

    deterministic = True
    for _ in range(20):
        row, labels = _gaussian_count_rows(rng)
        ids = np.arange(len(labels))
        base = knn_predict(row, labels, k=5, train_ids=ids)
        for _ in range(10):
            perm = rng.permutation(len(labels))
            got = knn_predict(row[perm], [labels[i] for i in perm], k=5,
                              train_ids=ids[perm])
            deterministic &= (got == base)

    tiny_gamma_ok = 0
    checked = 0
    while checked < 200:
        row, labels = _gaussian_count_rows(rng, planted_ties=0)
        if np.sum(row == row.min()) != 1:
            continue  # needs a unique nearest neighbor
        checked += 1
        got = wknn_predict(row, labels, k=7, gamma=1e-6)
        tiny_gamma_ok += (got == labels[int(np.argmin(row))])

    large_gamma_ok = 0
    for _ in range(200):
        row, labels = _gaussian_count_rows(rng, planted_ties=0)
        k = int(rng.integers(1, 12))
        large_gamma_ok += (wknn_predict(row, labels, k, gamma=1e6)
                           == knn_predict(row, labels, k))

    ok = deterministic and tiny_gamma_ok == 200 and large_gamma_ok == 200
    print(f"\n  shuffles deterministic: {deterministic}; "
          f"gamma->0 matches 1-NN: {tiny_gamma_ok}/200; "
          f"gamma->inf matches kNN: {large_gamma_ok}/200")
    report(5, "classifier tie-break and gamma-limit properties", ok)


# -- criterion 6: dimensionality trend ------------------------------------------------


def _synthetic_corpus_and_store(seed, n_words=200, n_docs=150, dim=300):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    store = l2_normalize(EmbeddingStore(words,
                                        rng.normal(size=(n_words, dim))))
    popularity = 1.0 / np.arange(1, n_words + 1)
    popularity /= popularity.sum()
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(8, 30))
        docs.append(Document(i, "x", tuple(rng.choice(words, size=length,
                                                      p=popularity))))
    return Corpus(documents=tuple(docs)), store


def test_criterion_6_high_dim_transport_tracks_l1_baseline():
    start = time.perf_counter()
    margins = []
    for seed in range(5):
        corp, store = _synthetic_corpus_and_store(seed)
        table = dim_sweep(corp, store, [5, 300], sample_pairs=200, seed=seed)
        margins.append(table[300] - table[5])
    elapsed = time.perf_counter() - start
    ok = all(m >= 0.1 for m in margins) and elapsed < 120.0
    print(f"\n  correlation margins r(300)-r(5): "
          f"{[round(m, 3) for m in margins]}, {elapsed:.1f}s")
    report(6, "high-dimensional transport correlates with the L1 baseline",
           ok)


# -- criterion 7: histogram conservation ----------------------------------------------


def test_criterion_7_histogram_mass_conservation():
    rng = np.random.default_rng(20220404)
    words = [f"w{i}" for i in range(30)]
    store = l2_normalize(EmbeddingStore(words, rng.normal(size=(30, 16))))
    token_lists = [rng.choice(words, size=int(rng.integers(3, 9))).tolist()
                   for _ in range(40)]
    vocab = build_vocabulary(token_lists)
    measures = {i: make_measure(bow_vector(t, vocab), vocab)
                for i, t in enumerate(token_lists)}
    pairs = [tuple(rng.choice(40, size=2, replace=False)) for _ in range(100)]
    hist = transport_histogram(pairs, measures, store, bin_width=0.02)
    conservation = abs(hist.total_mass - len(pairs))

    twin = {0: measures[0], 1: measures[0]}
    ident = transport_histogram([(0, 1)], twin, store, bin_width=0.02)
    identical_ok = (ident.masses[0] == pytest.approx(1.0, abs=1e-12)
                    and np.all(ident.masses[1:] == 0.0))
    ok = conservation <= 1e-9 and identical_ok
    print(f"\n  total-mass gap over 100 pairs = {conservation:.3e}; "
          f"identical pair in zero bin: {identical_ok}")
    report(7, "transport histograms conserve mass", ok)


# -- criteria 8-9: real-data (optional) -----------------------------------------------

DATA_DIR = os.environ.get("WMDLAB_DATA_DIR")
EMBEDDINGS = os.environ.get("WMDLAB_EMBEDDINGS")
EMBEDDINGS_FORMAT = os.environ.get("WMDLAB_EMBEDDINGS_FORMAT",
                                   "word2vec-binary")


@pytest.mark.skipif(not DATA_DIR, reason="WMDLAB_DATA_DIR not set")
@pytest.mark.parametrize("dataset,pairs,samples", [
    ("bbcsport", 15, 30),
    ("twitter", 976, 474),
])
def test_criterion_8_duplicate_audit(dataset, pairs, samples):
    path = Path(DATA_DIR) / f"{dataset}.txt"
    if not path.exists():
        pytest.skip(f"{path} not found")
    corp = load_corpus(path)
    found = find_duplicates(corp)
    ok = (found.n_pairs == pairs and found.n_samples == samples)
    print(f"\n  {dataset}: pairs {found.n_pairs} (want {pairs}), "
          f"samples {found.n_samples} (want {samples})")
    report(8, f"duplicate audit on {dataset}", ok)


@pytest.mark.skipif(not (DATA_DIR and EMBEDDINGS),
                    reason="WMDLAB_DATA_DIR / WMDLAB_EMBEDDINGS not set")
def test_criterion_9_bbcsport_error_bands():
    path = Path(DATA_DIR) / "bbcsport.txt"
    if not path.exists():
        pytest.skip(f"{path} not found")
    store = l2_normalize(load_embeddings(EMBEDDINGS, EMBEDDINGS_FORMAT))
    corp = filter_vocabulary(load_corpus(path), store)
    if not corp.folds:
        corp = make_folds(corp, 5, 517 / 737, seed=0)
    docs = corp.tokens_by_id()
    vocab = build_vocabulary(list(docs.values()))
    from wmdlab.textrep import document_frequencies
    resources = Resources(counts=counts_of(docs, vocab), vocab=vocab,
                          store=store,
                          doc_freq=document_frequencies(docs.values(), vocab),
                          n_docs=len(docs), workers=8)
    labels = corp.labels_by_id()
    all_ids = list(corp.ids())
    bands = {"bow(l1,l1)": (3.9, 2.2), "wmd": (5.1, 2.4)}
    means = {}
    for spec, (center, width) in bands.items():
        method = Method.parse(spec)
        errors = []
        for fold_idx, fold in enumerate(corp.folds):
            dm = pairwise_distances(all_ids, list(fold.train_ids), method,
                                    resources)
            split = LabeledSplit(fold.train_ids, fold.test_ids, labels)
            split = make_validation_split(split, 0.2, seed=(0, fold_idx))
            hp = tune(dm, split, KNN)
            errors.append(evaluate(dm, split, KNN, hp).error_percent)
        means[spec] = sum(errors) / len(errors)
        print(f"\n  {spec}: fold errors {[round(e, 2) for e in errors]}, "
              f"mean {means[spec]:.2f} (band {center} +- {width})")
    ok = all(abs(means[spec] - center) <= width
             for spec, (center, width) in bands.items())
    report(9, "bbcsport error bands", ok)


# -- criterion 10: relative-performance arithmetic --------------------------------------

# Published five-fold/one-fold mean errors for the eight benchmark datasets.
PUBLISHED_ERRORS = {
    "bow(l1,l1)": {
        "bbcsport": 3.9, "twitter": 30.0, "recipe": 43.4, "ohsumed": 44.1,
        "classic": 4.1, "reuters": 5.7, "amazon": 10.4, "20news": 29.1,
    },
    "wmd": {
        "bbcsport": 5.1, "twitter": 29.6, "recipe": 42.9, "ohsumed": 44.5,
        "classic": 2.9, "reuters": 4.0, "amazon": 7.4, "20news": 26.8,
    },
}


def test_criterion_10_relative_performance_arithmetic():
    rel = relative_performance(PUBLISHED_ERRORS, "bow(l1,l1)")
    ok = (abs(rel["wmd"] - 0.917) <= 0.005
          and rel["bow(l1,l1)"] == pytest.approx(1.0, abs=1e-12))
    print(f"\n  rel(wmd) = {rel['wmd']:.4f} (want 0.917 +- 0.005)")
    report(10, "relative performance reproduces the published ratio", ok)
