import numpy as np
import pytest

from wmdlab.analysis import dim_comparison, sample_document_pairs
from wmdlab.embeddings import EmbeddingStore, l2_normalize
from wmdlab.ot_core import TransportProblem
from wmdlab.textrep import VectorMetric, build_vocabulary, vector_distance
from wmdlab.wmd import Method, Resources, representations

from helpers import counts_of


def random_balanced_problem(rng, max_side=6, total=64, cost_scale=1.0):
    """Exactly balanced random instance: integer masses over a shared total."""
    ns = int(rng.integers(1, max_side + 1))
    nt = int(rng.integers(1, max_side + 1))
    supply = rng.multinomial(total, np.ones(ns) / ns) / total
    demand = rng.multinomial(total, np.ones(nt) / nt) / total
    cost = rng.random((ns, nt)) * cost_scale
    return TransportProblem(supply, demand, cost)


def random_simplex_pair(rng, vocab_size, grain=200):
    """Two L1-normalized vectors on a shared support of size vocab_size."""
    x = rng.multinomial(grain, rng.dirichlet(np.ones(vocab_size))) / grain
    y = rng.multinomial(grain, rng.dirichlet(np.ones(vocab_size))) / grain
    return x, y


def dim_sweep(corpus, store, dims, sample_pairs, seed):
    """``dim_comparison`` on the inputs ``wmdlab analyze`` gives it: seeded
    pairs of non-empty documents, their L1/L1 count distances and measures,
    and the corpus vocabulary as the PCA fit vocabulary."""
    tokens = corpus.tokens_by_id()
    vocab = build_vocabulary(list(tokens.values()))
    res = Resources(counts=counts_of(tokens, vocab), vocab=vocab)
    measures = {i: m for i, m in representations(
        list(tokens), Method.parse("wmd"), res).items() if m is not None}
    bows = representations(list(measures), Method.parse("bow(l1,l1)"), res)
    pairs = sample_document_pairs(sorted(measures), sample_pairs, seed)
    bow_distances = [vector_distance(bows[a], bows[b], VectorMetric.L1)
                     for a, b in pairs]
    return dim_comparison(pairs, bow_distances, measures, store, dims,
                          res.vocab.words)


@pytest.fixture
def unit_store():
    """Four exactly-unit vectors: two orthogonal pairs, one antipodal pair."""
    tokens = ["east", "north", "west", "mix"]
    matrix = np.array([
        [1.0, 0.0],
        [0.0, 1.0],
        [-1.0, 0.0],
        [0.6, 0.8],
    ])
    return EmbeddingStore(tokens, matrix, normalized=True)


@pytest.fixture
def clustered_store():
    """30 tokens in 3 well-separated clusters of 10, unit-normalized."""
    rng = np.random.default_rng(99)
    tokens = [f"w{i}" for i in range(30)]
    rows = []
    for c in range(3):
        center = rng.normal(size=16) * 4
        for _ in range(10):
            rows.append(center + rng.normal(size=16) * 0.2)
    return l2_normalize(EmbeddingStore(tokens, np.array(rows)))
