"""The batched BOW/TF-IDF row kernel against the pair-by-pair reference,
compared bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmdlab.errors import DimMismatch
from wmdlab.textrep import (
    VectorBlock,
    VectorMetric,
    build_vocabulary,
    distance_row,
    document_frequencies,
)
from wmdlab.wmd import Method, Resources, _vector_rows, pairwise_distances, \
    representations

from helpers import counts_of, from_pairs
from reference_vector import reference_distance

GRID = [f"{kind}({norm},{metric})" for kind in ("bow", "tfidf")
        for norm in ("none", "l1", "l2") for metric in ("l1", "l2")]

# positive finite values from subnormal to large, with squares that neither
# overflow nor, summed over a few dozen terms, overflow fsum
values = st.one_of(
    st.floats(min_value=5e-324, max_value=1e150, allow_nan=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 0.1, 0.5, 1.0, 3.0]),
)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


@st.composite
def vectors(draw, dim, like=None):
    """A sparse vector over ``dim`` ids; from ``like``, one that shares its
    support (and sometimes its values), is disjoint from it, or is random."""
    kind = draw(st.sampled_from(["random", "empty", "same", "support",
                                 "disjoint"]))
    if like is None or kind == "random":
        ids = draw(st.sets(st.integers(0, dim - 1), max_size=dim))
    elif kind == "empty":
        ids = set()
    elif kind == "same":
        return like
    elif kind == "support":
        ids = set(like.ids.tolist())
    else:
        ids = set(range(dim)) - set(like.ids.tolist())
    vals = draw(st.lists(values, min_size=len(ids), max_size=len(ids)))
    return from_pairs(dim, zip(sorted(ids), vals))


@st.composite
def rows(draw):
    dim = draw(st.integers(1, 12))
    q = draw(vectors(dim))
    refs = draw(st.lists(vectors(dim, like=q), max_size=8))
    return q, refs


@settings(max_examples=300, deadline=None)
@given(rows(), st.sampled_from(list(VectorMetric)))
def test_row_bit_identical_to_reference(row, metric):
    q, refs = row
    got = distance_row(q, VectorBlock(refs, q.dim), metric)
    assert got.shape == (len(refs),)
    want = [reference_distance(q, b, metric) for b in refs]
    assert bits(got) == bits(want)


@settings(max_examples=150, deadline=None)
@given(rows(), st.sampled_from(GRID), st.data())
def test_vector_rows_unusable_and_self_cells(row, spec, data):
    """``_vector_rows`` fills +inf for an unusable query or reference, 0.0 on
    a document against itself, and the reference distance elsewhere."""
    q, refs = row
    method = Method.parse(spec)
    reps = {0: data.draw(st.sampled_from([q, None]))}
    for j, b in enumerate(refs, start=1):
        reps[j] = data.draw(st.sampled_from([b, None]))
    ref_ids = data.draw(st.permutations(list(reps)))
    got = _vector_rows([0], ref_ids, reps, method.metric, q.dim)[0]
    want = [math.inf if reps[0] is None or reps[r] is None
            else 0.0 if r == 0
            else reference_distance(reps[0], reps[r], method.metric)
            for r in ref_ids]
    assert bits(got) == bits(want)


def test_row_rejects_other_dimension():
    q = from_pairs(3, [(0, 1.0)])
    with pytest.raises(DimMismatch):
        distance_row(q, VectorBlock([], 4), VectorMetric.L1)
    with pytest.raises(DimMismatch):
        VectorBlock([q], 4)


def test_row_against_no_references():
    q = from_pairs(3, [(0, 1.0)])
    assert distance_row(q, VectorBlock([], 3), VectorMetric.L2).shape == (0,)


@pytest.fixture
def grid_resources():
    """Documents with repeated words, shared and disjoint supports, a copy
    of another document, words in every document (tf-idf weight 0, so
    document 5 has an empty tf-idf vector) and an empty document."""
    tokens = {
        0: ("a", "b", "b", "c", "all"),
        1: ("b", "c", "d", "d", "d", "all"),
        2: ("e", "f", "all"),
        3: ("a", "b", "b", "c", "all"),
        4: ("g", "h", "h", "a", "all", "all"),
        5: ("all",),
        6: (),
        7: ("d", "e", "f", "g", "h", "c", "b", "a", "all"),
    }
    vocab = build_vocabulary([t for t in tokens.values() if t])
    return Resources(counts=counts_of(tokens, vocab), vocab=vocab,
                     doc_freq=document_frequencies(tokens.values(), vocab),
                     n_docs=len(tokens))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", GRID)
def test_pairwise_grid_bit_identical_to_reference(grid_resources, spec,
                                                  workers):
    grid_resources.workers = workers
    method = Method.parse(spec)
    queries, refs = list(range(8)), [7, 0, 2, 5, 6, 3, 1]
    dm = pairwise_distances(queries, refs, method, grid_resources)
    reps = representations(queries, method, grid_resources)
    want = [[math.inf if reps[a] is None or reps[b] is None
             else 0.0 if a == b
             else reference_distance(reps[a], reps[b], method.metric)
             for b in refs] for a in queries]
    assert bits(dm.values) == bits(want)
