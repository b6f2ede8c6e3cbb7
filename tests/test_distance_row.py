"""The batched BOW/TF-IDF kernel against the pair-by-pair reference and
``math.fsum``, compared bit for bit."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmdlab import textrep, wmd
from wmdlab.errors import DimMismatch
from wmdlab.textrep import (
    VectorMetric,
    build_vocabulary,
    document_frequencies,
    vector_distances,
)
from wmdlab.wmd import Method, Resources, pairwise_distances, representations

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


def row_distances(q, refs, metric):
    """``q``'s distance to each of ``refs``, one kernel call."""
    return vector_distances([q, *refs], np.zeros(len(refs), np.int64),
                            np.arange(1, len(refs) + 1), metric)


@settings(max_examples=300, deadline=None)
@given(rows(), st.sampled_from(list(VectorMetric)))
def test_row_bit_identical_to_reference(row, metric):
    q, refs = row
    got = row_distances(q, refs, metric)
    assert got.shape == (len(refs),)
    want = [reference_distance(q, b, metric) for b in refs]
    assert bits(got) == bits(want)


@settings(max_examples=150, deadline=None)
@given(rows(), st.sampled_from(GRID), st.data())
def test_vector_rows_unusable_and_self_cells(row, spec, data):
    """A BOW/TF-IDF matrix holds +inf for an unusable query or reference,
    0.0 on a document against itself, and the reference distance
    elsewhere."""
    q, refs = row
    method = Method.parse(spec)
    reps = {0: data.draw(st.sampled_from([q, None]))}
    for j, b in enumerate(refs, start=1):
        reps[j] = data.draw(st.sampled_from([b, None]))
    ref_ids = data.draw(st.permutations(list(reps)))
    res = Resources(counts={}, vocab=build_vocabulary([["w"]]))
    with mock.patch.object(wmd, "representations", lambda *_: reps):
        got = pairwise_distances([0], ref_ids, method, res).values[0]
    want = [math.inf if reps[0] is None or reps[r] is None
            else 0.0 if r == 0
            else reference_distance(reps[0], reps[r], method.metric)
            for r in ref_ids]
    assert bits(got) == bits(want)


def test_row_rejects_other_dimension():
    q = from_pairs(3, [(0, 1.0)])
    with pytest.raises(DimMismatch):
        vector_distances([q, from_pairs(4, [])], [0], [1], VectorMetric.L1)


def test_row_against_no_references():
    q = from_pairs(3, [(0, 1.0)])
    assert row_distances(q, [], VectorMetric.L2).shape == (0,)
    assert vector_distances([], [], [], VectorMetric.L1).shape == (0,)


def test_kernel_memory_does_not_follow_the_dimension():
    dim = 1 << 50  # an array of this many cells could not be allocated
    a = from_pairs(dim, [(3, 1.0), (dim - 1, 0.5)])
    b = from_pairs(dim, [(dim - 1, 2.0), (dim - 2, 0.25)])
    assert vector_distances([a, b], [0, 1], [1, 0], VectorMetric.L1).tolist() \
        == [2.75, 2.75]


# nonnegative terms from subnormal to 1e150, and sums that sit on or next to
# the midpoint between two floats
terms = st.one_of(
    st.floats(min_value=0.0, max_value=1e150, allow_nan=False),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 2.0 ** -53,
                     2.0 ** -52, 2.0 ** -106, 1.0, 1.0 + 2.0 ** -52, 3.0]),
)
# sums on a midpoint whose compensation is exact, then sums on the other
# side of one than s + c, by bits that the compensation lost
MIDPOINTS = [[1.0, 2.0 ** -53], [1.0 + 2.0 ** -52, 2.0 ** -53],
             [1.0, 2.0 ** -53, 2.0 ** -53], [0.5, 2.0 ** -54, 2.0 ** -54]]
PAST_MIDPOINTS = [
    [1.0, 2.0 ** -53, 2.0 ** -200],
    [2.0 ** -53, 1.0, 2.0 ** -106],
    [2.0, 2.0 ** -52, 2.0 ** -105],
    # s + c is 2**-108 short of the midpoint above 1.0 but 3 * 2**-108 was
    # lost: the bound 2D, not f alone, rules it out
    [1.0, 2.0 ** -53 - 2.0 ** -106] + [2.0 ** -108] * 5,
    # s + c is the midpoint below 1.0, a power of two, and 2**-108 less was
    # lost: inside half the spacing above 1.0, outside half the one below
    [1.0 - 2.0 ** -53, 2.0 ** -54 - 2.0 ** -107, 2.0 ** -108],
]


def exact_sums(rows):
    """Each row's sum from ``_Sums``, with whether it was proven; rows
    shorter than the longest are padded with 0.0."""
    sums = textrep._Sums(len(rows))
    width = max(map(len, rows), default=0)
    for j in range(width):
        sums.add(0, np.array([r[j] if j < len(r) else 0.0 for r in rows]))
    return sums.result()


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.lists(terms, max_size=300),
                          st.sampled_from(MIDPOINTS + PAST_MIDPOINTS)),
                min_size=1, max_size=12))
def test_proven_sums_equal_fsum(rows):
    got, proven = exact_sums(rows)
    for r, x, ok in zip(rows, got.tolist(), proven.tolist()):
        if ok:
            assert bits(x) == bits(math.fsum(r))
    # through the kernel, every cell is fsum's, proven or not
    vectors = [from_pairs(300, enumerate(r)) for r in rows]
    got = vector_distances([from_pairs(300, []), *vectors],
                           np.zeros(len(rows), np.int64),
                           np.arange(1, len(rows) + 1), VectorMetric.L1)
    assert bits(got) == bits([math.fsum(r) for r in rows])


def test_midpoints_are_proven_when_the_compensation_is_exact():
    got, proven = exact_sums(MIDPOINTS)
    assert proven.all()
    assert bits(got) == bits([math.fsum(r) for r in MIDPOINTS])
    assert got[:2].tolist() == [1.0, 1.0 + 2.0 ** -51]  # ties to even


def test_unproven_sum_reaches_fsum(monkeypatch):
    # s + c rounds to 1.0 on the midpoint 1 + 2**-53, but 2**-200 more was
    # lost from the compensation: the sum rounds up, and only fsum knows
    got, proven = exact_sums(PAST_MIDPOINTS)
    assert not proven.any()
    assert all(x != math.fsum(r) for x, r in zip(got.tolist(),
                                                 PAST_MIDPOINTS))
    fsum, calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(xs) or fsum(xs))
    row = PAST_MIDPOINTS[0]
    a = from_pairs(3, enumerate(row))
    assert row_distances(a, [from_pairs(3, [])], VectorMetric.L1).tolist() \
        == [1.0 + 2.0 ** -52]
    assert calls == [row]


def test_overflow_as_fsum_has_it():
    big = from_pairs(2, [(0, 1e308), (1, 1e308)])
    with pytest.raises(OverflowError):
        row_distances(big, [from_pairs(2, [])], VectorMetric.L1)
    huge = from_pairs(1, [(0, 1e200)])  # its square is inf
    assert row_distances(huge, [from_pairs(1, [])],
                         VectorMetric.L2).tolist() == [math.inf]


@pytest.mark.parametrize("cells", [1, 2, 7])
@pytest.mark.parametrize("metric", list(VectorMetric))
def test_batches_give_the_bits_of_one_batch(monkeypatch, cells, metric):
    rng = np.random.default_rng(cells)
    vectors = [from_pairs(40, zip(rng.choice(40, rng.integers(0, 12),
                                             replace=False),
                                  rng.integers(1, 4, 12) / 7.0))
               for _ in range(15)]
    left, right = rng.integers(0, 15, 60), rng.integers(0, 15, 60)
    whole = vector_distances(vectors, left, right, metric)
    monkeypatch.setattr(textrep, "_BATCH_CELLS", cells)
    assert bits(vector_distances(vectors, left, right, metric)) == bits(whole)
    assert bits(whole) == bits([reference_distance(vectors[a], vectors[b],
                                                   metric)
                                for a, b in zip(left, right)])


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
