"""kNN prediction, tuning, evaluation and nearest-neighbour pairs agree, bit
for bit, with the per-candidate re-sorting code kept in ``reference_knn``.

Cells are drawn from a small value set, so distance and vote ties are
common, together with +inf cells and all-inf rows."""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_knn as ref
from wmdlab import analysis, knn_eval
from wmdlab.analysis import CROSS_SPLIT, LEAVE_ONE_OUT
from wmdlab.knn_eval import KNN, WKNN, Hyperparams, LabeledSplit, TuningGrid
from wmdlab.wmd import DistanceMatrix

CELLS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.5, math.inf]),
    st.floats(min_value=0.0, max_value=10.0),
)
GAMMAS = st.sampled_from([0.005, 0.01, 0.05, 0.1, 1.0, 1e6])


def outcome(fn, *args):
    """What a call returns or raises, and the user warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("returned", fn(*args))
        except Exception as exc:  # compared with the reference's outcome
            result = ("raised", type(exc), str(exc))
    return result, [str(w.message) for w in caught
                    if issubclass(w.category, UserWarning)]


def comparable(result):
    """An ``EvalResult`` with its error as bits, so -0.0 and NaN compare."""
    if result[0] != "returned" or not isinstance(result[1],
                                                 knn_eval.EvalResult):
        return result
    r = result[1]
    bits = struct.pack("<d", r.error_percent)
    if math.isnan(r.error_percent):
        bits = "nan"
    return (bits, r.n_used, r.n_excluded, dict(r.predictions))


@st.composite
def cases(draw):
    ids = draw(st.lists(st.integers(0, 40), min_size=3, max_size=14,
                        unique=True))
    labels = {i: draw(st.sampled_from("ABC")) for i in ids}
    n_train = draw(st.integers(2, len(ids) - 1))
    train, test = tuple(ids[:n_train]), tuple(ids[n_train:])
    n_val = draw(st.integers(1, n_train - 1))
    val = tuple(draw(st.permutations(train))[:n_val])
    split = LabeledSplit(train, test, labels, val)
    rows = tuple(draw(st.permutations(ids)))
    cols = tuple(draw(st.permutations(ids)))
    values = np.array(draw(st.lists(
        st.lists(CELLS, min_size=len(cols), max_size=len(cols)),
        min_size=len(rows), max_size=len(rows))))
    for r in draw(st.sets(st.integers(0, len(rows) - 1), max_size=3)):
        values[r, :] = math.inf
    grid = draw(st.one_of(st.none(), st.builds(
        TuningGrid,
        st.lists(st.integers(1, 25), min_size=1, max_size=6).map(tuple),
        st.lists(GAMMAS, min_size=1, max_size=6).map(tuple))))
    return split, DistanceMatrix(rows, cols, values), grid


@settings(max_examples=200, deadline=None)
@given(cases(), st.sampled_from([KNN, WKNN]), st.integers(1, 25),
       st.one_of(st.none(), GAMMAS))
def test_tune_and_evaluate_match_reference(case, classifier, k, gamma):
    split, dm, grid = case
    tuned = outcome(knn_eval.tune, dm, split, classifier, grid)
    assert tuned == outcome(ref.tune, dm, split, classifier, grid)
    hps = [Hyperparams(k, gamma)]
    if tuned[0][0] == "returned":
        hps.append(tuned[0][1])
    for hp in hps:
        got, got_warnings = outcome(knn_eval.evaluate, dm, split, classifier,
                                    hp)
        want, want_warnings = outcome(ref.evaluate, dm, split, classifier, hp)
        assert comparable(got) == comparable(want)
        assert got_warnings == want_warnings


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(1, 25), GAMMAS)
def test_single_row_predictions_match_reference(case, k, gamma):
    split, dm, _ = case
    labels = [split.labels[c] for c in dm.col_ids]
    for row in dm.values:
        for ids in (None, dm.col_ids):
            assert outcome(knn_eval.knn_predict, row, labels, k, ids) == \
                outcome(ref.knn_predict, row, labels, k, ids)
            assert outcome(knn_eval.wknn_predict, row, labels, k, gamma,
                           ids) == \
                outcome(ref.wknn_predict, row, labels, k, gamma, ids)


@settings(max_examples=100, deadline=None)
@given(cases())
def test_nearest_neighbor_pairs_match_reference(case):
    split, dm, _ = case
    cross = dm.submatrix(split.test_ids, split.train_ids)
    for matrix, mode in ((dm, LEAVE_ONE_OUT), (dm, CROSS_SPLIT),
                         (cross, CROSS_SPLIT)):
        assert outcome(analysis.nearest_neighbor_pairs, matrix, mode) == \
            outcome(ref.nearest_neighbor_pairs, matrix, mode)
