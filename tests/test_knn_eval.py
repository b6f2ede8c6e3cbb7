import csv
import json
import math

import numpy as np
import pytest

from wmdlab import knn_eval
from wmdlab.errors import (
    DivisionByZero,
    EmptyValidation,
    InvalidInput,
    NotEnoughNeighbors,
)
from wmdlab.knn_eval import (
    KNN,
    WKNN,
    EvalResult,
    Hyperparams,
    LabeledSplit,
    TuningGrid,
    evaluate,
    knn_predict,
    make_validation_split,
    neighbor_order,
    relative_performance,
    summarize,
    tune,
    wknn_predict,
    write_report_csv,
    write_summary_json,
)
from wmdlab.wmd import DistanceMatrix


# -- neighbor_order --------------------------------------------------------------


def test_neighbor_order_finite_nearest_first_ties_to_lower_id():
    row = [0.5, math.inf, 0.2, 0.5]
    assert neighbor_order(row, np.array([9, 0, 4, 3])).tolist() == [2, 3, 0]
    assert neighbor_order([math.inf], np.array([0])).tolist() == []


# -- knn_predict -----------------------------------------------------------------


def test_nearest_neighbor():
    assert knn_predict([0.2, 0.9], ["A", "B"], k=1) == "A"


def test_majority_of_three():
    assert knn_predict([0.1, 0.2, 0.3, 9.0], ["A", "A", "B", "B"], k=3) == "A"


def test_vote_tie_broken_by_summed_distance():
    assert knn_predict([0.3, 0.5], ["A", "B"], k=2) == "A"
    assert knn_predict([0.5, 0.3], ["A", "B"], k=2) == "B"


def test_vote_tie_then_lexicographic():
    assert knn_predict([0.4, 0.4], ["B", "A"], k=2) == "A"


def test_distance_tie_broken_by_lower_train_id():
    # two equidistant neighbors; only the lower id is taken at k=1
    assert knn_predict([0.5, 0.5], ["B", "A"], k=1, train_ids=[7, 3]) == "A"
    assert knn_predict([0.5, 0.5], ["B", "A"], k=1, train_ids=[3, 7]) == "B"


def test_knn_ignores_infinite_distances():
    row = [math.inf, 0.4, math.inf]
    assert knn_predict(row, ["A", "B", "C"], k=1) == "B"


def test_knn_no_finite_neighbor():
    with pytest.raises(NotEnoughNeighbors):
        knn_predict([math.inf, math.inf], ["A", "B"], k=1)


def test_knn_clamps_oversized_k():
    with pytest.warns(UserWarning):
        assert knn_predict([0.1, 0.2], ["A", "B"], k=5) == "A"


def test_knn_k1_equals_argmin_label():
    rng = np.random.default_rng(0)
    labels = ["A", "B", "C", "D"]
    for _ in range(50):
        row = rng.random(4)
        assert knn_predict(row, labels, k=1) == labels[int(np.argmin(row))]


# -- wknn_predict ----------------------------------------------------------------


def test_wknn_weights_favor_nearer():
    assert wknn_predict([0.1, 0.2], ["A", "B"], k=2, gamma=0.1) == "A"


def test_wknn_equal_distances_is_majority():
    row = [0.3, 0.3, 0.3]
    assert wknn_predict(row, ["B", "A", "B"], k=3, gamma=0.05) == "B"


def test_wknn_large_gamma_equals_knn():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        row = rng.random(n)
        labels = [rng.choice(["A", "B", "C"]) for _ in range(n)]
        k = int(rng.integers(1, n + 1))
        assert wknn_predict(row, labels, k, gamma=1e6) == \
            knn_predict(row, labels, k)


def test_wknn_tiny_gamma_equals_one_nn():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        row = rng.random(n)
        if np.sum(row == row.min()) > 1:
            continue  # needs a unique nearest neighbor
        labels = [rng.choice(["A", "B", "C"]) for _ in range(n)]
        got = wknn_predict(row, labels, k=min(5, n), gamma=1e-6)
        assert got == labels[int(np.argmin(row))]


def test_wknn_invariant_to_distance_offset():
    rng = np.random.default_rng(3)
    for _ in range(50):
        row = rng.random(6)
        labels = [rng.choice(["A", "B"]) for _ in range(6)]
        base = wknn_predict(row, labels, k=4, gamma=0.03)
        shifted = wknn_predict(row + 0.7, labels, k=4, gamma=0.03)
        assert base == shifted


def test_wknn_validates_gamma():
    with pytest.raises(InvalidInput):
        wknn_predict([0.1], ["A"], k=1, gamma=0.0)


# -- splits and tuning --------------------------------------------------------------


def _split(train_labels, test_labels, with_validation=True):
    n_train = len(train_labels)
    labels = {i: lab for i, lab in enumerate(train_labels)}
    labels.update({n_train + i: lab for i, lab in enumerate(test_labels)})
    split = LabeledSplit(tuple(range(n_train)),
                         tuple(range(n_train, n_train + len(test_labels))),
                         labels)
    return split


def test_split_validates_overlap():
    with pytest.raises(InvalidInput):
        LabeledSplit((0, 1), (1, 2), {0: "A", 1: "A", 2: "B"})


def test_split_validates_validation_subset():
    with pytest.raises(InvalidInput):
        LabeledSplit((0,), (1,), {0: "A", 1: "B"}, validation_ids=(1,))


def test_validation_split_is_seeded():
    split = _split(["A"] * 10, ["B"])
    a = make_validation_split(split, 0.2, seed=5)
    b = make_validation_split(split, 0.2, seed=5)
    c = make_validation_split(split, 0.2, seed=6)
    assert a.validation_ids == b.validation_ids
    assert len(a.validation_ids) == 2
    assert a.validation_ids != c.validation_ids


def test_default_grid_shapes():
    grid = TuningGrid()
    assert grid.k_candidates == tuple(range(1, 20))
    assert len(grid.gamma_candidates) == 20
    assert grid.gamma_candidates[0] == pytest.approx(0.005)
    assert grid.gamma_candidates[-1] == pytest.approx(0.100)


def _train_matrix(values, train_ids):
    return DistanceMatrix(tuple(train_ids), tuple(train_ids),
                          np.asarray(values, dtype=float))


def test_tune_single_candidate():
    split = LabeledSplit((0, 1, 2), (), {0: "A", 1: "A", 2: "B"},
                         validation_ids=(0,))
    dm = _train_matrix(np.ones((3, 3)) - np.eye(3), (0, 1, 2))
    hp = tune(dm, split, KNN, TuningGrid(k_candidates=(2,)))
    assert hp.k == 2


def test_tune_prefers_smaller_k_on_ties():
    # both classes perfectly separated: every k is error-free, pick k=1
    labels = {}
    ids = tuple(range(12))
    for i in ids:
        labels[i] = "A" if i < 6 else "B"
    values = np.zeros((12, 12))
    for i in ids:
        for j in ids:
            same = (labels[i] == labels[j])
            values[i, j] = 0.0 if i == j else (0.1 if same else 5.0)
    split = LabeledSplit(ids, (), labels, validation_ids=(0, 6))
    hp = tune(_train_matrix(values, ids), split, KNN)
    assert hp.k == 1


def test_tune_picks_argmin_error():
    # validation doc 0 (A): nearest is A, next two are B -> k=1 right, k=3 wrong
    ids = (0, 1, 2, 3)
    labels = {0: "A", 1: "A", 2: "B", 3: "B"}
    values = np.array([
        [0.0, 0.1, 0.2, 0.3],
        [0.1, 0.0, 9.0, 9.0],
        [0.2, 9.0, 0.0, 9.0],
        [0.3, 9.0, 9.0, 0.0],
    ])
    split = LabeledSplit(ids, (), labels, validation_ids=(0,))
    hp = tune(_train_matrix(values, ids), split, KNN,
              TuningGrid(k_candidates=(1, 3)))
    assert hp.k == 1


def test_tune_wknn_fixes_k_and_returns_gamma():
    ids = tuple(range(6))
    labels = {i: ("A" if i < 3 else "B") for i in ids}
    rng = np.random.default_rng(4)
    values = rng.random((6, 6)) + 1.0
    np.fill_diagonal(values, 0.0)
    split = LabeledSplit(ids, (), labels, validation_ids=(0, 3))
    hp = tune(_train_matrix(values, ids), split, WKNN)
    assert hp.k == 19
    assert hp.gamma in TuningGrid().gamma_candidates


def test_tune_ranks_each_validation_row_once(monkeypatch):
    ranked = []

    def counting(row, ids):
        ranked.append(len(ids))
        return neighbor_order(row, ids)

    monkeypatch.setattr(knn_eval, "neighbor_order", counting)
    ids = tuple(range(6))
    labels = {i: ("A" if i < 3 else "B") for i in ids}
    values = np.random.default_rng(5).random((6, 6))
    split = LabeledSplit(ids, (), labels, validation_ids=(0, 3))
    for classifier in (KNN, WKNN):
        ranked.clear()
        tune(_train_matrix(values, ids), split, classifier)
        assert ranked == [4, 4]  # two validation rows, 19 or 20 candidates


def _tune_per_candidate(dist, split, classifier, grid):
    """``tune`` as one ``_predict`` call per candidate and validation row."""
    val = set(split.validation_ids)
    sub = dist.submatrix(split.validation_ids,
                         [t for t in split.train_ids if t not in val])
    candidates = [Hyperparams(k) for k in grid.k_candidates] \
        if classifier == KNN else \
        [Hyperparams(knn_eval.WKNN_FIXED_K, g) for g in grid.gamma_candidates]
    labels = [split.labels[c] for c in sub.col_ids]
    wrong, used = [0] * len(candidates), 0
    for row, rid in zip(sub.values, sub.row_ids):
        ranked = neighbor_order(row, np.asarray(sub.col_ids))
        if ranked.size:
            used += 1
            for c, hp in enumerate(candidates):
                wrong[c] += knn_eval._predict(ranked, row, labels, hp) \
                    != split.labels[rid]
    return candidates[wrong.index(min(wrong))] if used else None


@pytest.mark.parametrize("seed", range(40))
def test_tune_one_pass_matches_predict_per_candidate(seed):
    """Exact distance ties (few distinct values), inf cells, labels absent
    from the reference side, and weights that underflow to 0."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 45))
    ids = tuple(rng.permutation(300)[:n].tolist())
    labels = {i: "ABCD"[int(rng.integers(0, rng.integers(1, 5)))]
              for i in ids}
    values = rng.integers(0, 5, size=(n, n)) / rng.choice([1.0, 3.0, 1e-3])
    values[rng.random((n, n)) < rng.random() * 0.7] = math.inf
    values = np.minimum(values, values.T)
    split = LabeledSplit(ids, (), labels,
                         validation_ids=ids[:int(rng.integers(1, n - 1))])
    dm = DistanceMatrix(ids, ids, values)
    for grid in (TuningGrid(), TuningGrid(
            k_candidates=tuple(sorted(rng.choice(40, 4, replace=False) + 1)),
            gamma_candidates=(1e-300, 0.01, 5.0))):
        for classifier in (KNN, WKNN):
            want = _tune_per_candidate(dm, split, classifier, grid)
            if want is None:
                with pytest.raises(EmptyValidation):
                    tune(dm, split, classifier, grid)
            else:
                assert tune(dm, split, classifier, grid) == want


def test_tune_requires_validation():
    split = LabeledSplit((0, 1), (), {0: "A", 1: "B"})
    with pytest.raises(EmptyValidation):
        tune(_train_matrix(np.zeros((2, 2)), (0, 1)), split, KNN)


# -- evaluate -------------------------------------------------------------------


def _eval_matrix(test_ids, train_ids, values):
    full_rows = tuple(test_ids) + tuple(train_ids)
    mat = np.vstack([values, np.zeros((len(train_ids), len(train_ids)))])
    return DistanceMatrix(full_rows, tuple(train_ids), mat)


def test_evaluate_all_correct():
    split = _split(["A", "B"], ["A", "B"])
    values = np.array([[0.1, 0.9], [0.9, 0.1]])
    result = evaluate(_eval_matrix((2, 3), (0, 1), values), split, KNN,
                      Hyperparams(k=1))
    assert result.error_percent == 0.0
    assert result.predictions == {2: "A", 3: "B"}


def test_evaluate_one_wrong_of_four():
    split = _split(["A", "B"], ["A", "A", "A", "B"])
    values = np.array([
        [0.1, 0.9],
        [0.1, 0.9],
        [0.9, 0.1],  # predicted B, truth A
        [0.9, 0.1],
    ])
    result = evaluate(_eval_matrix((2, 3, 4, 5), (0, 1), values), split, KNN,
                      Hyperparams(k=1))
    assert result.error_percent == 25.0
    assert result.n_used == 4 and result.n_excluded == 0


def test_evaluate_excludes_unusable_rows():
    split = _split(["A", "B"], ["A", "B"])
    values = np.array([[0.1, 0.9], [math.inf, math.inf]])
    result = evaluate(_eval_matrix((2, 3), (0, 1), values), split, KNN,
                      Hyperparams(k=1))
    assert result.n_used == 1 and result.n_excluded == 1
    assert result.error_percent == 0.0


def test_evaluate_checks_classifier_without_test_rows():
    split = LabeledSplit((0, 1), (), {0: "A", 1: "B"})
    dm = _train_matrix(np.zeros((2, 2)), (0, 1))
    with pytest.raises(InvalidInput, match="unknown classifier"):
        evaluate(dm, split, "svm", Hyperparams(k=1))
    with pytest.raises(InvalidInput, match="needs a gamma"):
        evaluate(dm, split, WKNN, Hyperparams(k=1))


def test_evaluate_permutation_invariant():
    rng = np.random.default_rng(6)
    train_labels = [rng.choice(["A", "B", "C"]) for _ in range(8)]
    test_labels = [rng.choice(["A", "B", "C"]) for _ in range(10)]
    values = rng.random((10, 8))
    split = _split(train_labels, test_labels)
    base = evaluate(_eval_matrix(split.test_ids, split.train_ids, values),
                    split, KNN, Hyperparams(k=3))
    perm = rng.permutation(10)
    shuffled_tests = tuple(split.test_ids[i] for i in perm)
    shuffled = LabeledSplit(split.train_ids, shuffled_tests, split.labels)
    result = evaluate(
        _eval_matrix(split.test_ids, split.train_ids, values),
        shuffled, KNN, Hyperparams(k=3),
    )
    assert result.error_percent == base.error_percent


# -- relative performance -----------------------------------------------------------


def test_relative_identity():
    errors = {"base": {"d1": 4.0, "d2": 8.0}}
    assert relative_performance(errors, "base")["base"] == 1.0


def test_relative_doubling():
    errors = {
        "base": {"d1": 4.0, "d2": 8.0},
        "slow": {"d1": 8.0, "d2": 16.0},
    }
    assert relative_performance(errors, "base")["slow"] == 2.0


def test_relative_zero_base_flagged():
    errors = {"base": {"d1": 0.0}, "m": {"d1": 3.0}}
    with pytest.raises(DivisionByZero, match="d1"):
        relative_performance(errors, "base")


def test_relative_unknown_base():
    with pytest.raises(InvalidInput):
        relative_performance({"m": {"d1": 1.0}}, "base")


# -- reports --------------------------------------------------------------------


def test_report_csv_and_summary(tmp_path):
    rows = [
        {"dataset": "toy", "method": "bow(l1,l1)", "norm": "l1", "metric": "l1",
         "classifier": "knn", "k": 3, "gamma": "", "fold": f,
         "error_percent": e, "excluded_docs": 0}
        for f, e in enumerate([4.0, 6.0])
    ] + [
        {"dataset": "toy", "method": "wmd", "norm": "", "metric": "",
         "classifier": "knn", "k": 1, "gamma": "", "fold": f,
         "error_percent": e, "excluded_docs": 0}
        for f, e in enumerate([2.0, 3.0])
    ]
    csv_path = tmp_path / "report.csv"
    write_report_csv(rows, str(csv_path))
    with open(csv_path) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 4
    assert parsed[0]["method"] == "bow(l1,l1)"

    summary = summarize(rows, base_method="bow(l1,l1)")
    toy = summary["methods"]["bow(l1,l1)"]["toy"]
    assert toy["mean_error_percent"] == 5.0
    assert toy["std_error_percent"] == pytest.approx(np.std([4.0, 6.0], ddof=1))
    assert summary["relative_to_base"]["wmd"] == pytest.approx(0.5)

    json_path = tmp_path / "summary.json"
    write_summary_json(summary, str(json_path))
    assert json.loads(json_path.read_text())["base_method"] == "bow(l1,l1)"


def test_summary_writes_null_for_an_undefined_score(tmp_path):
    # "wmd" has a fold whose test documents were all unusable: "nan"
    rows = [{"dataset": "toy", "method": m, "fold": f, "error_percent": e}
            for m, errs in [("bow(l1,l1)", ["4.0", "6.0"]),
                            ("wmd", ["nan", "3.0"])]
            for f, e in enumerate(errs)]
    summary = summarize(rows, base_method="bow(l1,l1)")
    assert summary["methods"]["wmd"]["toy"] == {
        "mean_error_percent": None, "std_error_percent": None, "folds": 2}
    assert summary["relative_to_base"] == {"bow(l1,l1)": 1.0, "wmd": None}
    json_path = tmp_path / "summary.json"
    write_summary_json(summary, str(json_path))
    assert "NaN" not in json_path.read_text()
