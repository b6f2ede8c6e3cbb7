"""Nearest-neighbor classification from distance matrices, tuning, and scoring."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DivisionByZero,
    EmptyValidation,
    InvalidInput,
    NotEnoughNeighbors,
)
from .wmd import DistanceMatrix

KNN = "knn"
WKNN = "wknn"
WKNN_FIXED_K = 19


@dataclass(frozen=True)
class LabeledSplit:
    """Train/test document ids with labels and an optional validation subset."""

    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]
    labels: Mapping[int, str]
    validation_ids: tuple[int, ...] = ()

    def __post_init__(self):
        train = set(self.train_ids)
        test = set(self.test_ids)
        if train & test:
            raise InvalidInput("train and test ids overlap")
        if not set(self.validation_ids) <= train:
            raise InvalidInput("validation ids must be a subset of train ids")
        for i in self.train_ids + self.test_ids:
            if not self.labels.get(i):
                raise InvalidInput(f"document {i} has no label")


@dataclass(frozen=True)
class TuningGrid:
    """Hyperparameter candidates: neighborhood sizes and vote temperatures."""

    k_candidates: tuple[int, ...] = tuple(range(1, 20))
    gamma_candidates: tuple[float, ...] = tuple(
        0.005 * i for i in range(1, 21)
    )


# the most neighbours a tuned vote reads: a transport matrix needs only
# each row's VOTE_K nearest cells
VOTE_K = max(WKNN_FIXED_K, *TuningGrid().k_candidates)


@dataclass(frozen=True)
class Hyperparams:
    k: int
    gamma: float | None = None


@dataclass(frozen=True)
class EvalResult:
    error_percent: float
    n_used: int
    n_excluded: int
    predictions: Mapping[int, str]


def neighbor_order(row: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions of the row's finite cells, nearest first; equal distances
    go to the lower id. Prediction, tuning and analysis all rank rows here."""
    row = np.asarray(row, dtype=np.float64)
    order = np.lexsort((ids, row))
    return order[np.isfinite(row[order])]


def _valid(classifier: str, k: int, gamma: float | None) -> Hyperparams:
    """The hyperparameters ``classifier`` votes with; kNN drops gamma."""
    if classifier not in (KNN, WKNN):
        raise InvalidInput(f"unknown classifier {classifier!r}")
    if classifier == WKNN and gamma is None:
        raise InvalidInput("wknn needs a gamma")
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if classifier == WKNN and not gamma > 0:
        raise InvalidInput(f"gamma must be > 0, got {gamma}")
    return Hyperparams(k, gamma if classifier == WKNN else None)


def _predict(ranked: np.ndarray, row: np.ndarray, labels: Sequence[str],
             hp: Hyperparams) -> str:
    """Weighted majority of the first ``hp.k`` positions of ``ranked``.

    A vote weighs 1 for kNN (``hp.gamma is None``), else
    exp(-(d - d_nearest) / gamma): the offset scales all votes alike and
    keeps tiny gammas from underflowing every weight to zero. Vote ties go
    to the smaller summed distance, then to the smallest label."""
    picked = ranked[:hp.k]
    d = row[picked]
    weights = (np.ones(picked.size) if hp.gamma is None
               else np.exp(-(d - d[0]) / hp.gamma))
    votes: dict[str, float] = {}
    dist_sum: dict[str, float] = {}
    for pos, w, dist in zip(picked.tolist(), weights.tolist(), d.tolist()):
        lab = labels[pos]
        votes[lab] = votes.get(lab, 0.0) + w
        dist_sum[lab] = dist_sum.get(lab, 0.0) + dist
    return min(votes, key=lambda lab: (-votes[lab], dist_sum[lab], lab))


def _predict_alone(row: np.ndarray, labels: Sequence[str],
                   ids: Sequence[int] | None, hp: Hyperparams) -> str:
    """Vote of a row ranked for this one prediction (``ids`` default to the
    positions); warns when fewer than ``hp.k`` cells are finite."""
    row = np.asarray(row, dtype=np.float64)
    ranked = neighbor_order(row, np.arange(len(labels)) if ids is None
                            else np.asarray(ids))
    if ranked.size == 0:
        raise NotEnoughNeighbors("no finite-distance training sample")
    if ranked.size < hp.k:
        warnings.warn(f"only {ranked.size} finite neighbors available, "
                      f"clamping k={hp.k}", stacklevel=3)
    return _predict(ranked, row, labels, hp)


def knn_predict(dist_row: np.ndarray, train_labels: Sequence[str], k: int,
                train_ids: Sequence[int] | None = None) -> str:
    """Majority label of the k nearest training samples."""
    return _predict_alone(dist_row, train_labels, train_ids,
                          _valid(KNN, k, None))


def wknn_predict(dist_row: np.ndarray, train_labels: Sequence[str], k: int,
                 gamma: float, train_ids: Sequence[int] | None = None) -> str:
    """Label with the largest exp(-d/gamma)-weighted vote among the k nearest."""
    return _predict_alone(dist_row, train_labels, train_ids,
                          _valid(WKNN, k, gamma))


def make_validation_split(split: LabeledSplit, fraction: float = 0.2,
                          seed: int | Sequence[int] = 0) -> LabeledSplit:
    """Carve a seeded uniform validation subset out of the training ids."""
    if not 0 < fraction < 1:
        raise InvalidInput(f"fraction must be in (0, 1), got {fraction}")
    n = len(split.train_ids)
    if n < 2:
        raise EmptyValidation("need at least 2 training documents")
    n_val = min(max(1, round(n * fraction)), n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    val = tuple(sorted(split.train_ids[i] for i in perm[:n_val]))
    return LabeledSplit(split.train_ids, split.test_ids, split.labels, val)


def tune(dist: DistanceMatrix, split: LabeledSplit, classifier: str,
         grid: TuningGrid | None = None) -> Hyperparams:
    """Pick the hyperparameter with the lowest validation error.

    kNN tunes the neighborhood size; wkNN keeps k fixed at WKNN_FIXED_K and
    tunes gamma. Ties go to the earlier (smaller) candidate.
    """
    grid = grid or TuningGrid()
    val = split.validation_ids
    if not val:
        raise EmptyValidation("split has no validation ids")
    val_set = set(val)
    ref = tuple(t for t in split.train_ids if t not in val_set)
    if not ref:
        raise EmptyValidation("no training ids left outside validation")
    sub = dist.submatrix(val, ref)

    if classifier == KNN:
        candidates = [_valid(KNN, k, None) for k in grid.k_candidates]
    elif classifier == WKNN:
        candidates = [_valid(WKNN, WKNN_FIXED_K, g)
                      for g in grid.gamma_candidates]
    else:
        raise InvalidInput(f"unknown classifier {classifier!r}")
    if not candidates:
        raise EmptyValidation("no usable validation document")

    names = sorted({split.labels[c] for c in sub.col_ids})
    code = {lab: i for i, lab in enumerate(names)}
    codes = np.array([code[split.labels[c]] for c in sub.col_ids],
                     dtype=np.int64)
    ids = np.asarray(sub.col_ids)
    used, wrong = 0, np.zeros(len(candidates), dtype=np.int64)
    for row, rid in zip(sub.values, sub.row_ids):
        ranked = neighbor_order(row, ids)
        if ranked.size == 0:
            continue
        used += 1
        wrong += _scan(ranked, row, codes, len(names), candidates) \
            != code.get(split.labels[rid], -1)
    if not used:
        raise EmptyValidation("no usable validation document")
    return candidates[int(np.argmin(wrong))]


def _scan(ranked: np.ndarray, row: np.ndarray, codes: np.ndarray,
          n_labels: int, candidates: Sequence[Hyperparams]) -> np.ndarray:
    """The label code ``_predict`` votes for under each candidate, from one
    pass over the ranking: per label, votes and summed distances are
    running sums (``np.cumsum`` adds left to right, and adding the 0.0 of
    another label's cell leaves a sum's bits as they are), read at each
    candidate's k. The weights of a gamma come from ``_predict``'s own
    1-D ``np.exp`` call."""
    k = np.minimum([hp.k for hp in candidates], ranked.size)
    picked = ranked[:k.max(initial=1)]
    d = row[picked]
    mine = codes[picked] == np.arange(n_labels)[:, None]
    unit = np.cumsum(mine, axis=1, dtype=np.float64)
    dist = np.cumsum(np.where(mine, d, 0.0), axis=1)[:, k - 1].T
    votes = np.array([
        unit[:, n - 1] if hp.gamma is None else np.cumsum(np.where(
            mine[:, :n], np.exp(-(d[:n] - d[0]) / hp.gamma), 0.0),
            axis=1)[:, -1]
        for hp, n in zip(candidates, k.tolist())])
    # the most votes, then the smallest summed distance, then the lowest
    # code; the nearest cell weighs 1, so a label with no cell never wins
    top = votes == votes.max(axis=1, keepdims=True)
    dist = np.where(top, dist, np.inf)
    return np.argmax(top & (dist == dist.min(axis=1, keepdims=True)), axis=1)


def evaluate(dist: DistanceMatrix, split: LabeledSplit, classifier: str,
             hyperparams: Hyperparams) -> EvalResult:
    """Test error in percent; unusable test documents are excluded and counted."""
    sub = dist.submatrix(split.test_ids, split.train_ids)
    hp = _valid(classifier, hyperparams.k, hyperparams.gamma)
    labels = [split.labels[c] for c in sub.col_ids]
    ids = np.asarray(sub.col_ids)
    wrong = used = 0
    preds: dict[int, str] = {}
    for row, rid in zip(sub.values, sub.row_ids):
        try:
            preds[rid] = label = _predict_alone(row, labels, ids, hp)
        except NotEnoughNeighbors:
            continue
        used += 1
        wrong += label != split.labels[rid]
    # the rate first: 100.0 * wrong / used can differ in the last bit
    pct = 100.0 * (wrong / used) if used else math.nan
    return EvalResult(error_percent=pct, n_used=used,
                      n_excluded=len(sub.row_ids) - used, predictions=preds)


def relative_performance(
    errors: Mapping[str, Mapping[str, float]], base: str
) -> dict[str, float]:
    """Mean over datasets of each method's error divided by the base method's."""
    if base not in errors:
        raise InvalidInput(f"base method {base!r} not in errors")
    base_errors = errors[base]
    out: dict[str, float] = {}
    for method, per_dataset in errors.items():
        shared = sorted(set(per_dataset) & set(base_errors))
        if not shared:
            raise InvalidInput(f"no shared datasets between {method!r} and base")
        zero = [ds for ds in shared if base_errors[ds] == 0]
        if zero:
            raise DivisionByZero(
                f"base error is zero on dataset(s): {', '.join(zero)}"
            )
        out[method] = math.fsum(
            per_dataset[ds] / base_errors[ds] for ds in shared
        ) / len(shared)
    return out


# -- report files --------------------------------------------------------------

REPORT_COLUMNS = ["dataset", "method", "norm", "metric", "classifier",
                  "k", "gamma", "fold", "error_percent", "excluded_docs"]


def write_report_csv(rows: Sequence[Mapping[str, object]], path: str) -> None:
    """One CSV row per (method, fold) evaluation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c, "") for c in REPORT_COLUMNS})


def summarize(rows: Sequence[Mapping[str, object]],
              base_method: str | None = None) -> dict:
    """Per-(dataset, method) mean/std over folds plus relative scores; one
    that is NaN (a fold with no usable test document) is None, JSON null."""
    grouped: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        key = (str(row["dataset"]), str(row["method"]))
        grouped.setdefault(key, []).append(float(row["error_percent"]))
    summary: dict = {"methods": {}}
    means: dict[str, dict[str, float]] = {}
    for (dataset, method), errs in sorted(grouped.items()):
        mean = math.fsum(errs) / len(errs)
        std = float(np.std(errs, ddof=1)) if len(errs) > 1 else None
        summary["methods"].setdefault(method, {})[dataset] = {
            "mean_error_percent": _defined(mean),
            "std_error_percent": _defined(std),
            "folds": len(errs),
        }
        means.setdefault(method, {})[dataset] = mean
    if base_method and base_method in means:
        try:
            summary["relative_to_base"] = {
                m: _defined(r)
                for m, r in relative_performance(means, base_method).items()}
            summary["base_method"] = base_method
        except DivisionByZero as exc:
            summary["relative_to_base"] = None
            summary["relative_error"] = str(exc)
    return summary


def _defined(x: float | None) -> float | None:
    return None if x is None or math.isnan(x) else x


def write_summary_json(summary: Mapping, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
