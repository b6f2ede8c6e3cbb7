"""The kNN prediction, tuning and evaluation code and the nearest-neighbour
pairs that ``knn_eval.neighbor_order`` and its single weighted vote
replaced, kept verbatim as a test-only reference: every prediction re-sorts
its row, and tuning scores each candidate with a fresh sort."""

from __future__ import annotations

import math
import warnings
from typing import Mapping, Sequence

import numpy as np

from wmdlab.analysis import CROSS_SPLIT, LEAVE_ONE_OUT
from wmdlab.errors import (
    EmptyValidation,
    InvalidInput,
    NoFiniteNeighbor,
    NotEnoughNeighbors,
)
from wmdlab.knn_eval import (
    KNN,
    WKNN,
    WKNN_FIXED_K,
    EvalResult,
    Hyperparams,
    LabeledSplit,
    TuningGrid,
)
from wmdlab.wmd import DistanceMatrix


def _nearest(dist_row: np.ndarray, k: int,
             train_ids: np.ndarray) -> np.ndarray:
    """Positions of the k smallest finite distances; ties go to lower ids."""
    dist_row = np.asarray(dist_row, dtype=np.float64)
    order = np.lexsort((train_ids, dist_row))
    finite = order[np.isfinite(dist_row[order])]
    if finite.size == 0:
        raise NotEnoughNeighbors("no finite-distance training sample")
    if finite.size < k:
        warnings.warn(
            f"only {finite.size} finite neighbors available, clamping k={k}",
            stacklevel=3,
        )
        k = finite.size
    return finite[:k]


def _vote(picked: np.ndarray, dist_row: np.ndarray,
          train_labels: Sequence[str], weights: np.ndarray) -> str:
    """Weighted majority with deterministic tie-breaks.

    Vote ties are resolved by the smaller summed distance among the tied
    labels, then by the lexicographically smallest label.
    """
    votes: dict[str, float] = {}
    dist_sum: dict[str, float] = {}
    for pos, w in zip(picked.tolist(), weights.tolist()):
        lab = train_labels[pos]
        votes[lab] = votes.get(lab, 0.0) + w
        dist_sum[lab] = dist_sum.get(lab, 0.0) + float(dist_row[pos])
    return min(votes, key=lambda lab: (-votes[lab], dist_sum[lab], lab))


def knn_predict(dist_row: np.ndarray, train_labels: Sequence[str], k: int,
                train_ids: Sequence[int] | None = None) -> str:
    """Majority label of the k nearest training samples."""
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    ids = (np.arange(len(train_labels)) if train_ids is None
           else np.asarray(train_ids))
    picked = _nearest(dist_row, k, ids)
    return _vote(picked, np.asarray(dist_row, dtype=np.float64), train_labels,
                 np.ones(picked.size))


def wknn_predict(dist_row: np.ndarray, train_labels: Sequence[str], k: int,
                 gamma: float,
                 train_ids: Sequence[int] | None = None) -> str:
    """Label with the largest exp(-d/gamma)-weighted vote among the k nearest.

    Weights are computed relative to the nearest distance, which multiplies
    every vote by the same positive constant (the argmax is unchanged) and
    keeps tiny gamma values from underflowing all weights to zero.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if not gamma > 0:
        raise InvalidInput(f"gamma must be > 0, got {gamma}")
    ids = (np.arange(len(train_labels)) if train_ids is None
           else np.asarray(train_ids))
    dist_row = np.asarray(dist_row, dtype=np.float64)
    picked = _nearest(dist_row, k, ids)
    d = dist_row[picked]
    weights = np.exp(-(d - d.min()) / gamma)
    return _vote(picked, dist_row, train_labels, weights)


def _predict(classifier: str, row: np.ndarray, labels: Sequence[str],
             ids: np.ndarray, hp: Hyperparams) -> str:
    if classifier == KNN:
        return knn_predict(row, labels, hp.k, train_ids=ids)
    if classifier == WKNN:
        if hp.gamma is None:
            raise InvalidInput("wknn needs a gamma")
        return wknn_predict(row, labels, hp.k, hp.gamma, train_ids=ids)
    raise InvalidInput(f"unknown classifier {classifier!r}")


def _error_rate(sub: DistanceMatrix, labels: Mapping[int, str],
                classifier: str, hp: Hyperparams) -> tuple[float, int, int,
                                                           dict[int, str]]:
    col_labels = [labels[c] for c in sub.col_ids]
    col_ids = np.asarray(sub.col_ids)
    wrong = used = excluded = 0
    preds: dict[int, str] = {}
    for i, rid in enumerate(sub.row_ids):
        try:
            p = _predict(classifier, sub.values[i], col_labels, col_ids, hp)
        except NotEnoughNeighbors:
            excluded += 1
            continue
        preds[rid] = p
        used += 1
        if p != labels[rid]:
            wrong += 1
    rate = wrong / used if used else math.nan
    return rate, used, excluded, preds


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
        candidates = [Hyperparams(k=k) for k in grid.k_candidates]
    elif classifier == WKNN:
        candidates = [Hyperparams(k=WKNN_FIXED_K, gamma=g)
                      for g in grid.gamma_candidates]
    else:
        raise InvalidInput(f"unknown classifier {classifier!r}")

    best: Hyperparams | None = None
    best_err = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamp warnings on tiny fixtures
        for hp in candidates:
            err, used, _, _ = _error_rate(sub, split.labels, classifier, hp)
            if used and err < best_err:
                best_err = err
                best = hp
    if best is None:
        raise EmptyValidation("no usable validation document")
    return best


def evaluate(dist: DistanceMatrix, split: LabeledSplit, classifier: str,
             hyperparams: Hyperparams) -> EvalResult:
    """Test error in percent; unusable test documents are excluded and counted."""
    sub = dist.submatrix(split.test_ids, split.train_ids)
    rate, used, excluded, preds = _error_rate(sub, split.labels, classifier,
                                              hyperparams)
    pct = 100.0 * rate if used else math.nan
    return EvalResult(error_percent=pct, n_used=used, n_excluded=excluded,
                      predictions=preds)


def nearest_neighbor_pairs(dist: DistanceMatrix,
                           mode: str = CROSS_SPLIT) -> list[tuple[int, int]]:
    """For each query row, its closest reference document.

    ``leave-one-out`` skips the reference with the same document id as the
    query. Distance ties go to the lower reference id.
    """
    if mode not in (CROSS_SPLIT, LEAVE_ONE_OUT):
        raise InvalidInput(f"unknown mode {mode!r}")
    col_ids = np.asarray(dist.col_ids)
    pairs: list[tuple[int, int]] = []
    for i, rid in enumerate(dist.row_ids):
        row = dist.values[i]
        order = np.lexsort((col_ids, row))
        chosen = -1
        for pos in order.tolist():
            if not math.isfinite(row[pos]):
                break  # order puts inf last; nothing further is finite
            if mode == LEAVE_ONE_OUT and dist.col_ids[pos] == rid:
                continue
            chosen = pos
            break
        if chosen < 0:
            raise NoFiniteNeighbor(f"query {rid} has no finite neighbor")
        pairs.append((rid, dist.col_ids[chosen]))
    return pairs
