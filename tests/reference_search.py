"""A plain model of the exact top-k search that fills ``eval``'s transport
matrices, for counting what it solves: per pair relaxed WMD bounds by
loops and ``math.fsum``, a store kept as a dict, rows walked one by one.

A fold's reads map each row it votes on to the columns the vote reads:
a validation row reads the training documents outside the validation
set, a test row every training document. Cells are keyed by their pair,
lower id first, and hold the pair's distance (>= 0) or minus a lower bound
on it (< 0), as the pair store does."""

from __future__ import annotations

import bisect
import math
from typing import Mapping, Sequence

from wmdlab.embeddings import cost_submatrix
from wmdlab.knn_eval import WKNN_FIXED_K, LabeledSplit, TuningGrid, \
    make_validation_split
from wmdlab.wmd import wmd_distance

# the most neighbours a tuned kNN or wkNN vote reads
K = max(WKNN_FIXED_K, *TuningGrid().k_candidates)


def fold_reads(train: Sequence[int], test: Sequence[int],
               labels: Mapping[int, str], seed) -> dict[int, list[int]]:
    """The columns ``eval`` reads of each row of the fold ``train``/``test``
    whose validation split is carved with ``seed``."""
    split = make_validation_split(
        LabeledSplit(tuple(train), tuple(test), labels), 0.2, seed=seed)
    fit = [t for t in train if t not in split.validation_ids]
    reads = {v: fit for v in split.validation_ids}
    reads.update((t, list(train)) for t in split.test_ids)
    return reads


def rwmd(a, b, store) -> float:
    """max(sum_i a_i min_j c_ij, sum_j b_j min_i c_ij), deflated by a
    relative 1e-12."""
    c = cost_submatrix(store, a.words, b.words)
    out = math.fsum(w * min(row)
                    for w, row in zip(a.weights.tolist(), c.tolist()))
    into = math.fsum(w * min(col)
                     for w, col in zip(b.weights.tolist(), c.T.tolist()))
    return max(out, into) * (1.0 - 1e-12)


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _row(q: int, cols: Sequence[int], reps: Mapping, cells: dict):
    """The candidates of row ``q`` (usable columns other than q) and what
    the store holds for each (None when nothing)."""
    cands = [c for c in cols if c != q and reps[c] is not None]
    return cands, {c: cells.get(_pair(q, c)) for c in cands}


def search(reads: Sequence[Mapping[int, Sequence[int]]], reps: Mapping,
           store, cells: dict | None = None,
           k: int = K) -> list[tuple[int, int]]:
    """The pairs the searches of the folds ``reads`` solve, in order, from
    the store ``cells`` (updated at the end of each fold, as ``eval``
    updates its pair store). A row of at most k candidates solves all of
    them; a larger one solves its candidates by ascending (bound, id)
    until the next bound is strictly above its k-th distance."""
    cells = {} if cells is None else cells
    solved: list[tuple[int, int]] = []
    for fold in reads:
        found: dict[tuple[int, int], float] = {}
        for q, cols in fold.items():
            if reps[q] is None:
                continue
            cands, known = _row(q, cols, reps, cells)
            exact = sorted(v for v in known.values()
                           if v is not None and v >= 0)
            todo = [c for c in cands if known[c] is None or known[c] < 0]
            search_row = len(cands) > k
            order = sorted(
                (rwmd(reps[q], reps[c], store) if known[c] is None
                 else -known[c], c) for c in todo) if search_row \
                else [(0.0, c) for c in todo]
            for bound, c in order:
                if search_row and len(exact) >= k and bound > exact[k - 1]:
                    found[_pair(q, c)] = -bound
                    continue
                d = wmd_distance(reps[min(q, c)], reps[max(q, c)], store)
                found[_pair(q, c)] = d
                solved.append(_pair(q, c))
                bisect.insort(exact, d)
        for p, v in found.items():
            if v >= 0 or cells.get(p) is None:
                cells[p] = v
    return solved


def lacking(fold: Mapping[int, Sequence[int]], reps: Mapping, cells: dict,
            k: int = K) -> int:
    """The cells without a distance in the rows of ``fold`` that the store
    ``cells`` does not prove: the count an ``eval --no-compute`` names."""
    total = 0
    for q, cols in fold.items():
        if reps[q] is None:
            continue
        cands, known = _row(q, cols, reps, cells)
        pending = [v for v in known.values() if v is None or v < 0]
        exact = sorted(v for v in known.values() if v is not None and v >= 0)
        proven = not pending or (
            len(cands) > k and len(exact) >= k
            and all(v is not None and -v > exact[k - 1] for v in pending))
        total += 0 if proven else len(pending)
    return total
