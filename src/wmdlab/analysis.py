"""Transport-distance histograms, distance correlations, and the dimension sweep."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingStore, project_pca
from .errors import DegenerateInput, InvalidInput, NoFiniteNeighbor
from .knn_eval import neighbor_order
from .textrep import SparseVector, VectorMetric, vector_distances
from .wmd import DistanceMatrix, DocumentMeasure, pair_distances, transport_plan
# unused here; perfbench/tracer.py rebinds them at these names
from .textrep import build_vocabulary, bow_vector, normalize  # noqa: F401
from .textrep import vector_distance  # noqa: F401
from .wmd import make_measure, wmd_distance  # noqa: F401

CROSS_SPLIT = "cross-split"
LEAVE_ONE_OUT = "leave-one-out"
MAX_BINS = 2**20  # a histogram's bins; a width that needs more is refused


@dataclass(frozen=True)
class TransportHistogram:
    """Mass moved per band of word-to-word distance, over a set of couplings."""

    bin_edges: np.ndarray
    masses: np.ndarray
    total_mass: float

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        masses = np.asarray(self.masses, dtype=np.float64)
        if edges.ndim != 1 or edges.size != masses.size + 1:
            raise InvalidInput("need len(bin_edges) == len(masses) + 1")
        if np.any(np.diff(edges) <= 0):
            raise InvalidInput("bin edges must be increasing")
        if np.any(masses < 0):
            raise InvalidInput("masses must be nonnegative")
        edges.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "masses", masses)


def nearest_neighbor_pairs(dist: DistanceMatrix,
                           mode: str = CROSS_SPLIT) -> list[tuple[int, int]]:
    """For each query row, its closest reference document.

    ``leave-one-out`` skips the reference with the same document id as the
    query. Distance ties go to the lower reference id, as in
    ``knn_eval.neighbor_order``.
    """
    if mode not in (CROSS_SPLIT, LEAVE_ONE_OUT):
        raise InvalidInput(f"unknown mode {mode!r}")
    col_ids = np.asarray(dist.col_ids)
    pairs: list[tuple[int, int]] = []
    for row, rid in zip(dist.values, dist.row_ids):
        chosen = next((pos for pos in neighbor_order(row, col_ids).tolist()
                       if mode == CROSS_SPLIT or dist.col_ids[pos] != rid),
                      None)
        if chosen is None:
            raise NoFiniteNeighbor(f"query {rid} has no finite neighbor")
        pairs.append((rid, dist.col_ids[chosen]))
    return pairs


def transport_histogram(
    pairs: Sequence[tuple[int, int]],
    measures: Mapping[int, DocumentMeasure],
    store: EmbeddingStore,
    bin_width: float = 0.02,
) -> TransportHistogram:
    """Solve each pair's coupling and bin its mass by word-to-word distance.

    Bins are half-open [lo, hi) of width ``bin_width`` covering [0, max
    observed distance]; the last bin is closed.
    """
    if not pairs:
        raise InvalidInput("no pairs to aggregate")
    if not 0 < bin_width < math.inf:
        raise InvalidInput(f"bin_width must be finite and > 0, got {bin_width}")
    moved: list[tuple[float, float]] = []  # (word distance, mass)
    for src, dst in pairs:
        plan, cost = transport_plan(measures[src], measures[dst], store)
        for i, j, mass in plan.entries:
            moved.append((float(cost[i, j]), mass))
    max_cost = max(c for c, _ in moved)
    bins = max_cost / bin_width
    if bins > MAX_BINS:
        raise InvalidInput(f"bin width {bin_width:g} needs {bins:.3g} bins to "
                           f"reach distance {max_cost:.3g}, over {MAX_BINS}")
    n_bins = max(1, math.ceil(bins))
    masses = np.zeros(n_bins)
    for c, mass in moved:
        idx = min(int(c // bin_width), n_bins - 1)
        masses[idx] += mass
    edges = np.arange(n_bins + 1) * bin_width
    total = math.fsum(m for _, m in moved)
    return TransportHistogram(bin_edges=edges, masses=masses, total_mass=total)


def pearson(xs: Sequence[float], ys: Sequence[float],
            names: tuple[str, str] = ("xs", "ys")) -> float:
    """Product-moment correlation, clamped into [-1, 1]; a constant series
    fails, named by ``names``, whatever the rounding of its variance."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    n = len(xs)
    if n != len(ys):
        raise InvalidInput("series lengths differ")
    if n < 2:
        raise DegenerateInput("need at least 2 points")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sx = math.sqrt(math.fsum((x - mx) ** 2 for x in xs))
    sy = math.sqrt(math.fsum((y - my) ** 2 for y in ys))
    for name, series, spread in zip(names, (xs, ys), (sx, sy)):
        if spread == 0.0 or len(set(series)) == 1:
            raise DegenerateInput(f"{name} is constant over {n} pairs")
    return max(-1.0, min(1.0, cov / (sx * sy)))


def sample_document_pairs(ids: Sequence[int], count: int,
                          seed: int) -> list[tuple[int, int]]:
    """Seeded uniform draws of distinct-document pairs (repeats across draws allowed)."""
    if len(ids) < 2:
        raise DegenerateInput("need at least 2 documents to sample pairs")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        i, j = rng.choice(len(ids), size=2, replace=False)
        out.append((ids[int(i)], ids[int(j)]))
    return out


def bow_wmd_scatter(
    pairs: Sequence[tuple[int, int]],
    bows: Mapping[int, SparseVector],
    wmd_distances: Sequence[float],
) -> list[tuple[float, float]]:
    """``(L1/L1 count distance, transport distance)`` of each document pair.

    ``bows`` holds L1-normalized count vectors, and ``wmd_distances`` each
    pair's transport distance.
    """
    docs = {d: i for i, d in enumerate(dict.fromkeys(d for p in pairs
                                                     for d in p))}
    bow = vector_distances([bows[d] for d in docs],
                           [docs[a] for a, _ in pairs],
                           [docs[b] for _, b in pairs], VectorMetric.L1)
    return list(zip(bow.tolist(), wmd_distances, strict=True))


def dim_comparison(
    pairs: Sequence[tuple[int, int]],
    bow_distances: Sequence[float],
    measures: Mapping[int, DocumentMeasure],
    store: EmbeddingStore,
    dims: Sequence[int],
    fit_vocab: Sequence[str],
    workers: int = 1,
    wmd_distances: Sequence[float] | None = None,
) -> dict[int, float]:
    """Correlation of transport distance with the L1/L1 count baseline per dimension.

    ``bow_distances`` holds each pair's L1/L1 count distance (the first
    column of ``bow_wmd_scatter``). Each requested dimension below
    ``store.dim`` projects the embeddings first, with the PCA fitted on
    ``fit_vocab``, and ``workers`` processes solve its pairs. The full
    dimension uses the store as-is, or ``wmd_distances`` (the second column
    of ``bow_wmd_scatter``) when given. Every dimension scores the same
    ``pairs``, so the series are directly comparable.
    """
    for d in dims:
        if not 1 <= d <= store.dim:
            raise InvalidInput(f"dimension {d} out of range [1, {store.dim}]")
    out: dict[int, float] = {}
    for d in dims:
        if d == store.dim and wmd_distances is not None:
            wmds = wmd_distances
        else:
            store_d = store if d == store.dim else project_pca(
                store, d, fit_vocab=fit_vocab)
            wmds = pair_distances(pairs, measures, store_d, workers).tolist()
        out[int(d)] = pearson(bow_distances, wmds,
                              ("bow_l1l1", f"wmd at dim {d}"))
    return out


def write_histogram_csv(hist: TransportHistogram, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "mass"])
        for lo, hi, m in zip(hist.bin_edges[:-1], hist.bin_edges[1:],
                             hist.masses):
            writer.writerow([f"{lo:.17g}", f"{hi:.17g}", f"{m:.17g}"])


def write_scatter_csv(points: Sequence[tuple[float, float]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bow_l1l1", "wmd"])
        for x, y in points:
            writer.writerow([f"{x:.17g}", f"{y:.17g}"])
