"""The exact top-k search that fills ``eval``'s transport matrices: its
relaxed WMD bound, its rows against a full fill, the warm run that proves
every row from the pair store, and the store's bound cells."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmdlab import cli, wmd
from wmdlab.cli import DistanceCache, main
from wmdlab.embeddings import EmbeddingStore, l2_normalize
from wmdlab.errors import ParseError
from wmdlab.knn_eval import neighbor_order
from wmdlab.textrep import build_vocabulary
from wmdlab.wmd import DocumentMeasure, Method, PairStore, Resources, \
    merge_distance_matrix, pairwise_distances, read_distance_matrix, \
    wmd_distance, write_distance_matrix

import reference_search
from helpers import counts_of

K = reference_search.K


def run(args):
    return main([str(a) for a in args])


# -- the bound ----------------------------------------------------------------


@st.composite
def measure_pairs(draw):
    """Two measures over a few embedded words: some words shared (zero
    cost), some words at the same point, one-word documents, duplicates
    and near-duplicates (counts scaled by 10**6, one of them moved by
    one)."""
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    coords = st.floats(-2, 2, allow_nan=False).filter(lambda x: abs(x) > 1e-3)
    rows = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[-1] = rows[0]  # two words at one point
    store = EmbeddingStore([f"w{i}" for i in range(n)], np.array(rows))
    if draw(st.booleans()):
        store = l2_normalize(store)
    words = st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                     unique=True)
    a_words = draw(words)
    a_counts = draw(st.lists(st.integers(1, 9), min_size=len(a_words),
                             max_size=len(a_words)))
    kind = draw(st.sampled_from(["other", "duplicate", "near-duplicate"]))
    if kind == "other":
        b_words = draw(words)
        b_counts = draw(st.lists(st.integers(1, 9), min_size=len(b_words),
                                 max_size=len(b_words)))
    else:
        b_words, b_counts = a_words, list(a_counts)
        if kind == "near-duplicate":
            a_counts = [c * 10**6 for c in a_counts]
            b_counts = [c * 10**6 for c in b_counts]
            b_counts[draw(st.integers(0, len(b_counts) - 1))] += 1

    def measure(ids, counts):
        w = np.array(counts, dtype=np.float64)
        return DocumentMeasure(tuple(f"w{i}" for i in ids), w / w.sum())
    return store, measure(a_words, a_counts), measure(b_words, b_counts)


@settings(max_examples=400, deadline=None)
@given(measure_pairs())
def test_deflated_rwmd_never_exceeds_the_transport_distance(case):
    store, a, b = case
    exact = wmd_distance(a, b, store)
    # from a table of every word, as the search slices a row of it, and
    # from a row's own block
    table = store.distances(store.tokens, store.tokens)
    for costs in (table, store.distances(a.words, b.words)):
        bound, = wmd._rwmd(a, [b], costs)
        assert 0.0 <= bound <= exact
    # several references at once: each gets a bound on its own distance
    bounds = wmd._rwmd(a, [b, a, b], table)
    assert bounds[1] == 0.0 and 0.0 <= bounds[[0, 2]].max() <= exact


@st.composite
def query_and_references(draw):
    """A query measure, one to six reference measures and a shuffle of
    them, over up to eight embedded words."""
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.floats(-2, 2, allow_nan=False),
                                  min_size=2, max_size=2),
                         min_size=n, max_size=n))
    store = EmbeddingStore([f"w{i}" for i in range(n)], np.array(rows))

    def measure():
        ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                            unique=True))
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=len(ids),
                                   max_size=len(ids))), dtype=np.float64)
        return DocumentMeasure(tuple(f"w{i}" for i in ids), w / w.sum())
    refs = [measure() for _ in range(draw(st.integers(1, 6)))]
    return store, measure(), refs, draw(st.permutations(range(len(refs))))


@settings(max_examples=400, deadline=None)
@given(query_and_references())
def test_each_bound_has_the_same_bits_alone_and_in_any_batch(case):
    store, a, refs, order = case
    table = store.distances(store.tokens, store.tokens)
    words = [w for b in refs for w in b.words]
    for costs in (table, store.distances(a.words, words)):
        alone = np.concatenate([wmd._rwmd(a, [b], costs) for b in refs])
        batch = wmd._rwmd(a, refs, costs)
        shuffled = np.empty_like(batch)
        shuffled[order] = wmd._rwmd(a, [refs[j] for j in order], costs)
        assert alone.tobytes() == batch.tobytes() == shuffled.tobytes()


# -- a search against a full fill ----------------------------------------------


@pytest.fixture
def tied_resources(clustered_store):
    """60 documents: 8 random ones, then 13 distinct ones 4 times each, so
    that rows hold runs of equal distances."""
    rng = np.random.default_rng(5)
    words = list(clustered_store.tokens)
    distinct = [tuple(rng.choice(words[c * 10:c * 10 + 10],
                                 size=int(rng.integers(2, 7))).tolist())
                for c in rng.integers(0, 3, size=21)]
    tokens = dict(enumerate(distinct[:8] + [d for d in distinct[8:]
                                            for _ in range(4)]))
    vocab = build_vocabulary(list(tokens.values()))
    return Resources(counts=counts_of(tokens, vocab), vocab=vocab,
                     store=clustered_store)


@pytest.mark.parametrize("workers", [1, 2])
def test_search_keeps_each_rows_k_nearest_bit_for_bit(tied_resources,
                                                      workers):
    queries, refs = list(range(0, 60, 3)), [i for i in range(60) if i % 3]
    method = Method.parse("wmd")
    full = pairwise_distances(queries, refs, method, tied_resources).values
    tied_resources.workers = workers
    known = np.full((len(queries), len(refs)), np.nan)
    pruned = pairwise_distances(queries, refs, method, tied_resources,
                                known, k=K).values
    ids = np.asarray(refs)
    ties = 0
    for got, want, cells in zip(pruned, full, known):
        order = neighbor_order(want, ids)
        ties += want[order[K - 1]] == want[order[K]]
        assert neighbor_order(got, ids)[:K].tolist() == order[:K].tolist()
        finite = np.isfinite(got)
        assert finite.sum() >= K
        assert got[finite].tobytes() == want[finite].tobytes()
        # the store keeps each solved distance and each unsolved bound
        assert cells[finite].tobytes() == want[finite].tobytes()
        assert np.all(cells[~finite] < 0)
        assert np.all(-cells[~finite] <= want[~finite])
    assert ties > 0  # some row's K-th and (K+1)-th distances are equal
    # the search solved fewer pairs than a full fill
    assert np.isfinite(pruned).sum() < np.isfinite(full).sum()


def test_rows_of_at_most_k_candidates_get_no_bound(tied_resources,
                                                   monkeypatch):
    calls = []
    real = wmd._rwmd
    monkeypatch.setattr(wmd, "_rwmd", lambda *args: calls.append(1)
                        or real(*args))
    method = Method.parse("wmd")
    refs = list(range(1, K + 1))
    full = pairwise_distances([0], refs, method, tied_resources).values
    got = pairwise_distances([0], refs, method, tied_resources,
                             np.full((1, K), np.nan), k=K).values
    assert calls == [] and got.tobytes() == full.tobytes()


def test_a_row_proved_by_its_cells_is_not_searched(tied_resources,
                                                   monkeypatch):
    method = Method.parse("wmd")
    refs = list(range(1, 40))
    known = np.full((1, len(refs)), np.nan)
    pairwise_distances([0], refs, method, tied_resources, known, k=K)
    assert not wmd.open_rows(known, K).any()
    monkeypatch.setattr(wmd, "_row_values", None)  # any search would fail
    again = known.copy()
    pairwise_distances([0], refs, method, tied_resources, again, k=K)
    assert again.tobytes() == known.tobytes()
    # a bound at the K-th distance, or a missing cell, reopens it; the
    # search solves a bound equal to the K-th distance, bounds a missing
    # cell again, and leaves the other cells as they were
    monkeypatch.undo()
    kth = np.sort(known[known >= 0])[K - 1]
    cell = np.flatnonzero(known[0] < 0)[0]
    others = np.arange(len(refs)) != cell
    exact = pairwise_distances([0], refs, method, tied_resources).values
    for value in (-kth, np.nan):
        edited = known.copy()
        edited[0, cell] = value
        assert wmd.open_rows(edited, K).all()
        pairwise_distances([0], refs, method, tied_resources, edited, k=K)
        assert not wmd.open_rows(edited, K).any()
        assert edited[0, others].tobytes() == known[0, others].tobytes()
        if value < 0:
            assert edited[0, cell] == exact[0, cell]
        else:
            assert kth < -edited[0, cell] <= exact[0, cell]


# -- eval from the command line ------------------------------------------------


def _write_corpus(root, seed: int):
    """An 8-d embedding file and a corpus of 80 documents in 3 classes:
    20 random ones, then 15 distinct ones 4 times each."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(30)]
    with open(root / "emb.txt", "w") as fh:
        for c in range(3):
            center = rng.normal(size=8) * 2
            for i in range(10):
                v = center + rng.normal(size=8)
                fh.write(words[c * 10 + i] + " "
                         + " ".join(f"{x:.6f}" for x in v) + "\n")
    labels = ["alpha", "beta", "gamma"]
    docs = []
    for _ in range(35):
        c = int(rng.integers(0, 3))
        # mostly the class's words, some of the others
        pool = words[c * 10:c * 10 + 10] * 3 + words
        toks = rng.choice(pool, size=int(rng.integers(3, 9)))
        docs.append(f"{labels[c]}\t{' '.join(toks)}")
    lines = docs[:20] + [d for d in docs[20:] for _ in range(4)]
    (root / "docs.txt").write_text("\n".join(lines) + "\n")


def _eval_args(root, out, cache, classifier, extra=()):
    return ["eval", "--dataset", root / "docs.txt", "--embeddings",
            root / "emb.txt", "--method", "wmd,wmd-tfidf", "--classifier",
            classifier, "--folds", "2", "--seed", "3", "--workers", "1",
            "--out", out, "--cache-dir", cache, *extra]


def _rows_tied_at_the_kth_place(args) -> int:
    """The rows of the ``eval`` run ``args`` whose K-th and (K+1)-th
    nearest ``wmd`` distances are equal, read from its filled cache."""
    cfg = cli.build_config(cli.make_parser().parse_args(
        [str(a) for a in args]))
    pipe = cli.build_pipeline(cfg)
    ids = list(pipe.corpus.ids())
    manifest = json.loads((Path(cfg.out) / "manifest.json").read_text())
    stored = DistanceCache(Path(cfg.cache_dir)).get(cli._cache_key(
        cfg, manifest, Method.parse("wmd"), ids), ids)
    ties = 0
    for i, fold in enumerate(pipe.corpus.folds):
        for q, cols in reference_search.fold_reads(
                fold.train_ids, fold.test_ids, pipe.corpus.labels_by_id(),
                seed=(cfg.seed, i)).items():
            row = stored.matrix([q], cols)[0]
            d = row[neighbor_order(row, np.asarray(cols))]
            ties += d.size > K and d[K - 1] == d[K]
    return ties


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pruned_eval_reports_as_a_full_fill(tmp_path, seed):
    _write_corpus(tmp_path, seed)
    for classifier in ("knn", "wknn"):
        pruned = tmp_path / f"pruned-{classifier}"
        full = tmp_path / f"full-{classifier}"
        assert run(_eval_args(tmp_path, pruned, pruned / "cache",
                              classifier)) == 0
        args = _eval_args(tmp_path, full, full / "cache", classifier)
        assert run(["dists", *args[1:]]) == 0  # every cell exact
        assert run([*args, "--no-compute"]) == 0
        for name in ("report.csv", "summary.json"):
            assert (pruned / name).read_bytes() == (full / name).read_bytes()
        assert _rows_tied_at_the_kth_place(args) > 0
        with open(pruned / "report.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 4
        # each exact cell has the full fill's bits; each bound lies at or
        # below the full fill's distance
        for store in (pruned / "cache").iterdir():
            mine = read_distance_matrix(store, range(80)).values
            theirs = read_distance_matrix(full / "cache" / store.name,
                                          range(80)).values
            exact, bound = mine >= 0, mine < 0
            assert mine[exact].tobytes() == theirs[exact].tobytes()
            assert bound.any() and np.all(-mine[bound] <= theirs[bound])


def test_warm_eval_solves_nothing_and_builds_no_word_table(tmp_path,
                                                           monkeypatch):
    _write_corpus(tmp_path, 0)
    args = _eval_args(tmp_path, tmp_path / "out", tmp_path / "cache", "wknn")
    assert run(args) == 0
    cold = (tmp_path / "out" / "report.csv").read_bytes()
    solves, tables = [], []
    real_solve, real_distances = wmd.solve_transport, EmbeddingStore.distances
    monkeypatch.setattr(wmd, "solve_transport", lambda p: solves.append(1)
                        or real_solve(p))
    monkeypatch.setattr(EmbeddingStore, "distances", lambda self, a, b: (
        tables.append(1) or real_distances(self, a, b)))
    assert run(args) == 0
    assert solves == [] and tables == []
    assert (tmp_path / "out" / "report.csv").read_bytes() == cold


def test_no_compute_after_a_pruned_eval(tmp_path, capsys):
    _write_corpus(tmp_path, 0)
    args = _eval_args(tmp_path, tmp_path / "out", tmp_path / "cache", "knn")
    assert run(args) == 0
    assert run([*args, "--no-compute"]) == 0
    # forget the nearest stored distance: some row no longer proves its k
    # nearest
    for store in (tmp_path / "cache").iterdir():
        pairs = read_distance_matrix(store, range(80))  # 80 documents
        values = pairs.values
        exact = np.flatnonzero((values >= 0) & (values < np.inf))
        values[exact[np.argmin(values[exact])]] = np.nan
        write_distance_matrix(pairs, store)
    capsys.readouterr()
    assert run([*args, "--no-compute"]) == 1
    err = capsys.readouterr().err
    assert "missing cache: " in err and ".npy lacks " in err
    assert run(args) == 0
    assert run([*args, "--no-compute"]) == 0


# -- bound cells in the pair store ----------------------------------------------


def test_an_exact_value_beats_a_bound_and_a_bound_fills_a_missing_cell(
        tmp_path):
    # per cell: bound vs exact, NaN vs bound, exact vs bound, bound vs
    # bound, NaN vs NaN, exact vs NaN; theirs are merged from a file
    mine = PairStore((0, 1, 2, 3), np.array(
        [-1.0, np.nan, 2.0, -3.0, np.nan, 5.0]))
    theirs = tmp_path / "theirs.npy"
    write_distance_matrix(PairStore((0, 1, 2, 3), np.array(
        [0.5, -2.0, -9.0, -4.0, np.nan, np.nan])), theirs)
    merge_distance_matrix(theirs, mine)
    assert mine.values[[0, 1, 2, 3, 5]].tolist() == [0.5, -2.0, 2.0, -3.0,
                                                      5.0]
    assert np.isnan(mine.values[4])
    # update takes cells as a merge does: pairs (0, 1), (0, 2), (0, 3)
    mine.update([0], [1, 2, 3], np.array([[-7.0, 1.5, 3.25]]))
    assert mine.values[:3].tolist() == [0.5, 1.5, 2.0]


def test_cache_put_keeps_exact_values_over_bounds(tmp_path):
    cache = DistanceCache(tmp_path)
    cache.put("k" * 64, PairStore((0, 1, 2), np.array([-1.0, 2.0, np.nan])))
    cache.put("k" * 64, PairStore((0, 1, 2), np.array([0.5, -3.0, -4.0])))
    got = cache.get("k" * 64, (0, 1, 2))
    assert got.values.tolist() == [0.5, 2.0, -4.0]


def test_minus_inf_cell_is_rejected_on_read(tmp_path, caplog):
    path = tmp_path / ("k" * 64 + ".npy")
    write_distance_matrix(PairStore((0, 1, 2), np.array([1.0, -np.inf, -2.0])),
                          path)
    with pytest.raises(ParseError):
        read_distance_matrix(path, (0, 1, 2))
    assert DistanceCache(tmp_path).get("k" * 64, (0, 1, 2)) is None
    assert any("corrupted cache" in r.message for r in caplog.records)
