import io
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from wmdlab import embeddings, wmd
from wmdlab.embeddings import EmbeddingStore, cost_submatrix, l2_normalize
from wmdlab.errors import EmptySupport, InvalidInput, ParseError
from wmdlab.ot_core import TransportProblem, solve_transport
from wmdlab.textrep import NormScheme, VectorMetric, build_vocabulary, \
    bow_vector, document_frequencies, normalize, tfidf_vector, vector_distance
from wmdlab.wmd import (
    DistanceMatrix,
    DocumentMeasure,
    Method,
    PairStore,
    Resources,
    make_measure,
    merge_distance_matrix,
    pairwise_distances,
    read_distance_matrix,
    representations,
    wmd_distance,
    write_distance_matrix,
)

from helpers import condensed_index, corrupt_cache_files, counts_of, \
    npy_bytes, store_file, vector_to_dense
from oracle import brute_force_transport
from reference_vector import reference_distance


@pytest.fixture
def orthogonal_store():
    """Six words on orthogonal axes scaled so every cross distance is 2."""
    n = 6
    tokens = [f"w{i}" for i in range(n)]
    return EmbeddingStore(tokens, np.eye(n) * math.sqrt(2.0))


def uniform_measure(tokens):
    vocab = build_vocabulary([tokens])
    return make_measure(bow_vector(tokens, vocab), vocab)


# -- measures --------------------------------------------------------------------


def test_measure_counts_normalized():
    vocab = build_vocabulary([["a", "b"]])
    m = make_measure(bow_vector(["a", "a", "b"], vocab), vocab)
    assert m.words == ("a", "b")
    assert m.weights.tolist() == [2 / 3, 1 / 3]


def test_measure_singleton():
    vocab = build_vocabulary([["a"]])
    m = make_measure(bow_vector(["a"], vocab), vocab)
    assert m.words == ("a",) and m.weights.tolist() == [1.0]


def test_measure_tfidf_drops_zero_idf_words():
    docs = [["a", "a", "b"], ["a"]]
    vocab = build_vocabulary(docs)
    df = document_frequencies(docs, vocab)  # a in both docs, b in one
    m = make_measure(
        tfidf_vector(bow_vector(["a", "a", "b"], vocab), df, n_docs=2), vocab)
    assert m.words == ("b",)
    assert m.weights.tolist() == [1.0]


def test_measure_empty_support():
    vocab = build_vocabulary([["a"]])
    with pytest.raises(EmptySupport):
        make_measure(bow_vector(["zzz"], vocab), vocab)


def test_measure_validates_weights():
    with pytest.raises(InvalidInput):
        DocumentMeasure(words=("a", "b"), weights=np.array([0.9, 0.3]))
    with pytest.raises(InvalidInput):
        DocumentMeasure(words=("a", "a"), weights=np.array([0.5, 0.5]))


# -- wmd_distance -----------------------------------------------------------------


def test_wmd_identity_is_zero(orthogonal_store):
    m = uniform_measure(["w0", "w1", "w1"])
    assert wmd_distance(m, m, orthogonal_store) == 0.0


def test_wmd_equilateral_disjoint_supports(orthogonal_store):
    # every route costs exactly 2, so every feasible plan costs 2
    m1 = uniform_measure(["w0", "w1", "w1"])
    m2 = uniform_measure(["w2", "w3"])
    got = wmd_distance(m1, m2, orthogonal_store)
    assert got == pytest.approx(2.0, abs=1e-9)
    cost = cost_submatrix(orthogonal_store, m1.words, m2.words)
    oracle = brute_force_transport(
        TransportProblem(m1.weights, m2.weights, cost)
    )
    assert got == pytest.approx(oracle, abs=1e-9)


def test_wmd_reduces_to_l1_bow_under_onehot_geometry(orthogonal_store):
    rng = np.random.default_rng(21)
    words = list(orthogonal_store.tokens)
    vocab = build_vocabulary([words])
    for _ in range(20):
        d1 = rng.choice(words, size=rng.integers(1, 8)).tolist()
        d2 = rng.choice(words, size=rng.integers(1, 8)).tolist()
        m1 = make_measure(bow_vector(d1, vocab), vocab)
        m2 = make_measure(bow_vector(d2, vocab), vocab)
        got = wmd_distance(m1, m2, orthogonal_store)
        a = normalize(bow_vector(d1, vocab), NormScheme.L1)
        b = normalize(bow_vector(d2, vocab), NormScheme.L1)
        want = vector_distance(a, b, VectorMetric.L1)
        assert got == pytest.approx(want, abs=1e-9)


def test_wmd_symmetric_and_bounded(clustered_store):
    rng = np.random.default_rng(22)
    words = list(clustered_store.tokens)
    for _ in range(15):
        m1 = uniform_measure(rng.choice(words, size=6).tolist())
        m2 = uniform_measure(rng.choice(words, size=4).tolist())
        forward = wmd_distance(m1, m2, clustered_store)
        backward = wmd_distance(m2, m1, clustered_store)
        assert forward == pytest.approx(backward, abs=1e-9)
        assert 0.0 <= forward <= 2.0
        cost = cost_submatrix(clustered_store, m1.words, m2.words)
        assert forward <= cost.max() + 1e-12
        if not set(m1.words) & set(m2.words):
            assert forward >= cost.min() - 1e-12


def test_wmd_scales_with_embedding_scale():
    rng = np.random.default_rng(23)
    tokens = [f"w{i}" for i in range(8)]
    base = EmbeddingStore(tokens, rng.normal(size=(8, 3)))
    scaled = EmbeddingStore(tokens, base.matrix * 2.5)
    m1 = uniform_measure(["w0", "w1", "w2"])
    m2 = uniform_measure(["w3", "w4"])
    assert wmd_distance(m1, m2, scaled) == pytest.approx(
        2.5 * wmd_distance(m1, m2, base), rel=1e-12
    )


def test_support_restriction_matches_full_problem(orthogonal_store):
    # same optimum whether zero-mass coordinates are dropped or kept
    words = list(orthogonal_store.tokens)
    vocab = build_vocabulary([words])
    d1, d2 = ["w0", "w1", "w1"], ["w1", "w3"]
    m1 = make_measure(bow_vector(d1, vocab), vocab)
    m2 = make_measure(bow_vector(d2, vocab), vocab)
    restricted = wmd_distance(m1, m2, orthogonal_store)
    full_cost = cost_submatrix(orthogonal_store, words, words)
    x = vector_to_dense(normalize(bow_vector(d1, vocab), NormScheme.L1))
    y = vector_to_dense(normalize(bow_vector(d2, vocab), NormScheme.L1))
    full = solve_transport(TransportProblem(x, y, full_cost)).objective
    assert restricted == pytest.approx(full, abs=1e-9)


# -- method parsing ---------------------------------------------------------------


def test_method_parse_variants():
    assert Method.parse("wmd").label == "wmd"
    assert Method.parse("WMD-TFIDF").label == "wmd-tfidf"
    m = Method.parse("bow(l1,l2)")
    assert m.norm is NormScheme.L1 and m.metric is VectorMetric.L2
    assert m.label == "bow(l1,l2)"
    assert Method.parse("tfidf").label == "tfidf(l1,l1)"
    assert Method.parse(" BOW ") == Method.parse("bow(l1,l1)")


def test_method_parse_rejects_garbage():
    for bad in ("sinkhorn", "bow(l1", "bow(l1,l2,l3)", "bow(l3,l1)"):
        with pytest.raises(InvalidInput):
            Method.parse(bad)


def test_method_kind_constraints():
    with pytest.raises(InvalidInput):
        Method("wmd", NormScheme.L1, VectorMetric.L1)
    with pytest.raises(InvalidInput):
        Method("bow")


# -- pairwise_distances -------------------------------------------------------------


@pytest.fixture
def small_resources(clustered_store):
    rng = np.random.default_rng(31)
    words = list(clustered_store.tokens)
    tokens = {}
    for i in range(6):
        cluster = words[(i % 3) * 10:(i % 3) * 10 + 10]
        tokens[i] = tuple(rng.choice(cluster, size=5).tolist())
    tokens[6] = ()  # vocabulary-filtered to nothing
    vocab = build_vocabulary([t for t in tokens.values() if t])
    df = document_frequencies(tokens.values(), vocab)
    return Resources(counts=counts_of(tokens, vocab), vocab=vocab,
                     store=clustered_store, doc_freq=df, n_docs=len(tokens))


def test_pairwise_wmd_zero_diagonal(small_resources):
    ids = [0, 1, 2, 3]
    dm = pairwise_distances(ids, ids, Method.parse("wmd"), small_resources)
    assert np.all(np.diag(dm.values) == 0.0)
    assert np.all(np.abs(dm.values - dm.values.T) <= 1e-9)


def test_pairwise_bow_matches_direct_distance(small_resources):
    ids = [0, 1, 2, 3, 4]
    method = Method.parse("bow(l1,l1)")
    dm = pairwise_distances(ids, ids, method, small_resources)
    for i in ids:
        for j in ids:
            a = normalize(small_resources.counts[i], NormScheme.L1)
            b = normalize(small_resources.counts[j], NormScheme.L1)
            want = 0.0 if i == j else vector_distance(a, b, VectorMetric.L1)
            assert dm.values[i, j] == want


def test_pairwise_marks_unusable_documents(small_resources):
    ids = [0, 1, 6]
    dm = pairwise_distances(ids, ids, Method.parse("wmd"), small_resources)
    # the sentinel wins even on the diagonal, so the whole row is excludable
    assert np.all(np.isinf(dm.values[2])) and np.all(np.isinf(dm.values[:, 2]))
    assert np.all(np.isfinite(dm.values[:2, :2]))


def test_pairwise_empty_doc_usable_without_normalization(small_resources):
    dm = pairwise_distances([0, 6], [0, 6], Method.parse("bow(none,l1)"),
                            small_resources)
    assert np.all(np.isfinite(dm.values))


def test_pairwise_deterministic_across_worker_counts(small_resources):
    ids = [0, 1, 2, 3, 4, 5]
    method = Method.parse("wmd")
    serial = pairwise_distances(ids, ids, method, small_resources)
    small_resources.workers = 2
    parallel = pairwise_distances(ids, ids, method, small_resources)
    assert np.array_equal(serial.values, parallel.values)


@pytest.mark.parametrize("workers", [1, 2])
def test_pairwise_wmd_same_bits_beyond_the_table_bound(small_resources,
                                                       monkeypatch, workers):
    # beyond the bound each source document slices its own block of
    # distances, built where its task runs
    ids = [0, 1, 2, 3, 4, 5, 6]
    method = Method.parse("wmd-tfidf")
    with_table = pairwise_distances(ids, ids[2:], method, small_resources)
    monkeypatch.setattr(wmd, "_TABLE_BYTES", 0)
    built = []
    real = EmbeddingStore.distances
    monkeypatch.setattr(EmbeddingStore, "distances", lambda self, a, b: (
        built.append(len(set(a))) or real(self, a, b)))
    small_resources.workers = workers
    blocks = pairwise_distances(ids, ids[2:], method, small_resources)
    reps = representations(ids, method, small_resources)
    # in this process: one block per source's own words, or none at all
    # when the pool's workers build them
    assert built == ([] if workers == 2 else
                     [len(reps[a].words) for a in (0, 1, 2, 3, 4)])
    assert np.array_equal(blocks.values.view(np.int64),
                          with_table.values.view(np.int64))


def _record_costs(monkeypatch) -> list:
    """Record the costs each ``_row_values`` call is given."""
    seen = []
    real = wmd._row_values
    monkeypatch.setattr(wmd, "_row_values", lambda q, reps, refs, costs: (
        seen.append(costs) or real(q, reps, refs, costs)))
    return seen


def _same_bits_as_cdist(block, store, rows, cols) -> bool:
    want = np.minimum(cdist(store.rows(rows), store.rows(cols)), 2.0)
    return np.array_equal(block.cost(rows, cols).view(np.int64),
                          want.view(np.int64))


def test_pair_distances_share_one_table_of_their_documents_words(
        small_resources, monkeypatch):
    # every pair of 0..5: a table of the W = 21 words computes 231
    # distances, the sources' blocks 257, so the table is built
    method = Method.parse("wmd")
    reps = representations(list(range(6)), method, small_resources)
    store = small_resources.store
    seen = _record_costs(monkeypatch)
    pairs = [(b, a) for a in range(6) for b in range(a)]
    got = wmd.pair_distances(pairs, reps, store)
    table = seen[0]
    assert len(seen) == 5 and all(c is table for c in seen)  # sources 0..4
    words = sorted({w for d in range(6) for w in reps[d].words})
    assert sorted(table.rows) == sorted(table.cols) == words
    assert len(words) < len(store)
    assert _same_bits_as_cdist(table, store, words, words)
    assert not table.values.flags.writeable
    want = [wmd_distance(reps[a], reps[b], store) for a, b in pairs]
    assert np.array_equal(got.view(np.int64),
                          np.array(want).view(np.int64))


def test_few_pairs_build_a_block_per_source(small_resources, monkeypatch):
    # sources 1 (with 3 and 4) and 3 (with 4): their blocks compute
    # 4 x 10 + 5 x 5 = 65 distances, a table of their 12 words 78
    method = Method.parse("wmd")
    reps = representations(list(range(6)), method, small_resources)
    store = small_resources.store
    seen = _record_costs(monkeypatch)
    built = []
    real = EmbeddingStore.distances
    monkeypatch.setattr(EmbeddingStore, "distances", lambda self, a, b: (
        built.append(real(self, a, b)) or built[-1]))
    pairs = [(3, 1), (1, 4), (4, 3)]
    got = wmd.pair_distances(pairs, reps, store)
    assert seen == [store, store]
    assert len(built) == 2
    for block, (a, refs) in zip(built, [(1, (3, 4)), (3, (4,))]):
        cols = list(dict.fromkeys(w for r in refs for w in reps[r].words))
        assert list(block.rows) == list(reps[a].words)
        assert list(block.cols) == cols
        assert _same_bits_as_cdist(block, store, list(reps[a].words), cols)
    want = [wmd_distance(reps[min(p)], reps[max(p)], store) for p in pairs]
    assert np.array_equal(got.view(np.int64),
                          np.array(want).view(np.int64))


def test_reversed_pair_is_solved_once_with_the_same_bits(small_resources,
                                                         monkeypatch):
    reps = representations(list(range(6)), Method.parse("wmd"),
                           small_resources)
    store = small_resources.store
    solved = []
    real = wmd.solve_transport
    monkeypatch.setattr(wmd, "solve_transport",
                        lambda problem: solved.append(1) or real(problem))
    both = wmd.pair_distances([(5, 2), (2, 5)], reps, store)
    assert len(solved) == 1
    want = np.float64(wmd_distance(reps[2], reps[5], store))
    assert both.view(np.int64).tolist() == [want.view(np.int64)] * 2


def test_single_pair_computes_only_its_documents_words(clustered_store,
                                                       monkeypatch):
    shapes = []
    real = embeddings._euclidean
    monkeypatch.setattr(embeddings, "_euclidean", lambda a, b, *args, **kw: (
        shapes.append((len(a), len(b))) or real(a, b, *args, **kw)))
    store = EmbeddingStore(clustered_store.tokens, clustered_store.matrix,
                           clustered_store.normalized)
    m1 = uniform_measure(["w0", "w1", "w12"])
    m2 = uniform_measure(["w3", "w20", "w21", "w22"])
    wmd_distance(m1, m2, store)
    assert shapes == [(3, 4)]


@pytest.mark.parametrize("workers, n_tasks, pool", [
    (64, 3, (3, 1)),  # 3 open rows on a 64-CPU host: 3 workers, not 64
    (30, 30, (30, 1)),
    (2, 30, (2, 3)),  # as many tasks as workers or more: chunks unchanged
    (8, 1, None),  # one task, or one worker, runs in this process
    (1, 30, None)])
def test_pool_has_no_more_workers_than_tasks(small_resources, monkeypatch,
                                             workers, n_tasks, pool):
    pools = []

    class InlinePool:
        """Records the workers and chunk size asked of a pool, and runs its
        tasks in this process, so that no large pool is started."""

        def __init__(self, max_workers, initializer, initargs):
            pools.append([max_workers])
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            pools[-1].append(chunksize)
            return map(fn, tasks)

    reps = representations(list(range(6)), Method.parse("wmd"),
                           small_resources)
    store = small_resources.store
    tasks = [(a, (b,)) for a in range(6) for b in range(6) if a != b]
    tasks = tasks[:n_tasks]
    serial = wmd._fill_rows(tasks, reps, store, 1)
    monkeypatch.setattr(wmd, "_STATE", {})
    monkeypatch.setattr(wmd, "ProcessPoolExecutor", InlinePool)
    got = wmd._fill_rows(tasks, reps, store, workers)
    assert pools == ([] if pool is None else [list(pool)])
    assert np.concatenate(got).tobytes() == np.concatenate(serial).tobytes()


def test_vector_matrix_starts_no_pool(small_resources, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a BOW/TF-IDF matrix started a process pool")

    monkeypatch.setattr(wmd, "ProcessPoolExecutor", no_pool)
    small_resources.workers = 2
    ids = list(range(7))  # document 6 is empty: unusable once normalized
    for spec in ("bow(l1,l1)", "tfidf(l2,l2)"):
        method = Method.parse(spec)
        dm = pairwise_distances(ids, ids, method, small_resources)
        reps = representations(ids, method, small_resources)
        want = [[math.inf if reps[a] is None or reps[b] is None
                 else 0.0 if a == b
                 else reference_distance(reps[a], reps[b], method.metric)
                 for b in ids] for a in ids]
        assert np.array_equal(dm.values, want)


def test_pairwise_tfidf_method(small_resources):
    ids = [0, 1, 2, 3]
    dm = pairwise_distances(ids, ids, Method.parse("tfidf(l2,l2)"),
                            small_resources)
    assert np.all(np.diag(dm.values) == 0.0)
    assert np.all(dm.values >= 0.0)


def test_wmd_tfidf_differs_from_wmd(small_resources):
    ids = [0, 1, 2, 3, 4, 5]
    plain = pairwise_distances(ids, ids, Method.parse("wmd"), small_resources)
    weighted = pairwise_distances(ids, ids, Method.parse("wmd-tfidf"),
                                  small_resources)
    assert not np.array_equal(plain.values, weighted.values)


# -- distance matrix + cache --------------------------------------------------------


def test_distance_matrix_rejects_nan():
    with pytest.raises(InvalidInput):
        DistanceMatrix((0,), (1,), np.array([[math.nan]]))


def test_distance_matrix_submatrix():
    dm = DistanceMatrix((10, 11, 12), (20, 21),
                        np.arange(6, dtype=float).reshape(3, 2))
    sub = dm.submatrix([12, 10], [21])
    assert sub.row_ids == (12, 10) and sub.col_ids == (21,)
    assert sub.values.tolist() == [[5.0], [1.0]]


def test_cache_round_trip(tmp_path, small_resources):
    ids = [0, 1, 2, 6]
    dm = pairwise_distances(ids, ids, Method.parse("wmd"), small_resources)
    pairs = PairStore.empty(ids)
    pairs.update(dm.row_ids, dm.col_ids, dm.values)
    path = tmp_path / "cache.npy"
    write_distance_matrix(pairs, str(path))
    back = read_distance_matrix(str(path), ids)
    assert back.ids == tuple(ids)
    # float64 round-trips bit for bit, inf included; the self cells come
    # back as 0.0, or inf for the unusable document 6
    assert np.isinf(dm.values).any()
    assert back.values.tobytes() == pairs.values.tobytes()
    assert back.matrix(ids, ids).tobytes() == dm.values.tobytes()


def test_cache_file_bytes(tmp_path):
    path = tmp_path / "pinned.npy"
    write_distance_matrix(PairStore((0, 1, 2), np.array([0.5, np.nan, -0.25])),
                          str(path))
    # the .npy header of a 1-D uint8 array of 25 bytes, as np.save writes
    # it; the cell count 3 as a little-endian uint64; the presence bits 101
    # of the three cells, padded with 0s; then the two present values as
    # little-endian float64
    header = io.BytesIO()
    np.save(header, np.zeros(25, dtype=np.uint8))
    assert path.read_bytes() == header.getvalue()[:-25] \
        + struct.pack("<Q", 3) + b"\xa0" + struct.pack("<dd", 0.5, -0.25)


def test_cache_rejects_corrupt_file(tmp_path):
    values = np.array([1.5, np.inf, 4.0])
    for name, data in corrupt_cache_files(values).items():
        path = tmp_path / f"{name}.npy"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            read_distance_matrix(str(path), (0, 1, 2))
    path = tmp_path / "good.npy"
    path.write_bytes(npy_bytes(store_file(values)))
    assert read_distance_matrix(path, (5, 6, 7)).values.tobytes() == \
        values.tobytes()
    # the ids a store is read for must match its cell count
    for ids in [(0, 1), (0, 1, 2, 3)]:
        with pytest.raises(ParseError):
            read_distance_matrix(str(path), ids)
    # NaN marks a pair not computed yet, and a finite negative cell minus a
    # lower bound, not a corrupt file
    write_distance_matrix(PairStore((0, 1, 2), np.array([1.5, np.nan, -4.0])),
                          path)
    back = read_distance_matrix(path, (0, 1, 2)).values
    assert np.isnan(back[1]) and back[2] == -4.0


# NaN, +inf, bounds, signed zeros, subnormals and ordinary values
_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(min_value=-1e-300, max_value=1e-300, width=64))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(_CELLS, min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))))
def test_cache_file_round_trips_every_cell_bit_for_bit(tmp_path_factory,
                                                       case):
    n, cells = case
    values = np.array(cells, dtype=np.float64)
    path = tmp_path_factory.mktemp("store") / "pairs.npy"
    write_distance_matrix(PairStore(range(n), values), str(path))
    assert path.read_bytes() == npy_bytes(store_file(values))
    back = read_distance_matrix(str(path), range(n)).values
    nan = np.isnan(values)
    assert np.array_equal(np.isnan(back), nan)
    assert back[~nan].tobytes() == values[~nan].tobytes()


def test_cache_file_is_written_and_read_in_bounded_memory(tmp_path):
    # 2,000 ids: 1,999,000 cells, 16 MB dense; about 40 % missing, in runs
    rng = np.random.default_rng(0)
    values = rng.random(1_999_000)
    values[(np.arange(values.size) // 500) % 5 < 2] = np.nan
    values[::7] *= -1.0
    pairs = PairStore(range(2000), values)
    path = tmp_path / "big.npy"
    tracemalloc.start()
    try:
        write_distance_matrix(pairs, str(path))
        _, written = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = read_distance_matrix(str(path), range(2000))
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written < 2e6
    assert read < values.nbytes + 2e6
    assert back.values.tobytes() == values.tobytes()
    # so does a merge into a store over the same ids
    tracemalloc.start()
    try:
        merge_distance_matrix(str(path), pairs)
        _, merged = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert merged < 2e6


# -- pair store ---------------------------------------------------------------------


def test_pair_store_layout():
    # ids in any order; pair (ids[i], ids[j]) sits at the condensed
    # upper-triangle position of ``condensed_index``, read the same from
    # both orientations
    ids = (7, 2, 9, 4)
    pairs = PairStore(ids, np.arange(6, dtype=np.float64))
    grid = pairs.matrix(ids, ids)
    assert np.array_equal(grid, grid.T)
    assert grid[np.triu_indices(4, 1)].tolist() == [0, 1, 2, 3, 4, 5]
    assert np.all(np.diag(grid) == 0.0)
    assert all(grid[i, j] == condensed_index(4, i, j)
               for i in range(4) for j in range(4) if i != j)
    assert pairs.matrix([9, 2, 4], [7, 4]).tolist() == \
        [[1, 5], [0, 4], [2, 0]]
    pairs.values[condensed_index(4, 3, 2)] = 8.5  # the pair of 4 and 9
    assert pairs.matrix([9], [4, 9]).tolist() == [[8.5, 0.0]]


def test_pair_store_self_cells_and_missing_pairs():
    pairs = PairStore.empty((0, 1, 2))
    assert np.isnan(pairs.matrix([0], [1, 2])).all()
    # nothing finite stored yet: a self cell reads as an unusable document's
    assert pairs.matrix([0], [0]).tolist() == [[math.inf]]
    dm = DistanceMatrix((0, 1, 2), (1,), [[0.5], [0.0], [math.inf]])
    pairs.update(dm.row_ids, dm.col_ids, dm.values)
    grid = pairs.matrix((0, 1, 2), (0, 1, 2))
    assert grid[0].tolist()[:2] == [0.0, 0.5] and np.isnan(grid[0, 2])
    assert grid[1].tolist() == [0.5, 0.0, math.inf]
    assert grid[2, 2] == math.inf  # its only stored pair is inf


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 7))
def test_pair_store_matrix_equals_a_read_through_an_appended_nan_cell(data, n):
    values = np.array(data.draw(st.lists(st.sampled_from(
        [np.nan, math.inf, 0.0, -0.0, 0.25, 2.0, -0.5, 5e-324, -1e-300]),
        min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)), np.float64)
    pairs = PairStore(range(n), values)
    ids = st.lists(st.integers(0, n - 1), max_size=6) if n else st.just([])
    queries, refs = data.draw(ids), data.draw(ids)
    # the expression matrix used before, which copies the store per read
    cells = pairs._cells(pairs._positions(queries)[:, None],
                         pairs._positions(refs)[None, :])
    expected = np.append(values, np.nan)[cells]
    i, j = np.nonzero(cells == values.size)
    finite = np.isfinite(expected)
    expected[i, j] = np.where(finite[i].any(axis=1)
                              | finite[:, j].any(axis=0), 0.0, np.inf)
    got = pairs.matrix(queries, refs)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_pair_store_matrix_does_not_copy_the_store():
    pairs = PairStore(range(2000), np.random.default_rng(0).random(1_999_000))
    pairs.values[::3] = np.nan
    tracemalloc.start()
    try:
        grid = pairs.matrix(range(0, 2000, 200), range(5, 2000, 200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.shape == (10, 10)
    assert peak < 1e6  # the store is 16 MB


def test_pair_store_merge_fills_only_missing_pairs(tmp_path):
    mine = PairStore((0, 1, 2), np.array([1.0, np.nan, np.nan]))
    path = tmp_path / "theirs.npy"
    write_distance_matrix(PairStore((0, 1, 2), np.array([9.0, 2.0, np.nan])),
                          str(path))
    merge_distance_matrix(str(path), mine)
    assert mine.values[:2].tolist() == [1.0, 2.0] and np.isnan(mine.values[2])


@pytest.mark.parametrize("cells", [[[np.nan, 0.5], [-0.4, np.nan]],
                                   [[np.nan, -0.4], [0.5, np.nan]]])
def test_pair_store_update_takes_a_distance_over_a_bound_of_its_pair(cells):
    # the pair (0, 1) in both orientations of one update: a distance and
    # a bound on it
    pairs = PairStore.empty((0, 1, 2))
    pairs.update((0, 1), (0, 1), np.array(cells))
    assert pairs.values[0] == 0.5 and np.isnan(pairs.values[1:]).all()


def test_pairwise_computes_only_missing_cells(small_resources, monkeypatch):
    ids = [0, 1, 2, 3, 4, 6]
    method = Method.parse("wmd")
    full = pairwise_distances(ids, ids, method, small_resources)
    known = full.values.copy()
    known[0, 1] = known[1, 0] = known[2, 4] = np.nan
    solved = []
    real = wmd.solve_transport
    monkeypatch.setattr(wmd, "solve_transport",
                        lambda problem: solved.append(1) or real(problem))
    again = pairwise_distances(ids, ids, method, small_resources, known)
    assert len(solved) == 2  # (0, 1) once for both of its cells, and (2, 4)
    assert again.values.tobytes() == full.values.tobytes()


@pytest.mark.parametrize("spec", ["bow(l1,l1)", "tfidf(l2,l1)", "wmd"])
def test_cold_warm_and_direct_matrices_agree_on_self_cells(small_resources,
                                                          spec):
    # queries that are also references, as a fold's validation documents
    # are training documents; document 6 is unusable
    queries, refs = [0, 1, 6], [2, 0, 6, 1]
    method = Method.parse(spec)
    direct = pairwise_distances(queries, refs, method, small_resources)
    store = PairStore.empty(list(range(7)))
    cold = pairwise_distances(queries, refs, method, small_resources,
                              store.matrix(queries, refs))
    store.update(cold.row_ids, cold.col_ids, cold.values)
    warm = store.matrix(queries, refs)
    assert direct.values[0, 1] == direct.values[1, 3] == 0.0
    assert np.isinf(direct.values[2]).all()
    assert np.isinf(direct.values[:, 2]).all()
    assert cold.values.tobytes() == direct.values.tobytes() == warm.tobytes()


def test_pairwise_wmd_solves_each_pair_once_from_the_lower_id(
        small_resources, monkeypatch):
    ids = [4, 0, 6, 2, 1]
    method = Method.parse("wmd-tfidf")
    sources = []
    real = wmd._row_values
    monkeypatch.setattr(wmd, "_row_values", lambda q, reps, refs, store: (
        sources.extend((q, r) for r in refs) or real(q, reps, refs, store)))
    dm = pairwise_distances(ids, ids, method, small_resources)
    usable = [0, 1, 2, 4]  # document 6 is empty
    assert sorted(sources) == [(a, b) for a in usable for b in usable
                               if a < b]
    reps = representations(ids, method, small_resources)
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if a != b and a in usable and b in usable:
                want = wmd_distance(reps[min(a, b)], reps[max(a, b)],
                                    small_resources.store)
                assert dm.values[i, j].view(np.int64) == \
                    np.float64(want).view(np.int64)


GRID = [f"{kind}({norm},{metric})" for kind in ("bow", "tfidf")
        for norm in ("none", "l1", "l2") for metric in ("l1", "l2")]


@pytest.mark.parametrize("spec", GRID)
def test_vector_matrix_equals_its_transpose_bit_for_bit(small_resources,
                                                        spec):
    # so a pair store may keep one cell of the two
    ids = list(range(7))
    dm = pairwise_distances(ids, ids, Method.parse(spec), small_resources)
    assert np.array_equal(dm.values.view(np.int64),
                          dm.values.T.view(np.int64))
