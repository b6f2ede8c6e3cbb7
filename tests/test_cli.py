import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wmdlab import cli
from wmdlab.cli import DistanceCache, RunConfig, _cache_key, build_config, \
    main, make_parser, read_config_file
from wmdlab.embeddings import TEXT, WORD2VEC_BINARY, load_embeddings
from wmdlab.errors import ParseError
from wmdlab.wmd import DistanceMatrix, Method, read_distance_matrix

from helpers import corrupt_cache_files


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic 3-class corpus with clustered embeddings and one duplicate."""
    root = tmp_path_factory.mktemp("ws")
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(30)]
    with open(root / "emb.txt", "w") as fh:
        for c in range(3):
            center = rng.normal(size=8) * 3
            for i in range(10):
                v = center + rng.normal(size=8) * 0.3
                fh.write(words[c * 10 + i] + " "
                         + " ".join(f"{x:.6f}" for x in v) + "\n")
    labels = ["alpha", "beta", "gamma"]
    lines = []
    for n in range(45):
        c = n % 3
        toks = rng.choice(words[c * 10:(c + 1) * 10],
                          size=int(rng.integers(4, 9)))
        lines.append(f"{labels[c]}\t{' '.join(toks)}")
    lines.append(lines[0])            # duplicate of document 0
    lines.append("beta\tzzz qqq")     # fully out-of-vocabulary document
    (root / "docs.txt").write_text("\n".join(lines) + "\n")
    return root


def run(args):
    return main([str(a) for a in args])


def base_args(ws, out, extra=()):
    return ["eval", "--dataset", ws / "docs.txt", "--embeddings",
            ws / "emb.txt", "--folds", "2", "--seed", "1", "--workers", "1",
            "--out", out, *extra]


def test_eval_writes_reports(workspace, tmp_path):
    out = tmp_path / "run"
    assert run(base_args(workspace, out,
                         ["--method", "bow(l1,l1),wmd,wmd-tfidf"])) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("dataset,method")
    assert len(report) == 1 + 3 * 2  # three methods, two folds
    summary = json.loads((out / "summary.json").read_text())
    assert "wmd" in summary["methods"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["inputs"]["dataset"]


def test_eval_is_deterministic(workspace, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["--method", "bow(l1,l1),wmd"]
    assert run(base_args(workspace, out_a, args)) == 0
    assert run(base_args(workspace, out_b, args)) == 0
    assert (out_a / "report.csv").read_bytes() == \
        (out_b / "report.csv").read_bytes()


def test_dists_cache_reused(workspace, tmp_path, caplog):
    out = tmp_path / "run"
    args = ["dists", "--dataset", workspace / "docs.txt", "--embeddings",
            workspace / "emb.txt", "--folds", "1", "--seed", "2",
            "--workers", "1", "--method", "wmd,bow(l1,l1)", "--out", out]
    assert run(args) == 0
    cache_files = list((out / "cache").glob("*.npy"))
    assert len(cache_files) == 2  # one per (fold, method)
    assert sorted((out / "cache").iterdir()) == sorted(cache_files)
    with caplog.at_level(logging.INFO, logger="wmdlab"):
        assert run(args) == 0
    assert sum("cache hit" in r.message for r in caplog.records) == 2
    assert len(list((out / "cache").glob("*.npy"))) == 2


def test_corrupted_cache_recomputed(workspace, tmp_path, caplog):
    out = tmp_path / "run"
    args = ["dists", "--dataset", workspace / "docs.txt", "--embeddings",
            workspace / "emb.txt", "--folds", "1", "--seed", "2",
            "--workers", "1", "--method", "bow(l1,l1)", "--out", out]
    assert run(args) == 0
    cache_file = next((out / "cache").glob("*.npy"))
    cache_file.write_text("garbage\n")
    with caplog.at_level(logging.WARNING, logger="wmdlab"):
        assert run(args) == 0
    assert any("corrupted cache" in r.message for r in caplog.records)
    assert cache_file.read_bytes() != b"garbage\n"


@pytest.mark.parametrize("case", list(corrupt_cache_files(np.eye(2))))
def test_corrupt_cache_file_recomputed_by_eval(workspace, tmp_path, caplog,
                                               case):
    out = tmp_path / "run"
    args = base_args(workspace, out, ["--method", "bow(l1,l1)",
                                      "--folds", "1"])
    assert run(args) == 0
    report = (out / "report.csv").read_bytes()
    cache_file, = (out / "cache").iterdir()
    values = np.load(cache_file)
    bad = corrupt_cache_files(values)[case]
    cache_file.write_bytes(bad)
    with pytest.raises(ParseError):
        read_distance_matrix(cache_file, range(values.shape[0]),
                             range(values.shape[1]))
    with caplog.at_level(logging.WARNING, logger="wmdlab"):
        assert run(args) == 0
    assert any("corrupted cache" in r.message for r in caplog.records)
    assert (out / "report.csv").read_bytes() == report
    assert np.load(cache_file).tobytes() == values.tobytes()


def test_no_compute_fails_without_cache(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(base_args(workspace, out, ["--no-compute"])) == 1
    assert "missing cache" in capsys.readouterr().err


def test_cache_dir_env_override(workspace, tmp_path, monkeypatch):
    cache_dir = tmp_path / "elsewhere"
    monkeypatch.setenv("WMDLAB_CACHE_DIR", str(cache_dir))
    out = tmp_path / "run"
    args = ["dists", "--dataset", workspace / "docs.txt", "--embeddings",
            workspace / "emb.txt", "--folds", "1", "--seed", "0",
            "--workers", "1", "--method", "bow(l1,l1)", "--out", out]
    assert run(args) == 0
    assert list(cache_dir.glob("*.npy"))
    assert not (out / "cache").exists()


def test_dedup_outputs(workspace, tmp_path):
    out = tmp_path / "dedup"
    assert run(["dedup", "--dataset", workspace / "docs.txt",
                "--out", out]) == 0
    payload = json.loads((out / "docs.duplicates.json").read_text())
    assert payload["n_pairs"] >= 1
    assert [0, 45] in payload["pairs"]  # planted duplicate of document 0
    assert payload["n_samples"] == len({i for p in payload["pairs"]
                                        for i in p})
    # every duplicate class here is label-consistent, so dedup keeps exactly
    # one member per class: removed = samples - number of classes
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in payload["pairs"]:
        parent[find(a)] = find(b)
    n_classes = len({find(i) for i in parent})
    clean = (out / "docs.clean.txt").read_text().splitlines()
    assert len(clean) == payload["n_documents"] - (
        payload["n_samples"] - n_classes
    )


def test_analyze_outputs(workspace, tmp_path):
    out = tmp_path / "an"
    assert run(["analyze", "--dataset", workspace / "docs.txt",
                "--embeddings", workspace / "emb.txt", "--folds", "1",
                "--seed", "3", "--pairs", "40", "--dims", "2,8",
                "--workers", "1", "--out", out]) == 0
    hist = (out / "transport_histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,mass"
    scatter = (out / "scatter.csv").read_text().splitlines()
    assert len(scatter) == 41
    sidecar = json.loads((out / "scatter_pearson.json").read_text())
    assert -1.0 <= sidecar["pearson"] <= 1.0
    dims = (out / "dim_comparison.csv").read_text().splitlines()
    assert dims[0] == "dim,pearson"
    assert len(dims) == 3


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["dists", "eval", "analyze"])
def test_warm_run_matches_cold_with_unusable_document(workspace, tmp_path,
                                                      command):
    # the fully out-of-vocabulary document has all-inf rows and columns in
    # the cached wmd matrices; a warm run must exclude it like a cold one
    out = tmp_path / "run"
    args = [command, "--dataset", workspace / "docs.txt", "--embeddings",
            workspace / "emb.txt", "--folds", "2", "--seed", "1",
            "--method", "bow(l1,l1),wmd", "--pairs", "20", "--workers", "1",
            "--out", out]
    assert run(args) == 0
    cold = _files(out)
    assert list((out / "cache").glob("*.npy"))
    assert run(args) == 0
    assert _files(out) == cold
    assert not list(out.rglob("*.tmp"))


def test_cache_key_covers_format_and_version(monkeypatch):
    cfg = RunConfig()
    manifest = {"inputs": {"dataset": "d", "embeddings": "e",
                           "stopwords": None}}
    method = Method.parse("wmd")
    key = _cache_key(cfg, manifest, method, [0, 1, 2], [0, 1])
    assert _cache_key(cfg, manifest, method, [0, 1, 2], [0, 1]) == key
    assert _cache_key(cfg, manifest, method, [0, 1, 2], [0, 2]) != key
    assert _cache_key(cfg, manifest, method, [0, 2, 1], [0, 1]) != key
    cfg.format = WORD2VEC_BINARY
    assert _cache_key(cfg, manifest, method, [0, 1, 2], [0, 1]) != key
    cfg.format = TEXT
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    assert _cache_key(cfg, manifest, method, [0, 1, 2], [0, 1]) != key


def test_edited_fold_file_recomputes_its_matrices(workspace, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "docs.txt").write_bytes((workspace / "docs.txt").read_bytes())
    fold_file = data / "docs.fold0.txt"

    def eval_with_fold(train, test, out, cache):
        fold_file.write_text(f"train: {' '.join(map(str, train))}\n"
                             f"test: {' '.join(map(str, test))}\n")
        assert run(["eval", "--dataset", data / "docs.txt", "--embeddings",
                    workspace / "emb.txt", "--method", "bow(l1,l1),wmd",
                    "--workers", "1", "--out", out,
                    "--cache-dir", cache]) == 0
        return (out / "report.csv").read_bytes()

    eval_with_fold(range(30), range(30, 47), tmp_path / "a", tmp_path / "c")
    edited = (range(10, 40), [*range(10), *range(40, 47)])
    warm = eval_with_fold(*edited, tmp_path / "b", tmp_path / "c")
    assert warm == eval_with_fold(*edited, tmp_path / "c", tmp_path / "new")


def test_caches_opened_together_keep_every_entry(tmp_path):
    first, second = DistanceCache(tmp_path), DistanceCache(tmp_path)
    a = DistanceMatrix((0, 1), (1,), np.array([[0.5], [0.0]]))
    b = DistanceMatrix((2,), (0, 2), np.array([[np.inf, 0.25]]))
    first.put("a" * 64, a)
    second.put("b" * 64, b)
    fresh = DistanceCache(tmp_path)
    for key, dm in (("a" * 64, a), ("b" * 64, b)):
        got = fresh.get(key, dm.row_ids, dm.col_ids)
        assert (got.row_ids, got.col_ids) == (dm.row_ids, dm.col_ids)
        assert np.array_equal(got.values, dm.values)
    assert fresh.get("c" * 64, (0,), (0,)) is None
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["a" * 64 + ".npy", "b" * 64 + ".npy"]


def test_concurrent_writers_lose_no_entry(tmp_path):
    # three processes (more than the cores this was sized on) write 100
    # matrices each, and one shared key, into the same cache directory; a
    # shared index lost about a third of the entries this way
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from pathlib import Path\n"
        "from wmdlab.cli import DistanceCache\n"
        "from wmdlab.wmd import DistanceMatrix\n"
        "w = int(sys.argv[2])\n"
        "cache = DistanceCache(Path(sys.argv[1]))\n"
        "for i in range(100):\n"
        "    cache.put(f'{w}-{i}', DistanceMatrix((w,), (i,), [[i / 8]]))\n"
        "    cache.put('shared', DistanceMatrix((0,), (0,), [[i / 8 + w]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    procs = [subprocess.Popen([sys.executable, "-c", script, str(tmp_path),
                               str(w)], env=env) for w in range(3)]
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    fresh = DistanceCache(tmp_path)
    for w in range(3):
        for i in range(100):
            dm = fresh.get(f"{w}-{i}", (w,), (i,))
            assert (dm.row_ids, dm.col_ids) == ((w,), (i,))
            assert dm.values[0, 0] == i / 8
    # the shared key holds one whole matrix that one of the writers put
    shared = fresh.get("shared", (0,), (0,)).values[0, 0]
    assert shared in {i / 8 + w for w in range(3) for i in range(100)}
    assert len(list(tmp_path.iterdir())) == 301


def _python_here(script, *args):
    """Run ``script`` in a fresh interpreter that imports this wmdlab."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


SCIPY_LOADED = ("any(m.split('.')[0] == 'scipy' for m in sys.modules)")


def test_cli_import_leaves_scipy_unloaded():
    assert _python_here(f"import sys, wmdlab.cli; print({SCIPY_LOADED})") \
        == ["False"]


def test_only_transport_methods_load_scipy(workspace, tmp_path):
    # a pool of workers forked for a transport method finds SciPy loaded
    script = (
        "import sys\n"
        "from wmdlab import cli\n"
        "ws, out, method = sys.argv[1:]\n"
        "cli.main(['eval', '--dataset', ws + '/docs.txt', '--embeddings',\n"
        "          ws + '/emb.txt', '--folds', '2', '--workers', '2',\n"
        "          '--method', method, '--out', out])\n"
        f"print({SCIPY_LOADED})\n"
    )
    grid = "bow(l1,l1),bow(none,l2),tfidf(l2,l1)"
    assert _python_here(script, workspace, tmp_path / "a", grid) == ["False"]
    assert _python_here(script, workspace, tmp_path / "b", "wmd") == ["True"]


def test_project_roundtrip(workspace, tmp_path):
    out_file = tmp_path / "proj.txt"
    assert run(["project", "--embeddings", workspace / "emb.txt",
                "--target-dim", "3", "--out-file", out_file]) == 0
    store = load_embeddings(str(out_file), TEXT)
    assert store.dim == 3 and len(store) == 30


def test_project_renormalize(workspace, tmp_path):
    out_file = tmp_path / "proj.txt"
    assert run(["project", "--embeddings", workspace / "emb.txt",
                "--target-dim", "2", "--out-file", out_file,
                "--renormalize"]) == 0
    store = load_embeddings(str(out_file), TEXT)
    norms = np.linalg.norm(store.matrix, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


def test_missing_required_flag_names_it(tmp_path, capsys, workspace):
    assert run(["analyze", "--dataset", workspace / "docs.txt",
                "--out", tmp_path / "x"]) == 1
    assert "--embeddings" in capsys.readouterr().err


def test_keep_oov_rejected_for_transport_methods(workspace, tmp_path, capsys):
    assert run(base_args(workspace, tmp_path / "x",
                         ["--method", "wmd", "--keep-oov"])) == 1
    assert "keep-oov" in capsys.readouterr().err


def test_keep_oov_rejected_by_analyze(workspace, tmp_path, capsys):
    # a document's out-of-vocabulary word would reach the transport solver
    assert run(["analyze", "--dataset", workspace / "docs.txt",
                "--embeddings", workspace / "emb.txt", "--keep-oov",
                "--folds", "1", "--workers", "1", "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert "keep-oov" in err and err.startswith("error: ")


def test_keep_oov_accepted_for_vector_methods(workspace, tmp_path):
    assert run(base_args(workspace, tmp_path / "x",
                         ["--method", "bow(l1,l1),tfidf(l2,l2)",
                          "--keep-oov"])) == 0


def test_dedup_drops_stopwords_without_embeddings(workspace, tmp_path):
    stopwords = tmp_path / "stop.txt"
    stopwords.write_text("w0\nw11\n")
    out = tmp_path / "dedup"
    assert run(["dedup", "--dataset", workspace / "docs.txt",
                "--stopwords", stopwords, "--out", out]) == 0
    clean = [line.split("\t")[1].split() for line in
             (out / "docs.clean.txt").read_text().splitlines()]
    assert not {"w0", "w11"} & {t for toks in clean for t in toks}
    # without embeddings, out-of-vocabulary words stay
    assert ["zzz", "qqq"] in clean


def test_config_file_and_flag_precedence(workspace, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"dataset = {workspace / 'docs.txt'}\n"
        f"embeddings = {workspace / 'emb.txt'}\n"
        "seed = 11\n"
        "folds = 2\n"
        "# a comment\n"
        "methods = bow(l1,l1)\n"
    )
    parser = make_parser()
    args = parser.parse_args(["eval", "--config", str(cfg_path),
                              "--seed", "99"])
    cfg = build_config(args)
    assert cfg.seed == 99           # flag wins
    assert cfg.folds == 2           # from file
    assert cfg.methods == "bow(l1,l1)"
    assert cfg.dataset == str(workspace / "docs.txt")


def test_config_file_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("not_a_key = 1\n")
    with pytest.raises(ParseError):
        read_config_file(str(p))


@pytest.mark.parametrize("text", ["seed = abc", "train_fraction = 0.7x"])
def test_config_file_rejects_bad_numbers(tmp_path, text):
    p = tmp_path / "bad.cfg"
    p.write_text(f"# a comment\nfolds = 2\n{text}\n")
    with pytest.raises(ParseError, match="bad (int|float)") as exc:
        read_config_file(str(p))
    assert exc.value.line == 3


def test_wknn_classifier_end_to_end(workspace, tmp_path):
    out = tmp_path / "wknn"
    assert run(base_args(workspace, out,
                         ["--method", "bow(l1,l1)",
                          "--classifier", "wknn"])) == 0
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert all(",wknn,19," in r for r in rows)


def test_clean_flag_removes_duplicates(workspace, tmp_path):
    out = tmp_path / "clean"
    assert run(base_args(workspace, out,
                         ["--method", "bow(l1,l1)", "--clean"])) == 0
    assert (out / "report.csv").exists()


# -- loading only the corpus's embedding rows -----------------------------------


def pad_embeddings(workspace, path, extra=""):
    """emb.txt between 3000 random rows of words no document uses, then a
    later copy of w0 (the first copy wins) and ``extra``."""
    rng = np.random.default_rng(11)

    def rows(start):
        return "".join(f"pad{i} " + " ".join(f"{x:.6f}" for x in
                                             rng.normal(size=8)) + "\n"
                       for i in range(start, start + 1500))

    path.write_text(rows(0) + (workspace / "emb.txt").read_text()
                    + rows(1500) + "w0" + " 1.0" * 8 + "\n" + extra)
    return path


def test_eval_report_ignores_unused_embedding_rows(workspace, tmp_path):
    padded = pad_embeddings(workspace, tmp_path / "padded.txt")
    args = ["--method", "bow(l1,l1),wmd,wmd-tfidf"]
    assert run(base_args(workspace, tmp_path / "a", args)) == 0
    padded_args = base_args(workspace, tmp_path / "b", args)
    padded_args[padded_args.index("--embeddings") + 1] = padded
    assert run(padded_args) == 0
    assert (tmp_path / "a" / "report.csv").read_bytes() == \
        (tmp_path / "b" / "report.csv").read_bytes()


def test_pipeline_store_holds_only_corpus_rows(workspace, tmp_path, caplog):
    padded = pad_embeddings(workspace, tmp_path / "padded.txt")
    cfg = build_config(make_parser().parse_args(
        ["eval", "--dataset", str(workspace / "docs.txt"), "--embeddings",
         str(padded), "--folds", "2", "--workers", "1"]))
    with caplog.at_level(logging.INFO, logger="wmdlab"):
        pipe = cli.build_pipeline(cfg)
    corpus_words = {t for line in (workspace / "docs.txt").read_text()
                    .splitlines() for t in line.split("\t")[1].split()}
    file_words = set(load_embeddings(str(padded), TEXT).tokens)
    assert len(pipe.store) == len(corpus_words & file_words) == 30
    assert "embeddings: kept 30 of 3031 rows (dim 8)" in caplog.messages


@pytest.mark.parametrize("command", ["eval", "dedup"])
def test_unused_zero_row_fails_as_whole_file_would(workspace, tmp_path,
                                                   capsys, command):
    padded = pad_embeddings(workspace, tmp_path / "padded.txt",
                            extra="unused" + " 0.0" * 8 + "\n")
    args = base_args(workspace, tmp_path / "x")
    args[0] = command
    args[args.index("--embeddings") + 1] = padded
    capsys.readouterr()
    assert run(args) == 1
    assert capsys.readouterr().err == "error: unused\n"


def test_embedding_error_reported_before_corpus_error(workspace, tmp_path,
                                                      capsys):
    bad_corpus = tmp_path / "docs.txt"
    bad_corpus.write_text("no tab here\n")
    args = base_args(workspace, tmp_path / "x")
    args[args.index("--dataset") + 1] = bad_corpus
    assert run(args) == 1
    assert "no TAB separator" in capsys.readouterr().err
    args[args.index("--embeddings") + 1] = pad_embeddings(
        workspace, tmp_path / "padded.txt", extra="unused" + " 0.0" * 8 + "\n")
    assert run(args) == 1
    assert capsys.readouterr().err == "error: unused\n"
