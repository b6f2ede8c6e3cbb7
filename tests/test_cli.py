import argparse
import csv
import dataclasses
import hashlib
import importlib.metadata
import json
import logging
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from wmdlab import cli, embeddings, errors
from wmdlab.analysis import sample_document_pairs
from wmdlab.cli import DistanceCache, RunConfig, _cache_key, build_config, \
    main, make_parser, read_config_file
from wmdlab.corpus import filter_vocabulary, load_corpus
from wmdlab.embeddings import TEXT, WORD2VEC_BINARY, l2_normalize, \
    load_embeddings, project_pca
from wmdlab.errors import ParseError
from wmdlab.textrep import build_vocabulary
from wmdlab import wmd
from wmdlab.wmd import Method, PairStore, read_distance_matrix, \
    representations, wmd_distance, write_distance_matrix

import reference_search
from helpers import condensed_index, corrupt_cache_files, opened_paths


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
            workspace / "emb.txt", "--folds", "2", "--seed", "2",
            "--workers", "1", "--method", "wmd,bow(l1,l1)", "--out", out]
    assert run(args) == 0
    cache_files = list((out / "cache").glob("*.npy"))
    assert len(cache_files) == 2  # one pair store per method, for both folds
    assert sorted((out / "cache").iterdir()) == sorted(cache_files)
    with caplog.at_level(logging.INFO, logger="wmdlab"):
        assert run(args) == 0
    assert sum("cache hit" in r.message for r in caplog.records) == 4
    assert not any("computing" in r.message for r in caplog.records)
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


@pytest.mark.parametrize("case", list(corrupt_cache_files(
    np.array([0.5, np.inf, 1.0]))))
def test_corrupt_cache_file_recomputed_by_eval(workspace, tmp_path, caplog,
                                               case):
    out = tmp_path / "run"
    args = base_args(workspace, out, ["--method", "bow(l1,l1)",
                                      "--folds", "1"])
    assert run(args) == 0
    report = (out / "report.csv").read_bytes()
    cache_file, = (out / "cache").iterdir()
    good = cache_file.read_bytes()
    values = read_distance_matrix(cache_file, range(47)).values  # 47 documents
    cache_file.write_bytes(corrupt_cache_files(values)[case])
    with pytest.raises(ParseError):
        read_distance_matrix(cache_file, range(47))
    with caplog.at_level(logging.WARNING, logger="wmdlab"):
        assert run(args) == 0
    assert any("corrupted cache" in r.message for r in caplog.records)
    assert (out / "report.csv").read_bytes() == report
    assert cache_file.read_bytes() == good


def test_no_compute_fails_without_cache(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(base_args(workspace, out, ["--no-compute"])) == 1
    assert "missing cache" in capsys.readouterr().err


def test_no_compute_needs_every_pair_stored(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    args = base_args(workspace, out, ["--method", "wmd"])
    assert run([*args, "--no-compute"]) == 1
    err = capsys.readouterr().err
    assert not (out / "cache").exists()
    assert run(args) == 0
    store, = (out / "cache").iterdir()
    assert f"missing cache: {store.name} lacks " in err
    assert run([*args, "--no-compute"]) == 0
    report = (out / "report.csv").read_bytes()
    # forget one pair among the k nearest of a row of the second fold that
    # the first fold does not read: that row no longer proves its k nearest
    # from the store, so the second fold stops, naming every cell of the
    # row that holds no distance
    reads, reps, embeddings = _search_inputs(args)
    cells = {}
    reference_search.search(reads, reps, embeddings, cells)
    assert [reference_search.lacking(f, reps, cells) for f in reads] == [0, 0]
    q = min(reads[1])
    nearest = sorted((cells[(min(q, c), max(q, c))], c) for c in reads[1][q]
                     if c != q and reps[c] is not None)
    forget = next((min(q, c), max(q, c)) for _, c in
                  nearest[:reference_search.K]
                  if (min(q, c), max(q, c)) not in _read_pairs(reads[0]))
    del cells[forget]
    pairs = read_distance_matrix(store, range(47))  # ids 0..46 in order
    pairs.values[condensed_index(47, *forget)] = np.nan
    write_distance_matrix(pairs, store)
    lacks = reference_search.lacking(reads[1], reps, cells)
    assert reference_search.lacking(reads[0], reps, cells) == 0 < lacks
    capsys.readouterr()
    assert run([*args, "--no-compute"]) == 1
    err = capsys.readouterr().err
    assert f"missing cache: {store.name} lacks {lacks} distance(s)" in err
    assert run(args) == 0
    assert run([*args, "--no-compute"]) == 0
    assert (out / "report.csv").read_bytes() == report


def test_cache_dir_flag_ignores_env(workspace, tmp_path, monkeypatch):
    env_dir, flag_dir = tmp_path / "from-env", tmp_path / "from-flag"
    monkeypatch.setenv("WMDLAB_CACHE_DIR", str(env_dir))
    out = tmp_path / "run"
    assert run(base_args(workspace, out, ["--method", "bow(l1,l1)",
                                          "--cache-dir", flag_dir])) == 0
    assert len(list(flag_dir.glob("*.npy"))) == 1  # one per method
    assert not env_dir.exists()
    assert not (out / "cache").exists()


def test_method_named_twice_runs_once(workspace, tmp_path):
    out = tmp_path / "run"
    assert run(base_args(workspace, out,
                         ["--method", "bow, bow(l1,l1), tfidf"])) == 0
    with open(out / "report.csv", newline="") as fh:
        methods = [row["method"] for row in csv.DictReader(fh)]
    assert sorted(methods) == ["bow(l1,l1)"] * 2 + ["tfidf(l1,l1)"] * 2
    summary = json.loads((out / "summary.json").read_text())
    for method in ("bow(l1,l1)", "tfidf(l1,l1)"):
        (entry,) = summary["methods"][method].values()
        assert entry["folds"] == 2
    assert RunConfig(methods="wmd,bow,WMD,bow(l1,l1)").method_list() == [
        Method.parse("wmd"), Method.parse("bow")]


@pytest.mark.parametrize("bad", ["emb.txt", "docs.txt", "stop.txt",
                                 "cfg.ini"])
def test_input_that_is_not_utf8_exits_1(workspace, tmp_path, capsys, bad):
    for name in ("emb.txt", "docs.txt"):
        (tmp_path / name).write_bytes((workspace / name).read_bytes())
    (tmp_path / "stop.txt").write_text("the\n")
    (tmp_path / "cfg.ini").write_text("workers = 1\n")
    with open(tmp_path / bad, "ab") as fh:
        fh.write(b"\xff\n")
    assert run(["dedup", "--config", tmp_path / "cfg.ini",
                "--dataset", tmp_path / "docs.txt",
                "--embeddings", tmp_path / "emb.txt",
                "--stopwords", tmp_path / "stop.txt",
                "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: ") and err.endswith(
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start "
        "byte")


@pytest.mark.parametrize("fmt,content,line,offset,message", [
    (TEXT, b"w0 0.5\nw1 x\n", 2, None,
     "line 2: could not convert string to float: 'x'"),
    (TEXT, b"\n", 1, None, "line 1: no embedding records found"),
    # two bad components: the first is named
    (TEXT, b"w0 0.5 1_0 2\nw1 1 abc 0x1p3\n", 2, None,
     "line 2: could not convert string to float: 'abc'"),
    (WORD2VEC_BINARY, b"2 2\nw0 " + bytes(8) + b"w1 " + bytes(7), None, 18,
     "byte 18: truncated record: short vector"),
    (WORD2VEC_BINARY, b"2\n", None, 0, "byte 0: header must be 'count dim'"),
])
def test_embedding_parse_error_names_the_file(workspace, tmp_path, capsys,
                                              fmt, content, line, offset,
                                              message):
    emb = tmp_path / "emb"
    emb.write_bytes(content)
    assert run(["dedup", "--dataset", workspace / "docs.txt", "--embeddings",
                emb, "--format", fmt, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {emb}: {message}\n"
    with pytest.raises(ParseError) as err:
        cli._embeddings(RunConfig(embeddings=str(emb), format=fmt))
    assert (err.value.line, err.value.offset) == (line, offset)


# a valid input of each kind; each case below breaks one of them
GOOD_INPUTS = {"c.txt": b"a\tw0\nb\tw1\nc\tw2\n",
               "c.fold0.txt": b"train: 0 1\ntest: 2\n",
               "stop.txt": b"the\n", "run.cfg": b"workers = 1\n",
               "emb.txt": b"w0 1 0\nw1 0 1\nw2 1 1\n"}


@pytest.mark.parametrize("name, content, message", [
    ("c.txt", b"a\tw0\nb w1\n", "line 2: no TAB separator"),
    ("c.txt", b"a\tw0\n\tw1\n", "line 2: empty label"),
    ("c.fold0.txt", b"train: 0\nvalid: 1\n", "line 2: bad fold line"),
    ("c.fold0.txt", b"train: 0 x\ntest: 2\n", "line 1: non-integer id"),
    ("c.fold0.txt", b"train: 0\ntest: 9\n", "line 2: id out of range"),
    ("c.fold0.txt", b"train: 0 1\ntest:\n", "line 2: no ids on the test line"),
    ("c.fold0.txt", b"test: 1 2\n\ntrain: 0 1\n",
     "line 1: test ids overlap the train ids"),
    # a form feed does not end a line: "x" is the third line
    ("c.fold0.txt", b"train: 0\x0c1\ntest: 2\nx\n", "line 3: bad fold line"),
    ("stop.txt", b"the\n\xff\n", "line 2: 'utf-8' codec can't decode byte "
     "0xff in position 0: invalid start byte"),
    ("run.cfg", b"seed = 1\ncolour = red\n", "line 2: unknown key 'colour'"),
    ("run.cfg", b"seed = x\n", "line 1: bad int 'x'"),
    ("run.cfg", b"clean = maybe\n", "line 1: bad boolean 'maybe'"),
    ("run.cfg", b"format = word2vec\n", "line 1: format must be one of text, "
     "word2vec-binary, got 'word2vec'"),
    ("emb.txt", b"w0 1 0\nw1 0\n", "line 2: expected 2 components, got 1"),
    ("emb.bin", b"2 2\nw0 " + bytes(8) + b"w1 " + bytes(7),
     "byte 18: truncated record: short vector"),
    ("emb.txt", b"w0 1 0\nw1 0 0\nw2 1 1\n",
     "line 2: all-zero vector for 'w1'"),
    # a zero row the load keeps (w0 is in the corpus), then one it drops
    ("emb.bin", b"2 2\nw0 " + bytes(8) + b"w1 " + bytes(8),
     "byte 4: all-zero vector for 'w0'"),
    ("emb.bin", b"2 2\nw9 " + bytes(8) + b"w1 " + bytes(8),
     "byte 4: all-zero vector for 'w9'"),
])
def test_input_fault_names_its_file_and_place(tmp_path, capsys, name,
                                              content, message):
    for good, data in {**GOOD_INPUTS, name: content}.items():
        (tmp_path / good).write_bytes(data)
    emb, fmt = ("emb.bin", WORD2VEC_BINARY) if name == "emb.bin" \
        else ("emb.txt", TEXT)
    assert run(["dedup", "--config", tmp_path / "run.cfg",
                "--dataset", tmp_path / "c.txt",
                "--stopwords", tmp_path / "stop.txt",
                "--embeddings", tmp_path / emb, "--format", fmt,
                "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / name}: {message}\n"


@pytest.mark.parametrize("corpus, emb, passes, message", [
    # w1's zero row is kept: the load places it
    (b"a\tw0\nb\tw1\n", b"w0 1 0\nw1 0 0\nw2 1 1\n", 1,
     "line 2: all-zero vector for 'w1'"),
    # no document uses w1: a second pass places its dropped zero row
    (b"a\tw0\nb\tw2\n", b"w0 1 0\nw1 0 0\nw2 1 1\n", 2,
     "line 2: all-zero vector for 'w1'"),
    # a broken corpus: the embedding file is loaded keeping no row, and
    # its fault is reported instead
    (b"a\tw0\nb w1\n", b"w0 1 0\nw1 0 0\nw2 1 1\n", 2,
     "line 2: all-zero vector for 'w1'"),
    (b"a\tw0\nb w1\n", b"w0 1 0\nw1 0 0\nw2 1\n", 1,
     "line 3: expected 2 components, got 1")],
    ids=["kept", "dropped", "broken corpus", "both parse errors"])
def test_embedding_fault_is_placed_in_at_most_two_passes(
        tmp_path, capsys, monkeypatch, corpus, emb, passes, message):
    (tmp_path / "c.txt").write_bytes(corpus)
    (tmp_path / "emb.txt").write_bytes(emb)
    opened = opened_paths(monkeypatch, embeddings, errors)
    assert run(["dedup", "--dataset", tmp_path / "c.txt",
                "--embeddings", tmp_path / "emb.txt",
                "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'emb.txt'}: {message}\n"
    # the corpus is read through errors too
    assert [q for q in opened if q != str(tmp_path / "c.txt")] \
        == [str(tmp_path / "emb.txt")] * passes


@pytest.mark.parametrize("name, content, token, line, message", [
    # lone CR line ends and a blank line; a form feed splits fields only
    ("cr.txt", b"w0 1 0\r\rw1\x0c1\r", "w1", 3,
     "expected 2 components, got 1"),
    # CRLF, a lone CR, and NEL and LINE SEPARATOR inside fields
    ("ff.txt", "w0 1\x0c0\r\n\rw1 0\x851\nw2 0\u20280\n".encode(), "w2", 4,
     "all-zero vector for 'w2'")])
def test_embedding_file_splits_lines_as_every_text_input(
        tmp_path, capsys, name, content, token, line, message):
    (tmp_path / "c.txt").write_bytes(b"a\tw0\nb\tw1\n")
    (tmp_path / name).write_bytes(content)
    # the line errors.text_lines numbers for a corpus holds the record
    assert dict(errors.text_lines(tmp_path / name))[line].split()[0] == token
    assert run(["dedup", "--dataset", tmp_path / "c.txt",
                "--embeddings", tmp_path / name,
                "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / name}: line {line}: {message}\n"


def test_summary_json_is_strict_json_when_no_test_document_is_usable(
        tmp_path):
    # documents 4 and 5 have no word with an embedding: every test
    # document of the fold is unusable and each error is NaN
    (tmp_path / "c.txt").write_bytes(
        b"a\tw0 w1\nb\tw2 w3\na\tw1 w0\nb\tw3 w2\na\tzz\nb\tyy\n")
    (tmp_path / "c.fold0.txt").write_bytes(b"train: 0 1 2 3\ntest: 4 5\n")
    (tmp_path / "emb.txt").write_bytes(
        b"w0 1 0\nw1 0.9 0.1\nw2 0 1\nw3 0.1 0.9\n")
    out = tmp_path / "out"
    assert run(["eval", "--dataset", tmp_path / "c.txt",
                "--embeddings", tmp_path / "emb.txt",
                "--method", "bow(l1,l1),wmd", "--workers", "1",
                "--cache-dir", tmp_path / "cache", "--out", out]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=refuse)
    for method in ("bow(l1,l1)", "wmd"):
        assert summary["methods"][method]["c"] == {
            "folds": 1, "mean_error_percent": None,
            "std_error_percent": None}
    assert summary["relative_to_base"] == {"bow(l1,l1)": None, "wmd": None}
    report = csv.DictReader((out / "report.csv").read_text().splitlines())
    assert [r["error_percent"] for r in report] == ["nan", "nan"]


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


def test_dedup_writes_no_manifest_for_a_broken_embedding_file(
        workspace, tmp_path, capsys):
    broken = tmp_path / "emb.txt"
    broken.write_text("w0 1.0 oops\n")
    out = tmp_path / "dedup"
    assert run(["dedup", "--dataset", workspace / "docs.txt", "--embeddings",
                broken, "--out", out]) == 1
    assert "line 1" in capsys.readouterr().err
    assert not out.exists()


def _sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rows_of(workspace):
    """emb.txt's rows, each value rounded to float32, then a row for a word
    no document uses."""
    rows = []
    for line in (workspace / "emb.txt").read_text().splitlines():
        token, *values = line.split()
        rows.append((token, np.array(values, np.float32).tolist()))
    return rows + [("spare", [0.5] * 8)]


def _write_embeddings(path, fmt, rows, crlf=False, trailing=b""):
    """``rows`` as a text file (CRLF line ends and a blank line after each
    record with ``crlf``) or as word2vec-binary, with ``trailing`` bytes
    after the last counted record."""
    if fmt == TEXT:
        end = b"\r\n\r\n" if crlf else b"\n"
        data = b"".join(f"{t} {' '.join(map(repr, v))}".encode() + end
                        for t, v in rows)
    else:
        data = f"{len(rows)} 8\n".encode() + b"".join(
            t.encode() + b" " + np.array(v, "<f4").tobytes() + b"\n"
            for t, v in rows)
    path.write_bytes(data + trailing)
    return path


def _documented_digest(rows, vocabulary):
    """The SHA-256 of the rows of ``vocabulary``'s words, built from the
    encoding that ``cli._rows_sha256`` documents."""
    kept = [(t.encode(), v) for t, v in rows if t in vocabulary]
    h = hashlib.sha256(struct.pack("<QQ", 8, len(kept)))
    h.update(b"".join(struct.pack("<Q", len(t)) for t, _ in kept))
    h.update(b"".join(t for t, _ in kept))
    h.update(b"".join(struct.pack("<8d", *v) for _, v in kept))
    return h.hexdigest()


def _run_in(workspace, tmp_path, command, emb, fmt, name, *extra):
    """``command`` on emb with the shared cache; its exit status and
    manifest inputs (None when it wrote no manifest)."""
    out = tmp_path / name / command
    status = run([command, "--dataset", workspace / "docs.txt",
                  "--embeddings", emb, "--format", fmt, "--folds", "1",
                  "--pairs", "10", "--workers", "1", "--out", out,
                  "--cache-dir", tmp_path / "cache", *extra])
    manifest = out / "manifest.json"
    return status, (json.loads(manifest.read_text())["inputs"]
                    if manifest.exists() else None)


@pytest.mark.parametrize("fmt", [TEXT, WORD2VEC_BINARY])
def test_manifest_holds_the_sha256_of_the_rows_read(workspace, tmp_path, fmt):
    rows = _rows_of(workspace)
    vocabulary = {t for line in (workspace / "docs.txt").read_text()
                  .splitlines() for t in line.split("\t")[1].split()}
    assert "spare" not in vocabulary
    inputs = {"dataset": _sha256_of(workspace / "docs.txt"),
              "embeddings": _documented_digest(rows, vocabulary),
              "stopwords": None}
    plain = _write_embeddings(tmp_path / "plain.emb", fmt, rows)
    for command in ("eval", "analyze", "dedup"):
        assert _run_in(workspace, tmp_path, command, plain, fmt,
                       "plain") == (0, inputs)
    changed = [(t, [9.0] * 8 if t == "spare" else v) for t, v in rows]
    same_rows = {
        "extra unused row": _write_embeddings(
            tmp_path / "extra.emb", fmt, rows + [("extra", [1.0] * 8)]),
        "changed unused row": _write_embeddings(tmp_path / "changed.emb", fmt,
                                                changed),
        "line ends or trailing bytes": _write_embeddings(
            tmp_path / "framed.emb", fmt, rows, crlf=fmt == TEXT,
            trailing=b"" if fmt == TEXT else b"bytes no record counts \xff"),
    }
    # the plain file's caches hold every cell these runs read
    for name, emb in same_rows.items():
        assert plain.read_bytes() != emb.read_bytes()
        for command in ("eval", "analyze"):
            assert _run_in(workspace, tmp_path, command, emb, fmt, name,
                           "--no-compute") == (0, inputs), (name, command)
        assert _run_in(workspace, tmp_path, "dedup", emb, fmt,
                       name) == (0, inputs), name


@pytest.mark.parametrize("fmt", [TEXT, WORD2VEC_BINARY])
def test_one_ulp_in_a_used_row_misses_the_cache(workspace, tmp_path, capsys,
                                                fmt):
    rows = _rows_of(workspace)
    plain = _write_embeddings(tmp_path / "plain.emb", fmt, rows)
    _, inputs = _run_in(workspace, tmp_path, "eval", plain, fmt, "plain")
    caches = sorted((tmp_path / "cache").iterdir())
    # w0's first value one unit in the last place up, in the file's precision
    width = np.float64 if fmt == TEXT else np.float32
    token, values = rows[0]
    assert token == "w0"
    values = [float(np.nextafter(width(values[0]), width(np.inf))),
              *values[1:]]
    emb = _write_embeddings(tmp_path / "ulp.emb", fmt, [(token, values),
                                                    *rows[1:]])
    status, got = _run_in(workspace, tmp_path, "eval", emb, fmt, "ulp",
                          "--no-compute")
    assert status == 1
    assert got["embeddings"] != inputs["embeddings"]
    assert got == {**inputs, "embeddings": got["embeddings"]}
    cfg = RunConfig(embeddings=str(emb), format=fmt)
    key = _cache_key(cfg, {"inputs": got}, Method.parse(cli.BASE_METHOD),
                     list(load_corpus(str(workspace / "docs.txt")).ids()))
    assert f"missing cache: {key}.npy lacks" in capsys.readouterr().err
    assert sorted((tmp_path / "cache").iterdir()) == caches
    assert _run_in(workspace, tmp_path, "dedup", emb, fmt, "ulp") == (0, got)


def test_pool_starts_with_no_hashing_thread_alive(workspace, tmp_path,
                                                  monkeypatch):
    # a forked worker must not inherit a thread that holds a lock: when the
    # pool starts, no thread but the main one is alive
    alive = []

    class Pool(wmd.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            alive.append(threading.enumerate())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(wmd, "ProcessPoolExecutor", Pool)
    args = base_args(workspace, tmp_path / "run", ["--method", "wmd"])
    args[args.index("--workers") + 1] = "2"
    assert run(args) == 0
    assert alive and all(threads == [threading.main_thread()]
                         for threads in alive)


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


def test_repeated_dim_runs_once(workspace, tmp_path, monkeypatch):
    solves = _count_solves(monkeypatch)
    analyze = ["analyze", "--dataset", workspace / "docs.txt",
               "--embeddings", workspace / "emb.txt", "--folds", "1",
               "--seed", "3", "--pairs", "20", "--workers", "1"]
    assert run([*analyze, "--dims", "3", "--out", tmp_path / "once"]) == 0
    once = len(solves)
    solves.clear()
    assert run([*analyze, "--dims", "3,3", "--out", tmp_path / "twice"]) == 0
    assert len(solves) == once
    assert (tmp_path / "twice" / "dim_comparison.csv").read_bytes() \
        == (tmp_path / "once" / "dim_comparison.csv").read_bytes()
    assert RunConfig(dims="3,8,3").dim_list() == [3, 8]


@pytest.mark.parametrize("option, value", [
    ("--pairs", "1"), ("--bin-width", "0"), ("--bin-width", "nan"),
    ("--bin-width", "1e-300"), ("--dims", "0"), ("--dims", "2,9")])
def test_analyze_rejects_bad_option_before_any_work(workspace, tmp_path,
                                                    capsys, monkeypatch,
                                                    option, value):
    # the embeddings have 8 dimensions; only --dims needs them read
    if option != "--dims":
        def unread(*args, **kwargs):
            raise AssertionError("the embedding file was read")
        monkeypatch.setattr(cli, "load_embeddings", unread)
    out = tmp_path / "an"
    assert run(["analyze", "--dataset", workspace / "docs.txt",
                "--embeddings", workspace / "emb.txt", "--folds", "1",
                "--workers", "1", "--out", out, option, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err
    # no cached matrix and no output file, not even the manifest
    assert not list(tmp_path.rglob("*.npy"))
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["eval", "--folds", "0"], "--folds must be >= 1, got 0"),
    (["dists", "--train-fraction", "1.5"],
     "--train-fraction must be in (0, 1), got 1.5"),
    (["project", "--target-dim", "0"], "--target-dim must be >= 1, got 0"),
    (["analyze", "--bin-width", "inf"],
     "--bin-width must be finite and >= 2**-19 (2**20 bins reach distance 2), "
     "got inf"),
    (["analyze", "--bin-width", "nan"],
     "--bin-width must be finite and >= 2**-19 (2**20 bins reach distance 2), "
     "got nan"),
    # checked for every command, also where the value goes unused
    (["eval", "--pairs", "1"], "--pairs must be >= 2, got 1"),
    (["dedup", "--workers", "-1"], "--workers must be >= 0, got -1"),
])
def test_out_of_range_option_fails_before_any_input_is_read(
        workspace, tmp_path, capsys, monkeypatch, args, message):
    def unread(*args, **kwargs):
        raise AssertionError("an input file was read")

    monkeypatch.setattr(cli, "load_embeddings", unread)
    monkeypatch.setattr(cli.corpus_mod, "load_corpus", unread)
    assert run([*args, "--dataset", workspace / "docs.txt", "--embeddings",
                workspace / "emb.txt", "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.rglob("*"))


def test_config_file_value_out_of_range_names_its_flag(workspace, tmp_path,
                                                       capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("train_fraction = 0\n")
    assert run(base_args(workspace, tmp_path / "out",
                         ["--config", cfg_path])) == 1
    assert capsys.readouterr().err == \
        "error: --train-fraction must be in (0, 1), got 0.0\n"
    assert not (tmp_path / "out").exists()


def test_bin_width_needing_too_many_bins_fails(workspace, tmp_path, capsys):
    assert run(["analyze", "--dataset", workspace / "docs.txt",
                "--embeddings", workspace / "emb.txt", "--folds", "1",
                "--pairs", "10", "--workers", "1", "--bin-width", "1e-300",
                "--out", tmp_path / "an"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1 and "bins" in errors[0]
    assert not (tmp_path / "an" / "transport_histogram.csv").exists()


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
    method, ids = Method.parse("wmd"), [0, 1, 3]
    key = _cache_key(cfg, manifest, method, ids)
    assert _cache_key(cfg, manifest, method, ids) == key
    # folds, their seed and train fraction only choose the pairs read
    for field, value in (("folds", 5), ("seed", 9), ("train_fraction", 0.5)):
        assert _cache_key(RunConfig(**{field: value}), manifest, method,
                          ids) == key
    assert _cache_key(cfg, manifest, Method.parse("wmd-tfidf"), ids) != key
    # the store's values are laid out over its documents' ids
    assert _cache_key(cfg, manifest, method, [0, 1, 2]) != key
    for name in ("dataset", "embeddings", "stopwords"):
        other = {"inputs": {**manifest["inputs"], name: "x"}}
        assert _cache_key(cfg, other, method, ids) != key
    for field in ("clean", "keep_oov"):
        assert _cache_key(RunConfig(**{field: True}), manifest, method,
                          ids) != key
    cfg.format = WORD2VEC_BINARY
    assert _cache_key(cfg, manifest, method, ids) != key
    cfg.format = TEXT
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    assert _cache_key(cfg, manifest, method, ids) != key


def test_cache_key_reads_no_package_metadata(monkeypatch):
    cfg = RunConfig()
    manifest = {"inputs": {"dataset": "d", "embeddings": "e",
                           "stopwords": None}}
    methods = [Method.parse("wmd"), Method.parse("bow(l1,l1)")]
    keys = [_cache_key(cfg, manifest, m, [0, 1]) for m in methods]

    def no_metadata(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", no_metadata)
    assert [_cache_key(cfg, manifest, m, [0, 1]) for m in methods] == keys


def _search_inputs(args) -> tuple[list[dict], dict, object]:
    """The reads of each fold of the ``eval`` run ``args`` (see
    ``reference_search``), the documents' ``wmd`` measures and the
    embedding store."""
    cfg = build_config(make_parser().parse_args([str(a) for a in args]))
    pipe = cli.build_pipeline(cfg)
    labels = pipe.corpus.labels_by_id()
    reads = [reference_search.fold_reads(fold.train_ids, fold.test_ids,
                                         labels, seed=(cfg.seed, i))
             for i, fold in enumerate(pipe.corpus.folds)]
    reps = representations(list(pipe.corpus.ids()), Method.parse("wmd"),
                           pipe.resources)
    return reads, reps, pipe.store


def _read_pairs(fold: dict) -> set[tuple[int, int]]:
    # document 46 has no word with an embedding: no usable pair
    return {(min(a, b), max(a, b)) for a, cols in fold.items() for b in cols
            if a != b and 46 not in (a, b)}


def _count_solves(monkeypatch) -> list:
    """Record every transport solve made in this process."""
    solves = []
    real = wmd.solve_transport
    monkeypatch.setattr(wmd, "solve_transport",
                        lambda problem: solves.append(1) or real(problem))
    return solves


def test_edited_fold_file_reuses_stored_pairs(workspace, tmp_path,
                                              monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    (data / "docs.txt").write_bytes((workspace / "docs.txt").read_bytes())
    fold_file = data / "docs.fold0.txt"
    solves = _count_solves(monkeypatch)

    def eval_with_fold(train, test, out, cache):
        fold_file.write_text(f"train: {' '.join(map(str, train))}\n"
                             f"test: {' '.join(map(str, test))}\n")
        solves.clear()
        assert run(["eval", "--dataset", data / "docs.txt", "--embeddings",
                    workspace / "emb.txt", "--method", "bow(l1,l1),wmd",
                    "--workers", "1", "--out", out,
                    "--cache-dir", cache]) == 0
        return (out / "report.csv").read_bytes(), len(solves)

    labels = load_corpus(str(workspace / "docs.txt")).labels_by_id()
    _, reps, embeddings = _search_inputs(base_args(workspace, tmp_path))
    cells = {}

    def searched(train, test):
        # the pairs the fold's searches solve beyond the cells stored
        return reference_search.search(
            [reference_search.fold_reads(train, test, labels, seed=(0, 0))],
            reps, embeddings, cells)

    first = (range(30), range(30, 47))
    _, cold = eval_with_fold(*first, tmp_path / "a", tmp_path / "c")
    assert cold == len(searched(*first))
    edited = (range(10, 40), [*range(10), *range(40, 47)])
    warm, solved = eval_with_fold(*edited, tmp_path / "b", tmp_path / "c")
    # the edited run solves just the pairs its searches need that the
    # first run did not store
    assert solved == len(searched(*edited)) > 0
    assert len(list((tmp_path / "c").iterdir())) == 2  # one per method
    fresh, _ = eval_with_fold(*edited, tmp_path / "d", tmp_path / "new")
    assert warm == fresh


def test_clean_fold_edit_keeping_the_other_duplicate_reads_no_stale_cell(
        workspace, tmp_path):
    # document 9 copies document 5; --clean keeps the copy on the single
    # fold file's training side, so editing the fold file changes the
    # documents a pair store is laid out over
    data = tmp_path / "data"
    data.mkdir()
    lines = (workspace / "docs.txt").read_text().splitlines()[:12]
    lines[9] = lines[5]
    (data / "docs.txt").write_text("\n".join(lines) + "\n")

    def dists(train, test, cache):
        (data / "docs.fold0.txt").write_text(
            f"train: {' '.join(map(str, train))}\n"
            f"test: {' '.join(map(str, test))}\n")
        assert run(["dists", "--dataset", data / "docs.txt", "--embeddings",
                    workspace / "emb.txt", "--method", "wmd,bow", "--clean",
                    "--workers", "1", "--out", tmp_path / "out",
                    "--cache-dir", cache]) == 0

    keeps_5 = ([0, 1, 2, 3, 5, 6, 7, 10], [4, 8, 9, 11])
    dists([0, 1, 2, 3, 6, 7, 9, 10], [4, 5, 8, 11], tmp_path / "shared")
    dists(*keeps_5, tmp_path / "shared")
    dists(*keeps_5, tmp_path / "cold")
    cold = _files(tmp_path / "cold")
    assert len(cold) == 2
    shared = _files(tmp_path / "shared")
    assert {name: shared.get(name) for name in cold} == cold


def test_eval_solves_only_the_pairs_its_folds_read(workspace, tmp_path,
                                                  monkeypatch):
    solves = _count_solves(monkeypatch)
    args = base_args(workspace, tmp_path / "run", ["--method", "wmd"])
    assert run(args) == 0
    solved = len(solves)
    reads, reps, embeddings = _search_inputs(args)
    searched = reference_search.search(reads, reps, embeddings)
    read = set().union(*map(_read_pairs, reads))
    cfg = build_config(make_parser().parse_args([str(a) for a in args]))
    every = set().union(*(
        _read_pairs({a: fold.train_ids for a in (*fold.train_ids,
                                                 *fold.test_ids)})
        for fold in cli.build_pipeline(cfg).corpus.folds))
    # each row solves only what proves its k nearest
    assert solved == len(searched) < len(read) < len(every)
    assert set(searched) <= read


@pytest.mark.parametrize("classifier", ["knn", "wknn"])
def test_eval_after_dists_computes_nothing_and_reports_the_same(
        workspace, tmp_path, classifier):
    # two folds; document 46 is unusable under the transport methods
    extra = ["--method", "bow(l1,l1),tfidf(l2,l2),wmd,wmd-tfidf",
             "--classifier", classifier]
    assert run(base_args(workspace, tmp_path / "cold", extra)) == 0
    filled = base_args(workspace, tmp_path / "filled", extra)
    assert run(["dists", *filled[1:]]) == 0
    # dists stored every document against each fold's training documents
    assert run([*filled, "--no-compute"]) == 0
    for name in ("report.csv", "summary.json"):
        assert (tmp_path / "cold" / name).read_bytes() == \
            (tmp_path / "filled" / name).read_bytes()


def test_each_pair_solved_once_across_eval_and_analyze(workspace, tmp_path,
                                                        monkeypatch):
    solves = _count_solves(monkeypatch)
    inputs = ["--dataset", workspace / "docs.txt", "--embeddings",
              workspace / "emb.txt", "--folds", "2", "--seed", "1",
              "--workers", "1", "--cache-dir", tmp_path / "cache"]
    eval_args = ["eval", "--method", "wmd", "--out", tmp_path / "eval",
                 *inputs]
    assert run(eval_args) == 0
    solved_by_eval = len(solves)
    assert solved_by_eval == len(reference_search.search(*_search_inputs(
        eval_args)))
    solves.clear()
    # analyze solves every other pair of the matrix it reads, and bounds
    # count as missing there
    analyze = ["analyze", "--pairs", "30", "--dims", "3,8",
               "--out", tmp_path / "an", *inputs]
    assert run(analyze) == 0
    # 46 usable documents (46 has no embedded word): the leave-one-out
    # histogram solves one plan per document, and --dims 3 one per distinct
    # sampled pair; the full dimension 8 reuses the scatter's distances
    usable = 46
    with open(tmp_path / "an" / "scatter.csv") as fh:
        assert len(fh.readlines()) == 31
    cfg = build_config(make_parser().parse_args([str(a) for a in analyze]))
    pipe = cli.build_pipeline(cfg)
    measures = {i: m for i, m in representations(
        list(pipe.resources.counts), Method.parse("wmd"),
        pipe.resources).items() if m is not None}
    assert len(measures) == usable
    sampled = sample_document_pairs(sorted(measures), 30, 1)
    extra = usable + len(set(sampled))
    assert solved_by_eval + len(solves) == usable * (usable - 1) // 2 + extra
    solves.clear()
    assert run(analyze) == 0
    assert len(solves) == extra


def test_cross_split_analyze_fills_the_pairs_its_scatter_reads(
        workspace, tmp_path, monkeypatch, capsys):
    # one fold: dists stores every document against the training
    # documents, and no pair of two test documents, which the scatter reads
    inputs = ["--dataset", workspace / "docs.txt", "--embeddings",
              workspace / "emb.txt", "--folds", "1", "--seed", "2",
              "--workers", "1", "--cache-dir", tmp_path / "cache"]
    assert run(["dists", "--method", "wmd", "--out", tmp_path / "dists",
                *inputs]) == 0
    store, = (tmp_path / "cache").iterdir()
    analyze = ["analyze", "--pairs", "200", *inputs]
    cfg = build_config(make_parser().parse_args([str(a) for a in analyze]))
    pipe = cli.build_pipeline(cfg)
    fold, = pipe.corpus.folds
    ids = list(pipe.corpus.ids())
    reps = representations(ids, Method.parse("wmd"), pipe.resources)
    usable = sorted(d for d in ids if reps[d] is not None)
    sampled = sample_document_pairs(usable, 200, 2)
    # the read cells that hold no distance: a repeated pair is one cell, a
    # pair and its reverse are two
    lacking = {p for p in sampled if set(p) <= set(fold.test_ids)}
    unordered = {(min(p), max(p)) for p in lacking}
    assert sum(set(p) <= set(fold.test_ids) for p in sampled) \
        > len(lacking) > len(unordered) > 1
    capsys.readouterr()
    assert run([*analyze, "--no-compute", "--out", tmp_path / "a"]) == 1
    assert f"missing cache: {store.name} lacks {len(lacking)} distance(s)" \
        in capsys.readouterr().err
    solves = _count_solves(monkeypatch)
    assert run([*analyze, "--out", tmp_path / "b"]) == 0
    # the histogram solves one plan per usable training document
    histogram = sum(reps[d] is not None for d in fold.train_ids)
    assert len(solves) == histogram + len(unordered)
    values = read_distance_matrix(store, ids).values
    for a, b in unordered:
        got = values[condensed_index(len(ids), ids.index(a), ids.index(b))]
        want = wmd_distance(reps[a], reps[b], pipe.store)
        assert np.float64(got).view(np.int64) == \
            np.float64(want).view(np.int64)
    solves.clear()
    assert run([*analyze, "--no-compute", "--out", tmp_path / "c"]) == 0
    assert len(solves) == histogram
    for name in ("transport_histogram.csv", "scatter.csv",
                 "scatter_pearson.json"):
        assert (tmp_path / "b" / name).read_bytes() == \
            (tmp_path / "c" / name).read_bytes()


@pytest.mark.parametrize("folds", ["1", "2"])
def test_warm_analyze_computes_no_matrix(workspace, tmp_path, monkeypatch,
                                         folds):
    # one fold: cross-split; two: leave-one-out
    calls = []
    real = cli.pairwise_distances
    monkeypatch.setattr(cli, "pairwise_distances",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    args = ["analyze", "--dataset", workspace / "docs.txt", "--embeddings",
            workspace / "emb.txt", "--folds", folds, "--seed", "3",
            "--pairs", "30", "--workers", "1", "--out", tmp_path / "run"]
    assert run(args) == 0
    assert calls
    calls.clear()
    assert run(args) == 0
    assert not calls


def test_degenerate_analyze_names_its_series_and_writes_no_analysis_file(
        tmp_path, capsys):
    # no two documents share a word: every bow_l1l1 distance is 2
    (tmp_path / "docs.txt").write_text("a\tw0\nb\tw1\nc\tw2\n")
    (tmp_path / "emb.txt").write_text("w0 1 0\nw1 0 1\nw2 -1 0\n")
    out = tmp_path / "out"
    assert run(["analyze", "--dataset", tmp_path / "docs.txt",
                "--embeddings", tmp_path / "emb.txt", "--pairs", "3",
                "--workers", "1", "--out", out,
                "--cache-dir", tmp_path / "cache"]) == 1
    assert "error: scatter.csv: bow_l1l1 is constant over 3 pairs\n" \
        in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_constant_dims_series_names_its_dimension(workspace, tmp_path,
                                                  capsys, monkeypatch):
    # every projected transport distance the same
    monkeypatch.setattr(cli.analysis, "pair_distances",
                        lambda pairs, *args: np.full(len(pairs), 0.5))
    out = tmp_path / "out"
    assert run(["analyze", "--dataset", workspace / "docs.txt",
                "--embeddings", workspace / "emb.txt", "--folds", "2",
                "--pairs", "20", "--dims", "8,2", "--workers", "1",
                "--out", out, "--cache-dir", tmp_path / "cache"]) == 1
    assert "error: dim_comparison.csv: wmd at dim 2 is constant over 20 " \
        "pairs\n" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


def test_stored_transport_cells_are_solved_from_the_lower_id(workspace,
                                                             tmp_path):
    out = tmp_path / "run"
    args = ["dists", "--dataset", workspace / "docs.txt", "--embeddings",
            workspace / "emb.txt", "--folds", "2", "--seed", "1",
            "--workers", "2", "--method", "wmd,wmd-tfidf", "--out", out]
    assert run(args) == 0
    cfg = build_config(make_parser().parse_args([str(a) for a in args]))
    pipe = cli.build_pipeline(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    ids = list(pipe.corpus.ids())
    for spec in ("wmd", "wmd-tfidf"):
        method = Method.parse(spec)
        stored = DistanceCache(out / "cache").get(
            _cache_key(cfg, manifest, method, ids), ids)
        reps = representations(ids, method, pipe.resources)
        checked = 0
        for i, a in enumerate(ids):
            for j, b in enumerate(ids[i + 1:], i + 1):
                got = stored.values[condensed_index(len(ids), i, j)]
                if np.isnan(got):
                    continue  # a pair neither fold reads
                if reps[a] is None or reps[b] is None:
                    assert got == np.inf
                    continue
                want = wmd_distance(reps[a], reps[b], pipe.store)
                assert np.float64(got).view(np.int64) == \
                    np.float64(want).view(np.int64)
                checked += 1
        assert checked > 900


def test_caches_opened_together_keep_every_entry(tmp_path):
    first, second = DistanceCache(tmp_path), DistanceCache(tmp_path)
    a = PairStore((0, 1, 2), np.array([0.5, np.nan, 0.0]))
    b = PairStore((3, 4), np.array([np.inf]))
    first.put("a" * 64, a)
    second.put("b" * 64, b)
    fresh = DistanceCache(tmp_path)
    for key, pairs in (("a" * 64, a), ("b" * 64, b)):
        got = fresh.get(key, pairs.ids)
        assert got.ids == pairs.ids
        assert got.values.tobytes() == pairs.values.tobytes()
    assert fresh.get("c" * 64, (0, 1)) is None
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["a" * 64 + ".npy", "b" * 64 + ".npy"]
    # a later put over the same key keeps the pairs the file holds
    second.put("a" * 64, PairStore((0, 1, 2), np.array([np.nan, 2.0, 0.0])))
    assert fresh.get("a" * 64, a.ids).values.tolist() == [0.5, 2.0, 0.0]


def test_concurrent_writers_lose_no_entry(tmp_path):
    # three processes (more than the cores this was sized on) write 100
    # stores each, and one shared key, into the same cache directory; a
    # shared index lost about a third of the entries this way
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from pathlib import Path\n"
        "from wmdlab.cli import DistanceCache\n"
        "from wmdlab.wmd import PairStore\n"
        "w = int(sys.argv[2])\n"
        "cache = DistanceCache(Path(sys.argv[1]))\n"
        "for i in range(100):\n"
        "    cache.put(f'{w}-{i}', PairStore((w, i + 3), np.array([i / 8])))\n"
        "    cache.put('shared', PairStore((0, 1), np.array([i / 8 + w])))\n"
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
            pairs = fresh.get(f"{w}-{i}", (w, i + 3))
            assert pairs.ids == (w, i + 3)
            assert pairs.values.tolist() == [i / 8]
    # the shared key holds one whole store that one of the writers put
    shared = fresh.get("shared", (0, 1)).values.tolist()
    assert len(shared) == 1
    assert shared[0] in {i / 8 + w for w in range(3) for i in range(100)}
    assert len(list(tmp_path.iterdir())) == 301


def test_concurrent_fills_of_one_store(workspace, tmp_path):
    # two runs fill different folds' pairs of one shared store at once;
    # each may lose the other's fills, but never writes a partial file or
    # a wrong value, and a third run completes the store
    def data_dir(name, train, test):
        d = tmp_path / name
        d.mkdir()
        (d / "docs.txt").write_bytes((workspace / "docs.txt").read_bytes())
        (d / "docs.fold0.txt").write_text(
            f"train: {' '.join(map(str, train))}\n"
            f"test: {' '.join(map(str, test))}\n")
        return d / "docs.txt"

    def dists(dataset, out, cache):
        return ["dists", "--dataset", dataset, "--embeddings",
                workspace / "emb.txt", "--method", "wmd", "--workers", "1",
                "--out", out, "--cache-dir", cache]

    halves = (data_dir("a", range(23), range(23, 47)),
              data_dir("b", range(23, 47), range(23)))
    everything = data_dir("c", range(1, 47), [0])
    shared = tmp_path / "shared"
    script = ("import sys\nfrom wmdlab import cli\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    procs = [subprocess.Popen(
        [sys.executable, "-c", script,
         *map(str, dists(d, tmp_path / f"out{k}", shared))], env=env,
        stderr=subprocess.DEVNULL) for k, d in enumerate(halves)]
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    assert run(dists(everything, tmp_path / "solo", tmp_path / "solo-cache")) \
        == 0
    solo, = (tmp_path / "solo-cache").iterdir()
    whole = read_distance_matrix(solo, range(47)).values
    assert not np.isnan(whole).any()
    store, = shared.iterdir()
    assert store.name == solo.name
    values = read_distance_matrix(store, range(47)).values
    filled = ~np.isnan(values)
    assert filled.sum() > 0
    assert values[filled].tobytes() == whole[filled].tobytes()
    assert run(dists(everything, tmp_path / "third", shared)) == 0
    assert store.read_bytes() == solo.read_bytes()


def _python_here(script, *args, cwd=None, hash_seed=None):
    """Run ``script`` in a fresh interpreter that imports this wmdlab, with
    ``PYTHONHASHSEED`` set to ``hash_seed`` when given."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


SCIPY_LOADED = ("any(m.split('.')[0] == 'scipy' for m in sys.modules)")


def test_cli_import_leaves_scipy_unloaded():
    assert _python_here(f"import sys, wmdlab.cli; print({SCIPY_LOADED})") \
        == ["False"]


# `eval` and `analyze` with a pool of 2 workers, run in the current
# directory. Workers are forked, except in mode "spawn", where they start
# from a fresh interpreter and receive the embedding store pickled; mode
# "no-scipy" makes every import of SciPy fail, in the workers too.
TRANSPORT_COMMANDS = (
    "import multiprocessing, sys\n"
    "ws, mode = sys.argv[1:]\n"
    "if mode == 'no-scipy':\n"
    "    sys.modules['scipy'] = None\n"
    "multiprocessing.set_start_method('spawn' if mode == 'spawn'\n"
    "                                 else 'fork')\n"
    "from wmdlab import cli\n"
    "inputs = ['--dataset', ws + '/docs.txt', '--embeddings', ws + '/emb.txt',\n"
    "          '--workers', '2', '--cache-dir', 'cache']\n"
    "assert cli.main(['eval', '--method', 'wmd', '--folds', '2',\n"
    "                 '--out', 'eval', *inputs]) == 0\n"
    "assert cli.main(['analyze', '--folds', '1', '--pairs', '20',\n"
    "                 '--dims', '3', '--out', 'analyze', *inputs]) == 0\n"
    f"print({SCIPY_LOADED})\n"
)


def _transport_run(workspace, cwd, mode, hash_seed=None):
    """Every file the commands wrote, and whether SciPy was loaded."""
    cwd.mkdir()
    loaded = _python_here(TRANSPORT_COMMANDS, workspace, mode, cwd=cwd,
                          hash_seed=hash_seed)
    return _files(cwd), loaded


@pytest.fixture(scope="module")
def fork_run(workspace, tmp_path_factory):
    return _transport_run(workspace, tmp_path_factory.mktemp("fork") / "run",
                          "fork")


def test_no_command_loads_scipy(fork_run):
    files, loaded = fork_run
    assert loaded == ["False"]
    assert {p.parts[0] for p in files} == {"eval", "analyze", "cache"}


def test_outputs_identical_with_scipy_import_blocked(workspace, tmp_path,
                                                     fork_run):
    files, _ = _transport_run(workspace, tmp_path / "run", "no-scipy")
    assert files == fork_run[0]


def test_spawned_workers_give_the_forked_workers_outputs(workspace, tmp_path,
                                                         fork_run):
    files, _ = _transport_run(workspace, tmp_path / "run", "spawn")
    assert files == fork_run[0]


def test_outputs_do_not_depend_on_string_hash_order(workspace, tmp_path):
    # a set of words iterates in an order that PYTHONHASHSEED picks
    one, _ = _transport_run(workspace, tmp_path / "one", "fork", hash_seed=1)
    two, _ = _transport_run(workspace, tmp_path / "two", "fork", hash_seed=2)
    assert {p.parts[0] for p in one} == {"eval", "analyze", "cache"}
    assert any(p.suffix == ".npy" for p in one)
    assert one == two


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


def test_project_fits_without_stopwords(workspace, tmp_path):
    stopwords = tmp_path / "stop.txt"
    stopwords.write_text("w0\nw11\nw25\n")
    out_file = tmp_path / "proj.txt"
    assert run(["project", "--embeddings", workspace / "emb.txt",
                "--dataset", workspace / "docs.txt", "--stopwords", stopwords,
                "--target-dim", "3", "--out-file", out_file]) == 0
    store = l2_normalize(load_embeddings(str(workspace / "emb.txt"), TEXT))
    corp = filter_vocabulary(load_corpus(str(workspace / "docs.txt")), store,
                             stopwords={"w0", "w11", "w25"})
    fit_vocab = build_vocabulary([d.tokens for d in corp.documents]).words
    assert "w0" not in fit_vocab and "w1" in fit_vocab
    want = project_pca(store, 3, fit_vocab)
    got = load_embeddings(str(out_file), TEXT)
    assert got.tokens == want.tokens
    assert got.matrix.tobytes() == want.matrix.tobytes()
    # without a corpus, the fit takes every word of the file but those
    assert run(["project", "--embeddings", workspace / "emb.txt",
                "--stopwords", stopwords, "--target-dim", "3",
                "--out-file", out_file]) == 0
    want = project_pca(store, 3, [t for t in store.tokens
                                  if t not in {"w0", "w11", "w25"}])
    got = load_embeddings(str(out_file), TEXT)
    assert got.matrix.tobytes() == want.matrix.tobytes()


@pytest.mark.parametrize("renormalize", [[], ["--renormalize"]])
def test_project_refuses_an_all_zero_projection(tmp_path, capsys,
                                                renormalize):
    # the 1-d projection of d is exactly 0: the file would hold a row no
    # command reads back, and with --renormalize it cannot be unit-normed
    emb = tmp_path / "emb.txt"
    emb.write_text("a 1 0\nb -1 0\nd 0 1\n")
    out_file = tmp_path / "proj" / "p.txt"
    assert run(["project", "--embeddings", emb, "--target-dim", "1",
                "--out-file", out_file, *renormalize]) == 1
    assert capsys.readouterr().err == \
        "error: all-zero projected vector for 'd'\n"
    assert not out_file.parent.exists()


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


@pytest.mark.parametrize("flag, value", [("--seed", "-1"),
                                         ("--workers", "-3")])
def test_negative_seed_or_workers_rejected(workspace, tmp_path, capsys, flag,
                                           value):
    assert run(base_args(workspace, tmp_path / "x", [flag, value])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


def test_zero_workers_uses_cpus_this_process_may_run_on(monkeypatch):
    # pinned to 2 of the machine's 64 CPUs (taskset, a cpuset container)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert RunConfig(workers=0).effective_workers() == 2
    assert RunConfig(workers=5).effective_workers() == 5
    monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS
    assert RunConfig(workers=0).effective_workers() == 64


def test_negative_seed_in_config_file_rejected(workspace, tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed = -1\n")
    assert run(["eval", "--config", cfg_path, "--dataset",
                workspace / "docs.txt", "--out", tmp_path / "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed" in err


def test_config_file_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("not_a_key = 1\n")
    with pytest.raises(ParseError):
        read_config_file(str(p))


@pytest.mark.parametrize("key, value", [("classifier", "wknnn"),
                                        ("format", "word2vec")])
def test_config_file_choices_checked_before_any_work(workspace, tmp_path,
                                                     capsys, key, value):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"methods = wmd\n{key} = {value}\n")
    out = tmp_path / "run"
    assert run(base_args(workspace, out, ["--config", cfg_path])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"line 2: {key} must be one of " in err and repr(value) in err
    assert not list(tmp_path.rglob("*.npy"))
    assert not list(tmp_path.rglob("manifest.json"))


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
    assert capsys.readouterr().err == \
        f"error: {padded}: line 3032: all-zero vector for 'unused'\n"


def test_embedding_error_reported_before_corpus_error(workspace, tmp_path,
                                                      capsys):
    bad_corpus = tmp_path / "docs.txt"
    bad_corpus.write_text("no tab here\n")
    args = base_args(workspace, tmp_path / "x")
    args[args.index("--dataset") + 1] = bad_corpus
    assert run(args) == 1
    assert "no TAB separator" in capsys.readouterr().err
    padded = pad_embeddings(workspace, tmp_path / "padded.txt",
                            extra="unused" + " 0.0" * 8 + "\n")
    args[args.index("--embeddings") + 1] = padded
    assert run(args) == 1
    assert capsys.readouterr().err == \
        f"error: {padded}: line 3032: all-zero vector for 'unused'\n"


# -- the parser and config keys RunConfig declares ------------------------------

# (option strings, dest, type, choices, const, nargs, help) of every action,
# with default None unless noted, as the parser stood before its flags were
# derived from RunConfig's fields
_COMMON_ACTIONS = [
    (("-h", "--help"), "help", None, None, None, 0,
     "show this help message and exit"),
    (("--config",), "config", None, None, None, None,
     "key = value configuration file"),
    (("--dataset",), "dataset", None, None, None, None,
     "corpus file (label TAB tokens per line)"),
    (("--embeddings",), "embeddings", None, None, None, None,
     "embedding file"),
    (("--format",), "format", None, ("text", "word2vec-binary"), None, None,
     "embedding file format"),
    (("--method",), "methods", None, None, None, None,
     "comma list, e.g. 'bow(l1,l1),wmd'"),
    (("--classifier",), "classifier", None, ("knn", "wknn"), None, None, None),
    (("--clean",), "clean", None, None, True, 0,
     "remove duplicate documents before evaluating"),
    (("--keep-oov",), "keep_oov", None, None, True, 0,
     "keep words missing from the embeddings"),
    (("--stopwords",), "stopwords", None, None, None, None,
     "stopword file, one token per line"),
    (("--dims",), "dims", None, None, None, None,
     "comma list of projection dimensions"),
    (("--seed",), "seed", int, None, None, None, None),
    (("--workers",), "workers", int, None, None, None, None),
    (("--out",), "out", None, None, None, None, "output directory"),
    (("--no-compute",), "no_compute", None, None, True, 0,
     "fail instead of computing missing caches"),
    (("--folds",), "folds", int, None, None, None,
     "random folds to generate when the corpus has none"),
    (("--train-fraction",), "train_fraction", float, None, None, None, None),
    (("--bin-width",), "bin_width", float, None, None, None, None),
    (("--pairs",), "pairs", int, None, None, None,
     "sampled pairs for scatter/dims"),
    (("--cache-dir",), "cache_dir", None, None, None, None, "cache directory"),
]
_PROJECT_ACTIONS = [
    (("--target-dim",), "target_dim", int, None, None, None, None),
    (("--out-file",), "out_file", None, None, None, None,
     "path of the projected embedding file"),
    (("--renormalize",), "renormalize", None, None, True, 0,
     "re-apply unit L2 norm after projection"),
]
_COMMAND_HELP = [
    ("dists", "compute and cache every document's distances to each fold's "
              "training documents"),
    ("eval", "tune and evaluate classifiers"),
    ("dedup", "report and remove duplicate documents"),
    ("analyze", "histograms, scatter, and dimension sweep"),
    ("project", "PCA-project an embedding file"),
]


def test_parser_matches_its_snapshot():
    sub = next(a for a in make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [(a.dest, a.help) for a in sub._choices_actions] == _COMMAND_HELP
    assert list(sub.choices) == [name for name, _ in _COMMAND_HELP]
    for name, parser in sub.choices.items():
        expected = _COMMON_ACTIONS + (_PROJECT_ACTIONS if name == "project"
                                      else [])
        actual = [(tuple(a.option_strings), a.dest, a.type,
                   None if a.choices is None else tuple(a.choices), a.const,
                   a.nargs, a.help) for a in parser._actions]
        assert actual == expected, name
        assert [a.default for a in parser._actions] \
            == [argparse.SUPPRESS] + [None] * (len(expected) - 1)


def test_config_file_keys_are_the_run_config_fields(tmp_path):
    names = [f.name for f in dataclasses.fields(RunConfig)]
    p = tmp_path / "all.cfg"
    p.write_text("".join(f"{n} = {v}\n" for n, v in zip(
        names, (str(getattr(RunConfig(), n)) for n in names))))
    assert list(read_config_file(str(p))) == names
    for key in ("config", "method", "command", "help"):
        p.write_text(f"{key} = x\n")
        with pytest.raises(ParseError, match="unknown key"):
            read_config_file(str(p))
