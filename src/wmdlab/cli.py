"""Command-line entry point: reproducible distance, evaluation, and analysis runs.

The subcommands are the ``_COMMANDS`` functions. Each option is a
``RunConfig`` field, set from an optional ``key = value`` file plus flags;
flags win. Every run writes a manifest recording the resolved
configuration, the seed, and content hashes of the inputs: of the corpus
and stopword files, and of the embedding rows the run read, not the
embedding file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import typing
from collections.abc import Collection
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, analysis, corpus as corpus_mod, knn_eval, wmd
from .embeddings import (
    TEXT,
    EmbeddingStore,
    WORD2VEC_BINARY,
    l2_normalize,
    load_embeddings,
    project_pca,
)
from .errors import DegenerateInput, ParseError, WmdlabError, text_lines
from .textrep import bow_vector, build_vocabulary, document_frequencies
# unused here; perfbench/tracer.py rebinds them at these names
from .textrep import normalize, vector_distance  # noqa: F401
from .wmd import Method, PairStore, Resources, pairwise_distances, \
    merge_distance_matrix, read_distance_matrix, write_distance_matrix

logger = logging.getLogger("wmdlab")

DEFAULT_METHODS = "bow(l1,l1),wmd"
BASE_METHOD = "bow(l1,l1)"


class CliError(WmdlabError):
    pass


def _option(default, help=None, *, flag=None, choices=None, bound=None,
            command=None):
    """A ``RunConfig`` field and its option: the flag, when not the field's
    name; a ``(test, text)`` bound; the one subcommand, when not all."""
    return field(default=default, metadata={
        "help": help, "flag": flag, "choices": choices, "bound": bound,
        "command": command})


def _at_least(low: int):
    return (lambda v: v >= low), f">= {low}"


def _flag(f: Field) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


@dataclass
class RunConfig:
    dataset: str | None = _option(
        None, "corpus file (label TAB tokens per line)")
    embeddings: str | None = _option(None, "embedding file")
    format: str = _option(TEXT, "embedding file format",
                          choices=(TEXT, WORD2VEC_BINARY))
    methods: str = _option(DEFAULT_METHODS,
                           f"comma list, e.g. {DEFAULT_METHODS!r}",
                           flag="--method")
    classifier: str = _option(knn_eval.KNN,
                              choices=(knn_eval.KNN, knn_eval.WKNN))
    clean: bool = _option(False, "remove duplicate documents before evaluating")
    keep_oov: bool = _option(False, "keep words missing from the embeddings")
    stopwords: str | None = _option(None, "stopword file, one token per line")
    dims: str = _option("", "comma list of projection dimensions")
    seed: int = _option(0, bound=_at_least(0))
    # 0 -> the CPUs this process may run on
    workers: int = _option(0, bound=_at_least(0))
    out: str = _option("runs", "output directory")
    no_compute: bool = _option(False, "fail instead of computing missing "
                                      "caches")
    folds: int = _option(1, "random folds to generate when the corpus has "
                            "none", bound=_at_least(1))
    train_fraction: float = _option(
        0.7, bound=(lambda v: 0 < v < 1, "in (0, 1)"))
    # analyze's word distances are at most 2.0, the unit sphere's diameter
    bin_width: float = _option(
        0.02, bound=(lambda v: 2.0 / analysis.MAX_BINS <= v < math.inf,
                     f"finite and >= 2**{2 - analysis.MAX_BINS.bit_length()}"
                     f" (2**{analysis.MAX_BINS.bit_length() - 1} bins reach "
                     "distance 2)"))
    pairs: int = _option(200, "sampled pairs for scatter/dims",
                         bound=_at_least(2))
    cache_dir: str | None = _option(None, "cache directory")
    target_dim: int = _option(5, bound=_at_least(1), command="project")
    out_file: str | None = _option(
        None, "path of the projected embedding file", command="project")
    renormalize: bool = _option(
        False, "re-apply unit L2 norm after projection", command="project")

    def method_list(self) -> list[Method]:
        # split on commas outside parentheses: "bow(l1,l1),wmd" is 2 methods
        specs, depth, cur = [], 0, []
        for ch in self.methods:
            if ch == "," and depth == 0:
                specs.append("".join(cur))
                cur = []
                continue
            depth += ch == "("
            depth -= ch == ")"
            cur.append(ch)
        specs.append("".join(cur))
        specs = [s.strip() for s in specs if s.strip()]
        if not specs:
            raise CliError("empty method list")
        # a method named twice, e.g. as bow and bow(l1,l1), runs once
        return list(dict.fromkeys(Method.parse(s) for s in specs))

    def dim_list(self) -> list[int]:
        if not self.dims:
            return []
        try:
            # a dimension named twice runs once
            return list(dict.fromkeys(
                int(d) for d in self.dims.split(",") if d.strip()))
        except ValueError as exc:
            raise CliError(f"bad --dims value: {exc}") from None

    def effective_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        affinity = getattr(os, "sched_getaffinity", None)  # not on macOS
        return len(affinity(0)) if affinity else (os.cpu_count() or 1)

    def resolved_cache_dir(self) -> Path:
        if self.cache_dir:
            return Path(self.cache_dir)
        return Path(self.out) / "cache"


def read_config_file(path: str) -> dict[str, object]:
    """Parse a flat ``key = value`` file (# starts a comment); each key is
    a ``RunConfig`` field, and its value takes the field's type."""
    values: dict[str, object] = {}
    types = typing.get_type_hints(RunConfig)
    options = {f.name: f for f in fields(RunConfig)}
    for lineno, raw in text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip().strip('"').strip("'")
        if not sep or not key:
            raise ParseError("expected key = value", path, lineno)
        if key not in options:
            raise ParseError(f"unknown key {key!r}", path, lineno)
        kind, choices = types[key], options[key].metadata["choices"]
        if kind is bool:
            if value.lower() not in ("true", "false", "1", "0"):
                raise ParseError(f"bad boolean {value!r}", path, lineno)
            values[key] = value.lower() in ("true", "1")
        elif kind in (int, float):
            try:
                values[key] = kind(value)
            except ValueError:
                raise ParseError(f"bad {kind.__name__} {value!r}", path,
                                 lineno) from None
        elif choices and value not in choices:
            raise ParseError(f"{key} must be one of {', '.join(choices)}, "
                             f"got {value!r}", path, lineno)
        else:
            values[key] = value
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by explicit flags;
    each value is checked against its option's bound before any input file
    is read."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
        value, bound = getattr(cfg, f.name), f.metadata["bound"]
        if bound and not bound[0](value):
            raise CliError(f"{_flag(f)} must be {bound[1]}, got {value}")
    return cfg


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _rows_sha256(store: EmbeddingStore) -> str:
    """The SHA-256 of ``store``'s tokens and rows, encoded as: the dim and
    the row count n as little-endian uint64; the UTF-8 byte length of each
    token, in store order, as n little-endian uint64; those tokens' bytes
    back to back; the n x dim matrix as row-major little-endian float64."""
    tokens = list(map(str.encode, store.tokens))
    h = hashlib.sha256(np.array([store.dim, len(tokens)], "<u8"))
    h.update(np.fromiter(map(len, tokens), "<u8", len(tokens)))
    h.update(b"".join(tokens))
    h.update(np.ascontiguousarray(store.matrix, "<f8"))
    return h.hexdigest()


def _config_dict(cfg: RunConfig) -> dict:
    return {k: getattr(cfg, k) for k in sorted(RunConfig.__dataclass_fields__)}


def write_manifest(cfg: RunConfig, out_dir: Path,
                   embeddings_sha256: str | None) -> dict:
    """Write ``manifest.json``. ``embeddings_sha256`` is the SHA-256 of
    the embedding rows the run read, as ``_rows_sha256`` encodes them
    before unit-norm scaling (None without embeddings): two files that
    differ only in rows no document uses share a manifest, and so the
    cache keys built from it. The corpus and stopword entries are the
    SHA-256 of their files."""
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "config": _config_dict(cfg),
        "inputs": {"embeddings": embeddings_sha256},
    }
    for name in ("dataset", "stopwords"):
        path = getattr(cfg, name)
        manifest["inputs"][name] = _sha256(path) if path else None
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# -- pipeline ------------------------------------------------------------------


@dataclass
class Pipeline:
    cfg: RunConfig
    corpus: corpus_mod.Corpus
    store: object
    resources: Resources
    embeddings_sha256: str | None


def build_pipeline(cfg: RunConfig, need_store: bool = True) -> Pipeline:
    if not cfg.dataset:
        raise CliError("--dataset is required")
    if not cfg.embeddings and need_store:
        raise CliError("--embeddings is required for this command")
    if need_store and cfg.keep_oov:
        raise CliError(
            "--keep-oov only applies to bow/tfidf methods: out-of-vocabulary "
            "words have no embedding to transport"
        )
    corp, store, embeddings_sha256 = _filtered_corpus(cfg)
    if cfg.clean:
        corp = corpus_mod.deduplicate(corp, corpus_mod.find_duplicates(corp))
    if not corp.folds:
        corp = corpus_mod.make_folds(corp, cfg.folds, cfg.train_fraction,
                                     cfg.seed)
    docs = corp.tokens_by_id()
    vocab = build_vocabulary(list(docs.values()))
    df = document_frequencies(docs.values(), vocab)
    counts = {i: bow_vector(doc, vocab) for i, doc in docs.items()}
    resources = Resources(counts=counts, vocab=vocab, store=store,
                          doc_freq=df, n_docs=len(docs),
                          workers=cfg.effective_workers())
    return Pipeline(cfg=cfg, corpus=corp, store=store, resources=resources,
                    embeddings_sha256=embeddings_sha256)


def _filtered_corpus(cfg: RunConfig) -> tuple[
        corpus_mod.Corpus, EmbeddingStore | None, str | None]:
    """``cfg.dataset`` without its stopwords and (unless ``keep_oov``) its
    words missing from ``cfg.embeddings``, the unit-norm embeddings of the
    corpus's words, stopwords included, and the ``_rows_sha256`` of those
    rows as loaded (both None without embeddings)."""
    corp = _load_corpus(cfg)
    store = digest = None
    if cfg.embeddings:
        vocabulary = {t for d in corp.documents for t in d.tokens}
        loaded = load_embeddings(cfg.embeddings, cfg.format, vocabulary)
        digest = _rows_sha256(loaded)
        store = l2_normalize(loaded)
    stopwords = _stopwords(cfg)
    if store is not None or stopwords:
        corp = corpus_mod.filter_vocabulary(
            corp, store, stopwords=stopwords,
            keep_oov=cfg.keep_oov or store is None,
        )
    return corp, store, digest


def _stopwords(cfg: RunConfig) -> frozenset[str]:
    return (corpus_mod.read_stopwords(cfg.stopwords) if cfg.stopwords
            else frozenset())


def _load_corpus(cfg: RunConfig) -> corpus_mod.Corpus:
    """Load ``cfg.dataset``. When that fails, a fault of ``cfg.embeddings``
    is raised instead, as whenever both inputs are broken: a load keeping
    no row reads the file once, and again to place a zero row."""
    try:
        return corpus_mod.load_corpus(cfg.dataset)
    except (WmdlabError, OSError, ValueError):
        if cfg.embeddings:
            _embeddings(cfg, vocabulary=frozenset())
        raise


def _embeddings(cfg: RunConfig, vocabulary: Collection[str] | None = None
                ) -> EmbeddingStore:
    """``cfg.embeddings`` loaded by ``load_embeddings`` and unit-normed."""
    return l2_normalize(load_embeddings(cfg.embeddings, cfg.format,
                                        vocabulary))


# -- distance caching ----------------------------------------------------------


def _cache_key(cfg: RunConfig, manifest: dict, method: Method,
               ids: list[int]) -> str:
    # one pair store per method over the documents ``ids``, which its file
    # does not hold: fold files, seed, folds and train fraction only choose
    # which pairs are read, except that --clean keeps each duplicate class's
    # member on a single fold file's training side
    payload = {
        "version": __version__,
        "inputs": manifest["inputs"],
        "format": cfg.format,
        "method": method.label,
        "clean": cfg.clean,
        "keep_oov": cfg.keep_oov,
        "ids": ids,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class DistanceCache:
    """Pair stores on disk, one ``<key>.npy`` file per cache key."""

    def __init__(self, directory: Path):
        self.directory = directory

    def get(self, key: str, ids: list[int]) -> PairStore | None:
        """The pair store cached under ``key`` over the documents ``ids``;
        None when missing or unreadable."""
        path = self.directory / f"{key}.npy"
        if not path.exists():
            return None
        try:
            pairs = read_distance_matrix(path, ids)
        except (ParseError, OSError) as exc:
            logger.warning("corrupted cache %s (%s); recomputing", path.name,
                           exc)
            return None
        logger.info("cache hit: %s", path.name)
        return pairs

    def put(self, key: str, pairs: PairStore) -> None:
        """Take into ``pairs`` the cells of the file on disk, a block at a
        time, as ``merge_distance_matrix`` takes them, then write a
        temporary sibling and rename it over the file: readers see the old
        file or the new one, never a partial one. A run renaming in between
        loses only fills, which are computed again."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{key}.npy"
        try:
            merge_distance_matrix(path, pairs)
        except (ParseError, OSError):
            pass  # no file yet, or a corrupt one to replace
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            write_distance_matrix(pairs, str(tmp))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _distances(pipe: Pipeline, cache: DistanceCache, manifest: dict,
               method: Method, queries: list[int], refs: list[int],
               read: np.ndarray | None = None,
               k: int | None = None) -> wmd.DistanceMatrix:
    """The ``queries`` x ``refs`` matrix of ``method`` from its pair store;
    the cells the store lacks are computed and stored first. Given
    ``read``, only its True cells are worked on and the others read +inf.
    Given ``k``, each row needs only its k nearest cells: they are proven
    from the store's distances and bounds, or found by the search of
    ``pairwise_distances``, and every other cell reads +inf."""
    ids = list(pipe.corpus.ids())
    key = _cache_key(pipe.cfg, manifest, method, ids)
    pairs = cache.get(key, ids) or PairStore.empty(ids)
    known = pairs.matrix(queries, refs)
    if read is not None:
        known[~read] = np.inf
    pending = ~(known >= 0)
    missing = int(pending[wmd.open_rows(known, k)].sum())
    if not missing:
        return wmd.DistanceMatrix(tuple(queries), tuple(refs),
                                  np.where(known >= 0, known, np.inf))
    if pipe.cfg.no_compute:
        raise CliError(f"missing cache: {key}.npy lacks {missing} "
                       "distance(s) and --no-compute is set")
    dm = pairwise_distances(queries, refs, method, pipe.resources, known, k)
    logger.info("computing %s (%d x %d cells: %d computed, %d bounded)",
                method.label, len(queries), len(refs),
                (pending & (known >= 0) & (known < np.inf)).sum(),
                (pending & (known < 0)).sum())
    if read is not None:
        known[~read] = np.nan
    pairs.update(queries, refs, known)
    cache.put(key, pairs)
    return dm


def _fold_matrices(cfg: RunConfig, every_row: bool = False):
    """Yield ``(pipe, fold_idx, method, split, matrix)`` per fold and
    method. ``split`` is the fold's labelled split with its validation ids
    carved out, and the matrix holds the rows that ``knn_eval.tune`` and
    ``knn_eval.evaluate`` read, the validation and test documents, against
    the fold's training documents. A transport matrix holds the k nearest
    cells that a vote reads, as ``_distances`` finds them: a validation
    row reads the training documents outside the validation set, a test
    row every training document. With ``every_row`` the split is None and
    the matrix holds every document's row, every cell exact."""
    methods = cfg.method_list()
    pipe = build_pipeline(cfg, need_store=any(m.uses_transport
                                              for m in methods))
    manifest = write_manifest(cfg, Path(cfg.out), pipe.embeddings_sha256)
    cache = DistanceCache(cfg.resolved_cache_dir())
    all_ids, labels = list(pipe.corpus.ids()), pipe.corpus.labels_by_id()
    for fold_idx, fold in enumerate(pipe.corpus.folds):
        split = None if every_row else knn_eval.make_validation_split(
            knn_eval.LabeledSplit(fold.train_ids, fold.test_ids, labels),
            0.2, seed=(cfg.seed, fold_idx))
        rows = all_ids if split is None else sorted(
            {*split.validation_ids, *split.test_ids})
        refs = list(fold.train_ids)
        read = None if split is None else ~(
            np.isin(rows, split.validation_ids)[:, None]
            & np.isin(refs, split.validation_ids)[None, :])
        for method in methods:
            search = read is not None and method.uses_transport
            yield pipe, fold_idx, method, split, _distances(
                pipe, cache, manifest, method, rows, refs,
                *((read, knn_eval.VOTE_K) if search else ()))


# -- subcommands ---------------------------------------------------------------


def cmd_dists(cfg: RunConfig) -> int:
    """compute and cache every document's distances to each fold's
    training documents"""
    for _ in _fold_matrices(cfg, every_row=True):
        pass
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    """tune and evaluate classifiers"""
    rows = []
    for pipe, fold_idx, method, split, dm in _fold_matrices(cfg):
        hp = knn_eval.tune(dm, split, cfg.classifier)
        result = knn_eval.evaluate(dm, split, cfg.classifier, hp)
        logger.info("%s fold %d %s: error %.2f%% (k=%d gamma=%s)",
                    pipe.corpus.name, fold_idx, method.label,
                    result.error_percent, hp.k, hp.gamma)
        rows.append({
            "dataset": pipe.corpus.name,
            "method": method.label,
            "norm": method.norm.value if method.norm else "",
            "metric": method.metric.value if method.metric else "",
            "classifier": cfg.classifier,
            "k": hp.k,
            "gamma": "" if hp.gamma is None else f"{hp.gamma:.3f}",
            "fold": fold_idx,
            "error_percent": f"{result.error_percent:.4f}",
            "excluded_docs": result.n_excluded,
        })
    out_dir = Path(cfg.out)
    knn_eval.write_report_csv(rows, str(out_dir / "report.csv"))
    base = BASE_METHOD if any(r["method"] == BASE_METHOD for r in rows) else None
    summary = knn_eval.summarize(rows, base_method=base)
    knn_eval.write_summary_json(summary, str(out_dir / "summary.json"))
    logger.info("wrote %s and %s", out_dir / "report.csv",
                out_dir / "summary.json")
    return 0


def cmd_dedup(cfg: RunConfig) -> int:
    """report and remove duplicate documents"""
    if not cfg.dataset:
        raise CliError("--dataset is required")
    out_dir = Path(cfg.out)
    corp, _, embeddings_sha256 = _filtered_corpus(cfg)
    write_manifest(cfg, out_dir, embeddings_sha256)
    report = corpus_mod.find_duplicates(corp)
    payload = {
        "dataset": corp.name,
        "n_documents": len(corp.documents),
        "n_pairs": report.n_pairs,
        "n_samples": report.n_samples,
        "pairs": [list(p) for p in report.pairs],
        "samples": list(report.samples),
        "cross_split": [list(p) for p in report.cross_split],
        "conflicting": [list(p) for p in report.conflicting],
    }
    report_path = out_dir / f"{corp.name}.duplicates.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    clean = corpus_mod.deduplicate(corp, report)
    clean_path = out_dir / f"{corp.name}.clean.txt"
    corpus_mod.write_corpus(clean, clean_path)
    logger.info("%d duplicate pairs, %d samples; wrote %s and %s",
                report.n_pairs, report.n_samples, report_path, clean_path)
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    """histograms, scatter, and dimension sweep"""
    dims = cfg.dim_list()
    pipe = build_pipeline(cfg, need_store=True)
    if not all(1 <= d <= pipe.store.dim for d in dims):
        raise CliError(f"--dims values must lie in [1, {pipe.store.dim}]")
    out_dir = Path(cfg.out)
    manifest = write_manifest(cfg, out_dir, pipe.embeddings_sha256)
    cache = DistanceCache(cfg.resolved_cache_dir())
    corp, res = pipe.corpus, pipe.resources

    wmd_method = Method.parse("wmd")
    if len(corp.folds) == 1:
        queries, refs = corp.folds[0].train_ids, corp.folds[0].test_ids
        mode = analysis.CROSS_SPLIT
    else:
        queries = refs = corp.ids()
        mode = analysis.LEAVE_ONE_OUT
    dm = _distances(pipe, cache, manifest, wmd_method, list(queries),
                    list(refs))
    measures = {i: m for i, m in wmd.representations(
        list(res.counts), wmd_method, res).items() if m is not None}
    bows = wmd.representations(list(measures), Method.parse(BASE_METHOD), res)
    # documents without a measure are unusable: their cells are all +inf
    dm_usable = dm.submatrix([r for r in dm.row_ids if r in measures],
                             [c for c in dm.col_ids if c in measures])
    nn_pairs = analysis.nearest_neighbor_pairs(dm_usable, mode)
    hist = analysis.transport_histogram(nn_pairs, measures, pipe.store,
                                        cfg.bin_width)

    pairs = analysis.sample_document_pairs(sorted(measures), cfg.pairs,
                                           cfg.seed)
    # the scatter reads its pairs' cells of (first ids) x (second ids)
    firsts, seconds = ({d: i for i, d in enumerate(sorted(set(ends)))}
                       for ends in zip(*pairs))
    cells = ([firsts[a] for a, _ in pairs], [seconds[b] for _, b in pairs])
    read = np.zeros((len(firsts), len(seconds)), dtype=bool)
    read[cells] = True
    wmds = _distances(pipe, cache, manifest, wmd_method, list(firsts),
                      list(seconds), read).values[cells].tolist()
    points = analysis.bow_wmd_scatter(pairs, bows, wmds)
    bow_l1 = [x for x, _ in points]
    # a constant series fails before any analysis file is written
    try:
        r = analysis.pearson(bow_l1, wmds, ("bow_l1l1", "wmd"))
    except DegenerateInput as exc:
        raise CliError(f"scatter.csv: {exc}") from None
    try:
        table = analysis.dim_comparison(
            pairs, bow_l1, measures, pipe.store, dims, res.vocab.words,
            res.workers, wmds) if dims else {}
    except DegenerateInput as exc:
        raise CliError(f"dim_comparison.csv: {exc}") from None

    analysis.write_histogram_csv(hist, str(out_dir / "transport_histogram.csv"))
    analysis.write_scatter_csv(points, str(out_dir / "scatter.csv"))
    with open(out_dir / "scatter_pearson.json", "w", encoding="utf-8") as fh:
        json.dump({"pearson": r, "n_pairs": len(points)}, fh, indent=2)
        fh.write("\n")
    if dims:
        with open(out_dir / "dim_comparison.csv", "w", encoding="utf-8") as fh:
            fh.write("dim,pearson\n")
            for d in dims:
                fh.write(f"{d},{table[d]:.17g}\n")
    logger.info("analysis outputs written to %s", out_dir)
    return 0


def cmd_project(cfg: RunConfig) -> int:
    """PCA-project an embedding file"""
    if not cfg.embeddings:
        raise CliError("--embeddings is required")
    if not cfg.out_file:
        raise CliError("--out-file is required")
    store = _embeddings(cfg)
    stopwords = _stopwords(cfg)
    if cfg.dataset:
        corp = corpus_mod.load_corpus(cfg.dataset)
        corp = corpus_mod.filter_vocabulary(corp, store, stopwords=stopwords)
        fit_vocab = build_vocabulary(
            [d.tokens for d in corp.documents]
        ).words
    else:
        fit_vocab = [t for t in store.tokens if t not in stopwords]
    projected = project_pca(store, cfg.target_dim, fit_vocab)
    # no reader takes a row whose squares are all zero: fail before writing
    zero = np.flatnonzero(~(projected.matrix ** 2).any(axis=1))
    if zero.size:
        raise CliError("all-zero projected vector for "
                       f"{projected.tokens[zero[0]]!r}")
    if cfg.renormalize:
        projected = l2_normalize(projected)
    out_path = Path(cfg.out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(projected)} {projected.dim}\n")
        for token, row in zip(projected.tokens, projected.matrix):
            fh.write(token + " " + " ".join(f"{v:.17g}" for v in row) + "\n")
    logger.info("wrote %s (%d tokens, dim %d)", out_path, len(projected),
                projected.dim)
    return 0


# -- argument parsing ----------------------------------------------------------


_COMMANDS = {
    "dists": cmd_dists,
    "eval": cmd_eval,
    "dedup": cmd_dedup,
    "analyze": cmd_analyze,
    "project": cmd_project,
}


def make_parser() -> argparse.ArgumentParser:
    """One subparser per ``_COMMANDS`` entry, helped by its docstring, with
    a flag per ``RunConfig`` field that the subcommand takes."""
    parser = argparse.ArgumentParser(
        prog="wmdlab",
        description="Document distances, nearest-neighbor evaluation, and "
                    "transport analyses.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    types = typing.get_type_hints(RunConfig)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=" ".join(command.__doc__.split()))
        p.add_argument("--config", help="key = value configuration file")
        for f in fields(RunConfig):
            meta, kind = f.metadata, types[f.name]
            if meta["command"] not in (None, name):
                continue
            kwargs = ({"action": "store_const", "const": True} if kind is bool
                      else {"type": kind if kind in (int, float) else None,
                            "choices": meta["choices"]})
            p.add_argument(_flag(f), dest=f.name, help=meta["help"], **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg)
    except (WmdlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
