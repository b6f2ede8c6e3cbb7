"""Command-line entry point: reproducible distance, evaluation, and analysis runs.

Subcommands:
  dists    compute and cache distance matrices per (fold, method)
  eval     tune + evaluate classifiers from the cached distances
  dedup    audit and remove duplicate documents
  analyze  transport histograms, distance scatter, dimension sweep
  project  re-export an embedding file after PCA projection

Configuration comes from an optional ``key = value`` file plus flags;
flags win. Every run writes a manifest recording the resolved
configuration, the seed, and content hashes of the inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import __version__, analysis, corpus as corpus_mod, knn_eval, wmd
from .embeddings import (
    TEXT,
    EmbeddingStore,
    WORD2VEC_BINARY,
    l2_normalize,
    load_embeddings,
    project_pca,
)
from .errors import ParseError, WmdlabError
from .textrep import build_vocabulary, document_frequencies
# unused here; perfbench/tracer.py rebinds them at these names
from .textrep import bow_vector, normalize, vector_distance  # noqa: F401
from .wmd import Method, Resources, pairwise_distances, read_distance_matrix, \
    write_distance_matrix

logger = logging.getLogger("wmdlab")

CACHE_ENV = "WMDLAB_CACHE_DIR"
DEFAULT_METHODS = "bow(l1,l1),wmd"
BASE_METHOD = "bow(l1,l1)"


class CliError(WmdlabError):
    pass


@dataclass
class RunConfig:
    dataset: str | None = None
    embeddings: str | None = None
    format: str = TEXT
    methods: str = DEFAULT_METHODS
    classifier: str = knn_eval.KNN
    clean: bool = False
    keep_oov: bool = False
    stopwords: str | None = None
    dims: str = ""
    seed: int = 0
    workers: int = 0  # 0 -> available parallelism
    out: str = "runs"
    no_compute: bool = False
    folds: int = 1
    train_fraction: float = 0.7
    bin_width: float = 0.02
    pairs: int = 200
    target_dim: int = 5
    renormalize: bool = False
    out_file: str | None = None
    cache_dir: str | None = None

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
        return [Method.parse(s) for s in specs]

    def dim_list(self) -> list[int]:
        if not self.dims:
            return []
        try:
            return [int(d) for d in self.dims.split(",") if d.strip()]
        except ValueError as exc:
            raise CliError(f"bad --dims value: {exc}") from None

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)

    def resolved_cache_dir(self) -> Path:
        env = os.environ.get(CACHE_ENV)
        if env:
            return Path(env)
        if self.cache_dir:
            return Path(self.cache_dir)
        return Path(self.out) / "cache"


def read_config_file(path: str) -> dict[str, object]:
    """Parse a flat ``key = value`` file (# starts a comment); each value
    takes the type of its ``RunConfig`` field."""
    values: dict[str, object] = {}
    types = typing.get_type_hints(RunConfig)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip().strip('"').strip("'")
            if not sep or not key:
                raise ParseError(f"{path}: expected key = value", line=lineno)
            if key not in types:
                raise ParseError(f"{path}: unknown key {key!r}", line=lineno)
            kind = types[key]
            if kind is bool:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ParseError(f"{path}: bad boolean {value!r}",
                                     line=lineno)
                values[key] = value.lower() in ("true", "1")
            elif kind in (int, float):
                try:
                    values[key] = kind(value)
                except ValueError:
                    raise ParseError(f"{path}: bad {kind.__name__} {value!r}",
                                     line=lineno) from None
            else:
                values[key] = value
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
    for key in RunConfig.__dataclass_fields__:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_dict(cfg: RunConfig) -> dict:
    return {k: getattr(cfg, k) for k in sorted(RunConfig.__dataclass_fields__)}


def write_manifest(cfg: RunConfig, out_dir: Path) -> dict:
    manifest = {
        "version": __version__,
        "seed": cfg.seed,
        "config": _config_dict(cfg),
        "inputs": {},
    }
    for name in ("dataset", "embeddings", "stopwords"):
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
    corp, store = _filtered_corpus(cfg)
    if cfg.clean:
        corp = corpus_mod.deduplicate(corp, corpus_mod.find_duplicates(corp))
    if not corp.folds:
        corp = corpus_mod.make_folds(corp, cfg.folds, cfg.train_fraction,
                                     cfg.seed)
    docs = corp.tokens_by_id()
    vocab = build_vocabulary(list(docs.values()))
    df = document_frequencies(docs.values(), vocab)
    resources = Resources(tokens=docs, vocab=vocab, store=store,
                          doc_freq=df, n_docs=len(docs),
                          workers=cfg.effective_workers())
    return Pipeline(cfg=cfg, corpus=corp, store=store, resources=resources)


def _filtered_corpus(
        cfg: RunConfig) -> tuple[corpus_mod.Corpus, EmbeddingStore | None]:
    """``cfg.dataset`` without its stopwords and (unless ``keep_oov``) its
    words missing from ``cfg.embeddings``, and the unit-norm embeddings of
    the corpus's words, stopwords included (None without embeddings)."""
    corp = _load_corpus(cfg)
    store = None
    if cfg.embeddings:
        vocabulary = {t for d in corp.documents for t in d.tokens}
        store = l2_normalize(load_embeddings(cfg.embeddings, cfg.format,
                                             vocabulary))
    stopwords = (corpus_mod.read_stopwords(cfg.stopwords)
                 if cfg.stopwords else None)
    if store is not None or stopwords is not None:
        corp = corpus_mod.filter_vocabulary(
            corp, store, stopwords=stopwords,
            keep_oov=cfg.keep_oov or store is None,
        )
    return corp, store


def _load_corpus(cfg: RunConfig) -> corpus_mod.Corpus:
    """Load ``cfg.dataset``. When that fails, an error in the embedding file
    is reported instead, as it is whenever both inputs are broken."""
    try:
        return corpus_mod.load_corpus(cfg.dataset)
    except (WmdlabError, OSError, ValueError):
        if cfg.embeddings:
            l2_normalize(load_embeddings(cfg.embeddings, cfg.format,
                                         vocabulary=frozenset()))
        raise


# -- distance caching ----------------------------------------------------------


def _cache_key(cfg: RunConfig, manifest: dict, method: Method,
               row_ids: list[int], col_ids: list[int]) -> str:
    # fold files, seed, folds and train fraction change a matrix only
    # through its row and column ids
    payload = {
        "version": __version__,
        "inputs": manifest["inputs"],
        "format": cfg.format,
        "method": method.label,
        "clean": cfg.clean,
        "keep_oov": cfg.keep_oov,
        "rows": row_ids,
        "cols": col_ids,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class DistanceCache:
    """Distance matrices on disk, one ``<key>.npy`` file per cache key."""

    def __init__(self, directory: Path):
        self.directory = directory

    def get(self, key: str, row_ids: list[int],
            col_ids: list[int]) -> wmd.DistanceMatrix | None:
        """The matrix cached under ``key``, whose rows and columns are
        ``row_ids`` and ``col_ids``; None when missing or unreadable."""
        path = self.directory / f"{key}.npy"
        if not path.exists():
            return None
        try:
            dm = read_distance_matrix(path, row_ids, col_ids)
        except (ParseError, OSError) as exc:
            logger.warning("corrupted cache %s (%s); recomputing", path.name,
                           exc)
            return None
        logger.info("cache hit: %s", path.name)
        return dm

    def put(self, key: str, dm: wmd.DistanceMatrix) -> None:
        """Write a temporary sibling and rename it over the cache file:
        readers see the old file or the new one, never a partial one."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{key}.npy"
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            write_distance_matrix(dm, str(tmp))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _distances(pipe: Pipeline, cache: DistanceCache, manifest: dict,
               method: Method, queries: list[int],
               refs: list[int]) -> wmd.DistanceMatrix:
    """The ``queries`` x ``refs`` matrix of ``method``, cached."""
    key = _cache_key(pipe.cfg, manifest, method, queries, refs)
    dm = cache.get(key, queries, refs)
    if dm is not None:
        return dm
    if pipe.cfg.no_compute:
        raise CliError(f"missing cache {key}.npy and --no-compute is set")
    logger.info("computing %s (%d x %d)", method.label, len(queries),
                len(refs))
    dm = pairwise_distances(queries, refs, method, pipe.resources)
    cache.put(key, dm)
    return dm


def _fold_matrices(cfg: RunConfig):
    """Yield ``(pipe, fold_idx, method, matrix)`` per fold and method: every
    document against the fold's training documents."""
    methods = cfg.method_list()
    pipe = build_pipeline(cfg, need_store=any(m.uses_transport
                                              for m in methods))
    manifest = write_manifest(cfg, Path(cfg.out))
    cache = DistanceCache(cfg.resolved_cache_dir())
    all_ids = list(pipe.corpus.ids())
    for fold_idx, fold in enumerate(pipe.corpus.folds):
        for method in methods:
            yield pipe, fold_idx, method, _distances(
                pipe, cache, manifest, method, all_ids, list(fold.train_ids))


# -- subcommands ---------------------------------------------------------------


def cmd_dists(cfg: RunConfig) -> int:
    for _ in _fold_matrices(cfg):
        pass
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    rows = []
    for pipe, fold_idx, method, dm in _fold_matrices(cfg):
        fold = pipe.corpus.folds[fold_idx]
        split = knn_eval.LabeledSplit(fold.train_ids, fold.test_ids,
                                      pipe.corpus.labels_by_id())
        split = knn_eval.make_validation_split(split, 0.2,
                                               seed=(cfg.seed, fold_idx))
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
    if not cfg.dataset:
        raise CliError("--dataset is required")
    out_dir = Path(cfg.out)
    write_manifest(cfg, out_dir)
    corp, _ = _filtered_corpus(cfg)
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
    out_dir.mkdir(parents=True, exist_ok=True)
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
    pipe = build_pipeline(cfg, need_store=True)
    out_dir = Path(cfg.out)
    manifest = write_manifest(cfg, out_dir)
    cache = DistanceCache(cfg.resolved_cache_dir())
    corp, res = pipe.corpus, pipe.resources

    wmd_method = Method.parse("wmd")
    if corp.split_type == corpus_mod.ONE_FOLD:
        queries, refs = corp.folds[0].train_ids, corp.folds[0].test_ids
        mode = analysis.CROSS_SPLIT
    else:
        queries = refs = corp.ids()
        mode = analysis.LEAVE_ONE_OUT
    dm = _distances(pipe, cache, manifest, wmd_method, list(queries),
                    list(refs))
    measures = {i: m for i, m in wmd.representations(
        list(res.tokens), wmd_method, res).items() if m is not None}
    bows = wmd.representations(list(measures), Method.parse(BASE_METHOD), res)
    # documents without a measure are unusable: their cells are all +inf
    dm_usable = dm.submatrix([r for r in dm.row_ids if r in measures],
                             [c for c in dm.col_ids if c in measures])
    nn_pairs = analysis.nearest_neighbor_pairs(dm_usable, mode)
    hist = analysis.transport_histogram(nn_pairs, measures, pipe.store,
                                        cfg.bin_width)
    analysis.write_histogram_csv(hist, str(out_dir / "transport_histogram.csv"))

    pairs = analysis.sample_document_pairs(sorted(measures), cfg.pairs,
                                           cfg.seed)
    points = analysis.bow_wmd_scatter(pairs, bows, measures, pipe.store)
    analysis.write_scatter_csv(points, str(out_dir / "scatter.csv"))
    r = analysis.pearson([p[0] for p in points], [p[1] for p in points])
    with open(out_dir / "scatter_pearson.json", "w", encoding="utf-8") as fh:
        json.dump({"pearson": r, "n_pairs": len(points)}, fh, indent=2)
        fh.write("\n")

    dims = cfg.dim_list()
    if dims:
        table = analysis.dim_comparison(pairs, [x for x, _ in points],
                                        measures, pipe.store, dims,
                                        res.vocab.words)
        with open(out_dir / "dim_comparison.csv", "w", encoding="utf-8") as fh:
            fh.write("dim,pearson\n")
            for d in dims:
                fh.write(f"{d},{table[d]:.17g}\n")
    logger.info("analysis outputs written to %s", out_dir)
    return 0


def cmd_project(cfg: RunConfig) -> int:
    if not cfg.embeddings:
        raise CliError("--embeddings is required")
    if not cfg.out_file:
        raise CliError("--out-file is required")
    store = l2_normalize(load_embeddings(cfg.embeddings, cfg.format))
    if cfg.dataset:
        corp = corpus_mod.load_corpus(cfg.dataset)
        corp = corpus_mod.filter_vocabulary(corp, store)
        fit_vocab = build_vocabulary(
            [d.tokens for d in corp.documents]
        ).words
    else:
        fit_vocab = store.tokens
    projected = project_pca(store, cfg.target_dim, fit_vocab)
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--dataset", help="corpus file (label TAB tokens per line)")
    p.add_argument("--embeddings", help="embedding file")
    p.add_argument("--format", choices=[TEXT, WORD2VEC_BINARY],
                   help="embedding file format")
    p.add_argument("--method", dest="methods",
                   help=f"comma list, e.g. {DEFAULT_METHODS!r}")
    p.add_argument("--classifier", choices=[knn_eval.KNN, knn_eval.WKNN])
    p.add_argument("--clean", action="store_const", const=True,
                   help="remove duplicate documents before evaluating")
    p.add_argument("--keep-oov", dest="keep_oov", action="store_const",
                   const=True, help="keep words missing from the embeddings")
    p.add_argument("--stopwords", help="stopword file, one token per line")
    p.add_argument("--dims", help="comma list of projection dimensions")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="output directory")
    p.add_argument("--no-compute", dest="no_compute", action="store_const",
                   const=True, help="fail instead of computing missing caches")
    p.add_argument("--folds", type=int,
                   help="random folds to generate when the corpus has none")
    p.add_argument("--train-fraction", dest="train_fraction", type=float)
    p.add_argument("--bin-width", dest="bin_width", type=float)
    p.add_argument("--pairs", type=int, help="sampled pairs for scatter/dims")
    p.add_argument("--cache-dir", dest="cache_dir",
                   help=f"cache directory (or ${CACHE_ENV})")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmdlab",
        description="Document distances, nearest-neighbor evaluation, and "
                    "transport analyses.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("dists", "compute and cache distance matrices"),
        ("eval", "tune and evaluate classifiers"),
        ("dedup", "report and remove duplicate documents"),
        ("analyze", "histograms, scatter, and dimension sweep"),
        ("project", "PCA-project an embedding file"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name == "project":
            p.add_argument("--target-dim", dest="target_dim", type=int)
            p.add_argument("--out-file", dest="out_file",
                           help="path of the projected embedding file")
            p.add_argument("--renormalize", action="store_const", const=True,
                           help="re-apply unit L2 norm after projection")
    return parser


_COMMANDS = {
    "dists": cmd_dists,
    "eval": cmd_eval,
    "dedup": cmd_dedup,
    "analyze": cmd_analyze,
    "project": cmd_project,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return _COMMANDS[args.command](cfg)
    except WmdlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
