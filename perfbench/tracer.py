"""Run one wmdlab CLI command in-process with spans around each layer.

    python3 tracer.py --spans DIR -- eval --dataset docs.txt ...

Before any pool starts, the public functions of ``ot_core``, ``embeddings``,
``textrep``, ``wmd``, ``knn_eval``, ``corpus``, ``analysis`` and ``cli``
are rebound, at the attributes their callers look them up by, to wrappers
that record a span: name, start, end, parent, pid. Spans stay in memory and
are written to ``DIR/spans.<pid>.bin`` when the process ends, by pool
workers too (forked workers leave through ``os._exit`` and skip ``atexit``,
but ``multiprocessing.util.Finalize`` runs). The main process also writes
``DIR/facts.<pid>.json`` with what the work ratios need from the arguments
and results of wrapped calls, plus one ``.npy`` per distance matrix built.

A wrapped name the program no longer has is listed in the facts file as
missing; nothing fails because of it.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the import span covers the tracer's own imports

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from multiprocessing import util  # noqa: E402

# Span name -> "module:attribute" places where callers look the function up.
# Callers inside one module resolve the module's globals, so a function is
# rebound in every module that calls it, not where it is defined.
WRAPS: dict[str, tuple[str, ...]] = {
    "cli.import": (),
    "cli.main": (),
    "cli.cmd": (),  # one span per subcommand function in cli._COMMANDS
    "cli.build_pipeline": ("wmdlab.cli:build_pipeline",),
    "cli.manifest": ("wmdlab.cli:write_manifest",),
    "cli.cache.get": ("wmdlab.cli:DistanceCache.get",),
    "wmd.cache.read": ("wmdlab.cli:read_distance_matrix",),
    "wmd.cache.write": ("wmdlab.cli:write_distance_matrix",),
    "wmd.pairwise": ("wmdlab.cli:pairwise_distances",),
    "wmd.row": ("wmdlab.wmd:_row_values",),
    "wmd.distance": ("wmdlab.wmd:wmd_distance",
                     "wmdlab.analysis:wmd_distance"),
    "wmd.make_measure": ("wmdlab.wmd:make_measure",
                         "wmdlab.analysis:make_measure"),
    "embeddings.load": ("wmdlab.cli:load_embeddings",),
    "embeddings.l2_normalize": ("wmdlab.cli:l2_normalize",),
    "embeddings.cost_submatrix": ("wmdlab.wmd:cost_submatrix",),
    "embeddings.project_pca": ("wmdlab.analysis:project_pca",
                               "wmdlab.cli:project_pca"),
    "ot_core.problem": ("wmdlab.wmd:TransportProblem",),
    "ot_core.solve": ("wmdlab.wmd:solve_transport",),
    "textrep.vector_distance": ("wmdlab.wmd:vector_distance",
                                "wmdlab.cli:vector_distance",
                                "wmdlab.analysis:vector_distance"),
    "textrep.vectorize": ("wmdlab.wmd:bow_vector", "wmdlab.wmd:tfidf_vector",
                          "wmdlab.wmd:normalize", "wmdlab.cli:bow_vector",
                          "wmdlab.cli:normalize", "wmdlab.analysis:bow_vector",
                          "wmdlab.analysis:normalize"),
    "textrep.vocabulary": ("wmdlab.cli:build_vocabulary",
                           "wmdlab.cli:document_frequencies",
                           "wmdlab.analysis:build_vocabulary"),
    "knn_eval.tune": ("wmdlab.knn_eval:tune",),
    "knn_eval.evaluate": ("wmdlab.knn_eval:evaluate",),
    "knn_eval.predict": ("wmdlab.knn_eval:_predict",),
    "knn_eval.report": ("wmdlab.knn_eval:write_report_csv",
                        "wmdlab.knn_eval:write_summary_json"),
    "corpus.load": ("wmdlab.corpus:load_corpus",),
    "corpus.filter_vocabulary": ("wmdlab.corpus:filter_vocabulary",),
    "analysis.nn_pairs": ("wmdlab.analysis:nearest_neighbor_pairs",),
    "analysis.histogram": ("wmdlab.analysis:transport_histogram",),
    "analysis.dim_comparison": ("wmdlab.analysis:dim_comparison",),
    "analysis.write": ("wmdlab.analysis:write_histogram_csv",
                       "wmdlab.analysis:write_scatter_csv"),
}
NAMES = list(WRAPS)
FIELDS = 6  # name id, start, end, parent pid (-1: none), parent index, x


class Tracer:
    """Span buffer of one process; forked children start an empty one."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.buf = array("d")
        self.stack: list[tuple[int, int]] = []
        util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # The inherited stack stays: its top is the parent's open span.
        self.pid = os.getpid()
        self.buf = array("d")
        util.Finalize(self, self.flush, exitpriority=100)

    def begin(self, name_id: int, start: float | None = None) -> int:
        ppid, pidx = self.stack[-1] if self.stack else (-1, -1)
        idx = len(self.buf) // FIELDS
        start = time.perf_counter() if start is None else start
        self.buf.extend((name_id, start, 0.0, ppid, pidx, 0.0))
        self.stack.append((self.pid, idx))
        return idx

    def end(self, idx: int) -> None:
        self.buf[idx * FIELDS + 2] = time.perf_counter()
        self.stack.pop()

    def set_x(self, idx: int, x: float) -> None:
        self.buf[idx * FIELDS + 5] = x

    def flush(self) -> None:
        with open(os.path.join(self.out_dir, f"spans.{self.pid}.bin"),
                  "wb") as fh:
            self.buf.tofile(fh)


class Facts:
    """Arguments and results of wrapped calls that the work ratios need."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()  # pool workers record spans only
        self.records: list[dict] = []
        self.missing: list[str] = []
        self.matrix_of: dict[int, int] = {}  # id(DistanceMatrix) -> record
        self._matrices: list[object] = []    # keeps those ids unique

    def add(self, record: dict, matrix: object = None) -> int:
        self.records.append(record)
        if matrix is not None:
            self._matrices.append(matrix)
            self.matrix_of[id(matrix)] = len(self.records) - 1
        return len(self.records) - 1

    def last_matrix(self) -> int | None:
        found = [i for i, r in enumerate(self.records)
                 if r["kind"] == "pairwise"]
        return found[-1] if found else None

    def write(self) -> None:
        path = os.path.join(self.out_dir, f"facts.{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"records": self.records, "missing": self.missing}, fh)


def _on_pairwise(facts: Facts, span: int, args, kwargs, dm) -> None:
    import numpy as np  # imported by wmdlab already; not before the import span

    method, resources = args[2], args[3]
    name = f"matrix.{os.getpid()}.{len(facts.records)}.npy"
    np.save(os.path.join(facts.out_dir, name), np.asarray(dm.values))
    facts.add({"kind": "pairwise", "span": span, "method": method.label,
               "transport": bool(method.uses_transport),
               "workers": int(resources.workers), "rows": list(dm.row_ids),
               "cols": list(dm.col_ids), "file": name}, matrix=dm)


def _on_knn(kind: str):
    def record(facts: Facts, span: int, args, kwargs, result) -> None:
        dist, split = args[:2]
        if kind == "tune":
            val = set(split.validation_ids)
            rows = list(split.validation_ids)
            refs = [t for t in split.train_ids if t not in val]
        else:
            rows, refs = list(split.test_ids), list(split.train_ids)
        facts.add({"kind": kind, "span": span,
                   "matrix": facts.matrix_of.get(id(dist)),
                   "rows": rows, "refs": refs})
    return record


def _on_nn_pairs(facts, span, args, kwargs, pairs) -> None:
    facts.add({"kind": "nn_pairs", "span": span,
               "matrix": facts.last_matrix(),
               "pairs": [list(p) for p in pairs]})


def _on_pipeline(facts, span, args, kwargs, pipe) -> None:
    facts.add({"kind": "pipeline", "span": span,
               "vocab": len(pipe.resources.vocab),
               "store_rows": len(pipe.store) if pipe.store is not None else 0})


# Per-call quantity kept in the span's x field (NaN when it cannot be read).
def _solve_cells(args, result) -> float:
    return float(args[0].supply.size * args[0].demand.size)


def _cache_hit(args, result) -> float:
    return 0.0 if result is None else 1.0


def _file_size(args, result) -> float:
    return float(os.path.getsize(args[1]))


def _matrix_cells(args, result) -> float:
    return float(len(args[0]) * len(args[1]))


MEASURE = {"ot_core.solve": _solve_cells, "cli.cache.get": _cache_hit,
           "wmd.cache.write": _file_size, "wmd.pairwise": _matrix_cells}
RECORD = {"wmd.pairwise": _on_pairwise, "knn_eval.tune": _on_knn("tune"),
          "knn_eval.evaluate": _on_knn("evaluate"),
          "analysis.nn_pairs": _on_nn_pairs, "cli.build_pipeline": _on_pipeline}


def _wrap(fn, name: str, tracer: Tracer, facts: Facts):
    name_id = NAMES.index(name)
    measure, record = MEASURE.get(name), RECORD.get(name)

    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        span = tracer.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if measure is not None:
            try:
                tracer.set_x(span, measure(args, result))
            except (AttributeError, IndexError, TypeError, OSError):
                tracer.set_x(span, math.nan)  # reported as missing
        if record is not None and os.getpid() == facts.pid:
            try:
                record(facts, span, args, kwargs, result)
            except Exception as exc:  # a renamed field must not stop the run
                facts.missing.append(f"{name}: {type(exc).__name__}: {exc}")
        return result
    return wrapper


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when renamed or removed
    return owner, attr


def install(tracer: Tracer, facts: Facts) -> None:
    """Rebind every target in WRAPS; record the ones that are gone."""
    for name, targets in WRAPS.items():
        for target in targets:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                facts.missing.append(target)
                continue
            setattr(owner, attr, _wrap(getattr(owner, attr), name, tracer,
                                       facts))
    try:
        commands = importlib.import_module("wmdlab.cli")._COMMANDS
    except (ImportError, AttributeError):
        facts.missing.append("wmdlab.cli:_COMMANDS")
        return
    for key, fn in list(commands.items()):
        commands[key] = _wrap(fn, "cli.cmd", tracer, facts)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: tracer.py --spans DIR -- <wmdlab arguments>",
              file=sys.stderr)
        return 2
    out_dir, cli_argv = argv[1], argv[3:]
    os.makedirs(out_dir, exist_ok=True)
    tracer, facts = Tracer(out_dir), Facts(out_dir)
    span = tracer.begin(NAMES.index("cli.import"), start=STARTED)
    import wmdlab.cli  # noqa: F401  (timed: what every command pays first)
    for module in ("ot_core", "embeddings", "textrep", "wmd", "knn_eval",
                   "corpus", "analysis"):
        importlib.import_module(f"wmdlab.{module}")
    tracer.end(span)
    install(tracer, facts)
    span = tracer.begin(NAMES.index("cli.main"))
    try:
        rc = wmdlab.cli.main(cli_argv)
    finally:
        tracer.end(span)
        tracer.flush()
        facts.write()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
