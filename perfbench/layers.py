"""Per-layer metrics of one traced phase, from the files ``tracer.py`` writes.

Self time is a span's duration minus the part of it that its child spans
cover; children in pool workers overlap, so covered time is the union of
their intervals. The work ratios come from the distance matrices the
traced run built and from the rows kNN and ``analyze`` read out of them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tracer import FIELDS, NAMES, WRAPS

TOP_K = 19  # kNN reads at most the 19 nearest references (k <= 19 in tuning)

# name: (unit, better, end-to-end metric it should move, workloads where)
LAYER_METRICS: dict[str, tuple[str, str, str, str]] = {
    "ot_core.solve.calls": ("count", "lower", "wall_s, rerun_s",
                            "bbcsport-like, twitter-like"),
    "ot_core.solve.self_s": ("s", "lower", "wall_s, rerun_s",
                             "bbcsport-like, twitter-like"),
    "ot_core.solve.ms_p50": ("ms", "lower", "wall_s", "bbcsport-like, twitter-like"),
    "ot_core.solve.ms_p99": ("ms", "lower", "wall_s", "bbcsport-like, twitter-like"),
    "ot_core.solve.mean_cells": ("count", "lower", "none (shape check)", "all"),
    "ot_core.problem.self_s": ("s", "lower", "wall_s", "twitter-like"),
    "embeddings.load.s": ("s", "lower", "setup_s, rerun_s", "twitter-like, all"),
    "embeddings.l2_normalize.s": ("s", "lower", "setup_s, rerun_s", "all"),
    "embeddings.rows_used_frac": ("ratio", "higher", "peak_rss_mb", "all"),
    "embeddings.cost_submatrix.calls": ("count", "lower", "wall_s", "twitter-like"),
    "embeddings.cost_submatrix.self_s": ("s", "lower", "wall_s", "twitter-like"),
    "embeddings.project_pca.s": ("s", "lower", "wall_s, rerun_s", "bbcsport-like"),
    "textrep.vector_distance.calls": ("count", "lower", "wall_s", "bow-grid"),
    "textrep.vector_distance.self_s": ("s", "lower", "wall_s", "bow-grid"),
    "textrep.vectorize.calls": ("count", "lower", "wall_s", "bow-grid"),
    "textrep.vectorize.self_s": ("s", "lower", "wall_s", "bow-grid"),
    "wmd.pairwise.calls": ("count", "lower", "wall_s", "all"),
    "wmd.pairwise.s": ("s", "lower", "wall_s", "all"),
    "wmd.pairwise.cells": ("count", "lower", "wall_s", "all"),
    "wmd.cells_per_s.transport": ("1/s", "higher", "wall_s",
                                  "bbcsport-like, twitter-like"),
    "wmd.cells_per_s.vector": ("1/s", "higher", "wall_s", "bow-grid"),
    "wmd.solves_per_pair": ("ratio", "lower", "wall_s", "bbcsport-like, twitter-like"),
    "wmd.topk_frac": ("ratio", "higher", "wall_s", "twitter-like, bbcsport-like"),
    "wmd.pool.busy_frac": ("ratio", "higher", "wall_s", "all"),
    "wmd.make_measure.calls": ("count", "lower", "wall_s", "twitter-like"),
    "wmd.make_measure.self_s": ("s", "lower", "wall_s", "twitter-like"),
    "wmd.cache.write_s": ("s", "lower", "wall_s", "bow-grid"),
    "wmd.cache.bytes_written": ("bytes", "lower", "wall_s, cache_mb", "bow-grid"),
    "wmd.cache.read_s": ("s", "lower", "rerun_s", "bow-grid"),
    "knn_eval.tune.s": ("s", "lower", "rerun_s", "bow-grid, twitter-like"),
    "knn_eval.evaluate.s": ("s", "lower", "rerun_s", "bow-grid, twitter-like"),
    "knn_eval.predict.calls": ("count", "lower", "rerun_s", "bow-grid, twitter-like"),
    "corpus.load.s": ("s", "lower", "setup_s", "bow-grid"),
    "corpus.filter_vocabulary.s": ("s", "lower", "setup_s", "bow-grid"),
    "analysis.nn_pairs.s": ("s", "lower", "wall_s, rerun_s", "bbcsport-like"),
    "analysis.histogram.self_s": ("s", "lower", "wall_s, rerun_s", "bbcsport-like"),
    "analysis.dim_comparison.s": ("s", "lower", "wall_s, rerun_s", "bbcsport-like"),
    "analysis.solves": ("count", "lower", "wall_s, rerun_s", "bbcsport-like"),
    "cli.import.s": ("s", "lower", "rerun_s", "all"),
    "cli.manifest.s": ("s", "lower", "rerun_s", "all"),
    "cli.cache.hits": ("count", "higher", "rerun_s", "all"),
    "cli.cache.misses": ("count", "lower", "wall_s", "all"),
    "trace.overhead_s": ("s", "lower", "none (tracing cost)", "all"),
    "trace.overhead_frac": ("ratio", "lower", "none (tracing cost)", "all"),
    "trace.top_coverage": ("ratio", "higher", "none (trace completeness)", "all"),
}

# A metric is reported as missing when a wrapped target of a span it reads
# is gone (default: the span named by the metric without its last part),
# or when recording the call facts it reads failed.
_SPANS = {
    "wmd.cells_per_s.transport": ("wmd.pairwise",),
    "wmd.cells_per_s.vector": ("wmd.pairwise",),
    "wmd.pool.busy_frac": ("wmd.pairwise", "wmd.row"),
    "wmd.cache.write_s": ("wmd.cache.write",),
    "wmd.cache.bytes_written": ("wmd.cache.write",),
    "wmd.cache.read_s": ("wmd.cache.read",),
    "analysis.solves": ("ot_core.solve", "wmd.pairwise"),
    "cli.cache.hits": ("cli.cache.get",),
    "cli.cache.misses": ("cli.cache.get",),
    "trace.overhead_s": (),
    "trace.overhead_frac": (),
    "trace.top_coverage": (),
}
_FACTS = {
    "embeddings.rows_used_frac": ("cli.build_pipeline",),
    "wmd.cells_per_s.transport": ("wmd.pairwise",),
    "wmd.cells_per_s.vector": ("wmd.pairwise",),
    "wmd.pool.busy_frac": ("wmd.pairwise",),
    "wmd.solves_per_pair": ("wmd.pairwise",),
    "wmd.topk_frac": ("wmd.pairwise", "knn_eval.tune", "knn_eval.evaluate",
                      "analysis.nn_pairs"),
}


class Spans:
    """Every span of one phase, from all processes, as columns."""

    def __init__(self, spans_dir: Path):
        blocks, pids = [], []
        for path in sorted(spans_dir.glob("spans.*.bin")):
            blocks.append(np.fromfile(path, dtype=np.float64).reshape(-1, FIELDS))
            pids.append(int(path.name.split(".")[1]))
        data = np.concatenate(blocks) if blocks else np.zeros((0, FIELDS))
        self.name = data[:, 0].astype(int)
        self.start, self.end, self.x = data[:, 1], data[:, 2], data[:, 5]
        offset, pos = {}, 0
        for pid, block in zip(pids, blocks):
            offset[pid] = pos
            pos += len(block)
        self.offset = offset
        ppid, pidx = data[:, 3].astype(int), data[:, 4].astype(int)
        base = np.full(len(data), -1)
        for p in np.unique(ppid).tolist():
            base[ppid == p] = offset.get(p, -1)
        self.parent = np.where(base >= 0, base + pidx, -1)
        self.dur = self.end - self.start
        self.self_time = self.dur - self._covered()

    def _covered(self) -> np.ndarray:
        covered = np.zeros(len(self.dur))
        kids = np.flatnonzero(self.parent >= 0)
        kids = kids[np.lexsort((self.start[kids], self.parent[kids]))]
        if kids.size == 0:
            return covered
        cuts = np.flatnonzero(np.diff(self.parent[kids])) + 1
        for group in np.split(kids, cuts):
            par = self.parent[group[0]]
            lo, hi = self.start[par], self.end[par]
            s = np.clip(self.start[group], lo, hi)
            e = np.clip(self.end[group], lo, hi)
            reach = np.concatenate(([-np.inf], np.maximum.accumulate(e[:-1])))
            covered[par] = np.maximum(0.0, e - np.maximum(s, reach)).sum()
        return covered

    def row(self, pid: int, idx: int) -> int:
        return self.offset[pid] + idx

    def of(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.name == NAMES.index(name))

    def total(self, name: str) -> float:
        return float(self.dur[self.of(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self.of(name)].sum())

    def has_ancestor(self, rows: np.ndarray, name: str) -> np.ndarray:
        target = NAMES.index(name)
        found = np.zeros(rows.size, dtype=bool)
        cur = self.parent[rows]
        while (cur >= 0).any():
            live = cur >= 0
            found[live] |= self.name[cur[live]] == target
            cur = np.where(live, self.parent[np.maximum(cur, 0)], -1)
        return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _work_ratios(spans_dir: Path, facts: list[dict]) -> dict[str, float]:
    """solves_per_pair and topk_frac over transport matrices (0 without any)."""
    matrices, solved, used = {}, 0, 0
    pairs: set[tuple[str, int, int]] = set()
    for key, rec in facts:
        if rec["kind"] != "pairwise" or not rec["transport"]:
            continue
        values = np.load(spans_dir / rec["file"])
        rows, cols = np.asarray(rec["rows"]), np.asarray(rec["cols"])
        mask = np.isfinite(values) & (rows[:, None] != cols[None, :])
        matrices[key] = (rec, values, rows, cols, mask)
        solved += int(mask.sum())
        for i, j in zip(*np.nonzero(mask)):
            a, b = int(rows[i]), int(cols[j])
            pairs.add((rec["method"], min(a, b), max(a, b)))
    cells: dict[tuple, set[tuple[int, int]]] = {}
    for key, rec in facts:
        target = (key[0], rec.get("matrix"))
        if rec["kind"] not in ("tune", "evaluate", "nn_pairs") \
                or target not in matrices:
            continue
        _, values, rows, cols, mask = matrices[target]
        rpos = {int(r): i for i, r in enumerate(rows)}
        cpos = {int(c): j for j, c in enumerate(cols)}
        hit = cells.setdefault(target, set())
        if rec["kind"] == "nn_pairs":
            hit.update((rpos[a], cpos[b]) for a, b in rec["pairs"])
            continue
        ref_ids = np.asarray(rec["refs"])
        ref_pos = np.asarray([cpos[c] for c in rec["refs"]])
        for r in rec["rows"]:
            row = values[rpos[r], ref_pos]
            order = np.lexsort((ref_ids, row))
            order = order[np.isfinite(row[order])][:TOP_K]
            hit.update((rpos[r], int(ref_pos[o])) for o in order)
    for target, hit in cells.items():
        mask = matrices[target][4]
        used += sum(1 for i, j in hit if mask[i, j])
    return {"wmd.solves_per_pair": _ratio(solved, len(pairs)),
            "wmd.topk_frac": _ratio(used, solved)}


def phase_metrics(spans_dir: Path, traced_wall: float,
                  untraced_wall: float) -> tuple[dict, list[str]]:
    """Metric name -> value (None when missing), plus what was missing."""
    sp = Spans(spans_dir)
    facts, missing = [], []
    for path in sorted(spans_dir.glob("facts.*.json")):
        data = json.loads(path.read_text())
        pid = int(path.name.split(".")[1])
        facts += [((pid, i), rec) for i, rec in enumerate(data["records"])]
        missing += data["missing"]
    lost_spans = {name for name, targets in WRAPS.items()
                  if any(t in missing for t in targets)}
    lost_spans |= {NAMES[i] for i in np.unique(sp.name[np.isnan(sp.x)])}
    lost_facts = {m.split(":")[0] for m in missing}

    def pairwise_of(transport: bool) -> tuple[float, float]:
        rows = [sp.row(key[0], rec["span"]) for key, rec in facts
                if rec["kind"] == "pairwise" and rec["transport"] == transport]
        return float(sp.x[rows].sum()), float(sp.dur[rows].sum())

    solves = sp.of("ot_core.solve")
    solve_ms = sp.dur[solves] * 1e3
    gets = sp.of("cli.cache.get")
    pairwise = sp.of("wmd.pairwise")
    workers = [rec["workers"] for _, rec in facts if rec["kind"] == "pairwise"]
    pipes = [rec for _, rec in facts if rec["kind"] == "pipeline"]
    top = np.flatnonzero(sp.parent < 0)
    top = top[np.isin(sp.name[top], [NAMES.index("cli.import"),
                                      NAMES.index("cli.main")])]
    t_cells, t_s = pairwise_of(True)
    v_cells, v_s = pairwise_of(False)
    out = {
        "ot_core.solve.calls": solves.size,
        "ot_core.solve.self_s": sp.self_total("ot_core.solve"),
        "ot_core.solve.ms_p50": _percentile(solve_ms, 50),
        "ot_core.solve.ms_p99": _percentile(solve_ms, 99),
        "ot_core.solve.mean_cells": _ratio(float(sp.x[solves].sum()),
                                           solves.size),
        "ot_core.problem.self_s": sp.self_total("ot_core.problem"),
        "embeddings.load.s": sp.total("embeddings.load"),
        "embeddings.l2_normalize.s": sp.total("embeddings.l2_normalize"),
        "embeddings.rows_used_frac": _ratio(
            sum(p["vocab"] for p in pipes), sum(p["store_rows"] for p in pipes)),
        "embeddings.cost_submatrix.calls": sp.of("embeddings.cost_submatrix").size,
        "embeddings.cost_submatrix.self_s": sp.self_total("embeddings.cost_submatrix"),
        "embeddings.project_pca.s": sp.total("embeddings.project_pca"),
        "textrep.vector_distance.calls": sp.of("textrep.vector_distance").size,
        "textrep.vector_distance.self_s": sp.self_total("textrep.vector_distance"),
        "textrep.vectorize.calls": sp.of("textrep.vectorize").size,
        "textrep.vectorize.self_s": sp.self_total("textrep.vectorize"),
        "wmd.pairwise.calls": pairwise.size,
        "wmd.pairwise.s": sp.total("wmd.pairwise"),
        "wmd.pairwise.cells": float(sp.x[pairwise].sum()),
        "wmd.cells_per_s.transport": _ratio(t_cells, t_s),
        "wmd.cells_per_s.vector": _ratio(v_cells, v_s),
        "wmd.pool.busy_frac": _ratio(
            sp.total("wmd.row"),
            max(workers, default=1) * sp.total("wmd.pairwise")),
        "wmd.make_measure.calls": sp.of("wmd.make_measure").size,
        "wmd.make_measure.self_s": sp.self_total("wmd.make_measure"),
        "wmd.cache.write_s": sp.total("wmd.cache.write"),
        "wmd.cache.bytes_written": float(sp.x[sp.of("wmd.cache.write")].sum()),
        "wmd.cache.read_s": sp.total("wmd.cache.read"),
        "knn_eval.tune.s": sp.total("knn_eval.tune"),
        "knn_eval.evaluate.s": sp.total("knn_eval.evaluate"),
        "knn_eval.predict.calls": sp.of("knn_eval.predict").size,
        "corpus.load.s": sp.total("corpus.load"),
        "corpus.filter_vocabulary.s": sp.total("corpus.filter_vocabulary"),
        "analysis.nn_pairs.s": sp.total("analysis.nn_pairs"),
        "analysis.histogram.self_s": sp.self_total("analysis.histogram"),
        "analysis.dim_comparison.s": sp.total("analysis.dim_comparison"),
        "analysis.solves": int((~sp.has_ancestor(solves, "wmd.pairwise")).sum()),
        "cli.import.s": sp.total("cli.import"),
        "cli.manifest.s": sp.total("cli.manifest"),
        "cli.cache.hits": int((sp.x[gets] == 1.0).sum()),
        "cli.cache.misses": int((sp.x[gets] == 0.0).sum()),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_frac": _ratio(traced_wall - untraced_wall, untraced_wall),
        "trace.top_coverage": _ratio(float(sp.dur[top].sum()), traced_wall),
    }
    out.update(_work_ratios(spans_dir, facts))
    for name in out:
        spans = _SPANS.get(name, (name.rsplit(".", 1)[0],))
        facts_from = set(_FACTS.get(name, ()))
        if lost_spans & set(spans) or (lost_spans | lost_facts) & facts_from:
            out[name] = None
    return out, sorted(set(missing))
