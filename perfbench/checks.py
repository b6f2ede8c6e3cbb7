"""Output checks, computed from the generated inputs and not from wmdlab.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from gen import Generated, in_vocab_counts

REL_TOL = 1e-9


def snapshot(out_root: Path) -> dict[str, bytes]:
    """Every file under ``out_root`` by relative path."""
    return {p.relative_to(out_root).as_posix(): p.read_bytes()
            for p in sorted(out_root.rglob("*")) if p.is_file()}


def same_files(expected: dict[str, bytes], got: dict[str, bytes]) -> list[str]:
    if expected.keys() != got.keys():
        return [f"files differ: {sorted(expected.keys() ^ got.keys())}"]
    return [f"{name} differs" for name in expected if expected[name] != got[name]]


def check_digests(snap: dict[str, bytes], baseline: Path,
                  workload: str) -> list[str]:
    """``report.csv`` and ``summary.json`` against the recorded digests."""
    recorded = json.loads(baseline.read_text())["digests"][workload]
    got = {n: hashlib.sha256(snap[n]).hexdigest() for n in recorded}
    return [f"{name}: sha256 {got[name]} != recorded {want}"
            for name, want in recorded.items() if got[name] != want]


def _rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _usable(gen: Generated, weighting: str) -> list[bool]:
    """Documents with a positive weight under ``count`` or ``tfidf``."""
    counts = in_vocab_counts(gen)
    if weighting == "count":
        return [bool(c) for c in counts]
    df = Counter(w for c in counts for w in c)
    return [any(df[w] < len(counts) for w in c) for c in counts]


def _expected_excluded(gen: Generated, method: str, test_ids) -> int:
    kind, _, rest = method.partition("(")
    if kind in ("bow", "tfidf") and rest.split(",")[0] == "none":
        return 0  # an unnormalized empty vector is a usable zero vector
    usable = _usable(gen, "tfidf" if "tfidf" in kind else "count")
    return sum(1 for i in test_ids if not usable[i])


def check_report(snap: dict[str, bytes], gen: Generated,
                 methods: tuple[str, ...]) -> list[str]:
    """One row per (fold, method), sane errors, the expected exclusions."""
    rows = _rows(snap["eval/report.csv"])
    want = [(f, m) for f in range(len(gen.folds)) for m in methods]
    got = [(int(r["fold"]), r["method"]) for r in rows]
    if got != want:
        return [f"report.csv rows {got} != {want}"]
    problems = []
    for r in rows:
        err = float(r["error_percent"])
        if not 0.0 <= err <= 100.0:
            problems.append(f"report.csv: error_percent {err} out of range")
        excluded = _expected_excluded(gen, r["method"],
                                      gen.folds[int(r["fold"])][1])
        if int(r["excluded_docs"]) != excluded:
            problems.append(f"report.csv: {r['method']} fold {r['fold']} "
                            f"excluded {r['excluded_docs']}, expected {excluded}")
    summary = json.loads(snap["eval/summary.json"])
    if sorted(summary["methods"]) != sorted(methods):
        problems.append("summary.json: methods differ from the command")
    return problems


def _unit_rows(gen: Generated, words) -> np.ndarray:
    x = np.array([gen.vectors[w] for w in words], dtype=np.float64)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _highs_wmd(gen: Generated, a: Counter, b: Counter) -> float:
    wa, wb = sorted(a), sorted(b)
    pa = np.array([a[w] for w in wa], dtype=float)
    pb = np.array([b[w] for w in wb], dtype=float)
    pa, pb = pa / pa.sum(), pb / pb.sum()
    xa, xb = _unit_rows(gen, wa), _unit_rows(gen, wb)
    cost = np.sqrt(np.maximum(
        ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2), 0.0))
    n, m = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([pa, pb]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-12)


def check_scatter(snap: dict[str, bytes], gen: Generated, n_pairs: int,
                  seed: int) -> list[str]:
    """Every scatter row against an independent HiGHS solve and BOW L1."""
    counts = in_vocab_counts(gen)
    ids = [i for i, c in enumerate(counts) if c]
    rng = np.random.default_rng(seed)  # the pair draws of `analyze --seed`
    pairs = [rng.choice(len(ids), size=2, replace=False) for _ in range(n_pairs)]
    rows = _rows(snap["analyze/scatter.csv"])
    if len(rows) != n_pairs:
        return [f"scatter.csv has {len(rows)} rows, expected {n_pairs}"]
    problems = []
    for (i, j), row in zip(pairs, rows):
        a, b = counts[ids[int(i)]], counts[ids[int(j)]]
        na, nb = sum(a.values()), sum(b.values())
        bow = math.fsum(abs(a[w] / na - b[w] / nb) for w in set(a) | set(b))
        wmd = _highs_wmd(gen, a, b)
        if not _close(float(row["wmd"]), wmd):
            problems.append(f"scatter.csv: wmd {row['wmd']} != HiGHS {wmd!r}")
        if not _close(float(row["bow_l1l1"]), bow):
            problems.append(f"scatter.csv: bow {row['bow_l1l1']} != {bow!r}")
    pearson = json.loads(snap["analyze/scatter_pearson.json"])
    if pearson["n_pairs"] != n_pairs or not -1.0 <= pearson["pearson"] <= 1.0:
        problems.append(f"scatter_pearson.json: {pearson}")
    return problems


def check_histogram(snap: dict[str, bytes], gen: Generated) -> list[str]:
    """Masses are nonnegative and sum to one unit per nearest-neighbour pair."""
    n_pairs = sum(_usable(gen, "count"))  # multi-fold: leave-one-out
    masses = [float(r["mass"]) for r in
              _rows(snap["analyze/transport_histogram.csv"])]
    problems = [f"transport_histogram.csv: negative mass {m}"
                for m in masses if m < 0]
    total = math.fsum(masses)
    if abs(total - n_pairs) > REL_TOL:
        problems.append(f"transport_histogram.csv: masses sum to {total!r}, "
                        f"expected {n_pairs}")
    return problems


def check_dims(snap: dict[str, bytes], dims: list[int]) -> list[str]:
    rows = _rows(snap["analyze/dim_comparison.csv"])
    got = [int(r["dim"]) for r in rows]
    bad = [r for r in rows if not -1.0 <= float(r["pearson"]) <= 1.0]
    return ([f"dim_comparison.csv dims {got} != {dims}"] if got != dims else []) \
        + [f"dim_comparison.csv: pearson {r['pearson']} out of range"
           for r in bad]
