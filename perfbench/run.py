"""Layered benchmark of the wmdlab command line on seeded synthetic workloads.

    python3 perfbench/run.py                    # every workload, one table
    python3 perfbench/run.py --workload twitter-like --seed 3 --seconds 35 --trace 0

Run it from the root of a wmdlab checkout; it imports ``src/wmdlab`` from
there and works in ``.perfbench_work/``. For one workload it generates the
inputs from ``--seed``, then runs the workload's commands one after another
(a closed loop with one client), each in a fresh ``python -m wmdlab.cli``
process: first on an empty cache (cold), then again on the cache they left
(warm), in rounds that fill ``--seconds``. Outputs are checked outside the
timed region. The last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or with the per-layer
metrics of a traced cold and warm phase (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from gen import Generated, Shape, generate
from layers import LAYER_METRICS, phase_metrics

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKERS = "2"          # nproc of the machine the benchmark was sized on
MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0    # a run must end within 180 s
DEFAULT_SEED = 0       # the seed whose report digests are recorded
CLI_SEED = 0           # every command gets --seed 0; --seed drives the inputs
CLI = ["-m", "wmdlab.cli"]

TWITTER_SHAPE = dict(n_classes=3, unique_words=10, n_folds=1, class_pool=250,
                     shared_pool=250, own_frac=0.5, topic_noise=3.0,
                     oov_frac=0.05, all_oov_docs=4)
GRID = tuple(f"{kind}({norm},{metric})" for kind in ("bow", "tfidf")
             for norm in ("none", "l1", "l2") for metric in ("l1", "l2"))


@dataclass(frozen=True)
class Workload:
    shape: Shape
    methods: tuple[str, ...]
    classifier: str
    pairs: int = 0                 # `analyze --pairs`; 0: no analyze command
    dims: tuple[int, ...] = ()     # `analyze --dims`

    def commands(self) -> list[list[str]]:
        common = ["--dataset", "docs.txt", "--embeddings", "vectors.bin",
                  "--format", "word2vec-binary", "--workers", WORKERS,
                  "--seed", str(CLI_SEED), "--cache-dir", "cache"]
        cmds = [["eval", *common, "--method", ",".join(self.methods),
                 "--classifier", self.classifier, "--out", "out/eval"]]
        if self.pairs:
            cmds.append(["analyze", *common, "--pairs", str(self.pairs),
                         "--dims", ",".join(map(str, self.dims)),
                         "--out", "out/analyze"])
        return cmds


# Why each workload is here is recorded in BENCHMARK.json. Document counts
# are cut from the Kusner et al. sizes so that a run stays under a minute on
# 2 CPUs; unique words per document are kept.
WORKLOADS = {
    # 30x30 solves; each pair solved ~4.7 times across folds and commands.
    "bbcsport-like": Workload(
        Shape(n_docs=15, n_classes=5, unique_words=30, n_folds=2,
              class_pool=120, shared_pool=300, own_frac=0.4, topic_noise=3.0),
        methods=("bow(l1,l1)", "wmd"), classifier="knn", pairs=100,
        dims=(20,)),
    # 10x10 solves, OOV tokens and all-OOV documents.
    "twitter-like": Workload(
        Shape(n_docs=100, **TWITTER_SHAPE),
        methods=("bow(l1,l1)", "tfidf(l1,l1)", "wmd-tfidf"),
        classifier="wknn"),
    # No transport at all: solver changes must leave it flat.
    "bow-grid": Workload(
        Shape(n_docs=200, **TWITTER_SHAPE), methods=GRID, classifier="knn"),
}

END_TO_END = {"wall_s": "s", "rerun_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "cache_mb": "MB"}


class Failure(Exception):
    """A command failed or ran out of time; the run stops measuring."""


@dataclass
class Ledger:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, what: str, check, *args) -> None:
        """Run one output check; an output it cannot read fails it."""
        self.attempted += 1
        try:
            found = check(*args)
        except Exception as exc:  # unreadable output: the check fails
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            self.problems.append(f"{what}: " + "; ".join(found[:5]))

    @property
    def failed(self) -> int:
        return len(self.problems)


class Runner:
    """Starts processes in the work directory and waits for every one."""

    def __init__(self, work: Path, deadline: float, ledger: Ledger):
        self.work, self.deadline, self.ledger = work, deadline, ledger
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = "1"  # 2 pool workers x 1 BLAS thread = nproc
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("WMDLAB_CACHE_DIR", None)  # it would override --cache-dir
        self.n = 0

    def run(self, argv: list[str]) -> tuple[float, int, str]:
        """Wall seconds, peak RSS in KiB of the process tree, and stdout."""
        self.ledger.attempted += 1
        self.n += 1
        log = self.work / f"log.{self.n}.txt"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.ledger.problems.append(f"no time left for {argv[:3]}")
            raise Failure(argv[:3])
        with open(log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.work,
                                    env=self.env, stdout=subprocess.PIPE,
                                    stderr=err, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            timer.cancel()
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._reap_group(proc.pid)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            self.ledger.problems.append(
                f"{argv[:3]} exited {proc.returncode}: {tail}")
            raise Failure(argv[:3])
        return wall, usage.ru_maxrss, out.decode()

    @staticmethod
    def _reap_group(pgid: int) -> None:
        """Wait until no process of the command's session is left."""
        for _ in range(500):
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)
        _kill_group(pgid)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _imported_here(module: str) -> list[str]:
    return [] if Path(module).is_relative_to(ROOT / "src") else [module]


def _clear(work: Path) -> None:
    for name in ("cache", "out"):
        shutil.rmtree(work / name, ignore_errors=True)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _phase(runner: Runner, cmds: list[list[str]], prefix: list[str],
           spans: str | None = None) -> tuple[float, int]:
    """Run the commands once; summed wall seconds and the largest RSS."""
    wall, peak = 0.0, 0
    for cmd in cmds:
        argv = [*prefix, "--spans", spans, "--", *cmd] if spans else \
            [*prefix, *cmd]
        w, rss, _ = runner.run(argv)
        wall, peak = wall + w, max(peak, rss)
    return wall, peak


def _output_checks(ledger: Ledger, wl: Workload, name: str, seed: int,
                   gen: Generated, snap: dict[str, bytes]) -> None:
    ledger.check("report", checks.check_report, snap, gen, wl.methods)
    if wl.pairs:
        ledger.check("scatter", checks.check_scatter, snap, gen, wl.pairs,
                     CLI_SEED)
        ledger.check("histogram", checks.check_histogram, snap, gen)
        ledger.check("dims", checks.check_dims, snap, list(wl.dims))
    if seed == DEFAULT_SEED:
        ledger.check("digests", checks.check_digests, snap,
                     HERE / "baseline.json", name)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    wl = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    ledger = Ledger()
    runner = Runner(work, started + RUN_LIMIT_S, ledger)
    metrics: dict[str, float | None] = {}
    try:
        gen = generate(wl.shape, seed, work)
        if trace:
            metrics = _traced(runner, wl, name, seed, gen)
        else:
            metrics = _untraced(runner, wl, name, seed, gen, seconds)
    except Failure:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"metrics": metrics, "attempted": ledger.attempted,
            "failed": ledger.failed, "problems": ledger.problems}


def _untraced(runner: Runner, wl: Workload, name: str, seed: int,
              gen: Generated, seconds: float) -> dict:
    """Rounds of (setup probe, cold pass, warm pass): at least MIN_ROUNDS,
    and more while another round still fits in ``seconds``."""
    ledger, cmds = runner.ledger, wl.commands()
    samples: dict[str, list[float]] = {k: [] for k in END_TO_END}
    first_cold = None
    start = time.monotonic()

    def another_round_fits() -> bool:
        done = len(samples["wall_s"])
        if done < MIN_ROUNDS:
            return True
        elapsed = time.monotonic() - start
        return (elapsed * (done + 1) / done <= seconds
                and runner.deadline - time.monotonic() > 2 * elapsed / done)

    while another_round_fits():
        _, _, out = runner.run([str(HERE / "setup_probe.py"), *cmds[0]])
        probe = json.loads(out.splitlines()[-1])
        ledger.check("wmdlab imported from this checkout", _imported_here,
                     probe["module"])
        samples["setup_s"].append(probe["setup_s"])

        _clear(runner.work)
        wall, peak = _phase(runner, cmds, CLI)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(peak * 1024 / 1e6)
        samples["cache_mb"].append(_dir_bytes(runner.work / "cache") / 1e6)
        cold = checks.snapshot(runner.work / "out")
        if first_cold is None:
            first_cold = cold
        else:
            ledger.check("cold outputs equal the first cold outputs",
                         checks.same_files, first_cold, cold)
        samples["rerun_s"].append(_phase(runner, cmds, CLI)[0])
        ledger.check("warm outputs equal cold outputs", checks.same_files,
                     cold, checks.snapshot(runner.work / "out"))
    _output_checks(ledger, wl, name, seed, gen, first_cold)
    for metric, values in samples.items():
        print(f"{name}: {metric} per round: "
              + " ".join(f"{v:.4g}" for v in values))
    return {k: statistics.median(v) for k, v in samples.items()}


def _traced(runner: Runner, wl: Workload, name: str, seed: int,
            gen: Generated) -> dict:
    """One untraced cold and warm pass, then both phases through tracer.py."""
    ledger, cmds = runner.ledger, wl.commands()
    _clear(runner.work)
    untraced = {"cold": _phase(runner, cmds, CLI)[0]}
    cold = checks.snapshot(runner.work / "out")
    untraced["warm"] = _phase(runner, cmds, CLI)[0]
    ledger.check("warm outputs equal cold outputs", checks.same_files,
                 cold, checks.snapshot(runner.work / "out"))
    _output_checks(ledger, wl, name, seed, gen, cold)

    _clear(runner.work)
    tracer = [str(HERE / "tracer.py")]
    metrics = {}
    for phase in ("cold", "warm"):
        spans = runner.work / "spans" / phase
        traced_wall, _ = _phase(runner, cmds, tracer, spans=str(spans))
        ledger.check(f"traced {phase} outputs equal untraced outputs",
                     checks.same_files, cold,
                     checks.snapshot(runner.work / "out"))
        try:
            values, missing = phase_metrics(spans, traced_wall,
                                            untraced[phase])
        except Exception as exc:  # the layers are reported missing instead
            values, missing = {}, [f"{type(exc).__name__}: {exc}"]
        if missing:
            print(f"{phase}: missing from the program: {', '.join(missing)}")
        metrics.update({f"{phase}.{k}": v for k, v in values.items()})
    return metrics


def _units() -> dict[str, str]:
    units = dict(END_TO_END)
    for phase in ("cold", "warm"):
        units.update({f"{phase}.{k}": v[0] for k, v in LAYER_METRICS.items()})
    return units


def _report(name: str, result: dict, trace: bool) -> dict:
    units = _units()
    names = [f"{p}.{k}" for p in ("cold", "warm") for k in LAYER_METRICS] \
        if trace else list(END_TO_END)
    for problem in result["problems"]:
        print(f"FAILED {name}: {problem}")
    frac = result["failed"] / max(1, result["attempted"])
    print(f"{name}: failed_frac = {frac:.4f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for metric in names:
        value = result["metrics"].get(metric)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name}: {metric} = {shown} {units[metric]}")
    return {"correct": result["failed"] == 0,
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": {m: {"value": result["metrics"].get(m),
                            "unit": units[m]} for m in names}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "wmdlab" / "cli.py").is_file():
        print(f"error: {ROOT} is not the root of a wmdlab checkout "
              "(src/wmdlab/cli.py is missing)", file=sys.stderr)
        return 2
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(_report(args.workload, result, bool(args.trace))))
        return 0
    rows = []
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        rows.append(_report(name, result, bool(args.trace)))
        print()
    return 0 if all(r["correct"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
