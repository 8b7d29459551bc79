"""The repository benchmark: one closed-loop client running user operations.

    python3 perfbench/run.py --workload cv-cnn-ft --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The client sets up the workload's input files from the seed, then runs
one operation at a time (`multisent evaluate` or `multisent predict`, each
in a fresh process with BLAS pinned to one thread) until `--seconds` have
passed. Every operation's output is checked; see README.md. The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0        # a run must end within 180 s
MIN_OPS = 3               # timed operations per run, even past --seconds
SETUPS = 3                # set-ups per run at least; setup_s is their median
SETUP_BUDGET_S = 1.0      # cheap set-ups repeat until they took this long
SETUPS_MAX = 15

# Sizes. Epoch counts are fixed (patience = max_epochs) so the work done
# does not depend on float summation order.
CV_TWEETS = 450
UNSEEN_TWEETS = 3000
DISTRACTOR_ROWS = 10000
CNN = {"window_sizes": "2,3", "train.filters_per_window": 50, "train.batch_size": 50,
       "train.max_epochs": 3, "train.patience": 3, "train.fine_tune_embeddings": "true"}
LSTM = {"train.hidden_dim": 50, "train.batch_size": 50,
        "train.max_epochs": 3, "train.patience": 3}

END_TO_END = {
    "run_s": "s", "tweets_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MB", "accuracy": "ratio", "error_rate": "ratio",
}


@dataclass
class Prepared:
    """One set-up workload: the operation to run and how to score it."""

    commands: list[list[str]]
    outputs: list[str]          # files the operation writes, relative to the set-up dir
    score: object               # (dir) -> (canonical bytes, accuracies, records classified)
    expected_errors: int        # records that must fail: those that normalize to nothing
    inputs: dict = field(default_factory=dict)


def _pinned_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(threads)
    return env


def _cv_score(*reports: str):
    """Score `evaluate` reports: canonical bytes, accuracies, records classified."""
    from multisent.experiment import CVReport

    def score(d: Path):
        canon, accs, produced = [], [], 0
        for name in reports:
            rep = CVReport.from_json((d / name).read_text(encoding="utf-8"))
            canon.append(rep.canonical_json())
            accs.append(rep.mean_accuracy)
            produced += int(sum(s["total"] for s in rep.per_language.values()))
        return "\n".join(canon).encode(), accs, produced
    return score


def _cnn_config(d: Path, seed: int, tables, dicts, distractors: int) -> dict:
    """Tables, global matrices and the CNN config; returns the tables' sizes."""
    import gen

    rows = {lang: gen.write_vec(d / f"{lang}.vec", t, distractors, seed)
            for lang, t in tables.items()}
    mats = gen.fit_global_matrices(d, tables, dicts, seed)
    cfg = {"corpus": "corpus.jsonl", "languages": ",".join(gen.LANGS), "kind": "cnn",
           "folds": 5, "seed": seed, "alignment": "translation_matrix"}
    cfg.update({f"embedding.{lang}": f"{lang}.vec" for lang in gen.LANGS})
    cfg.update({f"matrix.{lang}": p.name for lang, p in mats.items()})
    cfg.update(CNN)
    gen.write_config(d / "cnn.cfg", cfg)
    return {"vec_rows": rows,
            "vec_bytes": {lang: (d / f"{lang}.vec").stat().st_size for lang in gen.LANGS}}


def setup_cv_cnn_ft(d: Path, seed: int) -> Prepared:
    import gen

    _, tables, dicts, drops = gen.write_corpus(d, seed, CV_TWEETS)
    info = _cnn_config(d, seed, tables, dicts, 0)
    return Prepared([["evaluate", "--config", "cnn.cfg", "--out", "report.json"]],
                    ["report.json"], _cv_score("report.json"), drops, info)


def setup_cv_lstm(d: Path, seed: int) -> Prepared:
    import gen

    _, tables, dicts, drops = gen.write_corpus(d, seed, CV_TWEETS)
    cfg = {"corpus": "corpus.jsonl", "languages": ",".join(gen.LANGS), "kind": "lstm",
           "folds": 5, "seed": seed, "alignment": "translation_matrix", "refit": "per_fold",
           "target_language": gen.TARGET, "pivot_count": gen.PIVOTS,
           "pivot_train_count": gen.PIVOTS_TRAIN}
    for lang, t in tables.items():
        gen.write_vec(d / f"{lang}.vec", t)
        cfg[f"embedding.{lang}"] = f"{lang}.vec"
    for lang, mapping in dicts.items():
        gen.write_dictionary(d / f"{lang}-{gen.TARGET}.tsv", mapping)
        cfg[f"dictionary.{lang}"] = f"{lang}-{gen.TARGET}.tsv"
    cfg.update(LSTM)
    gen.write_config(d / "lstm.cfg", cfg)
    return Prepared([["evaluate", "--config", "lstm.cfg", "--out", "report.json"]],
                    ["report.json"], _cv_score("report.json"), drops)


def setup_cv_ngram(d: Path, seed: int) -> Prepared:
    import gen

    *_, drops = gen.write_corpus(d, seed, CV_TWEETS)
    commands = []
    for kind in ("nb", "svm"):
        gen.write_config(d / f"{kind}.cfg", {"corpus": "corpus.jsonl",
                                             "languages": ",".join(gen.LANGS),
                                             "kind": kind, "folds": 5, "seed": seed})
        commands.append(["evaluate", "--config", f"{kind}.cfg", "--out", f"{kind}.json"])
    return Prepared(commands, ["nb.json", "svm.json"], _cv_score("nb.json", "svm.json"),
                    2 * drops)


def setup_predict_cnn(d: Path, seed: int) -> Prepared:
    import gen
    from multisent import cli

    unseen, tables, dicts, _ = gen.write_corpus(d, seed, CV_TWEETS, UNSEEN_TWEETS)
    info = _cnn_config(d, seed, tables, dicts, DISTRACTOR_ROWS)
    cwd = os.getcwd()
    os.chdir(d)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(["train", "--config", "cnn.cfg", "--out", "model.ckpt"])
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"training the predict checkpoint exited with {code}")
    labels = {r.id: int(r.label) for r in unseen}

    def score(dd: Path):
        data = (dd / "preds.jsonl").read_bytes()
        preds = [json.loads(line) for line in data.decode().splitlines()]
        correct = sum(1 for p in preds if labels.get(p["id"]) == p["label"])
        return data, [correct / len(labels)], len(preds)

    command = ["predict", "--model", "model.ckpt", "--in", "unseen.jsonl", "--out", "preds.jsonl"]
    for lang in gen.LANGS:
        command += ["--embedding", f"{lang}={lang}.vec"]
    for lang in dicts:
        command += ["--matrix", f"{lang}={lang}-{gen.TARGET}.mat"]
    info["unseen_tweets"] = len(unseen)
    return Prepared([command], ["preds.jsonl"], score, gen.drops(unseen), info)


@dataclass
class Workload:
    name: str
    setup: object
    attempted: int              # records each operation is asked to classify
    accuracy_floor: float


WORKLOADS = {
    w.name: w for w in (
        Workload("cv-cnn-ft", setup_cv_cnn_ft, CV_TWEETS, 0.85),
        Workload("cv-lstm", setup_cv_lstm, CV_TWEETS, 0.7),
        Workload("cv-ngram", setup_cv_ngram, 2 * CV_TWEETS, 0.6),
        Workload("predict-cnn", setup_predict_cnn, UNSEEN_TWEETS, 0.85),
    )
}


def _digest(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(d).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, count."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "percentile": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(n * p / 100.0)
        if n - rank >= 10:
            out["percentile"] = {"p": p, "value": s[rank - 1]}
            break
    return out


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
    }


class Run:
    """One run of one workload: set-ups, timed operations, checks."""

    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool, started: float):
        self.w, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = started
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.checks: dict[str, bool] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> tuple[Path, Prepared, list[float]]:
        times, digests, prepared, d = [], [], None, None
        spent = 0.0
        while len(times) < SETUPS or (spent < SETUP_BUDGET_S and len(times) < SETUPS_MAX):
            if d is not None:
                shutil.rmtree(d)
            d = self.dir / f"setup{len(times)}"
            d.mkdir(parents=True)
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                prepared = self.w.setup(d, self.seed)
                wall = time.perf_counter() - t0
            spent += wall
            times.append(wall * probe.factor())
            digests.append(_digest(d))
        self.checks["setup_identical_bytes"] = len(set(digests)) == 1
        return d, prepared, times

    def op(self, d: Path, p: Prepared, trace: bool, threads: int = 1) -> dict | None:
        for name in p.outputs:
            (d / name).unlink(missing_ok=True)
        result = self.dir / "op.json"
        result.unlink(missing_ok=True)
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--result", str(result),
                 "--trace", str(int(trace)), json.dumps(p.commands)],
                cwd=d, env=_pinned_env(threads), capture_output=True, text=True,
                timeout=max(remaining, 1.0),
            )
            res = json.loads(result.read_text(encoding="utf-8")) if proc.returncode == 0 else None
        except (subprocess.TimeoutExpired, OSError, ValueError) as err:
            proc, res = None, None
            self.failures.append(f"operation did not finish: {err}")
        if res is None or res["exit"] != 0:
            self.failed += 1
            detail = (res or {}).get("error") or (proc.stderr[-2000:] if proc else "")
            self.failures.append(f"operation failed: {detail.strip()}")
            return None
        res["canonical"], res["accuracies"], res["produced"] = p.score(d)
        return res

    def execute(self) -> dict:
        d, prepared, setup_times = self.set_up()
        timed, traced = [], []
        t_end = time.perf_counter() + self.seconds
        while True:
            res = self.op(d, prepared, trace=False)
            if res is None:
                break
            timed.append(res)
            if self.trace:
                res = self.op(d, prepared, trace=True)
                if res is None:
                    break
                traced.append(res)
            if time.perf_counter() >= t_end and len(timed) >= MIN_OPS:
                break
        two_threads = self.op(d, prepared, trace=False, threads=2) if not self.failures else None

        first = timed[0]["canonical"] if timed else None
        self.checks["repeat_identical_bytes"] = bool(timed) and all(
            r["canonical"] == first for r in timed + traced)
        self.checks["blas2_identical_bytes"] = (
            two_threads is not None and two_threads["canonical"] == first)
        accs = timed[0]["accuracies"] if timed else []
        self.checks["accuracy_above_floor"] = bool(accs) and min(accs) >= self.w.accuracy_floor
        errors = (self.w.attempted - timed[0]["produced"]) if timed else None
        self.checks["errors_are_empty_records"] = errors == prepared.expected_errors
        self.checks["no_failed_operations"] = self.failed == 0

        run_s = [r["run_s"] for r in timed]
        stats = {
            "run_s": summarize(run_s) if run_s else None,
            "tweets_per_s": summarize([r["produced"] / r["run_s"] for r in timed]) if timed else None,
            "setup_s": summarize(setup_times),
            "peak_rss_mb": summarize([r["peak_rss_mb"] for r in timed]) if timed else None,
        }
        raw = {"wall_s": [r["wall_s"] for r in timed],
               "speed_factor": [r["speed_factor"] for r in timed]}
        values = {k: v["median"] for k, v in stats.items() if v is not None}
        if timed:
            values["accuracy"] = statistics.fmean(accs)
            values["error_rate"] = errors / self.w.attempted
        layers = {}
        if traced:
            names = traced[0]["layers"]
            layers = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
            layers["trace.overhead_ratio"] = (
                statistics.median(r["run_s"] for r in traced) / statistics.median(run_s) - 1.0)
        return {"stats": stats, "values": values, "layers": layers, "inputs": prepared.inputs,
                "samples": raw}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(WORKLOADS[name], seed, seconds, trace, time.perf_counter())
    try:
        out = run.execute()
    except Exception as err:  # set-up errors fail the run, with the reason
        run.failures.append(f"{type(err).__name__}: {err}")
        run.failed += 1
        out = {"stats": {}, "values": {}, "layers": {}, "inputs": {}, "samples": {}}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()   # only when no other run is using it
    out.update(workload=name, seed=seed, checks=run.checks, failures=run.failures,
               attempted=max(run.attempted, 1), failed=run.failed)
    out["correct"] = not run.failures and bool(run.checks) and all(run.checks.values())
    return out


def report(out: dict, trace: bool) -> None:
    """Human-readable lines for one workload."""
    print(f"== {out['workload']} (seed {out['seed']})")
    for name, unit in END_TO_END.items():
        if name not in out["values"]:
            continue
        st = out["stats"].get(name)
        extra = ""
        if st:
            pct = st["percentile"]
            extra = (f"  (median of n={st['n']}; "
                     + (f"p{pct['p']:g}={pct['value']:.6g}" if pct else
                        "no percentile with >=10 samples beyond it") + ")")
        print(f"  {name:<14} {out['values'][name]:.6g} {unit}{extra}")
    if trace:
        for name, value in out["layers"].items():
            print(f"  {name:<34} {value:.6g}")
    for check, ok in out["checks"].items():
        print(f"  check {check}: {'pass' if ok else 'FAIL'}")
    for msg in out["failures"]:
        print(f"  failure: {msg}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multisent" / "__init__.py").is_file():
        print(f"error: no multisent sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    metrics: dict[str, dict] = {}
    for out in results:
        report(out, bool(args.trace))
        prefix = f"{out['workload']}." if len(results) > 1 else ""
        if args.trace:
            chosen = {k: (v, "ratio" if k.endswith("ratio") else "s" if k.endswith("_s")
                          else "count") for k, v in out["layers"].items()}
        else:
            chosen = {k: (out["values"][k], u) for k, u in END_TO_END.items()
                      if k in out["values"]}
        for k, (v, unit) in chosen.items():
            metrics[prefix + k] = {"value": v, "unit": unit}
    print(json.dumps({"environment": env, "details": [
        {k: out[k] for k in ("workload", "seed", "stats", "samples", "inputs", "checks")}
        for out in results]}))
    correct = all(out["correct"] for out in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(out["attempted"] for out in results),
        "failed": sum(out["failed"] for out in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
