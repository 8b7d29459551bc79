"""Same inputs give the same bytes, whatever the BLAS thread count, hash seed or CPU count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import multisent
from multisent.cli import main
from multisent.experiment import CVReport

SRC = str(Path(multisent.__file__).resolve().parent.parent)


def _checkpoint(path: Path) -> bytes:
    return path.read_bytes()


def _mapped_checkpoint(path: Path) -> bytes:
    data = path.read_bytes()
    assert b"alignment:ja none" not in data and b"alignment:zh none" not in data
    return data


def _canonical_report(path: Path) -> bytes:
    return CVReport.from_json(path.read_text(encoding="utf-8")).canonical_json().encode()


@pytest.mark.parametrize("command, config, read, marker", [
    pytest.param("train", ["kind = cnn", "train.filters_per_window = 8",
                           "train.fine_tune_embeddings = true"],
                 _checkpoint, b"tensor __embeddings__", id="fine-tuned-cnn-checkpoint"),
    pytest.param("train", ["kind = cnn", "train.filters_per_window = 8",
                           "alignment = translation_matrix",
                           "matrix.ja = {dir}/ja-en.mat", "matrix.zh = {dir}/zh-en.mat"],
                 _mapped_checkpoint, b"tensor filters_2", id="mapped-cnn-checkpoint"),
    pytest.param("train", ["kind = lstm"], _checkpoint, b"tensor W_i", id="lstm-checkpoint"),
    pytest.param("evaluate", ["kind = lstm", "folds = 2"], _canonical_report, b'"kind": "lstm"',
                 id="lstm-evaluate-report"),
    pytest.param("evaluate", ["kind = cnn", "train.fine_tune_embeddings = true", "folds = 2"],
                 _canonical_report, b'"kind": "cnn"', id="fine-tuned-cnn-evaluate-report"),
    pytest.param("evaluate", ["kind = svm", "folds = 2"], _canonical_report, b'"kind": "svm"',
                 id="svm-evaluate-report"),
])
def test_bytes_ignore_blas_threads(tmp_path, command, config, read, marker):
    cfg = _write_fixture(tmp_path, config)
    outputs = _outputs_per_thread_count(tmp_path, [command, "--config", str(cfg)], read)
    assert marker in outputs[0]
    assert outputs[0] == outputs[1]


def test_predictions_ignore_blas_threads(tmp_path):
    cfg = _write_fixture(tmp_path, [
        "kind = cnn", "train.filters_per_window = 8", "alignment = translation_matrix",
        "matrix.ja = {dir}/ja-en.mat", "matrix.zh = {dir}/zh-en.mat"])
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")]) == 0
    outputs = _outputs_per_thread_count(tmp_path, [
        "predict", "--model", str(tmp_path / "m.ckpt"), "--in", str(tmp_path / "corpus.jsonl"),
        *[f"--embedding={lang}={tmp_path / f'{lang}.vec'}" for lang in ("en", "ja", "zh")],
        *[f"--matrix={lang}={tmp_path / f'{lang}-en.mat'}" for lang in ("ja", "zh")],
    ], Path.read_bytes)
    assert b'"probs"' in outputs[0]
    assert outputs[0] == outputs[1]


def _write_fixture(tmp_path: Path, config: list[str]) -> Path:
    """The synth fixture, its ja/zh maps and a run config ending in config's lines."""
    assert main(["synth", "--out", str(tmp_path), "--seed", "2", "--tweets", "36"]) == 0
    for lang in ("ja", "zh"):
        assert main(["align", "--src", str(tmp_path / f"{lang}.vec"),
                     "--tgt", str(tmp_path / "en.vec"), "--dict", str(tmp_path / f"{lang}-en.tsv"),
                     "--src-lang", lang, "--tgt-lang", "en", "--k", "20", "--train", "16",
                     "--out", str(tmp_path / f"{lang}-en.mat")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        f"corpus = {tmp_path / 'corpus.jsonl'}",
        "languages = en,ja,zh",
        "seed = 0",
        "window_sizes = 2,3",
        *[f"embedding.{lang} = {tmp_path / (lang + '.vec')}" for lang in ("en", "ja", "zh")],
        "train.batch_size = 8",
        "train.max_epochs = 3",
        "train.patience = 3",
        *[line.format(dir=tmp_path) for line in config],
    ]) + "\n")
    return cfg


def _outputs_per_thread_count(tmp_path: Path, argv: list[str], read) -> list[bytes]:
    """read(out) after `multisent ARGV --out out` at 1 and at 2 BLAS threads.

    Each subprocess gets its own explicit hash seed, so no output may
    depend on the iteration order of a set or dict of strings either.
    """
    outputs = []
    for threads, hash_seed in (("1", "1"), ("2", "2")):
        out = tmp_path / f"out-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "multisent.cli", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append(read(out))
    return outputs


# `multisent ARGV` that prints the number of forks it made as its last line;
# under "pinned" it first limits its own process to one CPU.
COUNT_FORKS = """
import os, sys
from multisent.cli import main

forks = []
os.register_at_fork(before=lambda: forks.append(1))
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
code = main(sys.argv[2:])
print(len(forks))
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity (Linux)")
@pytest.mark.parametrize("config", [
    pytest.param(["kind = nb"], id="nb"),
    pytest.param(["kind = svm"], id="svm"),
    pytest.param(["kind = cnn", "train.fine_tune_embeddings = true",
                  "alignment = translation_matrix",
                  "matrix.ja = {dir}/ja-en.mat", "matrix.zh = {dir}/zh-en.mat"],
                 id="fine-tuned-cnn-global-maps"),
    pytest.param(["kind = lstm", "alignment = translation_matrix", "refit = per_fold",
                  "target_language = en", "pivot_count = 20", "pivot_train_count = 16",
                  "dictionary.ja = {dir}/ja-en.tsv", "dictionary.zh = {dir}/zh-en.tsv"],
                 id="lstm-per-fold-refit"),
])
def test_report_bytes_ignore_the_cpu_count(tmp_path, config):
    cfg = _write_fixture(tmp_path, ["folds = 3", *config])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    reports, forks = [], []
    for mode in ("pinned", "default"):
        out = tmp_path / f"{mode}.json"
        done = subprocess.run(
            [sys.executable, "-c", COUNT_FORKS, mode, "evaluate", "--config", str(cfg),
             "--out", str(out)],
            env=env, check=True, capture_output=True, text=True, timeout=300)
        reports.append(_canonical_report(out))
        forks.append(int(done.stdout.split()[-1]))
    assert reports[0] == reports[1]
    # one worker per share but the first
    assert forks == [0, min(3, len(os.sched_getaffinity(0))) - 1]
