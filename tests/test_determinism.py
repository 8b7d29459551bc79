"""Same inputs give the same bytes, whatever the BLAS thread count or hash seed."""

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
