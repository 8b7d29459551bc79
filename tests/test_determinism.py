"""Same inputs give the same bytes, whatever the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import multisent
from multisent.cli import main

SRC = str(Path(multisent.__file__).resolve().parent.parent)


def test_fine_tuned_cnn_checkpoint_ignores_blas_threads(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--seed", "2", "--tweets", "36"]) == 0
    cfg = tmp_path / "cnn.cfg"
    cfg.write_text("\n".join([
        f"corpus = {tmp_path / 'corpus.jsonl'}",
        "languages = en,ja,zh",
        "kind = cnn",
        "seed = 0",
        "window_sizes = 2,3",
        *[f"embedding.{lang} = {tmp_path / (lang + '.vec')}" for lang in ("en", "ja", "zh")],
        "train.batch_size = 8",
        "train.max_epochs = 3",
        "train.patience = 3",
        "train.filters_per_window = 8",
        "train.fine_tune_embeddings = true",
    ]) + "\n")
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"model-{threads}.ckpt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "multisent.cli", "train",
                        "--config", str(cfg), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        checkpoints.append(out.read_bytes())
    assert b"tensor __embeddings__" in checkpoints[0]
    assert checkpoints[0] == checkpoints[1]
