"""Reusing one workspace across batches keeps every bit.

The kernels write their per-batch arrays into a workspace's slabs; a
batch run on a workspace that earlier, larger or smaller batches used
must give the loss, gradients, input gradient and probabilities of the
same batch run on a fresh one. Training twice in one process must write
the checkpoint a fresh process writes. Since one workspace passes from a
fold's training to its test prediction and on to the next fold, no
kernel may read a slab entry it has not written in the same call.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import multisent
from multisent.cli import main
from multisent.nn import NeuralModel, init_cnn_params, init_lstm_params
from multisent.nn.model import loss_and_gradients, predict_proba_batch
from multisent.nn.train import TrainConfig, predict_batch, save_checkpoint, train
from multisent.nn.workspace import Workspace
from multisent.rng import SplitMix64, derive_stream

from conftest import marker_tweets, toy_context

SRC = str(Path(multisent.__file__).resolve().parent.parent)

DIM = 4
MAX_LEN = 12
# (batch size, longest example): grows, shrinks, then grows past the first peak.
SCHEDULE = [(3, 4), (6, 9), (2, 3), (1, 1), (5, 7), (8, 12), (4, 6)]


def _batches():
    rng = SplitMix64(derive_stream(5, "workspace-batches"))
    batches = []
    for size, longest in SCHEDULE:
        lengths = [longest] + [1 + rng.next_below(longest) for _ in range(size - 1)]
        batches.append([(rng.uniform_array(n * DIM, -1.0, 1.0).reshape(n, DIM),
                         rng.next_below(3)) for n in lengths])
    return batches


def _model(kind: str) -> NeuralModel:
    if kind == "cnn":
        params = init_cnn_params(DIM, seed=2, window_sizes=(2, 3), filters_per_window=3)
    else:
        params = init_lstm_params(DIM, 3, seed=2)
    return NeuralModel(kind=kind, params=params, max_len=MAX_LEN, dropout_rate=0.5)


def test_smaller_request_reuses_the_slab():
    ws = Workspace()
    big = ws.get("a", (4, 5))
    small = ws.get("a", (3, 2))
    assert small.shape == (3, 2) and small.flags.c_contiguous
    assert np.shares_memory(big, small)
    assert not np.shares_memory(ws.get("a", (5, 5)), ws.get("b", (5, 5)))
    assert not ws.zeros("a", (2, 2)).any()


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
@pytest.mark.parametrize("want_dx", [False, True])
def test_reused_workspace_gives_the_bits_of_a_fresh_one(kind, want_dx):
    model = _model(kind)
    shared = Workspace()
    for b, batch in enumerate(_batches()):
        fresh_loss, fresh_grads, fresh_dX = loss_and_gradients(model, batch, b, want_dx)
        loss, grads, dX = loss_and_gradients(model, batch, b, want_dx, shared)
        assert loss == fresh_loss
        assert grads.keys() == fresh_grads.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == fresh_grads[name].tobytes(), (b, name)
        if want_dx:
            assert dX.shape == fresh_dX.shape and dX.tobytes() == fresh_dX.tobytes(), b
        else:
            assert dX is None and fresh_dX is None


@pytest.mark.parametrize("kind", ["cnn", "lstm"])
def test_reused_workspace_predicts_the_bits_of_a_fresh_one(kind):
    model = _model(kind)
    shared = Workspace()
    for batch in _batches():
        examples = [x for x, _ in batch]
        got = predict_proba_batch(model, examples, shared)
        assert got.tobytes() == predict_proba_batch(model, examples).tobytes()


def test_training_twice_in_one_process_writes_a_fresh_process_checkpoint(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--seed", "3", "--tweets", "36"]) == 0
    common = [
        f"corpus = {tmp_path / 'corpus.jsonl'}",
        "languages = en,ja,zh",
        "seed = 0",
        "window_sizes = 2,3",
        *[f"embedding.{lang} = {tmp_path / (lang + '.vec')}" for lang in ("en", "ja", "zh")],
        "train.batch_size = 8",
        "train.max_epochs = 2",
        "train.patience = 2",
    ]
    configs = {
        "cnn": ["kind = cnn", "train.filters_per_window = 6", "train.fine_tune_embeddings = true"],
        "lstm": ["kind = lstm", "train.hidden_dim = 5"],
    }
    for name, lines in configs.items():
        (tmp_path / f"{name}.cfg").write_text("\n".join(common + lines) + "\n")

    def run_in_process(name: str, out: str) -> bytes:
        assert main(["train", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out).read_bytes()

    first = {name: run_in_process(name, f"{name}-1.ckpt") for name in configs}
    second = {name: run_in_process(name, f"{name}-2.ckpt") for name in reversed(configs)}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    for name in configs:
        out = tmp_path / f"{name}-fresh.ckpt"
        subprocess.run([sys.executable, "-m", "multisent.cli", "train",
                        "--config", str(tmp_path / f"{name}.cfg"), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        assert first[name] == second[name] == out.read_bytes(), name


def _poison(ws: Workspace) -> None:
    assert ws._slabs
    for slab in ws._slabs.values():
        slab.fill(np.nan)


@pytest.mark.parametrize("kind, over", [
    ("cnn", dict(fine_tune_embeddings=True, window_sizes=(2, 3), filters_per_window=4)),
    ("lstm", dict(hidden_dim=5)),
])
def test_nan_filled_slabs_change_no_prediction_or_checkpoint(tmp_path, kind, over):
    # Lengths 2 to 5, so batches hold padding rows, which must read as zeros.
    tweets = [replace(tw, tokens=tw.tokens[:2 + i % 4])
              for i, tw in enumerate(marker_tweets(30, tokens_per_tweet=6))]
    ctx = toy_context(tweets, dim=DIM)
    train_tweets, dev_tweets, test_tweets = tweets[:18], tweets[18:24], tweets[24:]
    config = TrainConfig(batch_size=4, max_epochs=2, patience=2, dropout_rate=0.2, **over)

    def checkpoint(trained, name: str) -> bytes:
        save_checkpoint(trained, tmp_path / name)
        return (tmp_path / name).read_bytes()

    ws = Workspace()
    trained = train(kind, train_tweets, dev_tweets, ctx, config, ws)
    _poison(ws)
    got = predict_batch(trained, test_tweets, ctx, ws)
    fresh = predict_batch(trained, test_tweets, ctx)
    assert [label for label, _ in got] == [label for label, _ in fresh]
    assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, fresh))

    _poison(ws)
    again = train(kind, train_tweets, dev_tweets, ctx, config, ws)
    fresh_model = train(kind, train_tweets, dev_tweets, ctx, config)
    assert checkpoint(again, "again.ckpt") == checkpoint(fresh_model, "fresh.ckpt")
