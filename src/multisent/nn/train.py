"""Training loop: shuffled mini-batches, Adadelta, dev-set early stopping.

Determinism contract: given (config, data, context) the trained model is
bit-identical across runs. Every random draw comes from a named
substream of the config seed (epoch shuffles, per-batch dropout masks),
iteration order is fixed, and gradient reduction uses numpy's fixed
summation order.

Early stopping: after each epoch the dev accuracy is compared against
the best so far (strictly greater counts as improvement, and the best
parameters are kept); training stops once the number of epochs since
the last improvement reaches the patience, so patience 0 runs exactly
one epoch.

One parameter set serves all languages: batches may mix languages
freely and update the same tensors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ..corpus import Polarity
from ..errors import (
    ArgumentError,
    ConfigurationError,
    MultisentError,
    ParseError,
    parse_numbers,
    read_text,
)
from ..pipeline import EmbeddingContext
from ..preprocess import TokenizedTweet
from ..rng import SplitMix64, derive_stream
from .adadelta import DEFAULT_EPS, DEFAULT_RHO, AdadeltaState, adadelta_step
from .model import NeuralModel, argmax_label, loss_and_gradients, predict_proba_batch
from .params import (
    DEFAULT_FILTERS_PER_WINDOW,
    DEFAULT_WINDOW_SIZES,
    CnnParams,
    LstmParams,
    init_cnn_params,
    init_lstm_params,
)


@dataclass
class TrainConfig:
    """Hyperparameters for either architecture."""

    batch_size: int = 50
    dropout_rate: float = 0.5
    rho: float = DEFAULT_RHO
    eps: float = DEFAULT_EPS
    max_epochs: int = 25
    patience: int = 3
    seed: int = 0
    candidate_activation: str = "tanh"
    cnn_activation: str = "tanh"
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES
    filters_per_window: int = DEFAULT_FILTERS_PER_WINDOW
    hidden_dim: int | None = None
    forget_bias: float = 1.0
    fine_tune_embeddings: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ArgumentError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ArgumentError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.max_epochs < 1:
            raise ArgumentError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 0:
            raise ArgumentError(f"patience must be >= 0, got {self.patience}")


@dataclass
class FineTunedEmbeddings:
    """Training-vocabulary vectors updated alongside the model parameters."""

    index: dict[tuple[str, str], int]
    E: np.ndarray

    def rows(self, tweet: TokenizedTweet) -> np.ndarray:
        """Row in E of each token of tweet; -1 where the token has none."""
        keys = ((tweet.lang, tok) for tok in tweet.tokens)
        return np.array([self.index.get(key, -1) for key in keys], dtype=np.intp)

    def substitute(self, static: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A copy of static with each token that has a row in E taken from E."""
        out = static.copy()
        hit = rows >= 0
        out[hit] = self.E[rows[hit]]
        return out


@dataclass
class TrainedModel:
    """The best-dev network plus everything needed to reproduce its predictions."""

    model: NeuralModel
    seed: int
    fingerprints: dict[str, str]
    history: list[tuple[int, float, float]]  # (epoch, train_loss, dev_accuracy)
    best_epoch: int
    best_dev_accuracy: float
    fine_tuned: FineTunedEmbeddings | None = None


def train(
    kind: str,
    train_tweets: list[TokenizedTweet],
    dev_tweets: list[TokenizedTweet],
    context: EmbeddingContext,
    config: TrainConfig,
) -> TrainedModel:
    """Fit one classifier over all languages at once; returns the best-dev model."""
    if not train_tweets:
        raise ArgumentError("empty training set")
    if not dev_tweets:
        raise ArgumentError("empty dev set")
    dim = context.dim
    if kind == "lstm":
        hidden = config.hidden_dim if config.hidden_dim is not None else dim
        params = init_lstm_params(dim, hidden, config.seed, config.forget_bias)
    elif kind == "cnn":
        params = init_cnn_params(dim, config.seed, config.window_sizes, config.filters_per_window)
    else:
        raise ArgumentError(f"unknown model kind {kind!r}")
    model = NeuralModel(
        kind=kind,
        params=params,
        max_len=context.max_len,
        candidate_activation=config.candidate_activation,
        activation=config.cnn_activation,
        dropout_rate=config.dropout_rate,
    )

    # Each example is embedded once. With fine-tuning, a training tweet is
    # its rows in E (every training token has one), so a batch is E[ids].
    ft: FineTunedEmbeddings | None = None
    if config.fine_tune_embeddings:
        index: dict[tuple[str, str], int] = {}
        vectors: list[np.ndarray] = []
        train_ids: list[np.ndarray] = []
        for tw in train_tweets:
            emb = context.embed(tw)
            ids = []
            for t, tok in enumerate(tw.tokens):
                key = (tw.lang, tok)
                row = index.get(key)
                if row is None:
                    row = index[key] = len(vectors)
                    vectors.append(emb[t].copy())
                ids.append(row)
            train_ids.append(np.array(ids, dtype=np.intp))
        ft = FineTunedEmbeddings(index=index, E=np.stack(vectors))
    else:
        train_X = [context.embed(tw) for tw in train_tweets]
    train_y = [int(tw.label) for tw in train_tweets]
    dev_static = [context.embed(tw) for tw in dev_tweets]
    dev_rows = [ft.rows(tw) for tw in dev_tweets] if ft is not None else None
    dev_y = [int(tw.label) for tw in dev_tweets]

    tensors = model.params.tensors()
    if ft is not None:
        tensors = dict(tensors)
        tensors["__embeddings__"] = ft.E
    state = AdadeltaState.for_tensors(tensors)

    best_params = model.params.copy()
    best_ft = FineTunedEmbeddings(ft.index, ft.E.copy()) if ft is not None else None
    best_acc = -1.0
    best_epoch = 0
    epochs_since = 0
    history: list[tuple[int, float, float]] = []

    n = len(train_tweets)
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(n))
        SplitMix64(derive_stream(config.seed, "shuffle", epoch)).shuffle(order)
        total_loss = 0.0
        for b_idx, start in enumerate(range(0, n, config.batch_size)):
            chosen = order[start:start + config.batch_size]
            if ft is None:
                batch = [(train_X[i], train_y[i]) for i in chosen]
            else:
                batch = [(ft.E[train_ids[i]], train_y[i]) for i in chosen]
            dropout_seed = derive_stream(config.seed, "dropout", epoch, b_idx)
            loss, grads, dX = loss_and_gradients(model, batch, dropout_seed, want_dx=ft is not None)
            if not math.isfinite(loss):
                raise MultisentError(
                    f"training loss is {loss} in epoch {epoch}, batch {b_idx + 1}; "
                    "check the embeddings for nan or inf values"
                )
            total_loss += loss * len(batch)
            step_tensors = model.params.tensors()
            if ft is not None:
                gE = scatter_embedding_grad(ft.E.shape, [train_ids[i] for i in chosen], dX)
                step_tensors = dict(step_tensors)
                step_tensors["__embeddings__"] = ft.E
                grads = dict(grads)
                grads["__embeddings__"] = gE
            adadelta_step(step_tensors, grads, state, config.rho, config.eps)
        train_loss = total_loss / n
        if ft is None:
            dev_X = dev_static
        else:
            dev_X = [ft.substitute(x, r) for x, r in zip(dev_static, dev_rows)]
        dev_acc = _accuracy(model, dev_X, dev_y, config.batch_size)
        history.append((epoch, train_loss, dev_acc))
        if dev_acc > best_acc:
            best_acc = dev_acc
            best_params = model.params.copy()
            if ft is not None:
                best_ft = FineTunedEmbeddings(ft.index, ft.E.copy())
            best_epoch = epoch
            epochs_since = 0
        else:
            epochs_since += 1
        if epochs_since >= config.patience:
            break

    return TrainedModel(
        model=replace(model, params=best_params),
        seed=config.seed,
        fingerprints=context.fingerprint(),
        history=history,
        best_epoch=best_epoch,
        best_dev_accuracy=best_acc,
        fine_tuned=best_ft,
    )


def scatter_embedding_grad(
    shape: tuple[int, int], batch_ids: list[np.ndarray], dX: np.ndarray
) -> np.ndarray:
    """Sum each token's input gradient into its row of an E-shaped gradient.

    batch_ids[b] holds the rows of example b's tokens; dX is the padded
    (B, T, dim) input gradient. Rows are added in (example, token) order.
    np.add.at accumulates repeated rows, where `gE[ids] += ...` would keep
    only one of them.
    """
    gE = np.zeros(shape)
    lengths = np.array([ids.size for ids in batch_ids])
    real = np.arange(dX.shape[1]) < lengths[:, None]    # (B, T), row-major order
    np.add.at(gE, np.concatenate(batch_ids), dX[real])
    return gE


def _accuracy(model: NeuralModel, X: list[np.ndarray], y: list[int], batch_size: int) -> float:
    correct = 0
    for start in range(0, len(X), batch_size):
        probs = predict_proba_batch(model, X[start:start + batch_size])
        for row, label in zip(probs, y[start:start + batch_size]):
            if argmax_label(row) == label:
                correct += 1
    return correct / len(X)


def predict_batch(
    trained: TrainedModel, tweets: list[TokenizedTweet], context: EmbeddingContext
) -> list[tuple[Polarity, np.ndarray]]:
    """Classify tweets after checking the context matches the model."""
    current = context.fingerprint()
    if current != trained.fingerprints:
        changed = sorted(
            k for k in set(current) | set(trained.fingerprints)
            if current.get(k) != trained.fingerprints.get(k)
        )
        raise ConfigurationError(
            f"context does not match the model's training inputs (differs: {changed})"
        )
    model = trained.model
    ft = trained.fine_tuned
    out: list[tuple[Polarity, np.ndarray]] = []
    for start in range(0, len(tweets), 256):
        chunk = tweets[start:start + 256]
        mats = [context.embed(tw) for tw in chunk]
        if ft is not None:
            mats = [ft.substitute(x, ft.rows(tw)) for x, tw in zip(mats, chunk)]
        probs = predict_proba_batch(model, mats)
        for row, tw in zip(probs, chunk):
            out.append((Polarity(argmax_label(row)), row))
    return out


def save_training_log(trained: TrainedModel, path: str | Path) -> None:
    """Write the per-epoch history as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "dev_accuracy"])
        for epoch, loss, acc in trained.history:
            writer.writerow([epoch, f"{loss:.17g}", f"{acc:.17g}"])


CHECKPOINT_MAGIC = "multisent-model 1"


def save_checkpoint(trained: TrainedModel, path: str | Path) -> None:
    """Write a model as text: header fields, then row-major tensor blocks."""
    model = trained.model
    tensors = model.params.tensors()
    if trained.fine_tuned is not None:
        tensors["__embeddings__"] = trained.fine_tuned.E
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        fh.write(f"kind {model.kind}\n")
        fh.write(f"max_len {model.max_len}\n")
        fh.write(f"candidate_activation {model.candidate_activation}\n")
        fh.write(f"activation {model.activation}\n")
        fh.write(f"dropout_rate {model.dropout_rate:.17g}\n")
        fh.write(f"best_epoch {trained.best_epoch}\n")
        fh.write(f"best_dev_accuracy {trained.best_dev_accuracy:.17g}\n")
        fh.write(f"seed {trained.seed}\n")
        if model.kind == "cnn":
            fh.write(f"window_sizes {','.join(str(h) for h in model.params.window_sizes)}\n")
        for key in sorted(trained.fingerprints):
            fh.write(f"fingerprint {key} {trained.fingerprints[key]}\n")
        for epoch, loss, acc in trained.history:
            fh.write(f"history {epoch} {loss:.17g} {acc:.17g}\n")
        for name, tensor in tensors.items():
            shape = " ".join(str(s) for s in tensor.shape)
            fh.write(f"tensor {name} {shape}\n")
            flat = tensor.ravel()
            for start in range(0, flat.size, 8):
                fh.write(" ".join(f"{v:.17g}" for v in flat[start:start + 8]) + "\n")
        if trained.fine_tuned is not None:
            for (lang, tok), row in sorted(trained.fine_tuned.index.items(), key=lambda kv: kv[1]):
                fh.write(f"vocab {lang} {tok} {row}\n")
        fh.write("end\n")


# How many space-separated parts each fixed-form checkpoint line has.
_LINE_PARTS = {"fingerprint": 3, "history": 4, "vocab": 4}


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Read a model written by save_checkpoint.

    Malformed input (a bad number, a missing header field or tensor, a
    short line, a truncated tensor block) raises ParseError.
    """
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ParseError("not a model checkpoint (bad magic line)", line=1)
    header: dict[str, int] = {}     # field name -> index of its line
    fingerprints: dict[str, str] = {}
    history: list[tuple[int, float, float]] = []
    tensors: dict[str, np.ndarray] = {}
    vocab: dict[tuple[str, str], int] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "end":
            break
        parts = line.split(" ")
        if parts[0] == "tensor":
            if len(parts) < 2:
                raise ParseError("tensor line lacks a name", line=i + 1)
            name = parts[1]
            shape = tuple(parse_numbers(parts[2:], int, f"tensor {name} shape", line, i + 1))
            if any(d < 0 for d in shape) or (name == "__embeddings__" and len(shape) != 2):
                raise ParseError(f"tensor {name} has an impossible shape {shape}", line=i + 1)
            count = math.prod(shape)
            values: list[float] = []
            i += 1
            while len(values) < count:
                if i >= len(lines):
                    raise ParseError(
                        f"tensor {name} is truncated: {len(values)} of {count} values",
                        line=len(lines),
                    )
                try:
                    row = [float(v) for v in lines[i].split()]
                except ValueError:
                    raise ParseError(
                        f"tensor {name} is truncated: {lines[i]!r} is not a row of values",
                        line=i + 1,
                    ) from None
                if not all(map(math.isfinite, row)):
                    raise ParseError(f"tensor {name} has a non-finite value", line=i + 1)
                values.extend(row)
                i += 1
            if len(values) != count:
                raise ParseError(
                    f"tensor {name} has {len(values)} values, shape needs {count}", line=i
                )
            tensors[name] = np.array(values, dtype=np.float64).reshape(shape)
            continue
        want = _LINE_PARTS.get(parts[0])
        if want is not None and len(parts) != want:
            raise ParseError(
                f"{parts[0]} line needs {want} space-separated parts, got {len(parts)}",
                line=i + 1,
            )
        if parts[0] == "fingerprint":
            fingerprints[parts[1]] = parts[2]
        elif parts[0] == "history":
            epoch, = parse_numbers(parts[1:2], int, "history epoch", line, i + 1)
            loss, acc = parse_numbers(parts[2:], float, "history value", line, i + 1)
            history.append((epoch, loss, acc))
        elif parts[0] == "vocab":
            row, = parse_numbers(parts[3:], int, "vocab row", line, i + 1)
            n_rows = len(tensors.get("__embeddings__", ()))   # vocab lines follow the tensors
            if not 0 <= row < n_rows:
                raise ParseError(
                    f"vocab row {row} for {parts[1]} {parts[2]!r} is outside the "
                    f"{n_rows} __embeddings__ rows",
                    line=i + 1,
                )
            vocab[(parts[1], parts[2])] = row
        else:
            header[parts[0]] = i
        i += 1
    else:
        raise ParseError("missing end marker", line=len(lines))

    def field(name: str, kind: type = str, sep: str | None = None):
        """A header field's value as kind; with sep, a tuple of its sep-separated parts."""
        if name not in header:
            raise ParseError(f"checkpoint lacks the {name!r} header field", line=len(lines))
        line = lines[header[name]]
        value = line.partition(" ")[2]
        if kind is str:
            return value
        values = parse_numbers(value.split(sep) if sep else [value], kind, name, line,
                               header[name] + 1)
        return tuple(values) if sep else values[0]

    def tensor(name: str) -> np.ndarray:
        if name not in tensors:
            raise ParseError(f"checkpoint lacks tensor {name!r}", line=len(lines))
        return tensors[name]

    kind = field("kind")
    if kind not in ("lstm", "cnn"):
        raise ParseError(f"unknown model kind {kind!r}", line=header["kind"] + 1)
    E = tensors.pop("__embeddings__", None)
    if kind == "cnn":
        window_sizes = field("window_sizes", int, sep=",")
        params = CnnParams(
            window_sizes=window_sizes,
            filters={h: tensor(f"filters_{h}") for h in window_sizes},
            biases={h: tensor(f"bias_{h}") for h in window_sizes},
            V=tensor("V"),
            b_y=tensor("b_y"),
        )
    else:
        params = LstmParams(**{f.name: tensor(f.name) for f in fields(LstmParams)})
    return TrainedModel(
        model=NeuralModel(
            kind=kind,
            params=params,
            max_len=field("max_len", int),
            candidate_activation=field("candidate_activation"),
            activation=field("activation"),
            dropout_rate=field("dropout_rate", float),
        ),
        seed=field("seed", int),
        fingerprints=fingerprints,
        history=history,
        best_epoch=field("best_epoch", int),
        best_dev_accuracy=field("best_dev_accuracy", float),
        fine_tuned=None if E is None else FineTunedEmbeddings(index=vocab, E=E),
    )
