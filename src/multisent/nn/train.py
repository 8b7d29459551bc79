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

One Workspace (see nn.workspace) serves every batch of a train call, its
dev scoring included, and of each share of a predict_batch call
(`predict` deals its batches to one share per usable CPU); `evaluate`
passes one workspace to the training, dev scoring and test prediction
of every fold in a share (the folds one process runs), and that
prediction forks no further share.
The slabs that hold a batch's arrays are reused by the next batch. A
forward cache and the grads and dX a batch returns are valid only until
the next call on the same workspace; the loop consumes them (embedding
scatter, Adadelta step) before it starts the next batch.
"""

from __future__ import annotations

import csv
import io
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
    split_lines,
    write_output,
)
from ..pipeline import EmbeddingContext
from ..preprocess import TokenizedTweet
from ..rng import SplitMix64, derive_stream
from ..shares import run_shares
from .activations import ACTIVATIONS
from .adadelta import DEFAULT_EPS, DEFAULT_RHO, AdadeltaState, adadelta_step
from .model import NeuralModel, argmax_label, loss_and_gradients, predict_proba_batch
from .params import (
    DEFAULT_FILTERS_PER_WINDOW,
    DEFAULT_WINDOW_SIZES,
    N_CLASSES,
    CnnParams,
    LstmParams,
    init_cnn_params,
    init_lstm_params,
)
from .workspace import Workspace


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
        if self.filters_per_window < 1:
            raise ArgumentError(
                f"filters_per_window must be >= 1, got {self.filters_per_window}")
        if self.hidden_dim is not None and self.hidden_dim < 1:
            raise ArgumentError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if not 0.0 <= self.rho < 1.0:
            raise ArgumentError(f"rho must be finite and in [0, 1), got {self.rho}")
        if not 0.0 < self.eps < math.inf:
            raise ArgumentError(f"eps must be finite and positive, got {self.eps}")
        if not math.isfinite(self.forget_bias):
            raise ArgumentError(f"forget_bias must be finite, got {self.forget_bias}")
        for key in ("candidate_activation", "cnn_activation"):
            if getattr(self, key) not in ACTIVATIONS:
                raise ArgumentError(
                    f"{key} must be one of {', '.join(ACTIVATIONS)}, got {getattr(self, key)!r}")


@dataclass
class FineTunedEmbeddings:
    """Training-vocabulary vectors updated alongside the model parameters."""

    index: dict[tuple[str, str], int]   # (lang, token) -> row of E
    E: np.ndarray


@dataclass
class TrainedModel:
    """The best-dev network plus everything needed to reproduce its predictions."""

    model: NeuralModel
    seed: int
    fingerprints: dict[str, str]
    sources: dict[str, str]     # lang -> SHA-256 of the .vec file its table came from
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
    workspace: Workspace | None = None,
    *,
    numbered: NumberedTokens | None = None,
) -> TrainedModel:
    """Fit one classifier over all languages at once; returns the best-dev model.

    Every batch runs on workspace (a fresh one when None). numbered, when
    given, numbers train_tweets then dev_tweets against context (see
    NumberedTokens.table); without it they are numbered here.
    """
    if not train_tweets:
        raise ArgumentError("empty training set")
    if not dev_tweets:
        raise ArgumentError("empty dev set")
    if numbered is None:
        numbered = NumberedTokens.of(train_tweets + dev_tweets, context)
    elif len(numbered.ids) != len(train_tweets) + len(dev_tweets):
        raise ArgumentError(
            f"numbered holds {len(numbered.ids)} tweets, train and dev hold "
            f"{len(train_tweets) + len(dev_tweets)}"
        )
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

    # One table holds a row per key, gathered from numbered's rows in the
    # order the train then dev tweets first hold them, so the training
    # vocabulary comes first: E, the rows up to the largest train id, which
    # fine-tuning updates through a view. The tweets are renumbered into it;
    # every batch is table[ids].
    n = len(train_tweets)
    unique, first = np.unique(np.concatenate(numbered.ids), return_index=True)
    table_keys = unique[np.argsort(first)]
    remap = np.empty(len(numbered.keys), dtype=np.intp)
    remap[table_keys] = np.arange(table_keys.size)
    ids = [remap[row] for row in numbered.ids]
    train_ids, dev_ids = ids[:n], ids[n:]
    table = numbered.table(table_keys, context)
    E = table[:np.concatenate(train_ids).max(initial=-1) + 1]
    train_y = [int(tw.label) for tw in train_tweets]
    dev_y = [int(tw.label) for tw in dev_tweets]

    fine_tune = config.fine_tune_embeddings
    tensors = model.params.tensors()
    if fine_tune:
        tensors["__embeddings__"] = E
    state = AdadeltaState.for_tensors(tensors)

    best_params = model.params.copy()
    best_E = E.copy()
    best_acc = -1.0
    best_epoch = 0
    epochs_since = 0
    history: list[tuple[int, float, float]] = []

    ws = Workspace() if workspace is None else workspace
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(n))
        SplitMix64(derive_stream(config.seed, "shuffle", epoch)).shuffle(order)
        total_loss = 0.0
        for b_idx, start in enumerate(range(0, n, config.batch_size)):
            chosen = order[start:start + config.batch_size]
            batch = [(table[train_ids[i]], train_y[i]) for i in chosen]
            dropout_seed = derive_stream(config.seed, "dropout", epoch, b_idx)
            loss, grads, dX = loss_and_gradients(model, batch, dropout_seed, fine_tune, ws)
            if not math.isfinite(loss):
                raise MultisentError(
                    f"training loss is {loss} in epoch {epoch}, batch {b_idx + 1}; "
                    "check the embeddings for nan or inf values"
                )
            total_loss += loss * len(batch)
            if fine_tune:
                grads["__embeddings__"] = scatter_embedding_grad(
                    E.shape, [train_ids[i] for i in chosen], dX, ws)
            adadelta_step(tensors, grads, state, config.rho, config.eps, ws)
        train_loss = total_loss / n
        dev_acc = _accuracy(model, table, dev_ids, dev_y, config.batch_size, ws)
        history.append((epoch, train_loss, dev_acc))
        if dev_acc > best_acc:
            best_acc = dev_acc
            best_params = model.params.copy()
            if fine_tune:
                best_E = E.copy()
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
        sources={lang: t.sha256 for lang, t in context.tables.items() if t.sha256 is not None},
        history=history,
        best_epoch=best_epoch,
        best_dev_accuracy=best_acc,
        fine_tuned=FineTunedEmbeddings(
            {numbered.keys[k]: row for row, k in enumerate(table_keys[:len(E)].tolist())}, best_E
        ) if fine_tune else None,
    )


def number_tokens(
    tweets: list[TokenizedTweet],
    index: dict[tuple[str, str], int],
    start: int = 0,
) -> tuple[list[np.ndarray], list[tuple[str, str]]]:
    """Each tweet's tokens as (lang, token) key numbers, and the keys this added.

    A key index already holds keeps its number; any other key gets the
    next number from start, in first-seen order. index grows in place.
    Tweets are numbered by position, so two tweets with one id each get
    their own array.
    """
    encoded = []
    added: list[tuple[str, str]] = []
    by_lang: dict[str, dict[str, int]] = {}     # lang -> token -> number, as index
    for tw in tweets:
        lang = tw.lang
        numbers = by_lang.get(lang)
        if numbers is None:
            numbers = by_lang[lang] = {tok: n for (k, tok), n in index.items() if k == lang}
        ids = list(map(numbers.get, tw.tokens))
        if None in ids:     # a key index lacks
            ids = []
            for tok in tw.tokens:
                number = numbers.get(tok)
                if number is None:
                    number = numbers[tok] = index[(lang, tok)] = start + len(added)
                    added.append((lang, tok))
                ids.append(number)
        encoded.append(np.array(ids, dtype=np.intp))
    return encoded, added


def number_for_prediction(
    trained: TrainedModel, tweets: list[TokenizedTweet]
) -> tuple[list[np.ndarray], list[tuple[str, str]]]:
    """tweets numbered as predict_batch numbers them, and the keys after E's rows.

    A key with a fine-tuned row takes that row's number; the other keys
    follow E's rows in first-seen order.
    """
    ft = trained.fine_tuned
    if ft is None:
        return number_tokens(tweets, {})
    return number_tokens(tweets, dict(ft.index), len(ft.E))


@dataclass
class NumberedTokens:
    """Tweets as (lang, token) key numbers, and each key's vector, taken once.

    `evaluate` numbers every tweet once, before its folds fork, so a fold
    gathers its tables from these rows by integer remaps.
    """

    ids: list[np.ndarray]           # per tweet, by position: its tokens' key numbers
    keys: list[tuple[str, str]]     # key k is keys[k]
    index: dict[tuple[str, str], int]   # keys[k] -> k
    rows: np.ndarray                # (K, dim): row k is context.vector(*keys[k])
    context: EmbeddingContext

    @classmethod
    def of(cls, tweets: list[TokenizedTweet], context: EmbeddingContext) -> "NumberedTokens":
        index: dict[tuple[str, str], int] = {}
        ids, keys = number_tokens(tweets, index)
        return cls(ids, keys, index, context.vectors(keys), context)

    def table(self, keys: np.ndarray, context: EmbeddingContext) -> np.ndarray:
        """The vectors of key numbers keys under context, as a new (len(keys), dim) array.

        context is the one the rows were taken under, or one that adds its
        own maps to that context's tables when it has none (a fold's context
        under `refit = per_fold`); the latter maps each row on its own.
        """
        rows = self.rows[keys]
        if context is not self.context:
            own = self.context
            if (own.translations or context.tables is not own.tables
                    or (context.oov_seed, context.oov_scale) != (own.oov_seed, own.oov_scale)):
                raise ArgumentError(
                    "tokens were numbered under another context; only one that adds "
                    "maps to the same unmapped tables may share its rows"
                )
            context.map_rows([self.keys[k] for k in keys.tolist()], rows)
        return rows


def scatter_embedding_grad(
    shape: tuple[int, int],
    batch_ids: list[np.ndarray],
    dX: np.ndarray,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Sum each token's input gradient into its row of an E-shaped gradient.

    batch_ids[b] holds the rows of example b's tokens; dX is the padded
    (B, T, dim) input gradient. Rows are added in (example, token) order.
    `gE[ids] += ...` keeps only one of a repeated row's additions, so the
    tokens are cut into rank layers: the r-th occurrence of each row, in
    (example, token) order, goes to layer r, and each layer, whose rows are
    distinct, is one such `+=`. The result lives in the workspace (a
    throwaway one when None) until the next call on it.
    """
    gE = (Workspace() if workspace is None else workspace).zeros("gE", shape)
    ids = np.concatenate(batch_ids)
    lengths = np.array([b.size for b in batch_ids])
    vals = dX[np.arange(dX.shape[1]) < lengths[:, None]]   # (n, dim), row-major order
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    new_run = np.ones(ids.size, dtype=bool)
    new_run[1:] = sorted_ids[1:] != sorted_ids[:-1]
    positions = np.arange(ids.size)
    rank = positions - np.maximum.accumulate(np.where(new_run, positions, 0))
    layered = order[np.argsort(rank, kind="stable")]    # layer by layer
    ids, vals = ids[layered], vals[layered]
    start = 0
    for stop in np.cumsum(np.bincount(rank)):
        gE[ids[start:stop]] += vals[start:stop]
        start = stop
    return gE


def _predict_in_length_order(
    model: NeuralModel,
    table: np.ndarray,
    ids: list[np.ndarray],
    batch_size: int,
    workspace: Workspace | None = None,
    shares: int = 1,
) -> np.ndarray:
    """Class probabilities for each example table[ids[i]], in input order.

    Batches are cut from the examples stably sorted by token count, so a
    CNN batch, padded to its longest example plus the largest window,
    convolves little padding. They run longest first, so a workspace's
    slabs reach nearly their full size on the first batch.

    The batches are dealt round-robin, longest first, to min(shares,
    batches) shares (multisent.shares). Share 0 runs here on workspace (a
    fresh one when None); each other share runs in a forked worker on a
    workspace of its own. A share runs whole batches, so every
    probability keeps its bits whatever the share count.
    """
    order = sorted(range(len(ids)), key=lambda i: ids[i].size)
    batches = [order[start:start + batch_size]
               for start in reversed(range(0, len(order), batch_size))]
    shares = min(shares, len(batches))

    def run_share(share: int) -> list[np.ndarray]:
        ws = workspace if share == 0 and workspace is not None else Workspace()
        return [predict_proba_batch(model, [table[ids[i]] for i in chosen], ws)
                for chosen in batches[share::shares]]

    probs = np.empty((len(ids), N_CLASSES))
    for share, results in enumerate(run_shares(run_share, shares)):
        for chosen, rows in zip(batches[share::shares], results):
            probs[chosen] = rows
    return probs


def _accuracy(
    model: NeuralModel,
    table: np.ndarray,
    ids: list[np.ndarray],
    y: list[int],
    batch_size: int,
    workspace: Workspace | None = None,
) -> float:
    probs = _predict_in_length_order(model, table, ids, batch_size, workspace)
    correct = int(np.count_nonzero(argmax_label(probs) == np.array(y)))
    return correct / len(ids)


def predict_batch(
    trained: TrainedModel,
    tweets: list[TokenizedTweet],
    context: EmbeddingContext,
    workspace: Workspace | None = None,
    shares: int = 1,
    *,
    numbered: NumberedTokens | None = None,
    numbering: tuple[list[np.ndarray], list[tuple[str, str]]] | None = None,
) -> list[tuple[Polarity, np.ndarray]]:
    """Classify tweets after checking the context matches the model.

    numbering is number_for_prediction(trained, tweets) when the caller
    has taken it already. The vectors of the tweets' keys that the
    fine-tuned rows lack are numbered's rows under context (see
    NumberedTokens.table) when it is given, else context's. Their batches
    are dealt to at most `shares` shares, the first of which runs on
    workspace (see _predict_in_length_order).
    """
    current = context.fingerprint()
    if current != trained.fingerprints:
        changed = sorted(
            k for k in set(current) | set(trained.fingerprints)
            if current.get(k) != trained.fingerprints.get(k)
        )
        raise ConfigurationError(
            f"context does not match the model's training inputs (differs: {changed})"
        )
    # A token takes its fine-tuned row when it has one; the other keys
    # follow E, in first-seen order, each with its context vector.
    ft = trained.fine_tuned
    E = np.empty((0, context.dim)) if ft is None else ft.E
    ids, added = numbering if numbering is not None else number_for_prediction(trained, tweets)
    if numbered is None:
        rows = context.vectors(added)
    else:
        try:
            keys = np.array([numbered.index[key] for key in added], dtype=np.intp)
        except KeyError as err:
            raise ArgumentError(f"numbered lacks the key {err.args[0]!r}") from None
        rows = numbered.table(keys, context)
    table = np.concatenate([E, rows])
    probs = _predict_in_length_order(trained.model, table, ids, 256, workspace, shares)
    return [(Polarity(code), row) for code, row in zip(argmax_label(probs).tolist(), probs)]


def save_training_log(trained: TrainedModel, path: str | Path) -> None:
    """Write the per-epoch history as CSV."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["epoch", "train_loss", "dev_accuracy"])
    for epoch, loss, acc in trained.history:
        writer.writerow([epoch, f"{loss:.17g}", f"{acc:.17g}"])
    write_output(path, buffer.getvalue())


CHECKPOINT_MAGIC = "multisent-model 1"


def save_checkpoint(trained: TrainedModel, path: str | Path) -> None:
    """Write a model as text: header fields, then row-major tensor blocks."""
    model = trained.model
    tensors = model.params.tensors()
    if trained.fine_tuned is not None:
        tensors["__embeddings__"] = trained.fine_tuned.E
    fh = io.StringIO()
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
    for lang in sorted(trained.sources):
        fh.write(f"source {lang} {trained.sources[lang]}\n")
    for epoch, loss, acc in trained.history:
        fh.write(f"history {epoch} {loss:.17g} {acc:.17g}\n")
    for name, tensor in tensors.items():
        shape = " ".join(str(s) for s in tensor.shape)
        fh.write(f"tensor {name} {shape}\n")
        fh.write(_tensor_lines(tensor.ravel().tolist()))
    if trained.fine_tuned is not None:
        for (lang, tok), row in sorted(trained.fine_tuned.index.items(), key=lambda kv: kv[1]):
            fh.write(f"vocab {lang} {tok} {row}\n")
    fh.write("end\n")
    write_output(path, fh.getvalue())


_FULL_LINE = "%.17g " * 7 + "%.17g\n"


def _tensor_lines(values: list[float]) -> str:
    """values as checkpoint lines of 8, each value written as f"{v:.17g}"."""
    full = len(values) - len(values) % 8
    lines = [_FULL_LINE % tuple(values[i:i + 8]) for i in range(0, full, 8)]
    if full < len(values):
        lines.append(" ".join("%.17g" % v for v in values[full:]) + "\n")
    return "".join(lines)


def _block_values(block: list[str], count: int) -> np.ndarray | None:
    """A tensor's count values from its block of lines in one pass, or None.

    None unless the line-by-line parse in load_checkpoint would read
    exactly these lines to these values: they hold count values in all,
    the last line holds at least one (so the parse stops there), and
    every value is finite. Each value goes through float() either way,
    so the bits are the same.
    """
    if not block or not block[-1].split():
        return None
    fields = " ".join(block).split()
    if len(fields) != count:
        return None
    try:
        flat = np.fromiter(map(float, fields), np.float64, count)
    except ValueError:
        return None
    return flat if np.isfinite(flat).all() else None


# How many space-separated parts each fixed-form checkpoint line has.
_LINE_PARTS = {"fingerprint": 3, "source": 3, "history": 4, "vocab": 4}


def load_checkpoint(path: str | Path) -> TrainedModel:
    """Read a model written by save_checkpoint.

    Malformed input (a bad number, a missing header field or tensor, a
    short line, a truncated tensor block, a tensor shape that does not fit
    the architecture, vocab lines that do not number each __embeddings__
    row exactly once) raises ParseError.
    """
    lines = split_lines(read_text(path))
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ParseError("not a model checkpoint (bad magic line)", line=1)
    header: dict[str, int] = {}     # field name -> index of its line
    fingerprints: dict[str, str] = {}
    sources: dict[str, str] = {}
    history: list[tuple[int, float, float]] = []
    tensors: dict[str, np.ndarray] = {}
    tensor_lines: dict[str, int] = {}   # tensor name -> 1-based line of its header
    vocab: dict[tuple[str, str], int] = {}
    vocab_rows: set[int] = set()
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
            tensor_lines[name] = i + 1
            count = math.prod(shape)
            i += 1
            block = lines[i:i + -(-count // 8)]    # save_checkpoint writes 8 values a line
            flat = _block_values(block, count)
            if flat is not None:
                tensors[name] = flat.reshape(shape)
                i += len(block)
                continue
            values: list[float] = []
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
        elif parts[0] == "source":
            if f"embeddings:{parts[1]}" not in fingerprints:   # source lines follow them
                raise ParseError(
                    f"source line for {parts[1]!r} has no embeddings:{parts[1]} fingerprint",
                    line=i + 1,
                )
            sources[parts[1]] = parts[2]
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
            key = parts[1], parts[2]
            if key in vocab or row in vocab_rows:
                raise ParseError(
                    f"vocab key {parts[1]} {parts[2]!r} is listed twice" if key in vocab
                    else f"vocab row {row} is given to two keys",
                    line=i + 1,
                )
            vocab[key] = row
            vocab_rows.add(row)
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

    def tensor(name: str, shape: tuple[int | None, ...] | None = None) -> np.ndarray:
        """A tensor, checked against shape when given (None matches any length)."""
        if name not in tensors:
            raise ParseError(f"checkpoint lacks tensor {name!r}", line=len(lines))
        got = tensors[name].shape
        if shape is not None and not (len(got) == len(shape) and all(
                w is None or w == g for g, w in zip(got, shape))):
            need = str(shape).replace("None", "n")
            raise ParseError(f"tensor {name} has shape {got}, the model needs {need}",
                             line=tensor_lines[name])
        return tensors[name]

    kind = field("kind")
    if kind not in ("lstm", "cnn"):
        raise ParseError(f"unknown model kind {kind!r}", line=header["kind"] + 1)
    # Each tensor's shape is checked against the architecture. Its sizes
    # come from the 1-D biases (F_h filters, H hidden units) and from the
    # input dim d of the first input-side tensor, filters_h or W_i.
    if kind == "cnn":
        window_sizes = field("window_sizes", int, sep=",")
        for h in window_sizes:
            tensor(f"filters_{h}")      # a missing filter bank is named before its bias
        biases = {h: tensor(f"bias_{h}", (None,)) for h in window_sizes}
        h0 = window_sizes[0]
        d = tensor(f"filters_{h0}", (len(biases[h0]), h0, None)).shape[2]
        params = CnnParams(
            window_sizes=window_sizes,
            filters={h: tensor(f"filters_{h}", (len(biases[h]), h, d)) for h in window_sizes},
            biases=biases,
            V=tensor("V", (N_CLASSES, sum(len(b) for b in biases.values()))),
            b_y=tensor("b_y", (N_CLASSES,)),
        )
    else:
        H = len(tensor("b_i", (None,)))
        d = tensor("W_i", (H, None)).shape[1]
        shapes = {"W": (H, d), "U": (H, H), "b": (H,), "V": (N_CLASSES, H)}
        params = LstmParams(**{
            f.name: tensor(f.name, (N_CLASSES,) if f.name == "b_y" else shapes[f.name[0]])
            for f in fields(LstmParams)
        })
    E = tensor("__embeddings__", (None, d)) if "__embeddings__" in tensors else None
    if E is not None and len(vocab) < len(E):
        unnumbered = min(set(range(len(E))) - vocab_rows)
        raise ParseError(f"__embeddings__ row {unnumbered} has no vocab line",
                         line=tensor_lines["__embeddings__"])
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
        sources=sources,
        history=history,
        best_epoch=field("best_epoch", int),
        best_dev_accuracy=field("best_dev_accuracy", float),
        fine_tuned=None if E is None else FineTunedEmbeddings(index=vocab, E=E),
    )
