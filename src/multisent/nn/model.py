"""Shared classifier wrapper: softmax cross-entropy over either architecture.

A NeuralModel owns one parameter set regardless of how many languages
feed it; batches may freely mix languages. loss_and_gradients is the
single training entry point: it pads the batch, draws the dropout mask
from the given stream seed (so the mask is a pure function of the seed,
which is what lets finite-difference checks treat it as a constant), and
runs the architecture's manual backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ArgumentError, ConfigurationError
from ..rng import SplitMix64
from .activations import ACTIVATIONS
from .cnn import CnnParams, cnn_backward_batch, cnn_forward_batch
from .lstm import LstmParams, lstm_backward_batch, lstm_forward_batch
from .workspace import Workspace

KINDS = ("lstm", "cnn")


@dataclass
class NeuralModel:
    """One architecture plus the knobs its forward pass needs."""

    kind: str
    params: LstmParams | CnnParams
    max_len: int
    candidate_activation: str = "tanh"   # lstm candidate cell
    activation: str = "tanh"             # cnn feature activation
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ArgumentError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ArgumentError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.max_len < 1:
            raise ArgumentError(f"max_len must be >= 1, got {self.max_len}")
        for key in ("candidate_activation", "activation"):
            if getattr(self, key) not in ACTIVATIONS:
                raise ArgumentError(
                    f"{key} must be one of {', '.join(ACTIVATIONS)}, got {getattr(self, key)!r}")

    @property
    def penultimate_dim(self) -> int:
        if self.kind == "cnn":
            return self.params.total_filters
        return self.params.hidden_dim


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; logits (B, 3), labels (B,) int codes."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(logz - picked))


def dropout_mask(seed: int, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability rate, else 1/(1-rate)."""
    rng = SplitMix64(seed)
    u = rng.float_array(int(np.prod(shape))).reshape(shape)
    return (u >= rate).astype(np.float64) / (1.0 - rate)


def _assemble_batch(
    model: NeuralModel, batch: list[tuple[np.ndarray, int]], workspace: Workspace | None = None
):
    """Zero-pad variable-length examples at the back into (B, T, dim), plus lengths.

    The LSTM pads to the batch's longest example. The CNN pads to that
    length plus its largest window size, capped at the model's max_len:
    every example keeps all its windows and, wherever the max_len padding
    gave it one, a fully padded window, so the output is that of the
    max_len padding (see nn.cnn). An example longer than the model's
    max_len is rejected.
    """
    if not batch:
        raise ArgumentError("empty batch")
    lengths = np.array([x.shape[0] for x, _ in batch])
    labels = np.array([int(y) for _, y in batch])
    if lengths.min() == 0:
        raise ArgumentError("cannot pad an empty sequence")
    longest = int(lengths.max())
    T = longest
    if model.kind == "cnn":
        if longest > model.max_len:
            raise ConfigurationError(
                f"sequence length {longest} exceeds the model's max_len {model.max_len}")
        T = min(model.max_len, longest + max(model.params.window_sizes))
    ws = Workspace() if workspace is None else workspace
    X = ws.zeros("X", (len(batch), T, batch[0][0].shape[1]))
    for b, (x, _) in enumerate(batch):
        X[b, :x.shape[0]] = x
    return X, lengths, labels


def loss_and_gradients(
    model: NeuralModel,
    batch: list[tuple[np.ndarray, int]],
    dropout_seed: int | None = None,
    want_dx: bool = False,
    workspace: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray | None]:
    """Mean cross-entropy and parameter gradients for one batch.

    batch holds (embedded matrix (n, dim), label code) pairs. The
    dropout mask is drawn from dropout_seed when given and the model's
    rate is positive; prediction paths pass None. Returns (loss, grads,
    dX) where dX is per-example input gradients (padded shape) when
    want_dx is set, else None.

    The batch's arrays live in the workspace (a throwaway one when None):
    the returned grads and dX are valid only until the next call on it.
    """
    ws = Workspace() if workspace is None else workspace
    X, lengths, labels = _assemble_batch(model, batch, ws)
    B = X.shape[0]
    mask = None
    if dropout_seed is not None and model.dropout_rate > 0.0:
        mask = dropout_mask(dropout_seed, (B, model.penultimate_dim), model.dropout_rate)

    if model.kind == "cnn":
        logits, cache = cnn_forward_batch(X, model.params, model.activation, mask, lengths, ws)
    else:
        logits, cache = lstm_forward_batch(X, lengths, model.params,
                                           model.candidate_activation, mask, ws)
    loss = cross_entropy(logits, labels)
    probs = softmax(logits)
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B

    if model.kind == "cnn":
        grads, dX = cnn_backward_batch(dlogits, model.params, cache, want_dx, ws)
    else:
        grads, dX = lstm_backward_batch(dlogits, model.params, cache, want_dx, ws)
    return loss, grads, dX


def predict_proba_batch(
    model: NeuralModel, examples: list[np.ndarray], workspace: Workspace | None = None
) -> np.ndarray:
    """Class probabilities for each embedded example; dropout disabled.

    The batch's arrays live in the workspace (a throwaway one when None).
    """
    ws = Workspace() if workspace is None else workspace
    batch = [(x, 0) for x in examples]
    X, lengths, _ = _assemble_batch(model, batch, ws)
    if model.kind == "cnn":
        logits, _ = cnn_forward_batch(X, model.params, model.activation, None, lengths, ws)
    else:
        logits, _ = lstm_forward_batch(X, lengths, model.params,
                                       model.candidate_activation, None, ws)
    return softmax(logits)


def argmax_label(probs: np.ndarray) -> int | np.ndarray:
    """Most probable class of a (3,) row as an int, or of each row of an
    (n, 3) array as an int array. Exact ties go to the lowest label code; a
    row holding NaN has no maximum and raises ArgumentError."""
    if np.isnan(probs).any():
        raise ArgumentError("probabilities contain no maximum")
    codes = np.argmax(probs, axis=-1)
    return int(codes) if probs.ndim == 1 else codes
