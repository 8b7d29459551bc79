"""Convolutional classifier over zero-padded tweet matrices.

Every tweet is padded at the back with zero rows. For a filter of window
size h with weights w and bias b, position i yields feature
c_i = act(w . x_{i:i+h-1} + b) for every window position over the padded
matrix, including windows that lie in the padding (so padded windows
yield act(b); per-filter bias therefore leaks a constant into fully
padded regions, which is deliberate and documented). Max pooling keeps
one feature per filter; the pooled features from all window sizes
concatenate into the penultimate vector, optionally dropout-masked, then
a softmax layer maps to class logits.

The output depends on the padding only through whether a tweet has a
fully padded window. Every such window yields the same act(b), and all
of them come after the tweet's real and partial windows, so the first
one decides the max and its first-index argmax just as all of them do.
A batch padded to its longest tweet plus the largest window (or to the
corpus maximum length, if that is shorter) keeps every tweet's real and
partial windows and its first fully padded one wherever the corpus
maximum had one, so its pooled features and argmax are those of the
corpus-maximum padding.

Forward pools by value (fmap.max); the argmax positions that backward
needs are computed from the feature maps on first read of
`CnnForwardCache.argmax`, so prediction never computes them. Backward
routes each pooled feature's gradient to its argmax window (first index
on ties, matching numpy argmax). The input gradient
accumulates in filter order: every input row receives its additions
filter by filter, window sizes in order, so it is bit-identical to a
per-(example, filter) loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ArgumentError, ConfigurationError
from .activations import activation_grad_from_output, apply_activation
from .params import CnnParams, zero_like_tensors


@dataclass
class CnnForwardCache:
    windows: dict[int, np.ndarray]     # h -> (B, P_h, h*dim)
    feature_maps: dict[int, np.ndarray]  # h -> (B, P_h, F_h) activated
    penultimate: np.ndarray            # (B, total) after dropout
    pooled: np.ndarray                 # (B, total) before dropout
    dropout_mask: np.ndarray | None
    activation: str

    @cached_property
    def argmax(self) -> dict[int, np.ndarray]:
        """h -> (B, F_h) window index of each pooled feature, first max on ties."""
        return {h: np.argmax(fmap, axis=1) for h, fmap in self.feature_maps.items()}


def _im2col(X: np.ndarray, h: int) -> np.ndarray:
    """All length-h windows of each row-matrix in the batch, flattened.

    X is (B, L, dim); result is (B, L-h+1, h*dim). A copy is taken so
    downstream writes never alias the input.
    """
    B, L, dim = X.shape
    P = L - h + 1
    s0, s1, s2 = X.strides
    view = np.lib.stride_tricks.as_strided(X, shape=(B, P, h, dim), strides=(s0, s1, s1, s2))
    return view.reshape(B, P, h * dim).copy()


def cnn_forward_batch(
    X: np.ndarray,
    params: CnnParams,
    activation: str = "tanh",
    dropout_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, CnnForwardCache]:
    """Forward over a zero-padded batch (B, T, dim); returns (logits, cache).

    dropout_mask, when given, is a (B, total_filters) matrix multiplied
    into the penultimate layer (inverted dropout: zeros and 1/(1-rate)
    survivors). Prediction passes no mask.
    """
    if X.ndim != 3:
        raise ArgumentError(f"X must be (batch, length, dim), got {X.shape}")
    max_h = max(params.window_sizes)
    if X.shape[1] < max_h:
        raise ConfigurationError(
            f"padded length {X.shape[1]} is below the largest window size {max_h}"
        )
    windows: dict[int, np.ndarray] = {}
    maps: dict[int, np.ndarray] = {}
    pooled_parts = []
    for h in params.window_sizes:
        W = params.filters[h]                      # (F, h, dim)
        F = W.shape[0]
        cols = _im2col(X, h)                       # (B, P, h*dim)
        pre = cols @ W.reshape(F, -1).T + params.biases[h]
        fmap = apply_activation(activation, pre)   # (B, P, F)
        pooled_parts.append(fmap.max(axis=1))
        windows[h] = cols
        maps[h] = fmap
    pooled = np.concatenate(pooled_parts, axis=1)  # (B, total)
    penult = pooled if dropout_mask is None else pooled * dropout_mask
    logits = penult @ params.V.T + params.b_y
    cache = CnnForwardCache(windows=windows, feature_maps=maps, penultimate=penult,
                            pooled=pooled, dropout_mask=dropout_mask, activation=activation)
    return logits, cache


def cnn_backward_batch(
    dlogits: np.ndarray,
    params: CnnParams,
    cache: CnnForwardCache,
    want_dx: bool = False,
    x_shape: tuple[int, int, int] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gradients for all parameters given d loss / d logits.

    The dropout mask is a constant multiplier. Each pooled feature's
    gradient flows only to its argmax window position.
    """
    grads = zero_like_tensors(params.tensors())
    grads["V"] += dlogits.T @ cache.penultimate
    grads["b_y"] += dlogits.sum(axis=0)
    dpenult = dlogits @ params.V                   # (B, total)
    if cache.dropout_mask is not None:
        dpenult = dpenult * cache.dropout_mask
    dX = np.zeros(x_shape) if want_dx else None

    offset = 0
    B = dlogits.shape[0]
    rows = np.arange(B)[:, None]
    for h in params.window_sizes:
        W = params.filters[h]
        F = W.shape[0]
        dpool = dpenult[:, offset:offset + F]      # (B, F)
        y_at = cache.pooled[:, offset:offset + F]  # activation output at each argmax
        offset += F
        am = cache.argmax[h]                       # (B, F)
        dpre = dpool * activation_grad_from_output(cache.activation, y_at)  # (B, F)
        # gather windows: cols (B, P, h*dim) at am (B, F) -> (B, F, h*dim)
        cols_at = cache.windows[h][rows, am]
        grads[f"filters_{h}"] += np.einsum("bf,bfk->fk", dpre, cols_at).reshape(F, h, -1)
        grads[f"bias_{h}"] += dpre.sum(axis=0)
        if want_dx:
            # Scatter each filter's gradient back into its argmax window
            # rows, one filter at a time over the whole batch. An example's
            # window covers h distinct rows, so the fancy-index += sees no
            # repeated index within one filter.
            window_rows = am[:, :, None] + np.arange(h)                    # (B, F, h)
            for f in range(F):
                dX[rows, window_rows[:, f]] += dpre[:, f, None, None] * W[f]
    return grads, dX
