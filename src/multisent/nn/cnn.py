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

Packed windows: given the tweets' lengths, forward convolves only the
windows that start on a real token. For each window size it gathers them
from the flat (B*T, dim) view of the batch into one (N, h*dim) matrix and
runs one gemm over it; every other window is wholly padded, and its
feature map entry is filled with act(b), its exact value. Without
lengths, every window counts as real.

The gemm's row count is rounded up to a multiple of ROW_ALIGN with zero
rows. With OpenBLAS a row's bits depend on where it sits in the call: the
last M mod 4 rows, and every row of a call too small for the main kernel,
take other code paths. The alignment keeps every real window in a full
tile, which on training batches reproduces the bits of convolving every
window one example per call. It guarantees no bits, so the tests compare
against that kernel within a tolerance.

Forward pools by value (fmap.max); the argmax positions that backward
needs are computed from the feature maps on first read of
`CnnForwardCache.argmax`, so prediction never computes them. Backward
gathers each pooled feature's argmax window from the cached input and
routes the feature's gradient to it (first index on ties, matching numpy
argmax). The input gradient accumulates in filter order: every input row
receives its additions filter by filter, window sizes in order, so it is
bit-identical to a per-(example, filter) loop.

Both passes write their per-batch arrays with `out=` into the slabs of a
Workspace (see nn.workspace): one gather slab holds forward's packed
windows and then backward's argmax windows, one the gemm output, one the
feature maps of each window size, one dX. The slabs are reused across
the batches of one train or predict call, so a forward cache and the dX
backward returns are valid only until the next call on the same
workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ArgumentError, ConfigurationError
from .activations import activation_grad_from_output, apply_activation
from .params import CnnParams, zero_like_tensors
from .workspace import Workspace

# The packed window gemm's row count is a multiple of this (see the module docstring).
ROW_ALIGN = 16


@dataclass
class CnnForwardCache:
    X: np.ndarray                        # (B, T, dim) zero-padded input; backward gathers from it
    feature_maps: dict[int, np.ndarray]  # h -> (B, P_h, F_h) activated; act(b) where wholly padded
    penultimate: np.ndarray              # (B, total) after dropout
    pooled: np.ndarray                   # (B, total) before dropout
    dropout_mask: np.ndarray | None
    activation: str

    @cached_property
    def argmax(self) -> dict[int, np.ndarray]:
        """h -> (B, F_h) window index of each pooled feature, first max on ties."""
        return {h: np.argmax(fmap, axis=1) for h, fmap in self.feature_maps.items()}


def cnn_forward_batch(
    X: np.ndarray,
    params: CnnParams,
    activation: str = "tanh",
    dropout_mask: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, CnnForwardCache]:
    """Forward over a zero-padded batch (B, T, dim); returns (logits, cache).

    dropout_mask, when given, is a (B, total_filters) matrix multiplied
    into the penultimate layer (inverted dropout: zeros and 1/(1-rate)
    survivors). Prediction passes no mask. lengths, when given, holds
    each example's real token count; rows past it must be zero. The
    feature maps live in the workspace (a throwaway one when None), so
    the cache is valid only until the next call on it.
    """
    if X.ndim != 3:
        raise ArgumentError(f"X must be (batch, length, dim), got {X.shape}")
    B, T, dim = X.shape
    max_h = max(params.window_sizes)
    if T < max_h:
        raise ConfigurationError(
            f"padded length {T} is below the largest window size {max_h}"
        )
    ws = Workspace() if workspace is None else workspace
    flat = X.reshape(B * T, dim)
    starts = np.arange(T)
    firsts = np.arange(B)[:, None] * T + starts   # (B, T) flat row of each window start
    maps: dict[int, np.ndarray] = {}
    pooled_parts = []
    for h in params.window_sizes:
        W = params.filters[h]                      # (F, h, dim)
        F = W.shape[0]
        P = T - h + 1
        real = np.ones((B, P), dtype=bool) if lengths is None else starts[:P] < lengths[:, None]
        first = firsts[:, :P][real]                # (N,) in (example, position) order
        N = first.size
        rows = -(-N // ROW_ALIGN) * ROW_ALIGN
        cols = ws.get("gather", (rows, h * dim))
        np.take(flat, first[:, None] + np.arange(h), axis=0, mode="clip",
                out=cols[:N].reshape(N, h, dim))
        cols[N:] = 0.0
        pre = np.matmul(cols, W.reshape(F, -1).T, out=ws.get("pre", (rows, F)))
        pre += params.biases[h]
        fmap = ws.get(f"fmap_{h}", (B, P, F))
        fmap[...] = apply_activation(activation, params.biases[h])
        fmap[real] = apply_activation(activation, pre[:N], out=pre[:N])
        pooled_parts.append(fmap.max(axis=1))
        maps[h] = fmap
    pooled = np.concatenate(pooled_parts, axis=1)  # (B, total)
    penult = pooled if dropout_mask is None else pooled * dropout_mask
    logits = penult @ params.V.T + params.b_y
    cache = CnnForwardCache(X=X, feature_maps=maps, penultimate=penult,
                            pooled=pooled, dropout_mask=dropout_mask, activation=activation)
    return logits, cache


def cnn_backward_batch(
    dlogits: np.ndarray,
    params: CnnParams,
    cache: CnnForwardCache,
    want_dx: bool = False,
    workspace: Workspace | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gradients for all parameters given d loss / d logits.

    The dropout mask is a constant multiplier. Each pooled feature's
    gradient flows only to its argmax window position. dX lives in the
    workspace (a throwaway one when None): it is valid only until the
    next call on it.
    """
    ws = Workspace() if workspace is None else workspace
    grads = zero_like_tensors(params.tensors())
    grads["V"] += dlogits.T @ cache.penultimate
    grads["b_y"] += dlogits.sum(axis=0)
    dpenult = dlogits @ params.V                   # (B, total)
    if cache.dropout_mask is not None:
        dpenult = dpenult * cache.dropout_mask
    B, T, dim = cache.X.shape
    flat = cache.X.reshape(B * T, dim)
    dX = ws.zeros("dX", cache.X.shape) if want_dx else None
    dX_flat = dX.reshape(B * T, dim) if want_dx else None

    offset = 0
    row_starts = np.arange(B)[:, None] * T
    for h in params.window_sizes:
        W = params.filters[h]
        F = W.shape[0]
        dpool = dpenult[:, offset:offset + F]      # (B, F)
        y_at = cache.pooled[:, offset:offset + F]  # activation output at each argmax
        offset += F
        dpre = dpool * activation_grad_from_output(cache.activation, y_at)  # (B, F)
        # The flat rows of each argmax window: (B, F, h).
        window_rows = (row_starts + cache.argmax[h])[:, :, None] + np.arange(h)
        cols_at = np.take(flat, window_rows, axis=0, mode="clip",
                          out=ws.get("gather", (B, F, h, dim))).reshape(B, F, h * dim)
        grads[f"filters_{h}"] += np.einsum("bf,bfk->fk", dpre, cols_at).reshape(F, h, -1)
        grads[f"bias_{h}"] += dpre.sum(axis=0)
        if want_dx:
            # Scatter each filter's gradient back into its argmax window
            # rows, one filter at a time over the whole batch. An example's
            # window covers h distinct rows, so the fancy-index += sees no
            # repeated index within one filter.
            by_filter = window_rows.transpose(1, 0, 2).reshape(F, B * h)
            for f in range(F):
                dX_flat[by_filter[f]] += (dpre[:, f, None, None] * W[f]).reshape(B * h, dim)
    return grads, dX
