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
feature is act(b) exactly. Without lengths, every window counts as real.

The gemm's row count is rounded up to a multiple of ROW_ALIGN with zero
rows. With OpenBLAS a row's bits depend on where it sits in the call: the
last M mod 4 rows, and every row of a call too small for the main kernel,
take other code paths. The alignment keeps every real window in a full
tile, which on training batches reproduces the bits of convolving every
window one example per call. It guarantees no bits, so the tests compare
against that kernel within a tolerance.

Forward pools straight from the packed rows: one maximum.reduceat over
each example's real windows, then, for an example with a wholly padded
window, a maximum with act(b). No (B, P, F) feature map is built. Both
steps apply maximum in window order, as a max over the dense map would,
so every pooled value keeps its bits (a NaN may carry another sign: numpy
returns its own NaN from a max over a contiguous axis). The argmax
positions that backward needs are computed from the packed rows on first
read of `CnnForwardCache.argmax`, so prediction never computes them: the
first real window whose feature equals the pooled value (the first NaN,
as numpy's argmax picks), else the first wholly padded window, so a real
window that ties act(b) wins. Backward gathers the argmax windows from
the cached input one window offset at a time, (B, F, dim) per offset,
and routes each pooled feature's gradient to its window. The input
gradient accumulates in filter order: every input row receives its
additions filter by filter, window sizes in order, so it is
bit-identical to a per-(example, filter) loop.

The scatter skips every (example, filter) pair whose pre-activation
gradient is zero: dropout at rate 0.5 zeroes about half of them, and a
relu feature that is 0 has a zero gradient. With finite filter weights a
skipped pair would add only ±0.0. dX starts at +0.0, and an IEEE sum is
−0.0 only when both operands are, so no dX entry is ever −0.0, and
adding ±0.0 to it changes no bit. The skip therefore keeps dX
bit-identical to the loop that adds every pair. (A weight of inf or nan
times 0.0 is nan, which the loop would spread and the skip does not.)

Both passes write their per-batch arrays with `out=` into the slabs of a
Workspace (see nn.workspace): one gather slab holds forward's packed
windows and then backward's argmax windows at one offset, one slab per
window size its activated packed rows (backward reads them all), one
dX. The slabs are reused across the batches of one train or predict
call, so a forward cache and the dX backward returns are valid only
until the next call on the same workspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ArgumentError, ConfigurationError
from .activations import activation_grad_from_output, apply_activation
from .params import CnnParams, check_lengths, zero_like_tensors
from .workspace import Workspace

# The packed window gemm's row count is a multiple of this (see the module docstring).
ROW_ALIGN = 16


@dataclass
class CnnForwardCache:
    X: np.ndarray                   # (B, T, dim) zero-padded input; backward gathers from it
    packed: dict[int, np.ndarray]   # h -> (N_h, F_h) activated windows that start on a real token
    counts: dict[int, np.ndarray]   # h -> (B,) each example's packed rows, in example order
    penultimate: np.ndarray         # (B, total) after dropout
    pooled: np.ndarray              # (B, total) before dropout
    dropout_mask: np.ndarray | None
    activation: str

    @cached_property
    def argmax(self) -> dict[int, np.ndarray]:
        """h -> (B, F_h) window index of each pooled feature, first max on ties.

        The first packed row equal to the pooled value (the first NaN row
        when the pooled value is NaN), else the first wholly padded
        window, whose index is the example's real-window count.
        """
        out, offset = {}, 0
        for h, act in self.packed.items():
            count, F = self.counts[h], act.shape[1]
            starts = np.cumsum(count) - count
            hit = act == np.repeat(self.pooled[:, offset:offset + F], count, axis=0)
            hit |= np.isnan(act)   # maximum spreads NaN, so a NaN row pooled NaN
            index = np.where(hit, (np.arange(act.shape[0]) - np.repeat(starts, count))[:, None],
                             np.repeat(count, count)[:, None])
            out[h] = np.minimum.reduceat(index, starts, axis=0)
            offset += F
        return out


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
    survivors). Prediction passes no mask. lengths, when given, is a 1-D
    integer array of each example's real token count, all in [1, T]; rows
    past it must be zero. The packed activations live in the workspace
    (a throwaway one when None), so the cache is valid only until the
    next call on it.
    """
    if X.ndim != 3:
        raise ArgumentError(f"X must be (batch, length, dim), got {X.shape}")
    B, T, dim = X.shape
    max_h = max(params.window_sizes)
    if T < max_h:
        raise ConfigurationError(
            f"padded length {T} is below the largest window size {max_h}"
        )
    if lengths is not None:
        check_lengths(lengths, B, T)
    ws = Workspace() if workspace is None else workspace
    flat = X.reshape(B * T, dim)
    lengths = np.full(B, T) if lengths is None else lengths
    positions = np.arange(T)
    firsts = np.arange(B)[:, None] * T + positions  # (B, T) flat row of each window start
    packed: dict[int, np.ndarray] = {}
    counts: dict[int, np.ndarray] = {}
    pooled = np.empty((B, params.total_filters))
    offset = 0
    for h in params.window_sizes:
        W = params.filters[h]                      # (F, h, dim)
        F = W.shape[0]
        P = T - h + 1
        first = firsts[:, :P][positions[:P] < lengths[:, None]]  # (N,) in (example, position) order
        count = np.minimum(lengths, P)             # (B,) real windows of each example
        starts = np.cumsum(count) - count          # (B,) each example's first packed row
        N = first.size
        rows = -(-N // ROW_ALIGN) * ROW_ALIGN
        cols = ws.get("gather", (rows, h * dim))
        np.take(flat, first[:, None] + np.arange(h), axis=0, mode="clip",
                out=cols[:N].reshape(N, h, dim))
        cols[N:] = 0.0
        pre = np.matmul(cols, W.reshape(F, -1).T, out=ws.get(f"packed_{h}", (rows, F)))
        pre += params.biases[h]
        act = apply_activation(activation, pre[:N], out=pre[:N])
        part = np.maximum.reduceat(act, starts, axis=0, out=pooled[:, offset:offset + F])
        np.maximum(part, apply_activation(activation, params.biases[h]), out=part,
                   where=(count < P)[:, None])
        packed[h], counts[h] = act, count
        offset += F
    penult = pooled if dropout_mask is None else pooled * dropout_mask
    logits = penult @ params.V.T + params.b_y
    cache = CnnForwardCache(X=X, packed=packed, counts=counts, penultimate=penult,
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
        window_starts = row_starts + cache.argmax[h]  # (B, F) flat row of each argmax window
        gW = grads[f"filters_{h}"]
        for j in range(h):
            cols_j = np.take(flat, window_starts + j, axis=0, mode="clip",
                             out=ws.get("gather", (B, F, dim)))
            gW[:, j, :] += np.einsum("bf,bfd->fd", dpre, cols_j)
        grads[f"bias_{h}"] += dpre.sum(axis=0)
        if want_dx:
            # Scatter each filter's gradient back into its argmax window
            # rows, one filter at a time over the examples where its
            # gradient is nonzero (filter-major, examples ascending).
            # An example's window covers h distinct rows, so the
            # fancy-index += sees no repeated index within one filter.
            f_idx, b_idx = np.nonzero(dpre.T)
            vals = dpre[b_idx, f_idx]
            rows = (window_starts[b_idx, f_idx][:, None] + np.arange(h)).reshape(-1)
            ends = np.cumsum(np.bincount(f_idx, minlength=F))
            s = 0
            for f, e in enumerate(ends.tolist()):
                if e > s:
                    dX_flat[rows[s * h:e * h]] += (vals[s:e, None, None] * W[f]).reshape(-1, dim)
                s = e
    return grads, dX
