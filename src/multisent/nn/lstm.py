"""Recurrent classifier: gated memory cells unrolled over the tweet.

Per step, from input x_t and the previous hidden/cell states:

    i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)        input gate
    g_t = act(W_c x_t + U_c h_{t-1} + b_c)            candidate cell
    f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)        forget gate
    C_t = i_t * g_t + f_t * C_{t-1}
    o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)        output gate
    h_t = o_t * tanh(C_t)

The candidate activation defaults to tanh; "sigmoid" and "relu" are
accepted as alternative modes so the variants stay comparable.

The batch runs as a packed sequence: rows sorted by length, longest
first, and only the (t, row) cells holding tokens stacked step by step
into one array, so step t owns the first n_t sorted rows and padding is
never computed. The gates are stacked (i, f, o, c) into one W, U and b
per call; one gemm projects every cell before the loop, and each step
adds one h @ U.T. Each sigmoid is taken as 0.5 + 0.5 * tanh(z / 2): the
sigmoid gates' rows of W, U and b are halved (exact, as a power of two),
so one tanh in place over a step's gate block and a multiply-add on the
sigmoid columns give every gate. The multiply-add runs over the whole
contiguous (n_t, 4H) block, which is faster, copies included, than over
the strided sigmoid columns alone: the columns that are not sigmoids
(the candidate's H, unless it is a sigmoid too) are first copied into a
slab, and copied back after. Both ops act on each entry alone, so each
sigmoid entry gets the same two roundings wherever it sits, and the copy
back restores every other entry bit for bit. f * c_prev goes into a slab
too.
c, tanh(c) and h are written straight into their packed per-cell
arrays; step t + 1 reads its rows' state from the first n_{t+1} rows of
step t's block, and h_prev is gathered once after the loop. The
backward pass reverses the loop into a packed array of pre-activation
gradients, then takes the weight gradients and dX with one gemm each
over all cells. Each weight gradient's gemm is transposed once into a
contiguous slab, so every per-gate gradient is a contiguous slice.

Both passes write their per-cell arrays with `out=` into the slabs of a
Workspace (see nn.workspace): the packed input, gates and states, the
per-step h @ U.T, set-aside columns and f * c_prev, the pre-activation
gradients, dc and dh factors, the weight gradients and dX. The slabs
are reused across the batches of one train or predict call, so a
forward cache and the grads and dX backward returns are valid only
until the next call on the same workspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ArgumentError
from .activations import ACTIVATIONS, activation_grad_from_output
from .params import LstmParams, check_lengths
from .workspace import Workspace

GATES = ("i", "f", "o", "c")


@dataclass
class LstmForwardCache:
    """Per-cell arrays; step t's cells are rows offsets[t]:offsets[t+1], of
    batch rows order[:n_t]. h_prev enters a cell, c and tanh_c leave it,
    gates holds the i, f, o and candidate values side by side."""

    x: np.ndarray
    h_prev: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    gates: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    x_shape: tuple[int, int, int]
    h_last: np.ndarray
    penultimate: np.ndarray
    dropout_mask: np.ndarray | None
    candidate_activation: str


def _stacked(
    params: LstmParams, workspace: Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W (4H, d), U (4H, H), b (4H)) with the gates in i, f, o, c order."""
    t = params.tensors()
    stacked = []
    for p in "WUb":
        parts = [t[f"{p}_{g}"] for g in GATES]
        shape = (sum(len(part) for part in parts), *parts[0].shape[1:])
        stacked.append(np.concatenate(parts, out=workspace.get(f"stacked_{p}", shape)))
    return tuple(stacked)


def _cells(order: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(batch row, timestep) of each packed cell."""
    steps = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return order[np.arange(offsets[-1]) - offsets[steps]], steps


def _one_step_back(per_cell: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each packed cell's row one step earlier (zero at step 0), n[t-1] cells up, into out."""
    out[:n[0]] = 0.0
    np.take(per_cell, np.arange(n[0], len(per_cell)) - np.repeat(n[:-1], n[1:]), axis=0,
            mode="clip", out=out[n[0]:])
    return out


def lstm_forward_batch(
    X: np.ndarray,
    lengths: np.ndarray,
    params: LstmParams,
    candidate_activation: str = "tanh",
    dropout_mask: np.ndarray | None = None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, LstmForwardCache]:
    """Run the recurrence over a padded batch; returns (logits, cache).

    X is (B, T, input) with T >= 1; lengths, a 1-D integer array of B
    entries, gives each sequence's true length, all in [1, T]. The final
    hidden state is the penultimate layer; an optional dropout mask
    (inverted dropout, training only) multiplies it before the
    softmax-layer affine map. The per-cell arrays live in the
    workspace (a throwaway one when None), so the cache is valid only
    until the next call on it.
    """
    if candidate_activation not in ACTIVATIONS:
        raise ArgumentError(f"unknown activation {candidate_activation!r}")
    if X.ndim != 3:
        raise ArgumentError(f"X must be (batch, time, dim), got shape {X.shape}")
    B, T, _ = X.shape
    if T == 0:
        raise ArgumentError("X must hold at least one timestep")
    check_lengths(lengths, B, T)
    ws = Workspace() if workspace is None else workspace
    H = params.hidden_dim
    W, U, b = _stacked(params, ws)
    # The columns that go through tanh(z / 2) to give sigmoid(z); halving
    # their weights and bias is exact, so they hold exactly z / 2.
    k = 4 * H if candidate_activation == "sigmoid" else 3 * H
    for m in (W, U, b):
        m[:k] *= 0.5
    order = np.argsort(-lengths, kind="stable")
    n = np.count_nonzero(lengths > np.arange(T)[:, None], axis=1)
    offsets = np.concatenate([[0], np.cumsum(n)])
    rows, steps = _cells(order, offsets)
    cells = len(rows)
    x = np.take(X.reshape(B * T, -1), rows * T + steps, axis=0, mode="clip",
                out=ws.get("x", (cells, X.shape[2])))
    gates = np.matmul(x, ws.copy("WT", W.T), out=ws.get("gates", (cells, 4 * H)))
    gates += b
    UT = ws.copy("UT", U.T)
    c_all, tanh_c, h_all = ws.get("cells", (3, cells, H))
    # Per-step slabs sized for step 0, the widest; step t uses the first n_t rows.
    step = ws.get("step", (n[0], 4 * H))
    kept = ws.get("kept", (n[0], 4 * H - k))
    fc = ws.get("fc", (n[0], H))
    for t in range(T):
        a, z, m = offsets[t], offsets[t + 1], n[t]
        pre = gates[a:z]
        if t:
            # step t's rows are the first n_t rows of step t-1's block
            prev = slice(offsets[t - 1], offsets[t - 1] + m)
            pre += np.matmul(h_all[prev], UT, out=step[:m])
        if candidate_activation == "relu":
            np.tanh(pre[:, :k], out=pre[:, :k])
            np.maximum(pre[:, k:], 0.0, out=pre[:, k:])
        else:
            np.tanh(pre, out=pre)
        # The columns past k are not sigmoids: set them aside, scale the
        # whole contiguous block, and put them back.
        kept[:m] = pre[:, k:]
        pre *= 0.5
        pre += 0.5
        pre[:, k:] = kept[:m]
        i, f, o, g = (pre[:, j * H:(j + 1) * H] for j in range(4))
        c = np.multiply(i, g, out=c_all[a:z])
        if t:
            c += np.multiply(f, c_all[prev], out=fc[:m])
        np.multiply(o, np.tanh(c, out=tanh_c[a:z]), out=h_all[a:z])
    h_prev = _one_step_back(h_all, n, ws.get("h_prev", h_all.shape))
    h_last = np.empty((B, H))
    h_last[order] = h_all[offsets[lengths[order] - 1] + np.arange(B)]
    penult = h_last if dropout_mask is None else h_last * dropout_mask
    logits = penult @ params.V.T + params.b_y
    return logits, LstmForwardCache(
        x=x, h_prev=h_prev, c=c_all, tanh_c=tanh_c, gates=gates, order=order,
        offsets=offsets, x_shape=X.shape, h_last=h_last, penultimate=penult,
        dropout_mask=dropout_mask, candidate_activation=candidate_activation)


def lstm_backward_batch(
    dlogits: np.ndarray,
    params: LstmParams,
    cache: LstmForwardCache,
    want_dx: bool = False,
    workspace: Workspace | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gradients of all parameters given d loss / d logits.

    Returns (grads keyed like params.tensors(), dX or None). dX has the
    batch's padded shape, zero on padding, and is only assembled when
    want_dx is set (embedding fine-tuning). The grads and dX live in the
    workspace (a throwaway one when None): they are valid only until the
    next call on it.
    """
    ws = Workspace() if workspace is None else workspace
    H = params.hidden_dim
    W, U, _ = _stacked(params, ws)
    offsets, tanh_c = cache.offsets, cache.tanh_c
    n = np.diff(offsets)
    c_prev = _one_step_back(cache.c, n, ws.get("c_prev", cache.c.shape))
    gates = cache.gates.reshape(-1, 4, H)
    i, f, o, g = (gates[:, k] for k in range(4))
    # d pre / d C_t (i, f, candidate) and d pre / d h_t (o), scaled in place below
    dpre = np.subtract(1.0, gates, out=ws.get("dpre", gates.shape))
    dpre *= gates
    dpre[:, 0] *= g
    dpre[:, 1] *= c_prev
    dpre[:, 2] *= tanh_c
    activation_grad_from_output(cache.candidate_activation, g, out=dpre[:, 3])
    dpre[:, 3] *= i
    dc_dh = activation_grad_from_output("tanh", tanh_c, out=ws.get("dc_dh", tanh_c.shape))
    dc_dh *= o
    f = ws.copy("f", f)

    mask = 1.0 if cache.dropout_mask is None else cache.dropout_mask
    dh = (dlogits @ params.V * mask)[cache.order]
    dc = np.zeros_like(dh)
    dc_new, d_o = np.empty((2, *dh.shape))
    for t in range(len(n) - 1, -1, -1):
        a, z, m = offsets[t], offsets[t + 1], n[t]
        d = dpre[a:z]
        np.multiply(dh[:m], dc_dh[a:z], out=dc_new[:m])
        dc_new[:m] += dc[:m]
        np.multiply(dh[:m], d[:, 2], out=d_o[:m])
        d *= dc_new[:m, None, :]
        d[:, 2] = d_o[:m]
        np.matmul(d.reshape(m, 4 * H), U, out=dh[:m])
        np.multiply(dc_new[:m], f[a:z], out=dc[:m])

    dpre = dpre.reshape(-1, 4 * H)
    # Each weight gradient is one gemm, transposed once into a contiguous
    # slab so the per-gate slices below are contiguous too.
    dW = ws.copy("dW", np.matmul(cache.x.T, dpre, out=ws.get("gemm", W.shape[::-1])).T)
    dU = ws.copy("dU", np.matmul(cache.h_prev.T, dpre, out=ws.get("gemm", U.shape[::-1])).T)
    db = dpre.sum(axis=0)
    grads = {f"{p}_{gate}": grad[k * H:(k + 1) * H]
             for k, gate in enumerate(GATES) for p, grad in zip("WUb", (dW, dU, db))}
    grads["V"] = dlogits.T @ cache.penultimate
    grads["b_y"] = dlogits.sum(axis=0)
    dX = None
    if want_dx:
        dX = ws.zeros("dX", cache.x_shape)
        dX[_cells(cache.order, offsets)] = np.matmul(dpre, W, out=ws.get("dx_cells", cache.x.shape))
    return grads, dX
