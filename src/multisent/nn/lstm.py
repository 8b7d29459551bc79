"""Recurrent classifier: gated memory cells unrolled over the tweet.

Per step, from input x_t and the previous hidden/cell states:

    i_t = sigmoid(W_i x_t + U_i h_{t-1} + b_i)        input gate
    g_t = act(W_c x_t + U_c h_{t-1} + b_c)            candidate cell
    f_t = sigmoid(W_f x_t + U_f h_{t-1} + b_f)        forget gate
    C_t = i_t * g_t + f_t * C_{t-1}
    o_t = sigmoid(W_o x_t + U_o h_{t-1} + b_o)        output gate
    h_t = o_t * tanh(C_t)

The candidate activation defaults to tanh; "sigmoid" is accepted as an
alternative mode so both variants stay comparable.

The batched path pads sequences to the longest in the batch and uses a
step mask: on inactive steps h and C carry through unchanged, so the
final h equals the hidden state at each sequence's true length. The
backward pass is a manual reversal of the forward recurrence, routing
carried gradients straight through inactive steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ArgumentError
from .activations import activation_grad_from_output, apply_activation, sigmoid
from .params import LstmParams, zero_like_tensors


@dataclass
class LstmStepCache:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_new: np.ndarray
    tanh_c: np.ndarray
    mask: np.ndarray


@dataclass
class LstmForwardCache:
    steps: list[LstmStepCache]
    h_last: np.ndarray
    penultimate: np.ndarray
    dropout_mask: np.ndarray | None
    candidate_activation: str


def _cell_batch(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    params: LstmParams,
    candidate_activation: str,
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, LstmStepCache]:
    """One masked step over a batch; x is (B, input), states are (B, hidden)."""
    i = sigmoid(x @ params.W_i.T + h_prev @ params.U_i.T + params.b_i)
    f = sigmoid(x @ params.W_f.T + h_prev @ params.U_f.T + params.b_f)
    o = sigmoid(x @ params.W_o.T + h_prev @ params.U_o.T + params.b_o)
    g = apply_activation(candidate_activation, x @ params.W_c.T + h_prev @ params.U_c.T + params.b_c)
    c_new = i * g + f * c_prev
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    m = mask[:, None]
    h = m * h_new + (1.0 - m) * h_prev
    c = m * c_new + (1.0 - m) * c_prev
    cache = LstmStepCache(x=x, h_prev=h_prev, c_prev=c_prev, i=i, f=f, o=o, g=g,
                          c_new=c_new, tanh_c=tanh_c, mask=mask)
    return h, c, cache


def lstm_forward_batch(
    X: np.ndarray,
    lengths: np.ndarray,
    params: LstmParams,
    candidate_activation: str = "tanh",
    dropout_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, LstmForwardCache]:
    """Run the recurrence over a padded batch; returns (logits, cache).

    X is (B, T, input); lengths gives each sequence's true length, all in
    [1, T]. The final hidden state is the penultimate layer; an optional
    dropout mask (inverted dropout, training only) multiplies it before
    the softmax-layer affine map.
    """
    if X.ndim != 3:
        raise ArgumentError(f"X must be (batch, time, dim), got shape {X.shape}")
    B, T, _ = X.shape
    if T == 0 or np.any(lengths < 1) or np.any(lengths > T):
        raise ArgumentError("sequence lengths must be in [1, T] with T >= 1")
    h = np.zeros((B, params.hidden_dim))
    c = np.zeros((B, params.hidden_dim))
    steps: list[LstmStepCache] = []
    for t in range(T):
        mask = (lengths > t).astype(np.float64)
        h, c, cache = _cell_batch(X[:, t, :], h, c, params, candidate_activation, mask)
        steps.append(cache)
    penult = h if dropout_mask is None else h * dropout_mask
    logits = penult @ params.V.T + params.b_y
    return logits, LstmForwardCache(steps=steps, h_last=h, penultimate=penult,
                                    dropout_mask=dropout_mask,
                                    candidate_activation=candidate_activation)


def lstm_backward_batch(
    dlogits: np.ndarray,
    params: LstmParams,
    cache: LstmForwardCache,
    want_dx: bool = False,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gradients of all parameters given d loss / d logits.

    Returns (grads keyed like params.tensors(), dX or None). dX has the
    batch's padded shape and is only assembled when want_dx is set
    (embedding fine-tuning).
    """
    grads = zero_like_tensors(params.tensors())
    act = cache.candidate_activation
    grads["V"] += dlogits.T @ cache.penultimate
    grads["b_y"] += dlogits.sum(axis=0)
    dh = dlogits @ params.V
    if cache.dropout_mask is not None:
        dh = dh * cache.dropout_mask
    dc = np.zeros_like(dh)
    dX = np.zeros((len(cache.steps), *cache.steps[0].x.shape)) if want_dx else None

    for t in range(len(cache.steps) - 1, -1, -1):
        s = cache.steps[t]
        m = s.mask[:, None]
        dh_new = dh * m
        dc_new = dc * m
        dh_carry = dh * (1.0 - m)
        dc_carry = dc * (1.0 - m)

        do = dh_new * s.tanh_c
        dpre_o = do * s.o * (1.0 - s.o)
        dc_new = dc_new + dh_new * s.o * (1.0 - s.tanh_c * s.tanh_c)
        di = dc_new * s.g
        dpre_i = di * s.i * (1.0 - s.i)
        dg = dc_new * s.i
        dpre_g = dg * activation_grad_from_output(act, s.g)
        df = dc_new * s.c_prev
        dpre_f = df * s.f * (1.0 - s.f)

        grads["W_i"] += dpre_i.T @ s.x
        grads["U_i"] += dpre_i.T @ s.h_prev
        grads["b_i"] += dpre_i.sum(axis=0)
        grads["W_f"] += dpre_f.T @ s.x
        grads["U_f"] += dpre_f.T @ s.h_prev
        grads["b_f"] += dpre_f.sum(axis=0)
        grads["W_o"] += dpre_o.T @ s.x
        grads["U_o"] += dpre_o.T @ s.h_prev
        grads["b_o"] += dpre_o.sum(axis=0)
        grads["W_c"] += dpre_g.T @ s.x
        grads["U_c"] += dpre_g.T @ s.h_prev
        grads["b_c"] += dpre_g.sum(axis=0)

        if want_dx:
            dX[t] = dpre_i @ params.W_i + dpre_f @ params.W_f + dpre_o @ params.W_o + dpre_g @ params.W_c

        dh = (dpre_i @ params.U_i + dpre_f @ params.U_f + dpre_o @ params.U_o
              + dpre_g @ params.U_c + dh_carry)
        dc = dc_new * s.f + dc_carry

    if want_dx:
        dX = np.transpose(dX, (1, 0, 2))
    return grads, dX
