"""Forward-pass oracles for both sequence models.

The small cases are worked by hand with explicit scalar formulas so a
regression in any gate or pooling step shows up as a hard numeric
mismatch rather than a statistical drift.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisent.errors import ArgumentError, ConfigurationError
from multisent.nn import (
    CnnParams,
    LstmParams,
    NeuralModel,
    argmax_label,
    cnn_forward_batch,
    init_cnn_params,
    init_lstm_params,
    loss_and_gradients,
    lstm_forward_batch,
    predict_proba_batch,
    softmax,
)
from multisent.nn.activations import (
    ACTIVATIONS,
    activation_grad_from_output,
    apply_activation,
    sigmoid,
)
from multisent.nn.cnn import cnn_backward_batch
from multisent.nn.lstm import (
    GATES,
    LstmForwardCache,
    _cells,
    _one_step_back,
    _stacked,
    lstm_backward_batch,
)
from multisent.nn.model import _assemble_batch
from multisent.nn.workspace import Workspace

SIG1 = 0.7310585786300049   # 1 / (1 + e^-1)
TANH1 = 0.7615941559557649  # tanh(1)


# Lengths that a batch X of shape (3, 5, 4) must reject: the wrong count,
# a non-integer dtype, the wrong rank, and entries outside [1, 5].
BAD_LENGTHS = [[5, 2], [5, 2, 1, 1], [5.0, 2.0, 1.0], [[5, 2, 1]], [0, 2, 1], [9, 2, 1]]


def unit_lstm_params() -> LstmParams:
    """1-in 1-hidden cell with every weight 1 and every bias 0."""
    one = np.ones((1, 1))
    zero = np.zeros(1)
    return LstmParams(
        W_i=one.copy(), U_i=one.copy(), b_i=zero.copy(),
        W_f=one.copy(), U_f=one.copy(), b_f=zero.copy(),
        W_o=one.copy(), U_o=one.copy(), b_o=zero.copy(),
        W_c=one.copy(), U_c=one.copy(), b_c=zero.copy(),
        V=np.ones((3, 1)), b_y=np.zeros(3),
    )


def lstm_one(S: np.ndarray, params: LstmParams, act: str = "tanh"):
    """Logits and cache for one (n, dim) sequence run as a batch of one."""
    logits, cache = lstm_forward_batch(S[None, :, :], np.array([S.shape[0]]), params, act)
    return logits[0], cache


def cnn_one(M: np.ndarray, max_len: int, params: CnnParams, act: str = "tanh") -> np.ndarray:
    """Logits for one (n, dim) tweet zero-padded to max_len, run as a batch of one."""
    X = np.zeros((1, max_len, M.shape[1]))
    X[0, :M.shape[0]] = M
    logits, _ = cnn_forward_batch(X, params, act)
    return logits[0]


class TestLstmCellOracle:
    def test_single_step_tanh_candidate(self):
        params = unit_lstm_params()
        _, cache = lstm_one(np.ones((1, 1)), params, "tanh")
        c, h = cache.c[0], cache.h_last[0]
        # All gates see pre-activation 1*1 + 1*0 + 0 = 1.
        i = f = o = 1.0 / (1.0 + math.exp(-1.0))
        g = math.tanh(1.0)
        c_exp = f * 0.0 + i * g
        h_exp = o * math.tanh(c_exp)
        assert i == SIG1 and g == TANH1
        assert abs(c[0] - c_exp) < 1e-12
        assert abs(h[0] - h_exp) < 1e-12

    def test_single_step_sigmoid_candidate(self):
        params = unit_lstm_params()
        _, cache = lstm_one(np.ones((1, 1)), params, "sigmoid")
        c, h = cache.c[0], cache.h_last[0]
        i = o = g = 1.0 / (1.0 + math.exp(-1.0))
        c_exp = i * g
        h_exp = o * math.tanh(c_exp)
        assert abs(c[0] - c_exp) < 1e-12
        assert abs(h[0] - h_exp) < 1e-12

    def test_two_steps_by_hand(self):
        params = unit_lstm_params()
        _, cache = lstm_one(np.ones((2, 1)), params, "tanh")
        h1, c1 = cache.h_prev[1], cache.c[0]
        h2, c2 = cache.h_last[0], cache.c[1]
        pre = 1.0 + h1[0]
        gate = 1.0 / (1.0 + math.exp(-pre))
        cand = math.tanh(pre)
        c_exp = gate * c1[0] + gate * cand
        h_exp = gate * math.tanh(c_exp)
        assert abs(c2[0] - c_exp) < 1e-12
        assert abs(h2[0] - h_exp) < 1e-12

    def test_forward_logits_are_scaled_h(self):
        # V is a column of ones into 3 classes, so every logit equals h_T.
        params = unit_lstm_params()
        X = np.ones((2, 1))
        logits, cache = lstm_one(X, params)
        c1 = cache.c[0]
        h1 = SIG1 * math.tanh(c1[0])
        pre = 1.0 + h1
        gate = 1.0 / (1.0 + math.exp(-pre))
        c2 = gate * c1[0] + gate * math.tanh(pre)
        h2 = gate * math.tanh(c2)
        assert np.allclose(logits, h2, atol=1e-12)

    def test_unknown_candidate_activation(self):
        params = unit_lstm_params()
        with pytest.raises((ArgumentError, ConfigurationError)):
            lstm_one(np.ones((1, 1)), params, "softsign")


class TestLstmBatch:
    def test_batch_matches_single(self):
        params = init_lstm_params(input_dim=4, hidden_dim=5, seed=3)
        lens = [2, 5, 3]
        seqs = []
        for n, tag in zip(lens, range(3)):
            rng = np.random.default_rng(100 + tag)
            seqs.append(rng.normal(size=(n, 4)))
        T = max(lens)
        X = np.zeros((3, T, 4))
        for b, S in enumerate(seqs):
            X[b, : S.shape[0]] = S
        logits, _ = lstm_forward_batch(X, np.array(lens), params)
        for b, S in enumerate(seqs):
            single, _ = lstm_one(S, params)
            assert np.allclose(logits[b], single, atol=1e-12)

    def test_padding_rows_do_not_leak(self):
        # Garbage past the true length must not change the output.
        params = init_lstm_params(input_dim=4, hidden_dim=5, seed=3)
        rng = np.random.default_rng(0)
        S = rng.normal(size=(3, 4))
        X_clean = np.zeros((1, 6, 4))
        X_clean[0, :3] = S
        X_dirty = X_clean.copy()
        X_dirty[0, 3:] = 99.0
        a, _ = lstm_forward_batch(X_clean, np.array([3]), params)
        b, _ = lstm_forward_batch(X_dirty, np.array([3]), params)
        assert np.array_equal(a, b)

    def test_order_sensitivity(self):
        # The recurrence must distinguish the same tokens in a different order.
        params = init_lstm_params(input_dim=3, hidden_dim=4, seed=7)
        rng = np.random.default_rng(1)
        S = rng.normal(size=(3, 3))
        fwd, _ = lstm_one(S, params)
        rev, _ = lstm_one(S[::-1].copy(), params)
        assert not np.allclose(fwd, rev)

    def test_bad_lengths_rejected(self):
        params = init_lstm_params(input_dim=2, hidden_dim=2, seed=3)
        X = np.zeros((1, 4, 2))
        with pytest.raises(ArgumentError):
            lstm_forward_batch(X, np.array([0]), params)
        with pytest.raises(ArgumentError):
            lstm_forward_batch(X, np.array([5]), params)
        params = init_lstm_params(input_dim=4, hidden_dim=2, seed=3)
        for lengths in BAD_LENGTHS:
            with pytest.raises(ArgumentError, match="lengths"):
                lstm_forward_batch(np.zeros((3, 5, 4)), np.array(lengths), params)

    def test_hidden_state_bounded(self):
        # h = o * tanh(c) with o in (0,1) keeps every coordinate inside (-1, 1).
        params = init_lstm_params(input_dim=6, hidden_dim=8, seed=11)
        rng = np.random.default_rng(5)
        X = rng.normal(scale=4.0, size=(4, 9, 6))
        lengths = np.array([9, 4, 7, 1])
        _, cache = lstm_forward_batch(X, lengths, params)
        assert np.max(np.abs(cache.h_last)) < 1.0


# The kernel before the tanh form, kept as the oracle: the exact sign-split
# sigmoid on the strided gate block, state copied step to step.
def oracle_lstm_forward(X, lengths, params, candidate_activation="tanh", dropout_mask=None):
    B, T, _ = X.shape
    H = params.hidden_dim
    W, U, b = _stacked(params, Workspace())
    order = np.argsort(-lengths, kind="stable")
    n = np.count_nonzero(lengths > np.arange(T)[:, None], axis=1)
    offsets = np.concatenate([[0], np.cumsum(n)])
    x = X[_cells(order, offsets)]
    gates = x @ W.T
    gates += b
    h_prev, c_all, tanh_c = np.empty((3, len(x), H))
    h, c = np.zeros((2, B, H))
    for t in range(T):
        a, z = offsets[t], offsets[t + 1]
        h_prev[a:z] = h[:n[t]]
        pre = gates[a:z]
        pre += h[:n[t]] @ U.T
        pre[:, :3 * H] = sigmoid(pre[:, :3 * H])
        pre[:, 3 * H:] = apply_activation(candidate_activation, pre[:, 3 * H:])
        i, f, o, g = (pre[:, k * H:(k + 1) * H] for k in range(4))
        c[:n[t]] = i * g + f * c[:n[t]]
        c_all[a:z] = c[:n[t]]
        tanh_c[a:z] = np.tanh(c[:n[t]])
        h[:n[t]] = o * tanh_c[a:z]
    h_last = np.empty_like(h)
    h_last[order] = h
    penult = h_last if dropout_mask is None else h_last * dropout_mask
    logits = penult @ params.V.T + params.b_y
    return logits, LstmForwardCache(
        x=x, h_prev=h_prev, c=c_all, tanh_c=tanh_c, gates=gates, order=order,
        offsets=offsets, x_shape=X.shape, h_last=h_last, penultimate=penult,
        dropout_mask=dropout_mask, candidate_activation=candidate_activation)


def oracle_lstm_backward(dlogits, params, cache, want_dx=False):
    H = params.hidden_dim
    W, U, _ = _stacked(params, Workspace())
    offsets, tanh_c = cache.offsets, cache.tanh_c
    n = np.diff(offsets)
    c_prev = np.zeros_like(cache.c)
    c_prev[n[0]:] = cache.c[np.arange(n[0], len(c_prev)) - np.repeat(n[:-1], n[1:])]
    gates = cache.gates.reshape(-1, 4, H)
    i, f, o, g = (gates[:, k] for k in range(4))
    dpre = 1.0 - gates
    dpre *= gates
    dpre[:, 0] *= g
    dpre[:, 1] *= c_prev
    dpre[:, 2] *= tanh_c
    dpre[:, 3] = i * activation_grad_from_output(cache.candidate_activation, g)
    dc_dh = o * (1.0 - tanh_c * tanh_c)

    mask = 1.0 if cache.dropout_mask is None else cache.dropout_mask
    dh = (dlogits @ params.V * mask)[cache.order]
    dc = np.zeros_like(dh)
    for t in range(len(n) - 1, -1, -1):
        a, z = offsets[t], offsets[t + 1]
        d = dpre[a:z]
        dc_new = dc[:n[t]] + dh[:n[t]] * dc_dh[a:z]
        d_o = dh[:n[t]] * d[:, 2]
        d *= dc_new[:, None, :]
        d[:, 2] = d_o
        dh[:n[t]] = d.reshape(n[t], 4 * H) @ U
        dc[:n[t]] = dc_new * f[a:z]

    dpre = dpre.reshape(-1, 4 * H)
    dW, dU, db = dpre.T @ cache.x, dpre.T @ cache.h_prev, dpre.sum(axis=0)
    grads = {f"{p}_{gate}": grad[k * H:(k + 1) * H]
             for k, gate in enumerate(GATES) for p, grad in zip("WUb", (dW, dU, db))}
    grads["V"] = dlogits.T @ cache.penultimate
    grads["b_y"] = dlogits.sum(axis=0)
    dX = None
    if want_dx:
        dX = np.zeros(cache.x_shape)
        dX[_cells(cache.order, offsets)] = dpre @ W
    return grads, dX


def sigmoid_gate_preactivations(cache, params) -> tuple[np.ndarray, np.ndarray]:
    """(gate values, pre-activations) of every sigmoid gate column in the cache.

    The kernel sums z / 2 from halved weights with contiguous transposes;
    the halving is exact, so this repeats that sum and doubles it."""
    H = params.hidden_dim
    k = 4 * H if cache.candidate_activation == "sigmoid" else 3 * H
    W, U, b = _stacked(params, Workspace())
    for m in (W, U, b):
        m[:k] *= 0.5
    z = cache.x @ np.ascontiguousarray(W.T)
    z += b
    off = cache.offsets
    for t in range(1, len(off) - 1):
        z[off[t]:off[t + 1]] += cache.h_prev[off[t]:off[t + 1]] @ np.ascontiguousarray(U.T)
    return cache.gates[:, :k], 2.0 * z[:, :k]


class TestLstmAgainstOracle:
    """The tanh-form, in-place kernel against the exact-sigmoid kernel it replaced.

    Every gate moves by about an ulp, and gemm bits may differ between a
    contiguous and a transposed operand, so results agree to within a
    tolerance fixed here: 256 * eps per step, relative to the larger of 1
    and the oracle array's largest magnitude."""

    SIGMOID_GATE_TOL = 2.3e-16

    @staticmethod
    def tolerance(steps: int) -> float:
        return 256 * steps * np.finfo(np.float64).eps

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, data):
        T = data.draw(st.integers(1, 10), label="T")
        lengths = np.array(data.draw(st.lists(st.integers(1, T), min_size=1, max_size=6),
                                     label="lengths"))
        d = data.draw(st.integers(1, 6), label="input_dim")
        H = data.draw(st.integers(1, 6), label="hidden_dim")
        act = data.draw(st.sampled_from(ACTIVATIONS), label="act")
        use_dropout = data.draw(st.booleans(), label="dropout")
        want_dx = data.draw(st.booleans(), label="want_dx")
        scale = data.draw(st.sampled_from([1.0, 3.0]), label="weight_scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = init_lstm_params(d, H, seed=int(rng.integers(2**31)))
        for tensor in params.tensors().values():
            tensor *= scale
        B = len(lengths)
        X = rng.normal(scale=2.0, size=(B, T, d))
        mask = (rng.random((B, H)) >= 0.5) * 2.0 if use_dropout else None
        dlogits = rng.normal(size=(B, 3))

        want, want_cache = oracle_lstm_forward(X, lengths, params, act, mask)
        want_grads, want_dX = oracle_lstm_backward(dlogits, params, want_cache, want_dx)
        got, cache = lstm_forward_batch(X, lengths, params, act, mask)
        grads, dX = lstm_backward_batch(dlogits, params, cache, want_dx)

        tol = self.tolerance(T)
        pairs = [("logits", got, want), ("h_last", cache.h_last, want_cache.h_last)]
        pairs += [(name, grads[name], want_grads[name]) for name in want_grads]
        assert set(grads) == set(want_grads)
        assert (dX is None) == (want_dX is None) == (not want_dx)
        if want_dx:
            pairs.append(("dX", dX, want_dX))
        for name, a, b in pairs:
            assert a.shape == b.shape, name
            bound = tol * max(float(np.max(np.abs(b))), 1.0)
            assert float(np.max(np.abs(a - b))) <= bound, name

        gate, pre = sigmoid_gate_preactivations(cache, params)
        assert float(np.max(np.abs(gate - sigmoid(pre)), initial=0.0)) <= self.SIGMOID_GATE_TOL

    def test_saturated_preactivations_raise_nothing(self):
        # Weights 1 on a single input and no recurrence, so each gate's
        # pre-activation is the input itself, from -800 to 800.
        grid = np.array([0.0, -0.0, 1e-8, -1e-8, 0.5, -0.5, 1.0, -1.0,
                         36.0, -36.0, 37.5, -37.5, 40.0, -40.0, 700.0, -700.0, 720.0,
                         -720.0, 745.5, -745.5, 800.0, -800.0])
        one, zero = np.ones((1, 1)), np.zeros((1, 1))
        params = LstmParams(**{f"{p}_{g}": (one if p == "W" else zero).copy()
                               for g in GATES for p in "WU"},
                            **{f"b_{g}": np.zeros(1) for g in GATES},
                            V=np.ones((3, 1)), b_y=np.zeros(3))
        X = np.stack([grid, grid[::-1]])[:, :, None]
        lengths = np.array([len(grid), len(grid) - 5])
        for act in ACTIVATIONS:
            with np.errstate(all="raise"):
                logits, cache = lstm_forward_batch(X, lengths, params, act)
                _, dX = lstm_backward_batch(np.full((2, 3), 0.25), params, cache, want_dx=True)
            assert np.all(np.isfinite(logits)) and np.all(np.isfinite(dX))
            gate, pre = sigmoid_gate_preactivations(cache, params)
            assert np.all((gate >= 0.0) & (gate <= 1.0))
            assert float(np.max(np.abs(gate - sigmoid(pre)))) <= self.SIGMOID_GATE_TOL


# The kernel before the contiguous scaling, kept as a byte-exact oracle: it
# scales the strided sigmoid columns [:, :k] of each step's gate block in
# place and takes f * c_prev into a fresh array. Its backward is the
# kernel's backward of that time.
def strided_lstm_forward(X, lengths, params, candidate_activation="tanh", dropout_mask=None):
    B, T, _ = X.shape
    ws = Workspace()
    H = params.hidden_dim
    W, U, b = _stacked(params, ws)
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
    for t in range(T):
        a, z = offsets[t], offsets[t + 1]
        pre = gates[a:z]
        if t:
            prev = slice(offsets[t - 1], offsets[t - 1] + n[t])
            pre += np.matmul(h_all[prev], UT, out=ws.get("step", (n[t], 4 * H)))
        if candidate_activation == "relu":
            np.tanh(pre[:, :k], out=pre[:, :k])
            np.maximum(pre[:, k:], 0.0, out=pre[:, k:])
        else:
            np.tanh(pre, out=pre)
        pre[:, :k] *= 0.5
        pre[:, :k] += 0.5
        i, f, o, g = (pre[:, j * H:(j + 1) * H] for j in range(4))
        c = np.multiply(i, g, out=c_all[a:z])
        if t:
            c += f * c_all[prev]
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


def strided_lstm_backward(dlogits, params, cache, want_dx=False):
    ws = Workspace()
    H = params.hidden_dim
    W, U, _ = _stacked(params, ws)
    offsets, tanh_c = cache.offsets, cache.tanh_c
    n = np.diff(offsets)
    c_prev = _one_step_back(cache.c, n, ws.get("c_prev", cache.c.shape))
    gates = cache.gates.reshape(-1, 4, H)
    i, f, o, g = (gates[:, k] for k in range(4))
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


class TestLstmBytesAgainstStridedKernel:
    """Scaling the whole contiguous gate block with the candidate columns set
    aside and put back, and f * c_prev in a slab, give every byte of the
    kernel that scaled the strided sigmoid columns."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_every_byte_matches(self, data):
        T = data.draw(st.integers(1, 8), label="T")
        lengths = np.array(data.draw(st.lists(st.integers(1, T), min_size=1, max_size=8),
                                     label="lengths"))
        d = data.draw(st.integers(1, 8), label="input_dim")
        H = data.draw(st.integers(1, 8), label="hidden_dim")
        act = data.draw(st.sampled_from(ACTIVATIONS), label="act")
        use_dropout = data.draw(st.booleans(), label="dropout")
        want_dx = data.draw(st.booleans(), label="want_dx")
        scale = data.draw(st.sampled_from([1.0, 3.0]), label="weight_scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = init_lstm_params(d, H, seed=int(rng.integers(2**31)))
        for tensor in params.tensors().values():
            tensor *= scale
        B = len(lengths)
        X = rng.normal(scale=2.0, size=(B, T, d))
        mask = (rng.random((B, H)) >= 0.5) * 2.0 if use_dropout else None
        dlogits = rng.normal(size=(B, 3))

        want, want_cache = strided_lstm_forward(X, lengths, params, act, mask)
        want_grads, want_dX = strided_lstm_backward(dlogits, params, want_cache, want_dx)
        got, cache = lstm_forward_batch(X, lengths, params, act, mask)
        grads, dX = lstm_backward_batch(dlogits, params, cache, want_dx)

        assert set(grads) == set(want_grads)
        assert (dX is None) == (want_dX is None) == (not want_dx)
        pairs = [("logits", got, want)]
        pairs += [(name, getattr(cache, name), getattr(want_cache, name))
                  for name in ("gates", "c", "tanh_c", "h_prev", "h_last")]
        pairs += [(name, grads[name], want_grads[name]) for name in want_grads]
        if want_dx:
            pairs.append(("dX", dX, want_dX))
        for name, a, b in pairs:
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def sign_split_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) on x >= 0 and e^x / (1 + e^x) below, entry by entry."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    GRID = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-8, -1e-8, 0.5, -0.5,
                     1.0, -1.0, 36.0, -36.0, 37.5, -37.5, 40.0, -40.0, 700.0, -700.0,
                     720.0, -720.0, 745.5, -745.5, 800.0, -800.0, np.inf, -np.inf])

    def test_bitwise_equal_to_sign_split_reference(self):
        rng = np.random.default_rng(8)
        dense = np.concatenate([self.GRID, rng.normal(scale=20.0, size=4000),
                                rng.uniform(-1000.0, 1000.0, size=4000)])
        with np.errstate(under="ignore"):
            expected = sign_split_sigmoid(dense)
        got = sigmoid(dense)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        assert sigmoid(dense.reshape(2, -1)).tobytes() == expected.tobytes()

    def test_raises_no_floating_point_error(self):
        with np.errstate(all="raise"):
            out = sigmoid(self.GRID)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[0] == out[1] == 0.5 and out[-2] == 1.0 and out[-1] == 0.0


def single_filter_cnn() -> CnnParams:
    """One width-2 filter over dim-2 input, identity-ish readout."""
    w = np.array([[[0.2, -0.3], [0.4, 0.1]]])   # (1, 2, 2)
    return CnnParams(
        window_sizes=(2,),
        filters={2: w},
        biases={2: np.array([0.05])},
        V=np.array([[1.0], [0.0], [0.0]]),
        b_y=np.zeros(3),
    )


class TestCnnOracle:
    X3 = np.array([[1.0, -1.0], [0.5, 2.0], [-1.5, 0.25]])

    def test_hand_worked_feature_map(self):
        params = single_filter_cnn()
        logits = cnn_one(self.X3, 3, params, "tanh")
        # window 0: 0.2*1 - 0.3*(-1) + 0.4*0.5 + 0.1*2 + 0.05 = 0.95
        # window 1: 0.2*0.5 - 0.3*2 + 0.4*(-1.5) + 0.1*0.25 + 0.05 = -1.025
        pre0 = 0.2 * 1 + (-0.3) * (-1) + 0.4 * 0.5 + 0.1 * 2 + 0.05
        pre1 = 0.2 * 0.5 + (-0.3) * 2 + 0.4 * (-1.5) + 0.1 * 0.25 + 0.05
        assert abs(pre0 - 0.95) < 1e-12
        assert abs(pre1 - (-1.025)) < 1e-12
        c_max = math.tanh(0.95)
        assert abs(logits[0] - c_max) < 1e-12
        assert logits[1] == 0.0 and logits[2] == 0.0

    def test_max_pool_picks_largest_window(self):
        params = single_filter_cnn()
        _, cache = cnn_forward_batch(self.X3[None, :, :], params, "tanh")
        assert cache.argmax[2][0, 0] == 0
        assert abs(cache.pooled[0, 0] - math.tanh(0.95)) < 1e-12

    def test_argmax_first_on_ties(self):
        # Two identical windows: pooling must report the earlier index.
        params = single_filter_cnn()
        X = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        _, cache = cnn_forward_batch(X[None, :, :], params, "tanh")
        assert cache.argmax[2][0, 0] == 0

    def test_padded_windows_see_bias_only(self):
        # A length-1 tweet padded to 3 rows gives two width-2 windows; the
        # second covers only padding, so its pre-activation is the bias.
        # With the row flipped, the padded window is the larger one and
        # pooling reports it, whether or not the kernel is told the length.
        params = single_filter_cnn()
        for row, argmax in (([1.0, -1.0], 0), ([-1.0, 1.0], 1)):
            X = np.zeros((1, 3, 2))
            X[0, 0] = row
            window0 = math.tanh(0.2 * row[0] + (-0.3) * row[1] + 0.05)
            fmap = oracle_cnn_forward(X, params, "tanh")[1].feature_maps[2][0, :, 0]
            assert fmap.shape == (2,)
            assert abs(fmap[0] - window0) < 1e-12
            assert abs(fmap[1] - math.tanh(0.05)) < 1e-12
            for lengths in (None, np.array([1])):
                _, cache = cnn_forward_batch(X, params, "tanh", lengths=lengths)
                assert cache.argmax[2][0, 0] == argmax
                assert abs(cache.pooled[0, 0] - max(window0, math.tanh(0.05))) < 1e-12

    def test_sigmoid_activation_mode(self):
        params = single_filter_cnn()
        logits = cnn_one(self.X3, 3, params, "sigmoid")
        assert abs(logits[0] - 1.0 / (1.0 + math.exp(-0.95))) < 1e-12

    def test_relu_activation_mode(self):
        params = single_filter_cnn()
        logits = cnn_one(self.X3, 3, params, "relu")
        assert abs(logits[0] - 0.95) < 1e-12


class TestCnnBatch:
    def test_batch_matches_single(self):
        params = init_cnn_params(input_dim=4, seed=5, window_sizes=(2, 3), filters_per_window=3)
        rng = np.random.default_rng(2)
        lens = [3, 6, 4]
        X = np.zeros((3, 6, 4))
        mats = []
        for b, n in enumerate(lens):
            M = rng.normal(size=(n, 4))
            X[b, :n] = M
            mats.append(M)
        logits, _ = cnn_forward_batch(X, params)
        for b, M in enumerate(mats):
            single = cnn_one(M, 6, params)
            assert np.allclose(logits[b], single, atol=1e-12)

    def test_window_shorter_than_largest_filter_rejected(self):
        params = init_cnn_params(input_dim=4, seed=5, window_sizes=(3,), filters_per_window=2)
        with pytest.raises(ConfigurationError):
            cnn_forward_batch(np.zeros((1, 2, 4)), params)

    @pytest.mark.parametrize("sizes", [(0, 2), (-1, 2)])
    def test_window_size_below_one_rejected(self, sizes):
        with pytest.raises(ArgumentError, match=r"window sizes must be at least 1"):
            init_cnn_params(input_dim=4, seed=5, window_sizes=sizes, filters_per_window=2)

    def test_batch_padding_validation(self):
        params = init_cnn_params(input_dim=3, seed=5, window_sizes=(2,), filters_per_window=2)
        model = NeuralModel(kind="cnn", params=params, max_len=5)
        with pytest.raises(ArgumentError):
            predict_proba_batch(model, [np.ones((2, 3)), np.zeros((0, 3))])
        with pytest.raises(ConfigurationError):
            predict_proba_batch(model, [np.ones((2, 3)), np.ones((6, 3))])

    def test_bad_lengths_rejected(self):
        params = init_cnn_params(input_dim=4, seed=5, window_sizes=(2,), filters_per_window=2)
        for lengths in BAD_LENGTHS:
            with pytest.raises(ArgumentError, match="lengths"):
                cnn_forward_batch(np.zeros((3, 5, 4)), params, lengths=np.array(lengths))

    def test_pooling_is_order_insensitive_when_windows_coincide(self):
        # Width-1 windows make the model a bag of tokens: permuting rows
        # cannot change max-pooled features. This pins down the pooling
        # semantics that the sequence model deliberately does not share.
        params = init_cnn_params(input_dim=3, seed=9, window_sizes=(1,), filters_per_window=4)
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 3))
        a = cnn_one(M, 5, params)
        b = cnn_one(M[::-1].copy(), 5, params)
        assert np.allclose(a, b, atol=1e-12)


class TestCnnTrimmedPadding:
    """Padding a CNN batch to its longest tweet plus the largest window, capped
    at max_len, pools and routes gradients as padding to max_len does."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_trimmed_padding_matches_max_len_padding(self, data):
        window_sizes = tuple(sorted(data.draw(
            st.sets(st.integers(1, 5), min_size=1, max_size=3), label="window_sizes")))
        max_h = max(window_sizes)
        dim = data.draw(st.integers(1, 4), label="dim")
        F = data.draw(st.integers(1, 3), label="F")
        act = data.draw(st.sampled_from(["tanh", "sigmoid", "relu"]), label="act")
        bias_shift = data.draw(st.sampled_from([0.0, -0.5, -3.0]), label="bias_shift")
        zero_filters = data.draw(st.booleans(), label="zero_filters")
        lengths = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=5),
                            label="lengths")
        longest = max(lengths)
        max_len = data.draw(st.integers(max(longest, max_h), longest + 2 * max_h + 3),
                            label="max_len")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = CnnParams(
            window_sizes=window_sizes,
            filters={h: (0.0 if zero_filters else 1.0) * rng.normal(size=(F, h, dim))
                     for h in window_sizes},
            biases={h: rng.normal(size=F) + bias_shift for h in window_sizes},
            V=rng.normal(size=(3, F * len(window_sizes))),
            b_y=rng.normal(size=3),
        )
        X = np.zeros((len(lengths), max_len, dim))
        for b, n in enumerate(lengths):
            X[b, :n] = rng.normal(size=(n, dim))
        T = min(max_len, longest + max_h)

        _, full = cnn_forward_batch(X, params, act)
        _, trim = cnn_forward_batch(X[:, :T].copy(), params, act)
        for h in window_sizes:
            np.testing.assert_array_equal(trim.argmax[h], full.argmax[h])
        np.testing.assert_allclose(trim.pooled, full.pooled, rtol=1e-12, atol=0.0)
        for cache in (full, trim):
            maps = dense_feature_maps(cache, params)
            by_index = np.concatenate([
                np.take_along_axis(maps[h], cache.argmax[h][:, None, :], axis=1)[:, 0, :]
                for h in window_sizes], axis=1)
            assert by_index.tobytes() == cache.pooled.tobytes()

    def test_batch_pads_to_longest_plus_largest_window(self):
        params = init_cnn_params(input_dim=2, seed=1, window_sizes=(2, 3), filters_per_window=2)
        model = NeuralModel(kind="cnn", params=params, max_len=10)
        short = [(np.ones((n, 2)), 0) for n in (4, 2)]
        assert _assemble_batch(model, short, Workspace())[0].shape == (2, 7, 2)
        long = [(np.ones((n, 2)), 0) for n in (9, 2)]
        assert _assemble_batch(model, long, Workspace())[0].shape == (2, 10, 2)
        with pytest.raises(ConfigurationError, match="the model's max_len 10"):
            _assemble_batch(model, [(np.ones((11, 2)), 0)], Workspace())


def dense_feature_maps(cache, params):
    """h -> the (B, P_h, F_h) feature map that a forward cache's packed rows
    stand for: each example's real windows, then act(b) in every wholly
    padded one."""
    B, T, _ = cache.X.shape
    maps = {}
    for h, act in cache.packed.items():
        fmap = np.empty((B, T - h + 1, act.shape[1]))
        fmap[...] = apply_activation(cache.activation, params.biases[h])
        fmap[np.arange(T - h + 1) < cache.counts[h][:, None]] = act
        maps[h] = fmap
    return maps


# The kernel before packed windows, kept as the oracle: every window of the
# padded batch convolved through im2col, one gemm per example, and the
# input gradient scattered with a 2-D fancy index.
@dataclass
class OracleCnnCache:
    windows: dict
    feature_maps: dict
    penultimate: np.ndarray
    pooled: np.ndarray
    dropout_mask: np.ndarray | None
    activation: str

    @cached_property
    def argmax(self):
        return {h: np.argmax(fmap, axis=1) for h, fmap in self.feature_maps.items()}


def oracle_im2col(X, h):
    B, L, dim = X.shape
    s0, s1, s2 = X.strides
    view = np.lib.stride_tricks.as_strided(X, shape=(B, L - h + 1, h, dim),
                                           strides=(s0, s1, s1, s2))
    return view.reshape(B, L - h + 1, h * dim).copy()


def oracle_cnn_forward(X, params, activation="tanh", dropout_mask=None):
    windows, maps, pooled_parts = {}, {}, []
    for h in params.window_sizes:
        W = params.filters[h]
        cols = oracle_im2col(X, h)
        fmap = apply_activation(activation, cols @ W.reshape(W.shape[0], -1).T + params.biases[h])
        pooled_parts.append(fmap.max(axis=1))
        windows[h], maps[h] = cols, fmap
    pooled = np.concatenate(pooled_parts, axis=1)
    penult = pooled if dropout_mask is None else pooled * dropout_mask
    logits = penult @ params.V.T + params.b_y
    return logits, OracleCnnCache(windows, maps, penult, pooled, dropout_mask, activation)


def oracle_cnn_backward(dlogits, params, cache, want_dx, x_shape):
    grads = {k: np.zeros_like(v) for k, v in params.tensors().items()}
    grads["V"] += dlogits.T @ cache.penultimate
    grads["b_y"] += dlogits.sum(axis=0)
    dpenult = dlogits @ params.V
    if cache.dropout_mask is not None:
        dpenult = dpenult * cache.dropout_mask
    dX = np.zeros(x_shape) if want_dx else None
    offset = 0
    rows = np.arange(dlogits.shape[0])[:, None]
    for h in params.window_sizes:
        W = params.filters[h]
        F = W.shape[0]
        y_at = cache.pooled[:, offset:offset + F]
        dpre = dpenult[:, offset:offset + F] * activation_grad_from_output(cache.activation, y_at)
        offset += F
        am = cache.argmax[h]
        cols_at = cache.windows[h][rows, am]
        grads[f"filters_{h}"] += np.einsum("bf,bfk->fk", dpre, cols_at).reshape(F, h, -1)
        grads[f"bias_{h}"] += dpre.sum(axis=0)
        if want_dx:
            window_rows = am[:, :, None] + np.arange(h)
            for f in range(F):
                dX[rows, window_rows[:, f]] += dpre[:, f, None, None] * W[f]
    return grads, dX


class TestCnnPackedAgainstOracle:
    """Packed windows (only those that start on a real token go through the
    gemm) against the all-window im2col kernel they replaced.

    A row's gemm bits depend on the call it sits in, so the two agree to
    within a tolerance fixed here: 256 * eps, relative to the larger of 1
    and the oracle array's largest magnitude."""

    TOL = 256 * np.finfo(np.float64).eps

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, data):
        window_sizes = tuple(sorted(data.draw(
            st.sets(st.integers(1, 5), min_size=1, max_size=3), label="window_sizes")))
        max_h = max(window_sizes)
        longest = data.draw(st.integers(1, 12), label="longest")
        lengths = np.array(data.draw(st.lists(st.integers(1, longest), min_size=0, max_size=6),
                                     label="lengths") + [longest])
        # T as _assemble_batch pads it: the longest tweet plus the largest
        # window, capped at max_len.
        max_len = data.draw(st.integers(max(longest, max_h), longest + max_h), label="max_len")
        T = min(max_len, longest + max_h)
        dim = data.draw(st.integers(1, 6), label="dim")
        F = data.draw(st.integers(1, 4), label="F")
        act = data.draw(st.sampled_from(ACTIVATIONS), label="act")
        use_dropout = data.draw(st.booleans(), label="dropout")
        want_dx = data.draw(st.booleans(), label="want_dx")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        params = CnnParams(
            window_sizes=window_sizes,
            filters={h: rng.normal(size=(F, h, dim)) for h in window_sizes},
            biases={h: rng.normal(size=F) for h in window_sizes},
            V=rng.normal(size=(3, F * len(window_sizes))),
            b_y=rng.normal(size=3),
        )
        B = len(lengths)
        X = np.zeros((B, T, dim))
        for b, n in enumerate(lengths):
            X[b, :n] = rng.normal(size=(n, dim))
        mask = (rng.random((B, params.total_filters)) >= 0.5) * 2.0 if use_dropout else None
        dlogits = rng.normal(size=(B, 3))

        want, want_cache = oracle_cnn_forward(X, params, act, mask)
        want_grads, want_dX = oracle_cnn_backward(dlogits, params, want_cache, want_dx, X.shape)
        got, cache = cnn_forward_batch(X, params, act, mask, lengths)
        grads, dX = cnn_backward_batch(dlogits, params, cache, want_dx)

        assert set(grads) == set(want_grads)
        assert (dX is None) == (want_dX is None) == (not want_dx)
        pairs = [("logits", got, want), ("pooled", cache.pooled, want_cache.pooled)]
        pairs += [(name, grads[name], want_grads[name]) for name in want_grads]
        if want_dx:
            pairs.append(("dX", dX, want_dX))
        for name, a, b in pairs:
            assert a.shape == b.shape, name
            bound = self.TOL * max(float(np.max(np.abs(b))), 1.0)
            assert float(np.max(np.abs(a - b))) <= bound, name

    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_wholly_padded_window_is_act_of_bias(self, act):
        params = init_cnn_params(input_dim=3, seed=4, window_sizes=(2, 3), filters_per_window=4)
        for h in params.window_sizes:
            params.biases[h] = np.array([-1.5, -0.25, 0.3, 2.0])
        lengths = np.array([2, 5])
        X = np.zeros((2, 8, 3))
        X[0, :2] = [[1.0, -2.0, 0.5], [0.25, 0.75, -1.0]]
        X[1, :5] = np.linspace(-1.0, 1.0, 15).reshape(5, 3)
        _, cache = cnn_forward_batch(X, params, act, lengths=lengths)
        oracle = oracle_cnn_forward(X, params, act)[1]
        offset = 0
        for h in params.window_sizes:
            want = apply_activation(act, params.biases[h])
            pooled = cache.pooled[:, offset:offset + want.size]
            offset += want.size
            assert np.all(pooled[lengths < X.shape[1] - h + 1] >= want), h
            # Where a wholly padded window wins, it is the first one, the
            # oracle picks it too, and the pooled feature is act(b) exactly.
            padded = cache.argmax[h] >= lengths[:, None]
            assert padded.any(), h
            for b, f in zip(*np.nonzero(padded)):
                assert cache.argmax[h][b, f] == oracle.argmax[h][b, f] == lengths[b], (h, b, f)
                assert pooled[b, f].tobytes() == want[f].tobytes(), (h, b, f)

    def test_relu_tie_with_padding_picks_the_real_window(self):
        # Negative weights on positive rows and a negative bias: every real
        # window and every wholly padded one gives relu 0, and the argmax
        # is the first window, which starts on a real token.
        params = CnnParams(window_sizes=(2,), filters={2: -np.ones((1, 2, 2))},
                           biases={2: np.array([-0.5])}, V=np.ones((3, 1)), b_y=np.zeros(3))
        X = np.zeros((2, 6, 2))
        X[0, :3] = 1.0
        X[1, :1] = 2.0
        _, cache = cnn_forward_batch(X, params, "relu", lengths=np.array([3, 1]))
        assert np.all(oracle_cnn_forward(X, params, "relu")[1].feature_maps[2] == 0.0)
        assert np.all(cache.packed[2] == 0.0) and np.all(cache.pooled == 0.0)
        assert cache.argmax[2].tolist() == [[0], [0]]
        assert float(apply_activation("relu", params.biases[2])[0]) == 0.0


class TestCnnPoolsPackedRows:
    """Forward pools straight from the packed rows; that keeps the bytes of
    max-pooling the dense (B, P, F) feature map they stand for, and backward's
    argmax is that map's first-index argmax."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_pooled_and_argmax_match_the_dense_feature_map(self, data):
        window_sizes = tuple(sorted(data.draw(
            st.sets(st.integers(1, 4), min_size=1, max_size=3), label="window_sizes")))
        max_h = max(window_sizes)
        lengths = data.draw(st.lists(st.integers(1, 10), min_size=1, max_size=6), label="lengths")
        longest = max(lengths)
        T = data.draw(st.integers(max(longest, max_h), longest + max_h), label="T")
        dim = data.draw(st.integers(1, 4), label="dim")
        F = data.draw(st.integers(1, 4), label="F")
        act = data.draw(st.sampled_from(ACTIVATIONS), label="act")
        # "zero" filters make every real window tie act(b); "negative" ones
        # over positive rows, with a negative bias, make every relu feature 0.
        weights = data.draw(st.sampled_from(["normal", "zero", "negative"]), label="weights")
        bias_shift = data.draw(st.sampled_from([0.0, -3.0]), label="bias_shift")
        nan_at = data.draw(st.sampled_from([None, "input", "bias"]), label="nan_at")
        use_lengths = data.draw(st.booleans(), label="use_lengths")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        filters = {h: rng.normal(size=(F, h, dim)) for h in window_sizes}
        if weights == "zero":
            filters = {h: np.zeros_like(w) for h, w in filters.items()}
        elif weights == "negative":
            filters = {h: -np.abs(w) for h, w in filters.items()}
        params = CnnParams(window_sizes=window_sizes, filters=filters,
                           biases={h: rng.normal(size=F) + bias_shift for h in window_sizes},
                           V=rng.normal(size=(3, F * len(window_sizes))), b_y=rng.normal(size=3))
        X = np.zeros((len(lengths), T, dim))
        for b, n in enumerate(lengths):
            X[b, :n] = np.abs(rng.normal(size=(n, dim)))
        if nan_at == "input":
            b = int(rng.integers(len(lengths)))
            X[b, int(rng.integers(lengths[b])), int(rng.integers(dim))] = np.nan
        elif nan_at == "bias":
            params.biases[window_sizes[0]][int(rng.integers(F))] = np.nan

        _, cache = cnn_forward_batch(X, params, act,
                                     lengths=np.array(lengths) if use_lengths else None)
        maps = dense_feature_maps(cache, params)
        want = np.concatenate([fmap.max(axis=1) for fmap in maps.values()], axis=1)
        # Which NaN a max returns is numpy's choice (over a contiguous axis,
        # as when F is 1, it returns its own), so NaNs compare by position.
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(cache.pooled), nan)
        assert cache.pooled[~nan].tobytes() == want[~nan].tobytes()
        for h, fmap in maps.items():
            np.testing.assert_array_equal(cache.argmax[h], np.argmax(fmap, axis=1))


def test_fine_tuned_cnn_batch_requests_no_dense_map_or_full_window_gather(monkeypatch):
    # A fine-tuned batch runs forward and backward with dX. No workspace
    # request may be a (B, P_h, F_h) feature map or a (B, F_h, h, dim)
    # gather of whole argmax windows.
    B, dim, F = 5, 7, 4
    params = init_cnn_params(input_dim=dim, seed=3, window_sizes=(2, 3), filters_per_window=F)
    model = NeuralModel(kind="cnn", params=params, max_len=12, dropout_rate=0.5)
    rng = np.random.default_rng(6)
    batch = [(rng.normal(size=(n, dim)), n % 3) for n in (4, 9, 2, 6, 1)]
    requests = []
    get = Workspace.get

    def spy(self, name, shape):
        requests.append(tuple(shape))
        return get(self, name, shape)

    monkeypatch.setattr(Workspace, "get", spy)
    _, _, dX = loss_and_gradients(model, batch, dropout_seed=11, want_dx=True)
    T = dX.shape[1]
    assert (B, T, dim) in requests
    for h in params.window_sizes:
        assert (B, T - h + 1, F) not in requests, h
        assert (B, F, h, dim) not in requests, h


class TestSoftmaxAndPredict:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=30.0, size=(50, 3))
        probs = softmax(logits)
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits), softmax(logits + 500.0), atol=1e-12)

    def test_argmax_label_first_tie(self):
        assert argmax_label(np.array([0.4, 0.4, 0.2])) == 0
        assert argmax_label(np.array([0.2, 0.4, 0.4])) == 1

    def test_argmax_label_over_rows_matches_the_per_row_rule(self):
        def per_row(row):
            best = float(np.max(row))
            return next(code for code in range(3) if float(row[code]) == best)

        rng = np.random.default_rng(5)
        ties = rng.integers(0, 3, size=(300, 3)) / 2.0   # many exact ties, some all-equal
        signed = np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, -1.0], [-np.inf, -np.inf, -np.inf]])
        for rows in (ties, signed, softmax(rng.normal(scale=3.0, size=(500, 3)))):
            codes = argmax_label(rows)
            assert codes.tolist() == [per_row(row) for row in rows]
            assert [argmax_label(row) for row in rows] == codes.tolist()
        assert argmax_label(np.empty((0, 3))).tolist() == []

    @pytest.mark.parametrize("probs", [np.array([0.2, np.nan, 0.5]),
                                       np.array([[0.2, 0.3, 0.5], [np.nan] * 3])])
    def test_argmax_label_rejects_nan(self, probs):
        with pytest.raises(ArgumentError, match="probabilities contain no maximum"):
            argmax_label(probs)

    def test_predict_proba_batch_both_kinds(self):
        for kind in ("cnn", "lstm"):
            if kind == "cnn":
                params = init_cnn_params(input_dim=3, seed=1, window_sizes=(2,),
                                         filters_per_window=2)
            else:
                params = init_lstm_params(input_dim=3, hidden_dim=4, seed=1)
            model = NeuralModel(kind=kind, params=params, max_len=4)
            rng = np.random.default_rng(6)
            examples = [rng.normal(size=(n, 3)) for n in (2, 4, 3)]
            probs = predict_proba_batch(model, examples)
            assert probs.shape == (3, 3)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
