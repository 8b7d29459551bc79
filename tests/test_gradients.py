"""Analytic gradients versus central finite differences.

Every parameter tensor of both architectures is checked entry by entry.
The relu case keeps nonzero filter biases: with zero biases every padded
window sits exactly on the activation kink, where a finite difference
straddles the non-differentiable point and disagrees with any one-sided
subgradient choice by construction.
"""

import numpy as np
import pytest

from multisent.nn import (
    NeuralModel,
    cnn_forward_batch,
    init_cnn_params,
    init_lstm_params,
    loss_and_gradients,
    lstm_forward_batch,
)
from multisent.nn.activations import activation_grad_from_output
from multisent.nn.cnn import cnn_backward_batch
from multisent.nn.model import dropout_mask
from multisent.rng import SplitMix64, derive_stream

from conftest import finite_difference, rel_err

TOL = 1e-4


def make_batch(seed: int, lens: list[int], dim: int) -> list[tuple[np.ndarray, int]]:
    batch = []
    for j, n in enumerate(lens):
        rng = SplitMix64(derive_stream(seed, "gradbatch", j))
        X = rng.uniform_array(n * dim, -1.0, 1.0).reshape(n, dim)
        batch.append((X, j % 3))
    return batch


def check_model(model: NeuralModel, batch, dropout_seed=None):
    loss, grads, _ = loss_and_gradients(model, batch, dropout_seed=dropout_seed)
    assert np.isfinite(loss)
    numeric = finite_difference(
        lambda: loss_and_gradients(model, batch, dropout_seed=dropout_seed)[0],
        model.params.tensors(),
    )
    for name, g in grads.items():
        err = rel_err(g, numeric[name])
        assert err <= TOL, f"{name}: rel err {err:.3e}"


class TestLstmGradients:
    @pytest.mark.parametrize("mode", ["tanh", "sigmoid"])
    def test_all_tensors(self, mode):
        params = init_lstm_params(input_dim=3, hidden_dim=4, seed=2)
        model = NeuralModel(kind="lstm", params=params, max_len=6,
                            candidate_activation=mode, dropout_rate=0.0)
        check_model(model, make_batch(1, [4, 2, 5], 3))

    def test_mixed_lengths_including_one(self):
        params = init_lstm_params(input_dim=3, hidden_dim=3, seed=5)
        model = NeuralModel(kind="lstm", params=params, max_len=6, dropout_rate=0.0)
        check_model(model, make_batch(2, [1, 6, 3], 3))

    def test_with_fixed_dropout_mask(self):
        # The mask is a deterministic function of the seed, so treating it
        # as a constant keeps the loss differentiable in the parameters.
        params = init_lstm_params(input_dim=3, hidden_dim=4, seed=7)
        model = NeuralModel(kind="lstm", params=params, max_len=5, dropout_rate=0.5)
        check_model(model, make_batch(3, [3, 5], 3), dropout_seed=11)

    def test_input_gradients(self):
        params = init_lstm_params(input_dim=3, hidden_dim=4, seed=9)
        model = NeuralModel(kind="lstm", params=params, max_len=5, dropout_rate=0.0)
        batch = make_batch(4, [3, 2], 3)
        _, _, dX = loss_and_gradients(model, batch, want_dx=True)
        assert dX is not None
        for b, (X, _) in enumerate(batch):
            numeric = finite_difference(
                lambda: loss_and_gradients(model, batch)[0], {"x": X})["x"]
            assert rel_err(dX[b, : X.shape[0]], numeric) <= TOL
        # Padding rows carry no gradient.
        assert np.all(dX[1, 2:] == 0.0)

    def test_unsorted_tied_lengths(self):
        # The packed batch runs its rows longest first, ties in input order;
        # every logit, gradient and dX row must land back on its own row.
        params = init_lstm_params(input_dim=3, hidden_dim=4, seed=11)
        model = NeuralModel(kind="lstm", params=params, max_len=6, dropout_rate=0.0)
        lens = [2, 5, 2, 4, 1]
        batch = make_batch(9, lens, 3)
        X = np.zeros((len(lens), max(lens), 3))
        for b, (S, _) in enumerate(batch):
            X[b, :lens[b]] = S
        logits, _ = lstm_forward_batch(X, np.array(lens), params)
        for b, (S, _) in enumerate(batch):
            alone, _ = lstm_forward_batch(S[None], np.array([lens[b]]), params)
            assert np.allclose(logits[b], alone[0], rtol=0.0, atol=1e-12)

        check_model(model, batch)
        _, _, dX = loss_and_gradients(model, batch, want_dx=True)
        for b, (S, _) in enumerate(batch):
            numeric = finite_difference(
                lambda: loss_and_gradients(model, batch)[0], {"x": S})["x"]
            assert rel_err(dX[b, :lens[b]], numeric) <= TOL
            assert np.all(dX[b, lens[b]:] == 0.0)


class TestCnnGradients:
    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    def test_all_tensors(self, act):
        params = init_cnn_params(input_dim=3, seed=2, window_sizes=(2, 3),
                                 filters_per_window=2)
        model = NeuralModel(kind="cnn", params=params, max_len=6,
                            activation=act, dropout_rate=0.0)
        check_model(model, make_batch(5, [4, 3, 6], 3))

    def test_relu_with_nonzero_biases(self):
        params = init_cnn_params(input_dim=3, seed=3, window_sizes=(2,),
                                 filters_per_window=3)
        # Move every bias off the kink that zero input rows would hit.
        params.biases[2] += np.array([0.31, -0.17, 0.23])
        model = NeuralModel(kind="cnn", params=params, max_len=5,
                            activation="relu", dropout_rate=0.0)
        check_model(model, make_batch(6, [3, 5, 2], 3))

    def test_with_fixed_dropout_mask(self):
        params = init_cnn_params(input_dim=3, seed=4, window_sizes=(2, 3),
                                 filters_per_window=2)
        model = NeuralModel(kind="cnn", params=params, max_len=6, dropout_rate=0.5)
        check_model(model, make_batch(7, [4, 6], 3), dropout_seed=13)

    def test_input_gradients(self):
        params = init_cnn_params(input_dim=3, seed=6, window_sizes=(2,),
                                 filters_per_window=2)
        model = NeuralModel(kind="cnn", params=params, max_len=5, dropout_rate=0.0)
        batch = make_batch(8, [3, 4], 3)
        _, _, dX = loss_and_gradients(model, batch, want_dx=True)
        assert dX is not None
        for b, (X, _) in enumerate(batch):
            numeric = finite_difference(
                lambda: loss_and_gradients(model, batch)[0], {"x": X})["x"]
            assert rel_err(dX[b, : X.shape[0]], numeric) <= TOL

    def test_max_pool_routes_gradient_to_argmax_window(self):
        # With a single example and a single filter, only the winning
        # window's inputs receive gradient through the pooled feature.
        params = init_cnn_params(input_dim=2, seed=8, window_sizes=(2,),
                                 filters_per_window=1)
        model = NeuralModel(kind="cnn", params=params, max_len=4, dropout_rate=0.0)
        rng = SplitMix64(derive_stream(9, "pool"))
        X = rng.uniform_array(8, -1.0, 1.0).reshape(4, 2)
        _, _, dX = loss_and_gradients(model, [(X, 0)], want_dx=True)
        rows_hit = np.unique(np.nonzero(np.any(dX[0] != 0.0, axis=1))[0])
        # A width-2 window touches exactly two consecutive rows.
        assert rows_hit.size == 2
        assert rows_hit[1] == rows_hit[0] + 1


def reference_cnn_dx(dlogits, params, cache, x_shape):
    """The CNN input gradient as a per-(example, filter) loop."""
    dX = np.zeros(x_shape)
    dpenult = dlogits @ params.V
    if cache.dropout_mask is not None:
        dpenult = dpenult * cache.dropout_mask
    offset = 0
    for h in params.window_sizes:
        W = params.filters[h]
        F = W.shape[0]
        am = cache.argmax[h]
        y_at = np.take_along_axis(cache.feature_maps[h], am[:, None, :], axis=1)[:, 0, :]
        dpre = dpenult[:, offset:offset + F] * activation_grad_from_output(cache.activation, y_at)
        offset += F
        for b in range(x_shape[0]):
            for f in range(F):
                start = am[b, f]
                dX[b, start:start + h] += dpre[b, f] * W[f]
    return dX


class TestCnnInputGradientExact:
    def test_matches_per_example_filter_loop_bit_for_bit(self):
        B, L, dim, F = 4, 7, 3, 4
        params = init_cnn_params(input_dim=dim, seed=12, window_sizes=(2, 3),
                                 filters_per_window=F)
        # Non-negative weights for three filters of each size, and a bump
        # of three positive rows per example: those filters peak on the
        # bump, so several of them share an argmax window and add into the
        # same rows of dX.
        for h in params.window_sizes:
            params.filters[h][:3] = np.abs(params.filters[h][:3])
        rng = SplitMix64(derive_stream(13, "exact-dx"))
        X = rng.uniform_array(B * L * dim, -0.3, 0.3).reshape(B, L, dim)
        for b in range(B):
            X[b, b + 1:b + 4] += 0.5
        mask = dropout_mask(derive_stream(13, "mask"), (B, params.total_filters), 0.5)
        assert np.any(mask == 0.0) and np.any(mask != 0.0)
        _, cache = cnn_forward_batch(X, params, "tanh", mask)
        for h in params.window_sizes:
            for b in range(B):
                assert np.unique(cache.argmax[h][b]).size < F, (h, b)
        dlogits = rng.uniform_array(B * 3, -1.0, 1.0).reshape(B, 3)

        _, dX = cnn_backward_batch(dlogits, params, cache, want_dx=True)
        assert np.array_equal(dX, reference_cnn_dx(dlogits, params, cache, X.shape))
