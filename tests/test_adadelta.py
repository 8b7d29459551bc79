"""Optimizer update oracles."""

import math

import numpy as np
import pytest

from multisent.errors import ArgumentError
from multisent.nn import AdadeltaState, adadelta_step


def fresh(value: float) -> tuple[dict, AdadeltaState]:
    tensors = {"w": np.array([value])}
    return tensors, AdadeltaState.for_tensors(tensors)


class TestFirstStepOracle:
    def test_unit_gradient(self):
        # Eg = 0.05, delta = -sqrt(1e-6) / sqrt(0.05 + 1e-6).
        tensors, state = fresh(1.0)
        adadelta_step(tensors, {"w": np.array([1.0])}, state)
        expect = -math.sqrt(1e-6) / math.sqrt(0.05 + 1e-6)
        assert abs(expect - (-0.004472091234310839)) < 1e-15
        assert abs(tensors["w"][0] - (1.0 + expect)) < 1e-12
        assert abs(state.accum_grad["w"][0] - 0.05) < 1e-15
        assert abs(state.accum_update["w"][0] - 0.05 * expect * expect) < 1e-18

    def test_first_step_magnitude_is_gradient_scale_free(self):
        # Scaling the very first gradient barely moves the step size: the
        # ratio sqrt(eps)/sqrt(0.05 g^2 + eps) * g saturates near
        # sqrt(eps/0.05) for large |g|.
        for g in (1.0, 10.0, 1000.0):
            tensors, state = fresh(0.0)
            adadelta_step(tensors, {"w": np.array([g])}, state)
            assert abs(tensors["w"][0]) < math.sqrt(1e-6 / 0.05) + 1e-9

    def test_second_step_recurrence_by_hand(self):
        tensors, state = fresh(1.0)
        g1, g2 = 1.0, -0.5
        adadelta_step(tensors, {"w": np.array([g1])}, state)
        d1 = -math.sqrt(1e-6) / math.sqrt(0.05 * g1 * g1 + 1e-6) * g1
        Eg = 0.95 * (0.05 * g1 * g1) + 0.05 * g2 * g2
        # The step draws on the update accumulator as it stood after step
        # one; its own decay happens only after d2 is computed.
        Eu = 0.05 * d1 * d1
        d2 = -math.sqrt(Eu + 1e-6) / math.sqrt(Eg + 1e-6) * g2
        adadelta_step(tensors, {"w": np.array([g2])}, state)
        assert abs(tensors["w"][0] - (1.0 + d1 + d2)) < 1e-12


class TestStateBehavior:
    def test_zero_gradient_is_fixed_point(self):
        tensors, state = fresh(3.25)
        for _ in range(4):
            adadelta_step(tensors, {"w": np.zeros(1)}, state)
        assert tensors["w"][0] == 3.25
        assert state.accum_grad["w"][0] == 0.0
        assert state.accum_update["w"][0] == 0.0

    @pytest.mark.parametrize("rho", [0.95, 0.5, 0.0])
    def test_zero_gradient_decays_nonzero_state(self, rho):
        # Two steps build a non-zero state; a zero gradient then leaves p
        # bit-identical and scales both accumulators by exactly rho. This
        # is why the embedding table keeps its dense update.
        tensors = {"w": np.array([0.75, -2.5, 0.0, 1e-3])}
        state = AdadeltaState.for_tensors(tensors)
        for g in ([1.0, -0.5, 2.0, 3.0], [0.25, 4.0, -1.0, 1e-2]):
            adadelta_step(tensors, {"w": np.array(g)}, state, rho=rho)
        p = tensors["w"].copy()
        Eg, Eu = state.accum_grad["w"].copy(), state.accum_update["w"].copy()
        assert np.all(Eg > 0.0) and np.all(Eu > 0.0)
        adadelta_step(tensors, {"w": np.zeros(4)}, state, rho=rho)
        assert tensors["w"].tobytes() == p.tobytes()
        assert state.accum_grad["w"].tobytes() == (rho * Eg).tobytes()
        assert state.accum_update["w"].tobytes() == (rho * Eu).tobytes()

    def test_updates_apply_in_place(self):
        tensors, state = fresh(0.0)
        ref = tensors["w"]
        adadelta_step(tensors, {"w": np.array([2.0])}, state)
        assert ref is tensors["w"] and ref[0] != 0.0

    def test_constant_gradient_accelerates(self):
        # Repeated identical gradients grow Eu, so steps lengthen.
        tensors, state = fresh(0.0)
        g = {"w": np.array([1.0])}
        prev = 0.0
        last_delta = None
        for _ in range(6):
            before = tensors["w"][0]
            adadelta_step(tensors, {"w": g["w"].copy()}, state)
            delta = abs(tensors["w"][0] - before)
            if last_delta is not None:
                assert delta > last_delta
            last_delta = delta
            prev = before
        assert tensors["w"][0] < prev

    def test_custom_rho_eps(self):
        tensors, state = fresh(0.0)
        adadelta_step(tensors, {"w": np.array([1.0])}, state, rho=0.5, eps=1e-2)
        expect = -math.sqrt(1e-2) / math.sqrt(0.5 + 1e-2)
        assert abs(tensors["w"][0] - expect) < 1e-12

    def test_multi_tensor_independence(self):
        tensors = {"a": np.zeros(2), "b": np.ones((2, 2))}
        state = AdadeltaState.for_tensors(tensors)
        grads = {"a": np.array([1.0, 0.0]), "b": np.zeros((2, 2))}
        adadelta_step(tensors, grads, state)
        assert tensors["a"][0] != 0.0 and tensors["a"][1] == 0.0
        assert np.all(tensors["b"] == 1.0)


class TestValidation:
    def test_key_mismatch(self):
        tensors, state = fresh(0.0)
        with pytest.raises(ArgumentError):
            adadelta_step(tensors, {"v": np.zeros(1)}, state)

    def test_shape_mismatch(self):
        tensors, state = fresh(0.0)
        with pytest.raises(ArgumentError):
            adadelta_step(tensors, {"w": np.zeros(2)}, state)
