"""Elementwise activations and their derivatives.

Derivatives are taken from the activation's output value, which every
activation here supports (relu's derivative at exactly 0 is taken as 0,
consistent between the output-based and preactivation-based forms).
"""

from __future__ import annotations

import numpy as np

from ..errors import ArgumentError

ACTIVATIONS = ("tanh", "sigmoid", "relu")


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    # overflows; its underflow to 0 for large |x| is the exact answer.
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)


def apply_activation(name: str, x: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(x)
    if name == "sigmoid":
        return sigmoid(x)
    if name == "relu":
        return np.maximum(x, 0.0)
    raise ArgumentError(f"unknown activation {name!r}")


def activation_grad_from_output(name: str, y: np.ndarray) -> np.ndarray:
    """d act / d preactivation, expressed through the output y = act(pre)."""
    if name == "tanh":
        return 1.0 - y * y
    if name == "sigmoid":
        return y * (1.0 - y)
    if name == "relu":
        return (y > 0).astype(np.float64)
    raise ArgumentError(f"unknown activation {name!r}")
