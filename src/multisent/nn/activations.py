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


def apply_activation(name: str, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """act(x), written into out when given (out may be x)."""
    if name == "tanh":
        return np.tanh(x, out=out)
    if name == "sigmoid":
        if out is None:
            return sigmoid(x)
        out[...] = sigmoid(x)
        return out
    if name == "relu":
        return np.maximum(x, 0.0, out=out)
    raise ArgumentError(f"unknown activation {name!r}")


def activation_grad_from_output(
    name: str, y: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """d act / d preactivation, expressed through the output y = act(pre);
    written into out when given."""
    if name not in ACTIVATIONS:
        raise ArgumentError(f"unknown activation {name!r}")
    if out is None:
        out = np.empty_like(y)
    if name == "tanh":
        np.multiply(y, y, out=out)
        return np.subtract(1.0, out, out=out)
    if name == "sigmoid":
        np.subtract(1.0, y, out=out)
        return np.multiply(y, out, out=out)
    return np.greater(y, 0.0, out=out)
