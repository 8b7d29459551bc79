"""Adadelta: per-component adaptive steps with no global learning rate.

Per component, with decay rho and stabilizer eps:

    Eg  <- rho * Eg + (1 - rho) * g^2
    d   <- -sqrt(Eu + eps) / sqrt(Eg + eps) * g
    Eu  <- rho * Eu + (1 - rho) * d^2
    p   <- p + d

Eg accumulates squared gradients, Eu accumulates squared updates; both
start at +0.0 and never go negative. A gradient of +0.0 leaves the
parameter bit for bit as it was (d is -0.0) but still scales both
accumulators by rho: the step computes Eg * rho + 0.0 and Eu * rho + 0.0,
which are exactly Eg * rho and Eu * rho. So an update that scales every
row of an embedding table by rho and runs the formulas above only on the
rows a batch touched gives the bits of this dense one. Only a lazy update
that skipped the untouched rows and later applied their decay in closed
form (rho^n) would change bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ArgumentError
from .workspace import Workspace

DEFAULT_RHO = 0.95
DEFAULT_EPS = 1e-6


@dataclass
class AdadeltaState:
    """Accumulators keyed like the parameter tensors they track."""

    accum_grad: dict[str, np.ndarray] = field(default_factory=dict)
    accum_update: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_tensors(cls, tensors: dict[str, np.ndarray]) -> "AdadeltaState":
        return cls(
            accum_grad={k: np.zeros_like(v) for k, v in tensors.items()},
            accum_update={k: np.zeros_like(v) for k, v in tensors.items()},
        )


def adadelta_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdadeltaState,
    rho: float = DEFAULT_RHO,
    eps: float = DEFAULT_EPS,
    workspace: Workspace | None = None,
) -> None:
    """Apply one update in place to every tensor; state advances in place.

    The temporaries live in two workspace slabs (a throwaway workspace
    when None), computed with the same operations in the same order as
    the formulas above.
    """
    if set(tensors) != set(grads):
        raise ArgumentError(
            f"gradient keys {sorted(set(grads) ^ set(tensors))} do not match parameters"
        )
    ws = Workspace() if workspace is None else workspace
    for name, p in tensors.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ArgumentError(
                f"gradient shape {g.shape} does not match parameter {name} shape {p.shape}"
            )
        Eg = state.accum_grad[name]
        Eu = state.accum_update[name]
        t = ws.get("adadelta_t", p.shape)
        delta = ws.get("adadelta_delta", p.shape)
        Eg *= rho
        np.multiply(1.0 - rho, g, out=t)
        t *= g
        Eg += t
        # delta = -sqrt(Eu + eps) / sqrt(Eg + eps) * g
        np.negative(np.sqrt(np.add(Eu, eps, out=delta), out=delta), out=delta)
        np.divide(delta, np.sqrt(np.add(Eg, eps, out=t), out=t), out=delta)
        delta *= g
        Eu *= rho
        np.multiply(1.0 - rho, delta, out=t)
        t *= delta
        Eu += t
        p += delta
