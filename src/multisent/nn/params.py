"""Parameter containers and initialization for the neural classifiers,
and the check both classifiers make of a batch's sequence lengths.

Both classifiers expose their parameters as an ordered name -> array
mapping (tensors()), which is what the optimizer, gradient checks, and
checkpoint serialization iterate over. Iteration order is fixed by
construction so training is bit-reproducible.

Initialization: weights uniform in +-sqrt(6 / (fan_in + fan_out)),
biases zero, except the LSTM forget-gate bias which defaults to 1.0 to
keep early memory cells open (a flag restores plain zeros). Each tensor
draws from its own named substream, so adding a tensor never shifts
another tensor's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ArgumentError
from ..rng import SplitMix64, derive_stream

N_CLASSES = 3
DEFAULT_WINDOW_SIZES = (3, 4, 5)
DEFAULT_FILTERS_PER_WINDOW = 100


def check_lengths(lengths: np.ndarray, batch: int, steps: int) -> None:
    """Raise ArgumentError unless lengths is a 1-D integer array of batch entries, each in [1, steps]."""
    if not (isinstance(lengths, np.ndarray) and lengths.shape == (batch,)
            and np.issubdtype(lengths.dtype, np.integer)):
        raise ArgumentError(f"lengths must be a 1-D integer array of {batch} entries, "
                            f"got {lengths!r}")
    if batch and (lengths.min() < 1 or lengths.max() > steps):
        raise ArgumentError(f"sequence lengths must be in [1, {steps}], got "
                            f"{lengths.min()} to {lengths.max()}")


def glorot_uniform(seed: int, kind: str, name: str, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    rng = SplitMix64(derive_stream(seed, "init", kind, name))
    size = int(np.prod(shape))
    return rng.uniform_array(size, -bound, bound).reshape(shape)


@dataclass
class LstmParams:
    """Gate weights (input, forget, output), candidate weights, output layer.

    Naming: W_* multiply the input vector, U_* multiply the previous
    hidden state, b_* are gate biases; V and b_y form the softmax layer
    over the final hidden state.
    """

    W_i: np.ndarray
    U_i: np.ndarray
    b_i: np.ndarray
    W_f: np.ndarray
    U_f: np.ndarray
    b_f: np.ndarray
    W_o: np.ndarray
    U_o: np.ndarray
    b_o: np.ndarray
    W_c: np.ndarray
    U_c: np.ndarray
    b_c: np.ndarray
    V: np.ndarray
    b_y: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.W_i.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return {
            "W_i": self.W_i, "U_i": self.U_i, "b_i": self.b_i,
            "W_f": self.W_f, "U_f": self.U_f, "b_f": self.b_f,
            "W_o": self.W_o, "U_o": self.U_o, "b_o": self.b_o,
            "W_c": self.W_c, "U_c": self.U_c, "b_c": self.b_c,
            "V": self.V, "b_y": self.b_y,
        }

    def copy(self) -> "LstmParams":
        return LstmParams(**{k: v.copy() for k, v in self.tensors().items()})


@dataclass
class CnnParams:
    """Per-window-size filter banks plus the softmax layer.

    filters[h] has shape (n_filters, h, input_dim); biases[h] has shape
    (n_filters,). The penultimate layer concatenates the per-filter max
    features in window-size order, so V has one column per filter.
    """

    window_sizes: tuple[int, ...]
    filters: dict[int, np.ndarray] = field(default_factory=dict)
    biases: dict[int, np.ndarray] = field(default_factory=dict)
    V: np.ndarray = None
    b_y: np.ndarray = None

    def __post_init__(self):
        if not self.window_sizes:
            raise ArgumentError("at least one window size required")
        if sorted(set(self.window_sizes)) != sorted(self.window_sizes):
            raise ArgumentError("window sizes must be distinct")
        if min(self.window_sizes) < 1:
            raise ArgumentError(f"window sizes must be at least 1, got {self.window_sizes}")

    @property
    def total_filters(self) -> int:
        return sum(self.filters[h].shape[0] for h in self.window_sizes)

    def tensors(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for h in self.window_sizes:
            out[f"filters_{h}"] = self.filters[h]
            out[f"bias_{h}"] = self.biases[h]
        out["V"] = self.V
        out["b_y"] = self.b_y
        return out

    def copy(self) -> "CnnParams":
        return CnnParams(
            window_sizes=self.window_sizes,
            filters={h: f.copy() for h, f in self.filters.items()},
            biases={h: b.copy() for h, b in self.biases.items()},
            V=self.V.copy(),
            b_y=self.b_y.copy(),
        )


def init_lstm_params(input_dim: int, hidden_dim: int, seed: int, forget_bias: float = 1.0) -> LstmParams:
    if input_dim <= 0 or hidden_dim <= 0:
        raise ArgumentError("dims must be positive")
    def w(name):
        return glorot_uniform(seed, "lstm", name, (hidden_dim, input_dim), input_dim, hidden_dim)
    def u(name):
        return glorot_uniform(seed, "lstm", name, (hidden_dim, hidden_dim), hidden_dim, hidden_dim)
    zeros = lambda: np.zeros(hidden_dim)
    return LstmParams(
        W_i=w("W_i"), U_i=u("U_i"), b_i=zeros(),
        W_f=w("W_f"), U_f=u("U_f"), b_f=np.full(hidden_dim, float(forget_bias)),
        W_o=w("W_o"), U_o=u("U_o"), b_o=zeros(),
        W_c=w("W_c"), U_c=u("U_c"), b_c=zeros(),
        V=glorot_uniform(seed, "lstm", "V", (N_CLASSES, hidden_dim), hidden_dim, N_CLASSES),
        b_y=np.zeros(N_CLASSES),
    )


def init_cnn_params(
    input_dim: int,
    seed: int,
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES,
    filters_per_window: int = DEFAULT_FILTERS_PER_WINDOW,
) -> CnnParams:
    if input_dim <= 0 or filters_per_window <= 0:
        raise ArgumentError("dims must be positive")
    params = CnnParams(window_sizes=tuple(window_sizes))
    for h in params.window_sizes:
        # Each filter maps an h x dim window to one feature.
        params.filters[h] = glorot_uniform(
            seed, "cnn", f"filters_{h}", (filters_per_window, h, input_dim), h * input_dim, 1
        )
        params.biases[h] = np.zeros(filters_per_window)
    total = filters_per_window * len(params.window_sizes)
    params.V = glorot_uniform(seed, "cnn", "V", (N_CLASSES, total), total, N_CLASSES)
    params.b_y = np.zeros(N_CLASSES)
    return params


def zero_like_tensors(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in tensors.items()}
