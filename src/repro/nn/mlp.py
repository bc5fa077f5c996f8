"""A small dense multilayer perceptron with manual backpropagation.

PyTorch is not available in this environment, so the Allegro-lite embedding
network is a hand-rolled NumPy MLP.  Parameters live in a flat 1-D vector so
optimisers (Adam, SAM) can treat the model generically; the class provides the
forward pass, the gradient of an arbitrary upstream signal with respect to the
parameters (standard backprop), and utilities to get/set the flat parameter
vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


def _activation(name: str, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return (value, derivative) of the named activation."""
    if name == "tanh":
        t = np.tanh(x)
        return t, 1.0 - t ** 2
    if name == "silu":
        sig = 1.0 / (1.0 + np.exp(-x))
        return x * sig, sig * (1.0 + x * (1.0 - sig))
    if name == "identity":
        return x, np.ones_like(x)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class MLP:
    """Fully connected network with identical hidden activations.

    Parameters
    ----------
    layer_sizes:
        Sizes including input and output, e.g. ``(8, 32, 32, 4)``.
    activation:
        Hidden-layer activation (``tanh`` or ``silu``); the output layer is
        linear.
    rng:
        Generator for Xavier-style weight initialisation.
    """

    layer_sizes: Sequence[int]
    activation: str = "tanh"
    rng: np.random.Generator = None  # type: ignore[assignment]
    weights: List[np.ndarray] = field(init=False, repr=False)
    biases: List[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = [int(s) for s in self.layer_sizes]
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes needs at least input and output sizes >= 1")
        self.layer_sizes = tuple(sizes)
        if self.rng is None:
            self.rng = np.random.default_rng(0)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / (n_in + n_out))
            self.weights.append(self.rng.standard_normal((n_in, n_out)) * scale)
            self.biases.append(np.zeros(n_out))
        # validate the activation name eagerly
        _activation(self.activation, np.zeros(1))

    # ------------------------------------------------------------------
    @property
    def num_parameters(self) -> int:
        return int(sum(w.size for w in self.weights) + sum(b.size for b in self.biases))

    def get_parameters(self) -> np.ndarray:
        """Flattened parameter vector (weights then biases, layer by layer)."""
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.reshape(-1))
            parts.append(b.reshape(-1))
        return np.concatenate(parts)

    def set_parameters(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector produced by :meth:`get_parameters`."""
        flat = np.asarray(flat, dtype=float).reshape(-1)
        if flat.size != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} parameters, got {flat.size}"
            )
        offset = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[offset: offset + w.size].reshape(w.shape).copy()
            offset += w.size
            self.biases[i] = flat[offset: offset + b.size].reshape(b.shape).copy()
            offset += b.size

    # ------------------------------------------------------------------
    def forward(self, inputs: np.ndarray, cache: bool = False):
        """Forward pass on a batch of shape ``(n_samples, n_in)``.

        With ``cache=True`` the intermediate activations needed by
        :meth:`backward` are returned alongside the output.
        """
        x = np.asarray(inputs, dtype=float)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input feature size {x.shape[1]} != expected {self.layer_sizes[0]}"
            )
        activations = [x]
        derivatives = []
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w + b
            if i < n_layers - 1:
                value, deriv = _activation(self.activation, z)
            else:
                value, deriv = _activation("identity", z)
            activations.append(value)
            derivatives.append(deriv)
        output = activations[-1]
        if squeeze:
            output = output[0]
        if cache:
            return output, (activations, derivatives)
        return output

    def backward(self, cache, grad_output: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Backpropagate ``grad_output`` (dLoss/dOutput) through the cached pass.

        Returns ``(grad_parameters, grad_inputs)`` where ``grad_parameters``
        is flat (same layout as :meth:`get_parameters`) and ``grad_inputs``
        has the shape of the original input batch.
        """
        activations, derivatives = cache
        grad = np.asarray(grad_output, dtype=float)
        if grad.ndim == 1:
            grad = grad[None, :]
        grad_w: List[np.ndarray] = [None] * len(self.weights)  # type: ignore[list-item]
        grad_b: List[np.ndarray] = [None] * len(self.biases)  # type: ignore[list-item]
        delta = grad * derivatives[-1]
        for i in reversed(range(len(self.weights))):
            grad_w[i] = activations[i].T @ delta
            grad_b[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * derivatives[i - 1]
            else:
                grad_inputs = delta @ self.weights[0].T
        parts = []
        for gw, gb in zip(grad_w, grad_b):
            parts.append(gw.reshape(-1))
            parts.append(gb.reshape(-1))
        return np.concatenate(parts), grad_inputs
