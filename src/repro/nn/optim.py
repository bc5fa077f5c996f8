"""First-order optimiser operating on flat parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Adam:
    """Adam optimiser (Kingma & Ba) on a flat parameter vector."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    _m: np.ndarray | None = field(default=None, init=False, repr=False)
    _v: np.ndarray | None = field(default=None, init=False, repr=False)
    _t: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")

    def step(self, parameters: np.ndarray, gradient: np.ndarray) -> np.ndarray:
        parameters = np.asarray(parameters, dtype=float)
        gradient = np.asarray(gradient, dtype=float)
        if parameters.shape != gradient.shape:
            raise ValueError("parameter and gradient shapes must match")
        if self._m is None or self._m.shape != parameters.shape:
            self._m = np.zeros_like(parameters)
            self._v = np.zeros_like(parameters)
            self._t = 0
        self._t += 1
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * gradient
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * gradient ** 2
        m_hat = self._m / (1.0 - self.beta1 ** self._t)
        v_hat = self._v / (1.0 - self.beta2 ** self._t)
        return parameters - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
