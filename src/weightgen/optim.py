"""Rectified Adam with decoupled weight decay.

The variance-rectification schedule follows the reference formulation:
early steps, where the adaptive second moment is untrustworthy
(approximated SMA length below 5), fall back to bias-corrected momentum
SGD; later steps scale the Adam step by the rectification term.  Weight
decay is decoupled, applied as p -= lr * wd * p before the update.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonFiniteError
from .nn import Param


class RAdam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Param], lr: float = 1e-3, weight_decay: float = 0.0):
        if lr <= 0:
            raise ConfigError(f"lr must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self._step += 1
        t = self._step
        b1, b2 = self.beta1, self.beta2
        b1_t = b1**t
        b2_t = b2**t
        rho_inf = 2.0 / (1.0 - b2) - 1.0
        rho_t = rho_inf - 2.0 * t * b2_t / (1.0 - b2_t)
        rectified = rho_t >= 5.0
        if rectified:
            rect = np.sqrt(
                ((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t)
            )
            step_size = rect * np.sqrt(1.0 - b2_t) / (1.0 - b1_t)
        else:
            step_size = 1.0 / (1.0 - b1_t)
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if not np.isfinite(g).all():
                raise NonFiniteError(f"gradient of {p.name} is non-finite at step {t}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            if self.weight_decay:
                p.value -= self.weight_decay * self.lr * p.value
            if rectified:
                p.value -= self.lr * step_size * m / (np.sqrt(v) + self.eps)
            else:
                p.value -= self.lr * step_size * m
