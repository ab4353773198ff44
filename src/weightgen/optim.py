"""Rectified Adam with decoupled weight decay.

The variance-rectification schedule follows the reference formulation:
early steps, where the adaptive second moment is untrustworthy
(approximated SMA length below 5), fall back to bias-corrected momentum
SGD; later steps scale the Adam step by the rectification term.  Weight
decay is decoupled, applied as p -= lr * wd * p before the update.

The moments are one float64 vector over all Params.  A step gathers the
gradients and values into preallocated flat buffers, updates them in one
pass, elementwise exactly as a per-Param update would, and writes the
values back; it raises on a non-finite gradient before writing anything.
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
        sizes = [p.value.size for p in self.params]
        self._m, self._v, self._g, self._x, self._tmp, self._tmp2 = np.zeros((6, sum(sizes)))
        # per Param, its slices of the gradient and value buffers, shaped like it
        ends = np.cumsum(sizes, dtype=int)
        self._views = [(p, self._g[end - size:end].reshape(p.value.shape),
                        self._x[end - size:end].reshape(p.value.shape))
                       for p, size, end in zip(self.params, sizes, ends)]

    def step(self) -> None:
        g, x, m, v, tmp, tmp2 = self._g, self._x, self._m, self._v, self._tmp, self._tmp2
        for p, p_g, _ in self._views:
            p_g[...] = p.grad
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise NonFiniteError(f"gradient of {bad.name} is non-finite at step {self._step + 1}")
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
        for p, _, p_x in self._views:
            p_x[...] = p.value
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        if self.weight_decay:
            x -= np.multiply(x, self.weight_decay * self.lr, out=tmp)
        np.multiply(m, self.lr * step_size, out=tmp)
        if rectified:
            tmp /= np.add(np.sqrt(v, out=tmp2), self.eps, out=tmp2)
        x -= tmp
        for p, _, p_x in self._views:
            p.value[...] = p_x
