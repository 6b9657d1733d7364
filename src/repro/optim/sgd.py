"""Stochastic gradient descent with optional momentum.

Like :class:`~repro.optim.adam.Adam`, the update runs fully in place (one
scratch buffer per parameter, identical floating-point operation order)
when the buffer pool is enabled, and falls back to the reference
expressions when it is off (:func:`repro.tensor.pool.set_buffer_pool`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from ..nn.module import Parameter
from ..tensor import pool as _pool
from .optimizer import Optimizer


class SGD(Optimizer):
    """Plain SGD: ``p -= lr * grad`` (with momentum and weight decay knobs)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: Optional[List[np.ndarray]] = None

    def step(self) -> None:
        if _pool.buffer_pool_enabled():
            self._step_inplace()
            return
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data = p.data - self.lr * grad

    def capture_step(self):
        """In-place update closure for the compiled step (see base class)."""
        return self._step_inplace

    def _step_inplace(self) -> None:
        if self._scratch is None:
            self._scratch = [np.empty_like(p.data) for p in self.parameters]
        for p, v, s in zip(self.parameters, self._velocity, self._scratch):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=s)
                np.add(grad, s, out=s)
                grad = s
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            np.multiply(grad, self.lr, out=s)
            np.subtract(p.data, s, out=p.data)
