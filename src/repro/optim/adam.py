"""Adam optimizer (the paper trains with Adam, lr 1e-4).

With the buffer pool enabled (the default) the update
runs fully in place through two pre-allocated scratch buffers per
parameter: no ``m_hat``/``v_hat``/``grad**2`` temporaries and no fresh
``p.data`` per step.  The scratch path applies the *identical* sequence of
floating-point operations as the reference expression (scalar multiplies
commute bitwise in IEEE 754, ``grad**2 == grad*grad``), so fit curves are
bit-for-bit equal between the two paths -- pinned by
``tests/test_memory_plane.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..nn.module import Parameter
from ..tensor import pool as _pool
from .optimizer import Optimizer


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        if _pool.buffer_pool_enabled():
            self._step_inplace(b1t, b2t)
            return
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / b1t
            v_hat = v / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def capture_step(self):
        """In-place update closure for the compiled step (see base class).

        Always routes through :meth:`_step_inplace` -- with the pool off
        too -- because the scratch path applies the identical FP sequence
        as the reference expression while preserving ``p.data`` identity.
        """

        def _fn() -> None:
            self._t += 1
            self._step_inplace(
                1.0 - self.beta1**self._t, 1.0 - self.beta2**self._t
            )

        return _fn

    def _step_inplace(self, b1t: float, b2t: float) -> None:
        if self._scratch is None:
            self._scratch = [
                (np.empty_like(p.data), np.empty_like(p.data))
                for p in self.parameters
            ]
        for p, m, v, (s1, s2) in zip(
            self.parameters, self._m, self._v, self._scratch
        ):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=s1)
                np.add(grad, s1, out=s1)
                grad = s1
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s2)
            m += s2
            v *= self.beta2
            np.multiply(grad, grad, out=s2)
            np.multiply(s2, 1.0 - self.beta2, out=s2)
            v += s2
            # grad (possibly aliasing s1) is dead from here on.
            np.divide(m, b1t, out=s1)  # m_hat
            np.divide(v, b2t, out=s2)  # v_hat
            np.sqrt(s2, out=s2)
            np.add(s2, self.eps, out=s2)
            np.multiply(s1, self.lr, out=s1)
            np.divide(s1, s2, out=s1)
            np.subtract(p.data, s1, out=p.data)
