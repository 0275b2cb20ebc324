"""The Adam optimizer and global gradient-norm clipping.

Adam is the paper's optimizer for both LST-GAT (lr 1e-3, batch 64) and
BP-DQN.  A step works on the parameters' flat store (see
:func:`~repro.nn.module.flatten`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .module import Parameter, flatten

__all__ = ["Adam", "clip_grad_norm"]


class Adam:
    """Adam (Kingma & Ba 2014) with bias correction over one in-order
    run of a parameter store.

    A parameter whose gradient has been zero at every step does not
    move: its moments stay ``m = v = 0``, an update of exactly 0.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self._data, self._grad = flatten(self.parameters)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)

    def zero_grad(self) -> None:
        """Clear gradient buffers of all managed parameters."""
        self._grad.fill(0.0)

    def __setstate__(self, state: dict) -> None:
        # the vectors are views: a copy finds its own in its parameters
        self.__dict__.update(state)
        self._data, self._grad = flatten(self.parameters)

    def step(self) -> None:
        """Apply one Adam update to every managed parameter."""
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * self._grad
        v *= self.beta2
        v += (1.0 - self.beta2) * self._grad * self._grad
        m_hat = m / bias1
        v_hat = v / bias2
        self._data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.  Keeps RL training stable when TD
    errors spike early in training.  The norm adds per-parameter sums
    in order: one flat sum would round differently.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total
