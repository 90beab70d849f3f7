"""Minimal numpy Adam optimizer over the localizer's flat parameter vector,
plus training-stability helpers (global-norm gradient clipping and the
non-finite-loss guard exception)."""

from __future__ import annotations

import numpy as np


class NonFiniteLossError(RuntimeError):
    """Training loss or parameters went NaN/inf — abort loudly instead of
    saving a silently-corrupt checkpoint."""


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """L2 norm over every gradient entry, treated as one flat vector."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g)))
    return float(np.sqrt(total))


def clip_by_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale ``grads`` in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm so callers can log it."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_grad_norm(grads)
    if norm > max_norm and np.isfinite(norm):
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class Adam:
    """Adam over one flat parameter vector, updated in place.

    Each step runs the textbook expression's operations in their usual
    order, writing every temporary into two buffers kept for the life of the
    optimizer, so it allocates nothing and gives the same floats.
    """

    def __init__(
        self,
        params: np.ndarray,
        lr: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def step(self, grads: np.ndarray) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        m, v, num, den = self._m, self._v, self._num, self._den
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grads, out=num)
        v *= self.beta2
        v += np.multiply(1.0 - self.beta2, np.square(grads, out=num), out=num)
        # params -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.multiply(self.lr, np.divide(m, bias1, out=num), out=num)
        np.sqrt(np.divide(v, bias2, out=den), out=den)
        den += self.eps
        num /= den
        self.params -= num
