"""Adam over lists of parameter tensors, with coupled L2 weight decay, and
``check_gradients``, the central-difference check of hand-derived gradients."""

from __future__ import annotations

import numpy as np

# Entries perturbed per batched forward; larger stacks ran slower on a
# 2-core machine (GIN on CCO: 1.5 s at 32 against 2.5-3.3 s at 128-2048).
FD_CHUNK = 32


class Adam:
    def __init__(self, tensors: list[np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(t) for t in tensors]
        self.v = [np.zeros_like(t) for t in tensors]
        self.t = 0

    def step(self, tensors: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """One in-place update; decay is added to the gradient (classic Adam)."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (theta, g) in enumerate(zip(tensors, grads)):
            if self.weight_decay:
                g = g + self.weight_decay * theta
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            theta -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def check_gradients(tensors: list[np.ndarray], grads: list[np.ndarray],
                    loss, kinked, h: float, denom_floor: float) -> float:
    """Max relative error of ``grads`` against central differences.

    Each tensor's entries are moved by +h and -h FD_CHUNK at a time, as one
    stack of copies: m copies up, then m down. ``loss(ti, stack)`` runs the
    model once with tensor ``ti`` replaced by every copy and returns the
    per-copy losses and the ReLU inputs, each with the stack's leading axis.
    An entry is skipped where ``kinked(z_up, z_down)`` marks any element:
    the loss is not differentiable there. The denominator is floored at
    ``denom_floor``, below which central-difference noise (about
    eps*|loss|/h plus an h^2 term) is compared absolutely.
    """
    worst = 0.0
    for ti, tensor in enumerate(tensors):
        flat = tensor.reshape(-1)
        ga = grads[ti].reshape(-1)
        for start in range(0, flat.size, FD_CHUNK):
            idx = np.arange(start, min(start + FD_CHUNK, flat.size))
            m = len(idx)
            stack = np.tile(flat, (2 * m, 1))
            stack[np.arange(m), idx] = flat[idx] + h
            stack[np.arange(m, 2 * m), idx] = flat[idx] - h
            losses, relu_inputs = loss(ti, stack.reshape(2 * m, *tensor.shape))
            skip = np.zeros(m, dtype=bool)
            for z in relu_inputs:
                skip |= kinked(z[:m], z[m:]).reshape(m, -1).any(axis=1)
            gf = (losses[:m] - losses[m:]) / (2.0 * h)
            err = np.abs(ga[idx] - gf) / np.maximum(
                np.maximum(np.abs(ga[idx]), np.abs(gf)), denom_floor)
            if not skip.all():
                worst = max(worst, float(err[~skip].max()))
    return worst
