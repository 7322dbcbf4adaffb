"""Gradient clipping and SGD with Nesterov momentum.

The Nesterov step is memory-bound: five elementwise operations per
parameter, each of which would stream the whole parameter, velocity or
gradient array through DRAM.  `NesterovSGD.step` therefore runs all
five on one block of `STEP_BLOCK` elements at a time, so a block's
parameters, velocity and gradients stay in L2 between operations and
each array makes one pass.  Every element still sees the same
operations in the same order, so the result is bitwise that of the
unblocked update, and the only scratch is one block.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError

GRADIENT_CLIP_BOUND = 10.0
MOMENTUM = 0.9
# 32k elements is 256 KiB per float64 array and 128 KiB per float32 one:
# a block's parameters, velocity, gradients and scratch (1 MiB or 512 KiB)
# fit in L2.
STEP_BLOCK = 1 << 15


def clip_gradients(grads: dict) -> dict:
    """Clamp every gradient element into [-GRADIENT_CLIP_BOUND,
    GRADIENT_CLIP_BOUND] (idempotent).

    Clips in place (each backward pass hands over fresh arrays, and the
    largest nets carry tens of millions of gradients per step).
    """
    for g in grads.values():
        np.clip(g, -GRADIENT_CLIP_BOUND, GRADIENT_CLIP_BOUND, out=g)
    return grads


class NesterovSGD:
    """SGD with Nesterov momentum (mu = MOMENTUM) in the lookahead formulation:

        v <- mu * v - lr * g
        p <- p + mu * v - lr * g

    Parameters are updated in place, so they must be C-contiguous (a
    flat view of any other array would be a copy); velocity buffers
    mirror parameter shapes and start at zero.  `step` treats the
    gradients it is given as scratch and may overwrite them.
    """

    def __init__(self, params: dict, learning_rate: float):
        for key, value in params.items():
            if not value.flags.c_contiguous:
                raise DimensionError(f"parameter {key!r} is not C-contiguous")
        self.params = params
        self.learning_rate = learning_rate
        # np.zeros takes zeroed pages from the OS; zeros_like would write them.
        self.velocity = {key: np.zeros(value.shape, dtype=value.dtype)
                         for key, value in params.items()}

    def step(self, grads: dict):
        lr = self.learning_rate
        mu = MOMENTUM
        for key, p in self.params.items():
            p = p.reshape(-1)
            scratch = np.empty(min(p.size, STEP_BLOCK), p.dtype)
            v = self.velocity[key].reshape(-1)
            # A non-contiguous gradient (Conv1D's einsum result) is copied
            # so its flat view lines up with the parameter's.
            g = np.ascontiguousarray(grads[key]).reshape(-1)
            for lo in range(0, p.size, STEP_BLOCK):
                hi = lo + STEP_BLOCK
                gb, vb, pb = g[lo:hi], v[lo:hi], p[lo:hi]
                gb *= lr  # gradients are per-step scratch; scale once, reuse twice
                vb *= mu
                vb -= gb
                pb -= gb
                pb += np.multiply(vb, mu, out=scratch[: pb.size])
