"""Gradient clipping and SGD with Nesterov momentum.

The Nesterov step is memory-bound: five elementwise operations per
parameter, each of which would stream the whole parameter, velocity or
gradient array through DRAM.  `NesterovSGD.step` therefore runs all
five on one block of `STEP_BLOCK` elements at a time, so a block's
parameters, velocity and gradients stay in L2 between operations and
each array makes one pass.  Every element still sees the same
operations in the same order, so the result is bitwise that of the
unblocked update, and the only scratch is one block per lane.

Both the clip and the step run in the two training lanes of
`layers.in_lanes`: one lane takes the first half of the STEP_BLOCK
blocks of all the arrays, in order, and the other lane the rest.  Each
element is computed alone, so the split changes no bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError
from .layers import in_lanes

GRADIENT_CLIP_BOUND = 10.0
MOMENTUM = 0.9
# 32k elements is 256 KiB per float64 array and 128 KiB per float32 one:
# a block's parameters, velocity, gradients and scratch (1 MiB or 512 KiB)
# fit in L2.
STEP_BLOCK = 1 << 15


def _run_in_lanes(sizes, run):
    """`run(ranges)` in each of the two lanes (`in_lanes`), over arrays of
    `sizes` elements: `ranges` lists (array index, lo, hi) flat element
    ranges, and the two lists cover every array once, in order.  The
    first holds the first half (rounded up) of all the arrays' STEP_BLOCK
    blocks, so it cuts at most one array, on a block boundary."""
    blocks = [-(-size // STEP_BLOCK) for size in sizes]
    left = (sum(blocks) + 1) // 2  # blocks still due to the first lane
    first, second = [], []
    for i, (size, count) in enumerate(zip(sizes, blocks)):
        cut = min(size, left * STEP_BLOCK)
        left -= min(left, count)
        if cut:
            first.append((i, 0, cut))
        if cut < size:
            second.append((i, cut, size))
    in_lanes(sum(sizes), lambda: run(first), lambda: run(second))


def clip_gradients(grads: dict) -> dict:
    """Clamp every gradient element into [-GRADIENT_CLIP_BOUND,
    GRADIENT_CLIP_BOUND] (idempotent).

    Clips in place (each backward pass hands over fresh arrays, and the
    largest nets carry tens of millions of gradients per step).  A
    gradient that is not C-contiguous (Conv1D's einsum result, which is
    small) has no flat view and is clipped whole before the lanes start.
    """
    flats = []
    for g in grads.values():
        if g.flags.c_contiguous:
            flats.append(g.reshape(-1))
        else:
            np.clip(g, -GRADIENT_CLIP_BOUND, GRADIENT_CLIP_BOUND, out=g)

    def clip(ranges):
        for i, lo, hi in ranges:
            block = flats[i][lo:hi]
            np.clip(block, -GRADIENT_CLIP_BOUND, GRADIENT_CLIP_BOUND, out=block)

    _run_in_lanes([flat.size for flat in flats], clip)
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
        keys = list(self.params)
        params = [self.params[key].reshape(-1) for key in keys]
        velocity = [self.velocity[key].reshape(-1) for key in keys]
        # A non-contiguous gradient (Conv1D's einsum result) is copied so
        # its flat view lines up with the parameter's.
        grads = [np.ascontiguousarray(grads[key]).reshape(-1) for key in keys]

        def update(ranges):
            for i, lo, hi in ranges:
                p, v, g = params[i], velocity[i], grads[i]
                scratch = np.empty(min(hi - lo, STEP_BLOCK), p.dtype)
                for start in range(lo, hi, STEP_BLOCK):
                    end = min(start + STEP_BLOCK, hi)
                    gb, vb, pb = g[start:end], v[start:end], p[start:end]
                    gb *= lr  # gradients are per-step scratch; scale once, reuse twice
                    vb *= mu
                    vb -= gb
                    pb -= gb
                    pb += np.multiply(vb, mu, out=scratch[: pb.size])

        _run_in_lanes([p.size for p in params], update)
