"""Layer composition, MSE objective, and parameter bookkeeping."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError, NumericError
from .layers import Bidirectional


def _check_finite(arr, layer_name, stage):
    # One reduction pass: the sum is finite only if every element is (large
    # nets make a full isfinite scan per op noticeably expensive).  A sum of
    # finite elements can still overflow, float32 ones most easily, so only
    # the element scan can say that one is not finite.  Both passes run under
    # np.errstate, so a diverging net is reported here alone, not as a warning.
    total = np.sum(arr)
    if not np.isfinite(total) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values after {stage} of layer {layer_name!r}")


class Network:
    """An ordered stack of layers trained against mean squared error.

    `output_kind` is "sequence" for per-timestep power outputs or
    "triple" for rectangle regressors.  When a sequence output is
    shorter than its target window (valid convolutions eat the edges),
    the target is compared against its centre crop and `output_offset`
    records how many samples each edge loses, so disaggregation can
    place outputs at their true absolute positions.

    The network computes in its parameters' one dtype (`dtype`), casting
    inputs and targets to it; a network without parameters uses float64.
    """

    def __init__(self, layers, output_kind="sequence", output_offset=0):
        self.layers = list(layers)
        seen = set()
        for layer in self.layers:
            if layer.name in seen:
                raise DimensionError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)
        dtypes = {value.dtype for value in self.parameters().values()}
        if len(dtypes) > 1:
            raise DimensionError(f"parameters mix dtypes {sorted(map(str, dtypes))}")
        self.dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        self.output_kind = output_kind
        self.output_offset = output_offset

    @property
    def runs_own_lanes(self) -> bool:
        """Whether `forward` runs in the two lanes of its own: a
        Bidirectional layer runs its halves there.  Two passes of such a
        network gain nothing in the lanes, since the worker runs a nested
        pass's halves one after the other."""
        return any(isinstance(layer, Bidirectional) for layer in self.layers)

    # -- forward / backward -------------------------------------------------

    def forward(self, x):
        """Pure forward pass; safe to call concurrently on frozen params."""
        with np.errstate(over="ignore", invalid="ignore"):  # also over the input's cast
            y = np.asarray(x, dtype=self.dtype)
            for layer in self.layers:
                y = layer.forward(y)
                _check_finite(y, layer.name, "forward")
        return y

    def loss_and_gradients(self, x, target):
        """MSE loss (mean over batch and elements) and parameter gradients."""
        caches = []
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.asarray(x, dtype=self.dtype)
            for layer in self.layers:
                y, cache = layer.forward_cached(y)
                _check_finite(y, layer.name, "forward")
                caches.append(cache)

            target = self.align_target(np.asarray(target, dtype=self.dtype), y.shape)
            diff = y - target
            loss = float(np.mean(diff * diff))
            grad = (2.0 / diff.size) * diff

            grads = {}
            for layer, cache in zip(reversed(self.layers), reversed(caches)):
                grad, layer_grads = layer.backward(grad, cache)
                _check_finite(grad, layer.name, "backward")
                for key, g in layer_grads.items():
                    _check_finite(g, layer.name, "backward")
                    grads[f"{layer.name}/{key}"] = g
        return loss, grads

    def align_target(self, target, output_shape):
        """Centre-crop sequence targets when the network output is shorter."""
        if self.output_kind != "sequence" or target.shape == tuple(output_shape):
            return target
        out_len = output_shape[-1]
        excess = target.shape[-1] - out_len
        if excess < 0 or excess % 2 != 0:
            raise DimensionError(
                f"target length {target.shape[-1]} incompatible with output {out_len}")
        lo = excess // 2
        return target[..., lo : lo + out_len]

    # -- parameter access ---------------------------------------------------

    def parameters(self):
        """Flat dict of live parameter arrays, keyed 'layer/param'."""
        out = {}
        for layer in self.layers:
            for key, value in layer.params.items():
                out[f"{layer.name}/{key}"] = value
        return out

    def parameter_count(self) -> int:
        return sum(v.size for v in self.parameters().values())

    def describe(self):
        return [dict(layer.describe(), name=layer.name) for layer in self.layers]
