"""Trainable layers with hand-written forward and backward passes.

Every input and output has a leading batch axis; sequence layers take
and return (batch, time, channels).  The LSTM runs and caches its
recurrence time-major and feature-major (see `LSTM._steps`).  A layer
computes in its parameters' dtype (`dtype`, float64 by default; the
CLI's networks use float32), and every buffer it allocates takes its
input's dtype, so a float32 network never widens to float64 mid-pass.
Forward passes are pure functions of the input and the layer's
parameters; caches needed by the backward pass are returned explicitly
rather than stored on the layer, so frozen networks can run forward
from multiple threads.  `forward` keeps no cache: the LSTM then stores
only its hidden states, not every step's cell state and gates.

`Bidirectional` runs its reverse half on one worker thread, shared by
the process and started on first use, while the calling thread runs
the forward half; NumPy releases the GIL inside its loops and BLAS
calls, so with one BLAS thread the two halves use two CPUs.  Results
are bitwise the same as running the halves one after the other.

A trainable layer is built from `init`: a numpy Generator it draws its
fresh weights from (always in float64, then rounded to `dtype`, so a
float32 layer starts from the float64 layer's weights, rounded), or a
{param: array} mapping of a checkpoint's tensors, which it adopts as
its parameters without a copy when they already have its dtype.

Backward passes return (grad_input, grad_params) where grad_params is
keyed like the layer's `params` dict.  Gradients are of the scalar loss
with respect to each tensor, accumulated over batch and time.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import DimensionError

ACTIVATIONS = ("linear", "relu", "tanh")
SMALL_UNIFORM_SCALE = 0.08  # initial range of LSTM recurrent and peephole weights


def glorot_uniform(fan_in, fan_out):
    """`draw(rng, shape)` from the Glorot uniform range of the fans."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return lambda rng, shape: rng.uniform(-bound, bound, size=shape)


def small_uniform(rng, shape):
    return rng.uniform(-SMALL_UNIFORM_SCALE, SMALL_UNIFORM_SCALE, size=shape)


def zeros(rng, shape):
    return np.zeros(shape)


def _init_params(layer_name, init, specs, dtype):
    """A layer's parameters, {param: array of `dtype`}, for `specs`,
    {param: (shape, draw)}.

    `init` is a numpy Generator, drawn from in float64 as
    `draw(init, shape)` param by param in the order of `specs`, or a
    {param: array} mapping of the layer's tensors (a checkpoint's), which
    the layer adopts without a copy once their names, shapes and dtype
    match its own.
    """
    if init is None:
        init = np.random.default_rng(0)
    if isinstance(init, np.random.Generator):
        return {key: draw(init, shape).astype(dtype, copy=False)
                for key, (shape, draw) in specs.items()}
    missing, extra = sorted(set(specs) - set(init)), sorted(set(init) - set(specs))
    if missing or extra:
        raise DimensionError(
            f"{layer_name}: parameter name mismatch: missing={missing} extra={extra}")
    params = {}
    for key, (shape, _) in specs.items():
        value = np.asarray(init[key], dtype=dtype)
        if value.shape != shape:
            raise DimensionError(f"{layer_name}: shape mismatch for {key!r}: "
                                 f"checkpoint {value.shape} vs network {shape}")
        params[key] = value
    return params


def _apply_activation(kind, z):
    if kind == "linear":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    raise DimensionError(f"unknown activation {kind!r}")


def _activation_grad(kind, z, y, dy):
    """dL/dz given dL/dy, using pre-activation z and output y."""
    if kind == "linear":
        return dy
    if kind == "relu":
        return dy * (z > 0.0)
    if kind == "tanh":
        return dy * (1.0 - y * y)
    raise DimensionError(f"unknown activation {kind!r}")


def _sigmoid_into(z, out, e, mask):
    """out = 1/(1+exp(-z)) where z >= 0 and exp(z)/(1+exp(z)) below, the
    form that cannot overflow.  `e` (float) and `mask` (bool) are scratch
    of z's shape; `out` may be `z`."""
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)  # exp(-z) where z >= 0, exp(z) below
    np.greater_equal(z, 0, out=mask)
    np.add(1.0, e, out=out)
    np.copyto(e, 1.0, where=mask)
    np.divide(e, out, out=out)


class Dense:
    """Fully connected layer applied along the last axis.

    Accepts any number of leading axes, so the same layer serves both
    flat feature vectors (batch, features) and per-timestep application
    on sequences (batch, time, features).
    """

    def __init__(self, name, input_dim, output_dim, activation="linear", init=None,
                 dtype=np.float64):
        if activation not in ACTIVATIONS:
            raise DimensionError(f"{name}: unsupported activation {activation!r}")
        self.name = name
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.activation = activation
        self.params = _init_params(name, init, {
            "weights": ((input_dim, output_dim), glorot_uniform(input_dim, output_dim)),
            "bias": ((output_dim,), zeros),
        }, dtype)

    def describe(self):
        return {"type": "dense", "units": self.output_dim, "activation": self.activation}

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        if x.shape[-1] != self.input_dim:
            raise DimensionError(
                f"{self.name}: expected last dim {self.input_dim}, got {x.shape[-1]}")
        z = x @ self.params["weights"] + self.params["bias"]
        y = _apply_activation(self.activation, z)
        return y, (x, z, y)

    def backward(self, dy, cache):
        x, z, y = cache
        dz = _activation_grad(self.activation, z, y, dy)
        flat_x = x.reshape(-1, self.input_dim)
        flat_dz = dz.reshape(-1, self.output_dim)
        grads = {
            "weights": flat_x.T @ flat_dz,
            "bias": flat_dz.sum(axis=0),
        }
        dx = dz @ self.params["weights"].T
        return dx, grads


class Conv1D:
    """1D convolution over the time axis (cross-correlation, no kernel flip).

    Input (batch, time, in_channels) -> (batch, out_time, filters).
    Border mode `valid` shortens the output; `same` (stride 1 only) pads
    filter_size-1 zeros split left/right, with the extra zero on the
    right when the total is odd.
    """

    def __init__(self, name, in_channels, num_filters, filter_size, stride=1,
                 border="valid", activation="linear", init=None, dtype=np.float64):
        if border not in ("valid", "same"):
            raise DimensionError(f"{name}: unknown border mode {border!r}")
        if border == "same" and stride != 1:
            raise DimensionError(f"{name}: border 'same' requires stride 1")
        if activation not in ACTIVATIONS:
            raise DimensionError(f"{name}: unsupported activation {activation!r}")
        self.name = name
        self.in_channels = in_channels
        self.num_filters = num_filters
        self.filter_size = filter_size
        self.stride = stride
        self.border = border
        self.activation = activation
        self.params = _init_params(name, init, {
            "weights": ((filter_size, in_channels, num_filters),
                        glorot_uniform(filter_size * in_channels, num_filters)),
            "bias": ((num_filters,), zeros),
        }, dtype)

    def describe(self):
        return {"type": "conv1d", "filter_size": self.filter_size, "stride": self.stride,
                "filters": self.num_filters, "border": self.border,
                "activation": self.activation}

    def _pads(self):
        if self.border == "valid":
            return 0, 0
        total = self.filter_size - 1
        left = total // 2
        return left, total - left

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise DimensionError(
                f"{self.name}: expected (batch, time, {self.in_channels}), got {x.shape}")
        left, right = self._pads()
        x_pad = np.pad(x, ((0, 0), (left, right), (0, 0))) if left or right else x
        if x_pad.shape[1] < self.filter_size:
            raise DimensionError(
                f"{self.name}: input length {x.shape[1]} shorter than filter "
                f"{self.filter_size}")
        # windows[b, t, c, j] = x_pad[b, t*stride + j, c]
        windows = np.lib.stride_tricks.sliding_window_view(x_pad, self.filter_size, axis=1)
        windows = windows[:, :: self.stride]
        z = np.einsum("btcj,jcf->btf", windows, self.params["weights"], optimize=True)
        z += self.params["bias"]
        y = _apply_activation(self.activation, z)
        return y, (x.shape, windows, z, y)

    def backward(self, dy, cache):
        x_shape, windows, z, y = cache
        dz = _activation_grad(self.activation, z, y, dy)
        grads = {
            "weights": np.einsum("btcj,btf->jcf", windows, dz, optimize=True),
            "bias": dz.sum(axis=(0, 1)),
        }
        left, right = self._pads()
        batch, time, _ = x_shape
        out_len = dz.shape[1]
        dx_pad = np.zeros((batch, time + left + right, self.in_channels), dz.dtype)
        weights = self.params["weights"]
        for j in range(self.filter_size):
            # output step t consumed x_pad[t*stride + j]
            dx_pad[:, j : j + out_len * self.stride : self.stride] += dz @ weights[j].T
        dx = dx_pad[:, left : left + time] if (left or right) else dx_pad
        return dx, grads


class LSTM:
    """Peephole LSTM over (batch, time, input) returning all hidden states.

    Gates follow the usual convention: input and forget gates see the
    previous cell state through elementwise peephole weights, the output
    gate sees the current cell state.  Initial hidden and cell states
    are zero.  `truncate` bounds how many steps gradients flow through
    the recurrence: the backward chain is cut at block boundaries of
    that many steps counted from the sequence end.
    """

    GATES = ("in", "forget", "cell", "out")  # pre-activation slot order

    def __init__(self, name, input_dim, hidden_size, truncate=500, init=None,
                 dtype=np.float64):
        self.name = name
        self.input_dim = input_dim
        self.hidden_size = hidden_size
        self.truncate = truncate
        n = hidden_size
        self.params = _init_params(name, init, {
            "w_input": ((input_dim, 4 * n), glorot_uniform(input_dim, n)),
            "w_hidden": ((n, 4 * n), small_uniform),
            "bias": ((4 * n,), zeros),
            "peep_in": ((n,), small_uniform),
            "peep_forget": ((n,), small_uniform),
            "peep_out": ((n,), small_uniform),
        }, dtype)

    def describe(self):
        return {"type": "lstm", "units": self.hidden_size, "peepholes": True}

    def forward(self, x):
        return self._steps(x, history=False)[0].transpose(2, 0, 1)

    def forward_cached(self, x):
        h, c, gates = self._steps(x, history=True)
        return h.transpose(2, 0, 1), (x, h, c, gates)

    def _peepholes(self, batch):
        """The three peephole vectors repeated into (n, batch) columns, so
        that every step operation runs on contiguous operands."""
        return (np.repeat(self.params[key][:, None], batch, axis=1)
                for key in ("peep_in", "peep_forget", "peep_out"))

    def _steps(self, x, history):
        """Run the recurrence over x: all hidden states, plus every step's
        cell state and gates when `history` is set (None otherwise).

        The recurrence runs feature-major: each step's states are (n,
        batch) columns and its GEMM is `w_hidden.T @ h_prev`, which at the
        paper's batch of 16 runs over twice as fast as `h_prev @ w_hidden`
        on (batch, n) rows.  So h and c are (time, n, batch) and the gates
        (time, 4n, batch).  Each step writes into buffers allocated once
        per call; every elementwise operation keeps its operands and their
        order, so the results do not depend on `history`.
        """
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise DimensionError(
                f"{self.name}: expected (batch, time, {self.input_dim}), got {x.shape}")
        batch, time, _ = x.shape
        n = self.hidden_size
        p = self.params
        dtype = x.dtype
        # The input contribution of every step, (4n, time, batch), in one
        # GEMM: at batch 16 one per step would take twice as long.
        x_rows = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(time * batch,
                                                                    self.input_dim)
        pre_all = (p["w_input"].T @ x_rows.T).reshape(4 * n, time, batch)
        del x_rows
        pre_all += p["bias"][:, None, None]
        w_hidden_t = np.ascontiguousarray(p["w_hidden"].T)
        peep_in, peep_forget, peep_out = self._peepholes(batch)

        h = np.empty((time, n, batch), dtype)
        c = np.empty((time, n, batch), dtype) if history else None
        gates = np.empty((time, 4 * n, batch), dtype) if history else None
        pre = np.empty((4 * n, batch), dtype)
        step_gates = np.empty((4 * n, batch), dtype)
        e = np.empty((2 * n, batch), dtype)  # sigmoid scratch
        mask = np.empty((2 * n, batch), dtype=bool)
        tmp = np.empty((n, batch), dtype)
        h_prev = np.zeros((n, batch), dtype)
        c_prev = np.zeros((n, batch), dtype)
        c_t = np.empty((n, batch), dtype)
        for t in range(time):
            if history:
                step_gates, c_t = gates[t], c[t]
            i_f, i_g, f_g, g_g, o_g = (step_gates[: 2 * n], step_gates[0:n],
                                       step_gates[n : 2 * n], step_gates[2 * n : 3 * n],
                                       step_gates[3 * n :])
            np.matmul(w_hidden_t, h_prev, out=pre)
            np.add(pre_all[:, t], pre, out=pre)
            pre[0:n] += np.multiply(c_prev, peep_in, out=tmp)
            pre[n : 2 * n] += np.multiply(c_prev, peep_forget, out=tmp)
            _sigmoid_into(pre[: 2 * n], i_f, e, mask)
            np.tanh(pre[2 * n : 3 * n], out=g_g)
            np.multiply(f_g, c_prev, out=c_t)
            c_t += np.multiply(i_g, g_g, out=tmp)
            pre_o = pre[3 * n :]
            pre_o += np.multiply(c_t, peep_out, out=tmp)
            _sigmoid_into(pre_o, o_g, e[:n], mask[:n])
            np.multiply(o_g, np.tanh(c_t, out=tmp), out=h[t])
            h_prev = h[t]
            if history:
                c_prev = c_t
            else:
                c_prev, c_t = c_t, c_prev
        return h, c, gates

    def backward(self, dh_out, cache):
        """(dx, grads) for `dh_out`, (batch, time, n), through the cache of
        `forward_cached`.

        Each step writes into buffers allocated once per call and keeps
        the elementwise operations of the plain step loop in their order.
        The weight gradients are summed after the loop: `w_input` and
        `w_hidden` in one GEMM each over all steps, each peephole in one
        reduction.
        """
        x, h, c, gates = cache
        batch, time, _ = x.shape
        n = self.hidden_size
        p = self.params
        dtype = x.dtype
        peep_in, peep_forget, peep_out = self._peepholes(batch)
        d_pre_all = np.empty((time, 4 * n, batch), dtype)
        zero = np.zeros((n, batch), dtype)  # read only
        dh_carry = np.zeros((n, batch), dtype)
        dc_carry = np.zeros((n, batch), dtype)
        tc = np.empty((n, batch), dtype)
        dh = np.empty((n, batch), dtype)
        dc = np.empty((n, batch), dtype)
        tmp = np.empty((2 * n, batch), dtype)
        t1 = tmp[:n]
        for t in range(time - 1, -1, -1):
            step_gates, d_pre = gates[t], d_pre_all[t]
            i_g, f_g, g_g, o_g = (step_gates[0:n], step_gates[n : 2 * n],
                                  step_gates[2 * n : 3 * n], step_gates[3 * n :])
            d_pre_i, d_pre_f, d_pre_g, d_pre_o = (d_pre[0:n], d_pre[n : 2 * n],
                                                  d_pre[2 * n : 3 * n], d_pre[3 * n :])
            c_t = c[t]
            c_prev = c[t - 1] if t > 0 else zero
            np.tanh(c_t, out=tc)

            np.add(dh_out[:, t].T, dh_carry, out=dh)
            np.multiply(dh, tc, out=d_pre_o)  # do
            d_pre_o *= o_g
            d_pre_o *= np.subtract(1.0, o_g, out=t1)
            np.multiply(dh, o_g, out=dc)
            dc *= np.subtract(1.0, np.multiply(tc, tc, out=t1), out=t1)
            dc += dc_carry
            dc += np.multiply(d_pre_o, peep_out, out=t1)
            np.multiply(dc, g_g, out=d_pre_i)  # di
            np.multiply(dc, c_prev, out=d_pre_f)  # df
            np.multiply(dc, i_g, out=d_pre_g)  # dg
            d_pre[: 2 * n] *= step_gates[: 2 * n]
            d_pre[: 2 * n] *= np.subtract(1.0, step_gates[: 2 * n], out=tmp)
            d_pre_g *= np.subtract(1.0, np.multiply(g_g, g_g, out=t1), out=t1)

            if t == 0:
                break
            if (time - t) % self.truncate == 0:
                # Block boundary: stop the gradient flowing further back.
                dh_carry.fill(0.0)
                dc_carry.fill(0.0)
                continue
            np.multiply(dc, f_g, out=dc_carry)
            dc_carry += np.multiply(d_pre_i, peep_in, out=t1)
            dc_carry += np.multiply(d_pre_f, peep_forget, out=t1)
            np.matmul(p["w_hidden"], d_pre, out=dh_carry)

        # The closing GEMMs run over all steps at once, on one row per
        # (step, batch) pair.
        d_rows = np.ascontiguousarray(d_pre_all.transpose(0, 2, 1)).reshape(time * batch, 4 * n)
        x_rows = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(time * batch,
                                                                    self.input_dim)
        h_cols = np.ascontiguousarray(h.transpose(1, 0, 2)).reshape(n, time * batch)
        grads = {
            "w_input": x_rows.T @ d_rows,
            "w_hidden": h_cols[:, :-batch] @ d_rows[batch:],
            "bias": d_rows.sum(axis=0),
            "peep_in": np.einsum("tjb,tjb->j", d_pre_all[1:, 0:n], c[:-1]),
            "peep_forget": np.einsum("tjb,tjb->j", d_pre_all[1:, n : 2 * n], c[:-1]),
            "peep_out": np.einsum("tjb,tjb->j", d_pre_all[:, 3 * n :], c),
        }
        dx = (d_rows @ p["w_input"].T).reshape(time, batch, self.input_dim).transpose(1, 0, 2)
        return dx, grads


class Bidirectional:
    """Runs one LSTM forwards and one backwards in time, concatenating
    their per-timestep outputs (feature width doubles).  The backwards
    half runs on the worker thread of `_in_parallel`."""

    def __init__(self, name, layer_fwd: LSTM, layer_bwd: LSTM):
        if layer_fwd.hidden_size != layer_bwd.hidden_size:
            raise DimensionError(f"{name}: halves must share hidden size")
        self.name = name
        self.fwd = layer_fwd
        self.bwd = layer_bwd

    @property
    def hidden_size(self):
        return self.fwd.hidden_size

    @property
    def params(self):
        merged = {f"fwd.{k}": v for k, v in self.fwd.params.items()}
        merged.update({f"bwd.{k}": v for k, v in self.bwd.params.items()})
        return merged

    def describe(self):
        return {"type": "bidirectional_lstm", "units": self.hidden_size, "peepholes": True,
                "merge": "concat"}

    def forward(self, x):
        y_f, y_b_rev = _in_parallel(lambda: self.fwd.forward(x),
                                    lambda: self.bwd.forward(x[:, ::-1]))
        return _concat_features(y_f, y_b_rev[:, ::-1])

    def forward_cached(self, x):
        (y_f, cache_f), (y_b_rev, cache_b) = _in_parallel(
            lambda: self.fwd.forward_cached(x),
            lambda: self.bwd.forward_cached(x[:, ::-1]))
        return _concat_features(y_f, y_b_rev[:, ::-1]), (cache_f, cache_b)

    def backward(self, dy, cache):
        cache_f, cache_b = cache
        n = self.hidden_size
        (dx_f, grads_f), (dx_b, grads_b) = _in_parallel(
            lambda: self.fwd.backward(dy[:, :, :n], cache_f),
            lambda: self.bwd.backward(dy[:, ::-1, n:], cache_b))
        grads = {f"fwd.{k}": v for k, v in grads_f.items()}
        grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
        return dx_f + dx_b[:, ::-1], grads


def _concat_features(a, b):
    """a and b side by side on the last axis, in a C-contiguous array.

    The halves return time-major views, and `np.concatenate` would lay
    its result out like them, which slows the GEMMs of the next layer.
    """
    batch, time, n = a.shape
    return np.concatenate([a, b], axis=2, out=np.empty((batch, time, 2 * n), a.dtype))


_worker = None  # one-thread executor, created by the first `_in_parallel`
_worker_lock = threading.Lock()


def _in_parallel(first, second):
    """(first(), second()), with `second` run on the worker thread while
    the caller runs `first`.

    The worker is one thread for the whole process, started on first use,
    so programs that never call this start no thread.  Concurrent callers
    share it and their `second` calls queue up.  An exception of either is
    raised here only once both have returned.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1, thread_name_prefix="disagg-bidirectional")
    future = _worker.submit(second)
    try:
        result = first()
    finally:
        future.exception()  # waits for `second`
    return result, future.result()


class Flatten:
    """(batch, time, channels) -> (batch, time*channels)."""

    def __init__(self, name):
        self.name = name
        self.params = {}

    def describe(self):
        return {"type": "flatten"}

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache):
        return dy.reshape(cache), {}


class Reshape:
    """Reshape each sample to a fixed target shape (batch axis kept)."""

    def __init__(self, name, target_shape):
        self.name = name
        self.target_shape = tuple(target_shape)
        self.params = {}

    def describe(self):
        return {"type": "reshape", "shape": self.target_shape}

    def forward(self, x):
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        try:
            y = x.reshape((x.shape[0],) + self.target_shape)
        except ValueError:
            raise DimensionError(
                f"{self.name}: cannot reshape {x.shape[1:]} to {self.target_shape}") from None
        return y, x.shape

    def backward(self, dy, cache):
        return dy.reshape(cache), {}
