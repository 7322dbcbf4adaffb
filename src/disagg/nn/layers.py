"""Trainable layers with hand-written forward and backward passes.

Every array has a leading batch axis; sequence layers use (batch, time,
channels).  A layer computes in its parameters' dtype (`dtype`,
float64 by default; the CLI's networks use float32), and every buffer
it allocates takes its input's dtype, so a float32 network never
widens to float64 mid-pass.  Forward passes are pure
functions of the input and the layer's parameters; caches needed by the
backward pass are returned explicitly rather than stored on the layer,
so frozen networks can run forward from multiple threads.  `forward`
keeps no cache: the LSTM then stores only its hidden states, not every
step's cell state and gates.

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
        return self._steps(x, history=False)[0]

    def forward_cached(self, x):
        h, c, gates = self._steps(x, history=True)
        return h, (x, h, c, gates)

    def _steps(self, x, history):
        """Run the recurrence over x: all hidden states, plus every step's
        cell state and gates when `history` is set (None otherwise).

        Each step writes into buffers allocated once per call; every
        elementwise operation keeps its operands and their order, so the
        results do not depend on `history`.
        """
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise DimensionError(
                f"{self.name}: expected (batch, time, {self.input_dim}), got {x.shape}")
        batch, time, _ = x.shape
        n = self.hidden_size
        p = self.params
        pre_all = x @ p["w_input"]  # hoisted input contribution
        pre_all += p["bias"]

        dtype = x.dtype
        h = np.empty((batch, time, n), dtype)
        c = np.empty((batch, time, n), dtype) if history else None
        gates = np.empty((batch, time, 4 * n), dtype) if history else None
        pre = np.empty((batch, 4 * n), dtype)
        step_gates = np.empty((batch, 4 * n), dtype)
        i_f, i_g, f_g, g_g, o_g = (step_gates[:, : 2 * n], step_gates[:, 0:n],
                                   step_gates[:, n : 2 * n], step_gates[:, 2 * n : 3 * n],
                                   step_gates[:, 3 * n :])
        e = np.empty((batch, 2 * n), dtype)  # sigmoid scratch
        mask = np.empty((batch, 2 * n), dtype=bool)
        tmp = np.empty((batch, n), dtype)
        h_t = np.zeros((batch, n), dtype)
        c_prev = np.zeros((batch, n), dtype)
        c_t = np.empty((batch, n), dtype)
        for t in range(time):
            np.matmul(h_t, p["w_hidden"], out=pre)
            np.add(pre_all[:, t], pre, out=pre)
            pre[:, 0:n] += np.multiply(c_prev, p["peep_in"], out=tmp)
            pre[:, n : 2 * n] += np.multiply(c_prev, p["peep_forget"], out=tmp)
            _sigmoid_into(pre[:, : 2 * n], i_f, e, mask)
            np.tanh(pre[:, 2 * n : 3 * n], out=g_g)
            np.multiply(f_g, c_prev, out=c_t)
            c_t += np.multiply(i_g, g_g, out=tmp)
            pre_o = pre[:, 3 * n :]
            pre_o += np.multiply(c_t, p["peep_out"], out=tmp)
            _sigmoid_into(pre_o, o_g, e[:, :n], mask[:, :n])
            np.multiply(o_g, np.tanh(c_t, out=tmp), out=h_t)
            h[:, t] = h_t
            if history:
                gates[:, t] = step_gates
                c[:, t] = c_t
            c_prev, c_t = c_t, c_prev
        return h, c, gates

    def backward(self, dh_out, cache):
        x, h, c, gates = cache
        batch, time, _ = x.shape
        n = self.hidden_size
        p = self.params
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        d_pre_all = np.zeros((batch, time, 4 * n), x.dtype)
        zero = np.zeros((batch, n), x.dtype)  # read only

        dh_carry = dc_carry = zero
        for t in range(time - 1, -1, -1):
            i_g = gates[:, t, 0:n]
            f_g = gates[:, t, n : 2 * n]
            g_g = gates[:, t, 2 * n : 3 * n]
            o_g = gates[:, t, 3 * n :]
            c_t = c[:, t]
            c_prev = c[:, t - 1] if t > 0 else zero
            tc = np.tanh(c_t)

            dh = dh_out[:, t] + dh_carry
            do = dh * tc
            d_pre_o = do * o_g * (1.0 - o_g)
            dc = dh * o_g * (1.0 - tc * tc) + dc_carry + d_pre_o * p["peep_out"]
            di = dc * g_g
            df = dc * c_prev
            dg = dc * i_g
            d_pre_i = di * i_g * (1.0 - i_g)
            d_pre_f = df * f_g * (1.0 - f_g)
            d_pre_g = dg * (1.0 - g_g * g_g)

            d_pre = d_pre_all[:, t]
            d_pre[:, 0:n] = d_pre_i
            d_pre[:, n : 2 * n] = d_pre_f
            d_pre[:, 2 * n : 3 * n] = d_pre_g
            d_pre[:, 3 * n :] = d_pre_o

            grads["peep_in"] += (d_pre_i * c_prev).sum(axis=0)
            grads["peep_forget"] += (d_pre_f * c_prev).sum(axis=0)
            grads["peep_out"] += (d_pre_o * c_t).sum(axis=0)
            if t > 0:
                grads["w_hidden"] += h[:, t - 1].T @ d_pre

            dc_carry = dc * f_g + d_pre_i * p["peep_in"] + d_pre_f * p["peep_forget"]
            dh_carry = d_pre @ p["w_hidden"].T
            if (time - t) % self.truncate == 0:
                # Block boundary: stop the gradient flowing further back.
                dh_carry = dc_carry = zero

        flat_x = x.reshape(-1, self.input_dim)
        flat_dpre = d_pre_all.reshape(-1, 4 * n)
        grads["w_input"] = flat_x.T @ flat_dpre
        grads["bias"] = flat_dpre.sum(axis=0)
        dx = d_pre_all @ p["w_input"].T
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
        return np.concatenate([y_f, y_b_rev[:, ::-1]], axis=2)

    def forward_cached(self, x):
        (y_f, cache_f), (y_b_rev, cache_b) = _in_parallel(
            lambda: self.fwd.forward_cached(x),
            lambda: self.bwd.forward_cached(x[:, ::-1]))
        y = np.concatenate([y_f, y_b_rev[:, ::-1]], axis=2)
        return y, (cache_f, cache_b)

    def backward(self, dy, cache):
        cache_f, cache_b = cache
        n = self.hidden_size
        (dx_f, grads_f), (dx_b, grads_b) = _in_parallel(
            lambda: self.fwd.backward(dy[:, :, :n], cache_f),
            lambda: self.bwd.backward(dy[:, ::-1, n:], cache_b))
        grads = {f"fwd.{k}": v for k, v in grads_f.items()}
        grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
        return dx_f + dx_b[:, ::-1], grads


_jobs = None  # queue of the worker thread, started by the first `_in_parallel`
_jobs_lock = threading.Lock()


def _work(jobs):
    while True:
        future, run = jobs.get()
        try:
            future.set_result(run())
        except BaseException as exc:  # re-raised by the caller
            future.set_exception(exc)
        del future, run  # hold no result while idle


def _in_parallel(first, second):
    """(first(), second()), with `second` run on the worker thread while
    the caller runs `first`.

    The worker is one daemon thread for the whole process, started on
    first use, so programs that never call this start no thread.
    Concurrent callers share it and their `second` calls queue up.  An
    exception of either is raised here only once both have returned.
    """
    from concurrent.futures import Future

    global _jobs
    with _jobs_lock:
        if _jobs is None:
            import queue
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_work, args=(_jobs,), name="disagg-bidirectional",
                             daemon=True).start()
    future = Future()
    _jobs.put((future, second))
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
