import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import check_network_gradients, numeric_gradient, relative_error, traced_peak
from disagg import architectures, blas
from disagg.architectures import build_lstm, build_network, build_rectangles
from disagg.errors import DataError, DimensionError, NumericError
from disagg.nn import (LSTM, MOMENTUM, Bidirectional, Conv1D, Dense, NesterovSGD,
                       Network, Reshape, clip_gradients, layers, load_checkpoint,
                       save_checkpoint)
from disagg.nn import checkpoint
from disagg.nn.layers import _in_parallel, _sigmoid_into, in_lanes
from disagg.nn.optim import GRADIENT_CLIP_BOUND, STEP_BLOCK


def check_layer_gradients(layer, x, rng, tol=1e-4):
    """Weighted-output-sum gradient check for one layer in isolation."""
    y, cache = layer.forward_cached(x)
    weight = rng.normal(size=y.shape)
    dx, grads = layer.backward(weight, cache)

    def loss():
        return float(np.sum(layer.forward(x) * weight))

    err = relative_error(dx, numeric_gradient(loss, x))
    assert err < tol, f"input gradient: {err}"
    for key, value in layer.params.items():
        err = relative_error(grads[key], numeric_gradient(loss, value))
        assert err < tol, f"{key}: {err}"


class TestDense:
    def test_identity_map(self):
        layer = Dense("d", 3, 3, "linear")
        layer.params["weights"] = np.eye(3)
        layer.params["bias"][:] = 0
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_relu_evaluation(self):
        layer = Dense("d", 3, 3, "relu")
        layer.params["weights"] = np.eye(3)
        np.testing.assert_array_equal(layer.forward(np.array([[-1.0, 0.0, 2.0]])),
                                      [[0.0, 0.0, 2.0]])

    def test_shape_mismatch_names_layer(self):
        with pytest.raises(DimensionError, match="hidden3"):
            Dense("hidden3", 4, 2).forward(np.ones((1, 5)))

    @pytest.mark.parametrize("activation", ["linear", "relu", "tanh"])
    def test_gradients(self, activation, rng):
        layer = Dense("d", 5, 4, activation, rng)
        layer.params["bias"][:] = rng.normal(scale=0.1, size=4)
        check_layer_gradients(layer, rng.normal(size=(3, 5)), rng)

    def test_gradients_on_sequence_input(self, rng):
        layer = Dense("d", 5, 2, "tanh", rng)
        check_layer_gradients(layer, rng.normal(size=(2, 7, 5)), rng)


def conv_output_length(layer, input_length):
    """Output length of a Conv1D layer, by its border mode."""
    if layer.border == "same":
        return input_length
    return input_length - layer.filter_size + 1


class TestConv1D:
    def test_valid_output_length(self):
        layer = Conv1D("c", 1, 16, filter_size=4, border="valid")
        assert conv_output_length(layer, 128) == 125
        y = layer.forward(np.zeros((1, 128, 1)))
        assert y.shape == (1, 125, 16)

    def test_same_output_length(self, rng):
        layer = Conv1D("c", 2, 3, filter_size=4, border="same", init=rng)
        assert layer.forward(rng.normal(size=(2, 50, 2))).shape == (2, 50, 3)

    def test_same_pad_split_is_left_light(self, rng):
        # filter 4: pad 1 left, 2 right; a length-1 kernel slot check via
        # correlation against a manual computation.
        layer = Conv1D("c", 1, 1, filter_size=4, border="same", init=rng)
        x = rng.normal(size=(1, 6, 1))
        w = layer.params["weights"][:, 0, 0]
        padded = np.concatenate([[0.0], x[0, :, 0], [0.0, 0.0]])
        expected = [padded[i : i + 4] @ w for i in range(6)]
        np.testing.assert_allclose(layer.forward(x)[0, :, 0], expected)

    @pytest.mark.parametrize("border", ["valid", "same"])
    def test_gradients(self, border, rng):
        layer = Conv1D("c", 3, 4, filter_size=4, border=border, init=rng)
        layer.params["bias"][:] = rng.normal(scale=0.1, size=4)
        check_layer_gradients(layer, rng.normal(size=(2, 9, 3)), rng)


class TestLSTM:
    def test_output_shape_and_zero_input(self, rng):
        layer = LSTM("l", 3, 5, init=rng)
        layer.params["bias"][:] = 0
        y = layer.forward(np.zeros((2, 7, 3)))
        assert y.shape == (2, 7, 5)
        # zero input, zero bias: gates still fire at sigmoid(0) but the cell
        # candidate is tanh(0)=0, so the hidden state stays exactly zero.
        np.testing.assert_array_equal(y, np.zeros((2, 7, 5)))

    def test_gradients(self, rng):
        layer = LSTM("l", 3, 4, init=rng)
        layer.params["bias"][:] = rng.normal(scale=0.1, size=16)
        check_layer_gradients(layer, rng.normal(size=(2, 7, 3)), rng)

    def test_truncation_inert_for_short_sequences(self, rng):
        x = rng.normal(size=(1, 6, 2))
        full = LSTM("l", 2, 3, truncate=500, init=np.random.default_rng(9))
        y, cache = full.forward_cached(x)
        dy = np.ones_like(y)
        dx_full, _ = full.backward(dy, cache)
        same = LSTM("l", 2, 3, truncate=6, init=np.random.default_rng(9))
        y2, cache2 = same.forward_cached(x)
        dx_same, _ = same.backward(dy, cache2)
        np.testing.assert_array_equal(dx_full, dx_same)

    def test_truncation_cuts_gradient_flow(self, rng):
        # With truncate=1 the loss at the last step cannot reach the first
        # input; with full BPTT it can.
        x = rng.normal(size=(1, 5, 2))
        dy = np.zeros((1, 5, 3))
        dy[0, -1] = 1.0
        cut = LSTM("l", 2, 3, truncate=1, init=np.random.default_rng(9))
        y, cache = cut.forward_cached(x)
        dx_cut, _ = cut.backward(dy, cache)
        np.testing.assert_array_equal(dx_cut[0, :-1], np.zeros((4, 2)))
        full = LSTM("l", 2, 3, truncate=500, init=np.random.default_rng(9))
        y, cache = full.forward_cached(x)
        dx_full, _ = full.backward(dy, cache)
        assert np.abs(dx_full[0, :-1]).max() > 0


# -- reference LSTM ---------------------------------------------------------
# The straightforward step loop, one fresh array per operation, in the
# layer's layout: states (time, n, batch), gates (time, 4n, batch), with
# the layer's GEMM orientations and its weight-gradient sums taken after
# the loop.  The layer computes in preallocated buffers and runs the two
# halves of a bidirectional layer on two threads; every result must stay
# bitwise equal to this.

def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_lstm_forward(layer, x):
    batch, time, input_dim = x.shape
    n = layer.hidden_size
    p = layer.params
    x_rows = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(time * batch, input_dim)
    pre_all = (p["w_input"].T @ x_rows.T).reshape(4 * n, time, batch) + p["bias"][:, None, None]
    w_hidden_t = np.ascontiguousarray(p["w_hidden"].T)
    peep_in, peep_forget, peep_out = (p[key][:, None]
                                      for key in ("peep_in", "peep_forget", "peep_out"))
    h = np.zeros((time, n, batch), x.dtype)
    c = np.zeros((time, n, batch), x.dtype)
    gates = np.zeros((time, 4 * n, batch), x.dtype)
    h_prev = np.zeros((n, batch), x.dtype)
    c_prev = np.zeros((n, batch), x.dtype)
    for t in range(time):
        pre = pre_all[:, t] + w_hidden_t @ h_prev
        pre[0:n] += c_prev * peep_in
        pre[n : 2 * n] += c_prev * peep_forget
        i_g = reference_sigmoid(pre[0:n])
        f_g = reference_sigmoid(pre[n : 2 * n])
        g_g = np.tanh(pre[2 * n : 3 * n])
        c_t = f_g * c_prev + i_g * g_g
        pre_o = pre[3 * n :] + c_t * peep_out
        o_g = reference_sigmoid(pre_o)
        h_t = o_g * np.tanh(c_t)
        gates[t, 0:n] = i_g
        gates[t, n : 2 * n] = f_g
        gates[t, 2 * n : 3 * n] = g_g
        gates[t, 3 * n :] = o_g
        c[t] = c_t
        h[t] = h_t
        h_prev, c_prev = h_t, c_t
    return h.transpose(2, 0, 1), (x, h, c, gates)


def reference_lstm_backward(layer, dh_out, cache):
    x, h, c, gates = cache
    batch, time, input_dim = x.shape
    n = layer.hidden_size
    p = layer.params
    peep_in, peep_forget, peep_out = (p[key][:, None]
                                      for key in ("peep_in", "peep_forget", "peep_out"))
    d_pre_all = np.zeros((time, 4 * n, batch), x.dtype)
    dh_carry = np.zeros((n, batch), x.dtype)
    dc_carry = np.zeros((n, batch), x.dtype)
    for t in range(time - 1, -1, -1):
        i_g = gates[t, 0:n]
        f_g = gates[t, n : 2 * n]
        g_g = gates[t, 2 * n : 3 * n]
        o_g = gates[t, 3 * n :]
        c_t = c[t]
        c_prev = c[t - 1] if t > 0 else np.zeros((n, batch), x.dtype)
        tc = np.tanh(c_t)
        dh = dh_out[:, t].T + dh_carry
        do = dh * tc
        d_pre_o = do * o_g * (1.0 - o_g)
        dc = dh * o_g * (1.0 - tc * tc) + dc_carry + d_pre_o * peep_out
        di = dc * g_g
        df = dc * c_prev
        dg = dc * i_g
        d_pre_i = di * i_g * (1.0 - i_g)
        d_pre_f = df * f_g * (1.0 - f_g)
        d_pre_g = dg * (1.0 - g_g * g_g)
        d_pre_all[t, 0:n] = d_pre_i
        d_pre_all[t, n : 2 * n] = d_pre_f
        d_pre_all[t, 2 * n : 3 * n] = d_pre_g
        d_pre_all[t, 3 * n :] = d_pre_o
        dc_carry = dc * f_g + d_pre_i * peep_in + d_pre_f * peep_forget
        dh_carry = p["w_hidden"] @ d_pre_all[t]
        if (time - t) % layer.truncate == 0:
            dh_carry = np.zeros((n, batch), x.dtype)
            dc_carry = np.zeros((n, batch), x.dtype)
    # Rows (and h's columns) indexed by step, then batch.
    d_rows = np.ascontiguousarray(d_pre_all.transpose(0, 2, 1)).reshape(time * batch, 4 * n)
    x_rows = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(time * batch, input_dim)
    h_cols = np.ascontiguousarray(h.transpose(1, 0, 2)).reshape(n, time * batch)
    grads = {
        "w_input": x_rows.T @ d_rows,
        "w_hidden": h_cols[:, : (time - 1) * batch] @ d_rows[batch:],
        "bias": d_rows.sum(axis=0),
        "peep_in": np.einsum("tjb,tjb->j", d_pre_all[1:, 0:n], c[:-1]),
        "peep_forget": np.einsum("tjb,tjb->j", d_pre_all[1:, n : 2 * n], c[:-1]),
        "peep_out": np.einsum("tjb,tjb->j", d_pre_all[:, 3 * n :], c),
    }
    dx = (d_rows @ p["w_input"].T).reshape(time, batch, input_dim).transpose(1, 0, 2)
    return dx, grads


# The batch-major step loop: (batch, time, ...) arrays, `h_prev @
# w_hidden` steps and weight gradients accumulated step by step.  It sums
# in another order than the layer, so it is a float64 oracle to within
# rounding, not bit for bit.

def batch_major_lstm_forward(layer, x):
    batch, time, _ = x.shape
    n = layer.hidden_size
    p = layer.params
    pre_all = x @ p["w_input"] + p["bias"]
    h = np.zeros((batch, time, n), x.dtype)
    c = np.zeros((batch, time, n), x.dtype)
    gates = np.zeros((batch, time, 4 * n), x.dtype)
    h_prev = np.zeros((batch, n), x.dtype)
    c_prev = np.zeros((batch, n), x.dtype)
    for t in range(time):
        pre = pre_all[:, t] + h_prev @ p["w_hidden"]
        pre[:, 0:n] += c_prev * p["peep_in"]
        pre[:, n : 2 * n] += c_prev * p["peep_forget"]
        i_g = reference_sigmoid(pre[:, 0:n])
        f_g = reference_sigmoid(pre[:, n : 2 * n])
        g_g = np.tanh(pre[:, 2 * n : 3 * n])
        c_t = f_g * c_prev + i_g * g_g
        pre_o = pre[:, 3 * n :] + c_t * p["peep_out"]
        o_g = reference_sigmoid(pre_o)
        h_t = o_g * np.tanh(c_t)
        gates[:, t, 0:n] = i_g
        gates[:, t, n : 2 * n] = f_g
        gates[:, t, 2 * n : 3 * n] = g_g
        gates[:, t, 3 * n :] = o_g
        c[:, t] = c_t
        h[:, t] = h_t
        h_prev, c_prev = h_t, c_t
    return h, (x, h, c, gates)


def batch_major_lstm_backward(layer, dh_out, cache):
    x, h, c, gates = cache
    batch, time, _ = x.shape
    n = layer.hidden_size
    p = layer.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    d_pre_all = np.zeros((batch, time, 4 * n), x.dtype)
    dh_carry = np.zeros((batch, n), x.dtype)
    dc_carry = np.zeros((batch, n), x.dtype)
    for t in range(time - 1, -1, -1):
        i_g = gates[:, t, 0:n]
        f_g = gates[:, t, n : 2 * n]
        g_g = gates[:, t, 2 * n : 3 * n]
        o_g = gates[:, t, 3 * n :]
        c_t = c[:, t]
        c_prev = c[:, t - 1] if t > 0 else np.zeros((batch, n), x.dtype)
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
        if (time - t) % layer.truncate == 0:
            dh_carry = np.zeros((batch, n), x.dtype)
            dc_carry = np.zeros((batch, n), x.dtype)
    flat_x = x.reshape(-1, layer.input_dim)
    flat_dpre = d_pre_all.reshape(-1, 4 * n)
    grads["w_input"] = flat_x.T @ flat_dpre
    grads["bias"] = flat_dpre.sum(axis=0)
    dx = d_pre_all @ p["w_input"].T
    return dx, grads


def reference_bidirectional(layer, x, dy):
    """Output, input gradient and gradients of a Bidirectional layer, one
    direction after the other on the calling thread."""
    n = layer.hidden_size
    y_f, cache_f = reference_lstm_forward(layer.fwd, x)
    y_b, cache_b = reference_lstm_forward(layer.bwd, x[:, ::-1])
    y = np.concatenate([y_f, y_b[:, ::-1]], axis=2)
    dx_f, grads_f = reference_lstm_backward(layer.fwd, dy[:, :, :n], cache_f)
    dx_b, grads_b = reference_lstm_backward(layer.bwd, dy[:, ::-1, n:], cache_b)
    grads = {f"fwd.{k}": v for k, v in grads_f.items()}
    grads.update({f"bwd.{k}": v for k, v in grads_b.items()})
    return y, dx_f + dx_b[:, ::-1], grads


def assert_bitwise(actual, expected, dtype=np.float64):
    """Same shape, both of `dtype`, and the same bits (so -0.0 differs from 0.0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == dtype
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


SPECIAL_PRE = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf])


def random_lstm(seed, input_dim, hidden, truncate=500, special_bias=False, dtype=np.float64):
    rng = np.random.default_rng(seed)
    layer = LSTM("l", input_dim, hidden, truncate=truncate, init=rng, dtype=dtype)
    layer.params["bias"][:] = (rng.choice(SPECIAL_PRE, size=4 * hidden) if special_bias
                               else rng.normal(size=4 * hidden))
    return layer


def check_against_reference(layer, x, rng):
    """The layer's outputs, caches and gradients against the reference's,
    bit for bit; `x` and the output gradient are cast to the layer's dtype."""
    dtype = layer.params["w_input"].dtype
    x = x.astype(dtype)
    expected_h, expected_cache = reference_lstm_forward(layer, x)
    assert_bitwise(layer.forward(x), expected_h, dtype)
    h, cache = layer.forward_cached(x)
    assert_bitwise(h, expected_h, dtype)
    for got, want in zip(cache[1:], expected_cache[1:]):  # h, c, gates
        assert_bitwise(got, want, dtype)
    dh = rng.normal(size=h.shape).astype(dtype)
    dx, grads = layer.backward(dh, cache)
    expected_dx, expected_grads = reference_lstm_backward(layer, dh, expected_cache)
    assert_bitwise(dx, expected_dx, dtype)
    assert grads.keys() == expected_grads.keys()
    for key in grads:
        assert_bitwise(grads[key], expected_grads[key], dtype)


def check_against_batch_major(layer, x, rng):
    """The float64 layer's outputs, caches and gradients against the
    batch-major step loop's, to within rounding: 1e-12 relative to each
    element, or to the array's largest element where a sum cancels."""
    def close(actual, desired):
        np.testing.assert_allclose(actual, desired, rtol=1e-12,
                                   atol=1e-12 * np.abs(desired).max(initial=0.0))

    expected_h, (_, _, expected_c, expected_gates) = batch_major_lstm_forward(layer, x)
    close(layer.forward(x), expected_h)
    h, cache = layer.forward_cached(x)
    close(h, expected_h)
    _, _, c, gates = cache
    close(c.transpose(2, 0, 1), expected_c)
    close(gates.transpose(2, 0, 1), expected_gates)
    dh = rng.normal(size=h.shape)
    dx, grads = layer.backward(dh, cache)
    expected_dx, expected_grads = batch_major_lstm_backward(
        layer, dh, (x, expected_h, expected_c, expected_gates))
    close(dx, expected_dx)
    assert grads.keys() == expected_grads.keys()
    for key in grads:
        close(grads[key], expected_grads[key])


class TestLSTMReference:
    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 5), time=st.integers(1, 9), input_dim=st.integers(1, 4),
           hidden=st.integers(1, 6), truncate=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_reference(self, batch, time, input_dim, hidden, truncate, seed):
        layer = random_lstm(seed, input_dim, hidden, truncate)
        rng = np.random.default_rng(seed + 1)
        check_against_reference(layer, rng.normal(scale=2.0, size=(batch, time, input_dim)),
                                rng)

    def test_paper_width(self, rng):
        layer = random_lstm(3, 16, 128, truncate=500)
        check_against_reference(layer, rng.normal(size=(3, 20, 16)), rng)

    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 5), time=st.integers(1, 9), input_dim=st.integers(1, 4),
           hidden=st.integers(1, 6), truncate=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_within_rounding_of_batch_major_loop(self, batch, time, input_dim, hidden,
                                                 truncate, seed):
        layer = random_lstm(seed, input_dim, hidden, truncate)
        rng = np.random.default_rng(seed + 1)
        check_against_batch_major(
            layer, rng.normal(scale=2.0, size=(batch, time, input_dim)), rng)

    @pytest.mark.parametrize("truncate", [3, 500])
    def test_paper_width_within_rounding_of_batch_major_loop(self, truncate, rng):
        layer = random_lstm(3, 16, 128, truncate=truncate)
        check_against_batch_major(layer, rng.normal(size=(3, 20, 16)), rng)

    @pytest.mark.parametrize("truncate", [3, 500])
    def test_float32_bitwise_equal_to_float32_reference(self, truncate, rng):
        # Every buffer takes the input's dtype: one float64 scratch array
        # would widen the recurrence and change the float32 bits.
        layer = random_lstm(9, 16, 128, truncate=truncate, dtype=np.float32)
        check_against_reference(layer, rng.normal(scale=2.0, size=(3, 20, 16)), rng)

    @pytest.mark.parametrize("truncate", [1, 3, 7])
    def test_truncate_below_sequence_length(self, truncate, rng):
        layer = random_lstm(4, 3, 5, truncate=truncate)
        check_against_reference(layer, rng.normal(size=(2, 11, 3)), rng)

    def test_special_pre_activations(self, rng):
        # Zero input, recurrent and peephole weights: each pre-activation is
        # exactly its bias, 0, -0.0, +-800 or +-inf.
        layer = random_lstm(5, 2, 6, special_bias=True)
        for key in ("w_input", "w_hidden", "peep_in", "peep_forget", "peep_out"):
            layer.params[key][...] = 0.0
        check_against_reference(layer, np.zeros((2, 5, 2)), rng)
        # Random weights on top of the same biases.
        layer = random_lstm(6, 2, 6, special_bias=True)
        check_against_reference(layer, rng.normal(size=(3, 8, 2)), rng)

    def test_bidirectional_bitwise_equal_to_sequential_reference(self, one_blas_thread, rng):
        self._check_bidirectional(rng)

    def test_bidirectional_halves_in_turn_bitwise_equal_to_reference(self, monkeypatch, rng):
        monkeypatch.setattr(blas, "threads", lambda: 2)
        self._check_bidirectional(rng)

    @staticmethod
    def _check_bidirectional(rng):
        layer = Bidirectional("b", random_lstm(7, 3, 5, truncate=4),
                              random_lstm(8, 3, 5, truncate=4))
        x = rng.normal(size=(2, 9, 3))
        dy = rng.normal(size=(2, 9, 10))
        expected_y, expected_dx, expected_grads = reference_bidirectional(layer, x, dy)
        assert_bitwise(layer.forward(x), expected_y)
        y, cache = layer.forward_cached(x)
        assert_bitwise(y, expected_y)
        dx, grads = layer.backward(dy, cache)
        assert_bitwise(dx, expected_dx)
        assert grads.keys() == expected_grads.keys()
        for key in grads:
            assert_bitwise(grads[key], expected_grads[key])


def sigmoid_in_place(z, sigmoid_into=_sigmoid_into):
    e = np.empty_like(z)
    mask = np.empty_like(z)
    out = z.copy()
    sigmoid_into(out, out, e, mask)
    return out


def masked_copy_sigmoid_into(z, out, e, mask):
    """The sigmoid with a boolean mask and a masked copy, kept as the
    reference for the float-mask form (`mask` is not used)."""
    mask = np.empty(z.shape, dtype=bool)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.greater_equal(z, 0, out=mask)
    np.add(1.0, e, out=out)
    np.copyto(e, 1.0, where=mask)
    np.divide(e, out, out=out)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 5e-324, -5e-324]))
@example(np.array([-745.2, -745.1, 709.8, 36.8, -36.8, 1e-17, -1e-17]))
def test_sigmoid_in_place_equals_reference(z):
    assert_bitwise(sigmoid_in_place(z), reference_sigmoid(z))


# Zeros of both signs, the tiniest |z|, |z| where exp(-|z|) underflows in
# float32 (> 104) and in float64 (> 745), and NaN.
SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-45, -1e-45, 1e-30, -1e-30, 88.0, -88.0,
                 104.0, -104.0, 110.0, -110.0, 745.2, -745.2, 800.0, -800.0, np.inf, -np.inf,
                 np.nan, -np.nan]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sigmoid_in_place_bitwise_equal_to_masked_copy(dtype, data):
    z = data.draw(hnp.arrays(dtype, hnp.array_shapes(max_dims=2, max_side=40),
                             elements=st.floats(width=np.dtype(dtype).itemsize * 8)
                             | st.sampled_from(SIGMOID_EDGES).map(dtype)))
    assert_bitwise(sigmoid_in_place(z), sigmoid_in_place(z, masked_copy_sigmoid_into), dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_net_bitwise_equal_with_masked_copy_sigmoid(monkeypatch, dtype):
    net = build_lstm(16, np.random.default_rng(4), conv_filters=3, lstm_units=(5, 6),
                     dense_units=4, dtype=dtype)
    rng = np.random.default_rng(5)
    # Large inputs drive some gates to exactly 0 and 1.
    x = (rng.normal(size=(3, 16)) * np.array([[1.0], [30.0], [300.0]])).astype(dtype)
    target = rng.normal(size=(3, 16)).astype(dtype)

    def run():
        loss, grads = net.loss_and_gradients(x, target)
        return net.forward(x), loss, grads

    y, loss, grads = run()
    monkeypatch.setattr(layers, "_sigmoid_into", masked_copy_sigmoid_into)
    want_y, want_loss, want_grads = run()
    assert_bitwise(y, want_y, dtype)
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
    assert grads.keys() == want_grads.keys()
    for key in grads:
        assert_bitwise(grads[key], want_grads[key], dtype)


class TestBidirectional:
    def test_concat_width(self, rng):
        layer = Bidirectional("b", LSTM("f", 2, 4, init=rng), LSTM("w", 2, 4, init=rng))
        assert layer.forward(rng.normal(size=(1, 5, 2))).shape == (1, 5, 8)

    def test_output_is_c_contiguous(self, rng):
        # The halves return time-major views; the next layer's GEMMs want rows.
        layer = Bidirectional("b", LSTM("f", 2, 4, init=rng), LSTM("w", 2, 4, init=rng))
        x = rng.normal(size=(3, 5, 2))
        assert layer.forward(x).flags.c_contiguous
        assert layer.forward_cached(x)[0].flags.c_contiguous

    def test_mismatched_halves_rejected(self, rng):
        with pytest.raises(DimensionError, match="share hidden size"):
            Bidirectional("b", LSTM("f", 2, 4, init=rng), LSTM("w", 2, 5, init=rng))

    def test_mirrored_weights_on_palindrome(self, rng):
        fwd = LSTM("f", 1, 3, init=rng)
        bwd = LSTM("w", 1, 3, init=rng)
        bwd.params = {k: v.copy() for k, v in fwd.params.items()}
        layer = Bidirectional("b", fwd, bwd)
        x = np.array([1.0, 2.0, 5.0, 2.0, 1.0]).reshape(1, 5, 1)
        y = layer.forward(x)
        # palindromic input + identical halves: backward half mirrors forward
        np.testing.assert_allclose(y[0, :, 3:], y[0, ::-1, :3], atol=1e-12)

    def test_zero_input_zero_bias_zero_output(self, rng):
        layer = Bidirectional("b", LSTM("f", 2, 3, init=rng), LSTM("w", 2, 3, init=rng))
        y = layer.forward(np.zeros((1, 4, 2)))
        np.testing.assert_array_equal(y, np.zeros((1, 4, 6)))

    def test_gradients(self, rng):
        layer = Bidirectional("b", LSTM("f", 3, 4, init=rng), LSTM("w", 3, 4, init=rng))
        check_layer_gradients(layer, rng.normal(size=(2, 6, 3)), rng)


@pytest.fixture
def one_blas_thread(monkeypatch):
    """`blas.threads()` reads 1 and the lane gate takes any work, so the
    training passes of even a tiny Bidirectional layer run their halves
    in two lanes as well."""
    monkeypatch.setattr(blas, "threads", lambda: 1)
    monkeypatch.setattr(layers, "LANE_MIN_WORK", 0)


class TestBidirectionalThreads:
    """The reverse half runs on a worker thread while the caller runs the
    forward half: always in `forward`, and in the training passes where
    the lane gate opens (one BLAS thread, work of LANE_MIN_WORK).  Errors
    there surface in the caller; an exception that escaped the worker
    would instead trip the project's PytestUnhandledThreadExceptionWarning
    error filter."""

    @pytest.mark.parametrize("threads, training_jobs", [(1, 2), (2, 0), (None, 0)],
                             ids=["one-blas-thread", "two-blas-threads", "unknown"])
    def test_training_halves_in_lanes_only_under_one_blas_thread(
            self, monkeypatch, lane_jobs, threads, training_jobs, rng):
        monkeypatch.setattr(blas, "threads", lambda: threads)
        monkeypatch.setattr(layers, "LANE_MIN_WORK", 0)  # a tiny layer meets the gate
        layer = Bidirectional("b", LSTM("f", 2, 4, init=rng), LSTM("w", 2, 4, init=rng))
        x = rng.normal(size=(2, 5, 2))
        y, cache = layer.forward_cached(x)
        layer.backward(np.ones_like(y), cache)
        assert len(lane_jobs) == training_jobs
        layer.forward(x)
        assert len(lane_jobs) == training_jobs + 1

    @pytest.mark.parametrize("units, training_jobs", [(4, 0), (64, 2)],
                             ids=["below-the-gate", "at-the-gate"])
    def test_training_halves_meet_the_size_gate(self, monkeypatch, lane_jobs, units,
                                                training_jobs, rng):
        # A half's work is its parameters times batch times time steps:
        # 124 * 256 for 4 units, 17,344 * 256 (over 2**22) for 64.
        monkeypatch.setattr(blas, "threads", lambda: 1)
        layer = Bidirectional("b", LSTM("f", 2, units, init=rng),
                              LSTM("w", 2, units, init=rng))
        y, cache = layer.forward_cached(rng.normal(size=(16, 16, 2)))
        layer.backward(np.ones_like(y), cache)
        assert len(lane_jobs) == training_jobs

    def test_reverse_half_error_raised_in_caller(self, one_blas_thread, rng):
        layer = Bidirectional("b", LSTM("f", 2, 4, init=rng), LSTM("reverse", 3, 4, init=rng))
        x = rng.normal(size=(1, 5, 2))
        with pytest.raises(DimensionError, match="reverse"):
            layer.forward(x)
        with pytest.raises(DimensionError, match="reverse"):
            layer.forward_cached(x)
        # The worker survives its job's error.
        good = Bidirectional("g", LSTM("f", 2, 4, init=rng), LSTM("w", 2, 4, init=rng))
        assert good.forward(x).shape == (1, 5, 8)

    def test_reverse_half_backward_error_raised_in_caller(self, one_blas_thread, rng):
        layer = Bidirectional("b", LSTM("f", 2, 4, init=rng), LSTM("w", 2, 4, init=rng))
        y, (cache_f, cache_b) = layer.forward_cached(rng.normal(size=(1, 5, 2)))
        x_b, h_b, c_b, gates_b = cache_b
        cut_short = (x_b, h_b, c_b, gates_b[:2])  # two of the five steps' gates
        with pytest.raises(IndexError):
            layer.backward(np.ones_like(y), (cache_f, cut_short))

    @pytest.mark.parametrize("half", [0, 1])
    @pytest.mark.parametrize("part", ["x", "h", "c", "gates"])
    def test_cache_cut_on_time_axis_raises_in_caller(self, half, part, one_blas_thread, rng):
        # x is (batch, time, input); h, c and the gates are time-major.
        layer = Bidirectional("b", LSTM("f", 2, 4, init=rng), LSTM("w", 2, 4, init=rng))
        y, caches = layer.forward_cached(rng.normal(size=(2, 5, 2)))
        x, h, c, gates = caches[half]
        cut = {"x": (x[:, :2], h, c, gates), "h": (x, h[:2], c, gates),
               "c": (x, h, c[:2], gates), "gates": (x, h, c, gates[:2])}[part]
        caches = (cut, caches[1]) if half == 0 else (caches[0], cut)
        with pytest.raises((IndexError, ValueError)):
            layer.backward(np.ones_like(y), caches)

    def test_caller_error_raised_after_worker_returns(self):
        started = threading.Event()
        finished = []

        def first():
            started.wait(timeout=10)  # the worker is running `second`
            raise ValueError("first failed")

        def second():
            started.set()
            time.sleep(0.05)
            finished.append(True)

        with pytest.raises(ValueError, match="first failed"):
            _in_parallel(first, second)
        assert finished

    def test_concurrent_callers_match_sequential(self):
        # More callers than CPUs, switching often, all sharing the one worker.
        net = build_lstm(24, np.random.default_rng(3), conv_filters=4, lstm_units=(6, 8),
                         dense_units=5)
        inputs = [np.random.default_rng(seed).normal(size=(3, 24)) for seed in range(4)]
        expected = [net.forward(x) for x in inputs]
        results = [[] for _ in inputs]

        def call(i):
            for _ in range(20):
                results[i].append(net.forward(inputs[i]))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, got in zip(expected, results):
            assert len(got) == 20
            for y in got:
                assert_bitwise(y, want)


class TestClipGradients:
    def test_clamp(self):
        clipped = clip_gradients({"g": np.array([-20.0, 0.0, 5.0])})
        np.testing.assert_array_equal(clipped["g"], [-10.0, 0.0, 5.0])

    def test_within_bound_unchanged(self):
        grads = {"g": np.array([-9.9, 9.9])}
        np.testing.assert_array_equal(clip_gradients(grads)["g"], grads["g"])

    def test_huge_value(self):
        np.testing.assert_array_equal(clip_gradients({"g": np.array([1e9])})["g"], [10.0])

    def test_idempotent(self, rng):
        grads = {"g": rng.normal(scale=20, size=100)}
        once = clip_gradients(grads)
        twice = clip_gradients(once)
        np.testing.assert_array_equal(once["g"], twice["g"])


class TestNesterovSGD:
    def test_zero_gradient_is_fixed_point(self):
        params = {"p": np.array([1.5])}
        opt = NesterovSGD(params, learning_rate=0.1)
        opt.step({"p": np.array([0.0])})
        np.testing.assert_array_equal(params["p"], [1.5])

    def test_hand_computed_update(self):
        params = {"p": np.array([0.0])}
        opt = NesterovSGD(params, learning_rate=0.1)
        opt.step({"p": np.array([1.0])})
        assert MOMENTUM == 0.9
        # v' = 0.9*0 - 0.1*1 = -0.1; p' = 0 + 0.9*(-0.1) - 0.1*1 = -0.19
        np.testing.assert_allclose(params["p"], [-0.19])
        np.testing.assert_allclose(opt.velocity["p"], [-0.1])

    def test_bitwise_determinism(self, rng):
        results = []
        for _ in range(2):
            params = {"p": np.full(10, 0.5)}
            opt = NesterovSGD(params, learning_rate=0.01)
            gen = np.random.default_rng(7)
            for _ in range(20):
                opt.step({"p": gen.normal(size=10)})
            results.append(params["p"].copy())
        np.testing.assert_array_equal(results[0], results[1])


def reference_nesterov_step(params, velocity, grads, lr, mu):
    """The unblocked update, one whole-array operation at a time, kept as
    the oracle for the blocked step."""
    for key, p in params.items():
        g = grads[key]
        v = velocity[key]
        g *= lr
        v *= mu
        v -= g
        p -= g
        p += np.multiply(v, mu)


BLOCK_EDGE_SIZES = [1, STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 3 * STEP_BLOCK + 7]
SPECIAL_VALUES = np.array([-0.0, 0.0, 1e300, -1e300])


def with_specials(arr, rng):
    """`arr` with -0.0, 0.0 and +-1e300 written at random positions."""
    flat = arr.reshape(-1)
    flat[rng.integers(0, flat.size, size=min(8, flat.size))] = rng.choice(
        SPECIAL_VALUES, size=min(8, flat.size))
    return arr


class TestBlockedNesterovStep:
    def _shapes(self):
        shapes = {}
        for n in BLOCK_EDGE_SIZES:
            shapes[f"bias{n}"] = (n,)
            shapes[f"weights{n}"] = (n, 3)
            shapes[f"tall{n}"] = (3, n)
        return shapes

    @pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
    def test_bitwise_equal_to_unblocked_reference(self, transposed):
        rng = np.random.default_rng(5)
        shapes = self._shapes()
        params = {k: with_specials(rng.normal(size=s), rng) for k, s in shapes.items()}
        expected = {k: v.copy() for k, v in params.items()}
        velocity = {k: np.zeros(s) for k, s in shapes.items()}
        opt = NesterovSGD(params, learning_rate=0.1)
        for _ in range(4):
            grads = {k: with_specials(rng.normal(scale=5, size=s), rng)
                     for k, s in shapes.items()}
            reference_nesterov_step(expected, velocity, {k: g.copy() for k, g in grads.items()},
                                    opt.learning_rate, MOMENTUM)
            if transposed:  # same values, handed over as non-contiguous views
                grads = {k: np.ascontiguousarray(g.T).T if g.ndim == 2
                         else np.stack([g, -g], axis=1)[:, 0] for k, g in grads.items()}
                assert not any(g.flags.c_contiguous for g in grads.values() if g.size > 3)
            opt.step(grads)
            for key in shapes:
                assert_bitwise(params[key], expected[key])
                assert_bitwise(opt.velocity[key], velocity[key])
            opt.learning_rate /= 2

    def test_updates_the_network_parameter_arrays(self, rng):
        net = Network([Reshape("to_channels", (6, 1)),
                       Conv1D("conv", 1, 2, filter_size=3, border="same", init=rng),
                       Reshape("flat", (12,)),
                       Dense("out", 12, 6, "linear", init=rng)])
        expected = {k: v.copy() for k, v in net.parameters().items()}
        velocity = {k: np.zeros_like(v) for k, v in expected.items()}
        opt = NesterovSGD(net.parameters(), learning_rate=0.05)
        for _ in range(3):
            _, grads = net.loss_and_gradients(rng.normal(size=(2, 6)), rng.normal(size=(2, 6)))
            reference_nesterov_step(expected, velocity,
                                    {k: g.copy() for k, g in grads.items()}, 0.05, MOMENTUM)
            opt.step(grads)
        for key, value in net.parameters().items():
            assert_bitwise(value, expected[key])

    @pytest.mark.parametrize("param", [np.zeros((4, 3)).T, np.zeros(10)[::2]],
                             ids=["transposed", "strided"])
    def test_non_contiguous_parameter_rejected(self, param):
        with pytest.raises(DimensionError, match="not C-contiguous"):
            NesterovSGD({"w": param}, learning_rate=0.1)


def sequential_dense_backward(layer, dy, cache):
    """`Dense.backward` as it ran before the training lanes, one GEMM after
    the other, kept as the oracle for the lanes."""
    x, z, y = cache
    dz = layers._activation_grad(layer.activation, z, y, dy)
    flat_x = x.reshape(-1, layer.input_dim)
    flat_dz = dz.reshape(-1, layer.output_dim)
    grads = {"weights": flat_x.T @ flat_dz, "bias": flat_dz.sum(axis=0)}
    dx = dz @ layer.params["weights"].T
    return dx, grads


def sequential_clip(grads):
    """`clip_gradients` as it ran before the training lanes."""
    for g in grads.values():
        np.clip(g, -GRADIENT_CLIP_BOUND, GRADIENT_CLIP_BOUND, out=g)
    return grads


def sequential_step(params, velocity, grads, lr, mu):
    """`NesterovSGD.step` as it ran before the training lanes: each
    parameter's STEP_BLOCK blocks in turn, on one thread."""
    for key, p in params.items():
        p = p.reshape(-1)
        scratch = np.empty(min(p.size, STEP_BLOCK), p.dtype)
        v = velocity[key].reshape(-1)
        g = np.ascontiguousarray(grads[key]).reshape(-1)
        for lo in range(0, p.size, STEP_BLOCK):
            hi = lo + STEP_BLOCK
            gb, vb, pb = g[lo:hi], v[lo:hi], p[lo:hi]
            gb *= lr
            vb *= mu
            vb -= gb
            pb -= gb
            pb += np.multiply(vb, mu, out=scratch[: pb.size])


def conv_gradient_set(rng, dtype=np.float64):
    """Gradients of every STEP_BLOCK edge size, plus a Conv1D weight
    gradient as its backward pass hands it over (not C-contiguous)."""
    grads = {f"g{n}": rng.normal(scale=20, size=n).astype(dtype) for n in BLOCK_EDGE_SIZES}
    grads["wide"] = rng.normal(scale=20, size=(5, STEP_BLOCK + 3)).astype(dtype)
    conv = Conv1D("conv", 3, 4, filter_size=3, init=rng, dtype=dtype)
    y, cache = conv.forward_cached(rng.normal(size=(2, 9, 3)).astype(dtype))
    grads["conv"] = 40 * conv.backward(np.ones_like(y), cache)[1]["weights"]
    assert not grads["conv"].flags.c_contiguous
    return grads


class TestTrainingLanes:
    """With the lanes forced on, every result is bitwise that of the
    sequential code; the gate keeps them off where they do not pay."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 7), (2, 4, 7)], ids=["flat", "sequence"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_dense_backward_bitwise(self, lanes_on, dtype, shape, activation, rng):
        layer = Dense("d", 7, 5, activation, init=rng, dtype=dtype)
        y, cache = layer.forward_cached(rng.normal(size=shape).astype(dtype))
        dy = rng.normal(size=y.shape).astype(dtype)
        dx, grads = layer.backward(dy, cache)
        want_dx, want_grads = sequential_dense_backward(layer, dy, cache)
        assert lanes_on
        assert_bitwise(dx, want_dx, dtype)
        for key in want_grads:
            assert_bitwise(grads[key], want_grads[key], dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clip_bitwise(self, lanes_on, dtype, rng):
        grads = conv_gradient_set(rng, dtype)
        expected = sequential_clip({k: g.copy() for k, g in grads.items()})
        clipped = clip_gradients(grads)
        assert clipped is grads and lanes_on
        for key, g in expected.items():
            assert_bitwise(clipped[key], g, dtype)
            assert np.abs(g).max() == GRADIENT_CLIP_BOUND  # every array had values clipped

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_bitwise_over_consecutive_steps(self, lanes_on, dtype):
        rng = np.random.default_rng(8)
        shapes = {k: g.shape for k, g in conv_gradient_set(rng).items()}
        params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        if dtype == np.float64:  # +-1e300 overflows float32
            params = {k: with_specials(p, rng) for k, p in params.items()}
        expected = {k: v.copy() for k, v in params.items()}
        velocity = {k: np.zeros(s, dtype) for k, s in shapes.items()}
        opt = NesterovSGD(params, learning_rate=0.1)
        for _ in range(4):
            grads = conv_gradient_set(rng, dtype)
            sequential_step(expected, velocity, {k: g.copy() for k, g in grads.items()},
                            opt.learning_rate, MOMENTUM)
            opt.step(grads)
            for key in shapes:
                assert_bitwise(params[key], expected[key], dtype)
                assert_bitwise(opt.velocity[key], velocity[key], dtype)
            opt.learning_rate /= 2
        assert len(lanes_on) == 4

    def _train_rectangles(self, updates=6):
        net = build_rectangles(24, np.random.default_rng(2), conv_filters=4,
                               dense_units=(48, 32), dtype=np.float32)
        rng = np.random.default_rng(3)
        batches = iter([SimpleNamespace(inputs=rng.normal(size=(8, 24)),
                                        targets=rng.uniform(size=(8, 3)))
                        for _ in range(updates)])
        architectures.train(net, batches, NesterovSGD(net.parameters(), 0.05), updates)
        return net.parameters()

    def test_rectangles_train_with_lanes_on_and_off_bitwise(self, monkeypatch, lane_jobs):
        off = self._train_rectangles()
        assert not lane_jobs
        monkeypatch.setattr(layers, "LANE_MIN_WORK", 0)
        monkeypatch.setattr(blas, "threads", lambda: 1)
        on = self._train_rectangles()
        # Per update: three Dense backward passes, the clip and the step.
        assert len(lane_jobs) == 6 * 5
        assert sorted(on) == sorted(off)
        for key, value in off.items():
            assert_bitwise(on[key], value, np.float32)

    @pytest.mark.parametrize("threads, min_work", [(2, 0), (None, 0), (1, None)],
                             ids=["two-blas-threads", "unknown-blas-threads", "small-work"])
    def test_gate_sends_no_job_to_the_worker(self, monkeypatch, lane_jobs, threads,
                                             min_work, rng):
        monkeypatch.setattr(blas, "threads", lambda: threads)
        if min_work is not None:
            monkeypatch.setattr(layers, "LANE_MIN_WORK", min_work)
        layer = Dense("d", 40, 30, "relu", init=rng)
        y, cache = layer.forward_cached(rng.normal(size=(4, 40)))
        _, grads = layer.backward(np.ones_like(y), cache)
        NesterovSGD(layer.params, 0.1).step(clip_gradients(grads))
        assert in_lanes(layers.LANE_MIN_WORK - 1, lambda: 1, lambda: 2) == (1, 2)
        assert not lane_jobs

    def test_gate_is_met_at_the_threshold(self, monkeypatch, lane_jobs):
        monkeypatch.setattr(blas, "threads", lambda: 1)
        assert in_lanes(layers.LANE_MIN_WORK, lambda: 1, lambda: 2) == (1, 2)
        assert len(lane_jobs) == 1

    def test_lane_call_on_the_worker_runs_inline(self):
        # In a child process, so that a worker waiting on itself fails the
        # test by the timeout instead of hanging the run.
        code = """if True:
            from disagg import blas
            from disagg.nn import layers
            blas.threads = lambda: 1
            layers.LANE_MIN_WORK = 0

            def nested():
                return layers.in_lanes(1, lambda: "a", lambda: "b"), \
                    layers._in_parallel(lambda: "c", lambda: "d")

            print(layers._in_parallel(lambda: "outer", nested))
        """
        child = subprocess.run([sys.executable, "-c", code], env=child_env(),
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "('outer', (('a', 'b'), ('c', 'd')))"

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_exception_in_either_lane_raised_in_caller(self, lanes_on, failing):
        def lane(name):
            if name == failing:
                raise ValueError(f"{name} lane failed")
            return name

        with pytest.raises(ValueError, match=f"{failing} lane failed"):
            in_lanes(1, lambda: lane("first"), lambda: lane("second"))
        assert len(lanes_on) == 1
        assert in_lanes(1, lambda: 1, lambda: 2) == (1, 2)  # the worker survives


def child_env(**extra):
    """The environment of a child Python that imports this checkout's `disagg`."""
    src = str(Path(layers.__file__).parents[2])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestBlasThreads:
    def test_reads_one_under_openblas_num_threads_1(self):
        if blas.threads() is None:
            pytest.skip("NumPy bundles no OpenBLAS whose thread count can be read")
        child = subprocess.run(
            [sys.executable, "-c", "from disagg import blas; print(blas.threads())"],
            env=child_env(OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
            timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "1"


class TestNetwork:
    def _tiny(self, rng):
        return Network([
            Reshape("to_channels", (6, 1)),
            Conv1D("conv", 1, 2, filter_size=3, border="same", init=rng),
            Reshape("flat", (12,)),
            Dense("out", 12, 6, "linear", init=rng),
        ])

    def test_single_neuron_gradient_hand_value(self):
        net = Network([Dense("n", 1, 1, "linear")])
        net.layers[0].params["weights"][:] = 1.0
        net.layers[0].params["bias"][:] = 0.0
        loss, grads = net.loss_and_gradients(np.array([[1.0]]), np.array([[0.0]]))
        assert loss == pytest.approx(1.0)
        np.testing.assert_allclose(grads["n/weights"], [[2.0]])

    def test_zero_error_batch_zero_gradients(self, rng):
        net = self._tiny(rng)
        x = rng.normal(size=(3, 6))
        target = net.forward(x)
        loss, grads = net.loss_and_gradients(x, target)
        assert loss == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_gradients_whole_network(self, rng):
        net = self._tiny(rng)
        check_network_gradients(net, rng.normal(size=(2, 6)),
                                rng.uniform(0, 1, size=(2, 6)))

    def test_nonfinite_fails_fast_naming_layer(self, rng):
        net = self._tiny(rng)
        net.layers[3].params["weights"][0, 0] = np.inf
        with pytest.raises(NumericError, match="out"):
            net.forward(rng.normal(size=(1, 6)))

    def test_finite_float32_values_whose_sum_overflows_pass(self):
        net = Network([Dense("big", 2, 2, init=np.random.default_rng(0), dtype=np.float32)])
        net.layers[0].params["weights"][:] = np.diag([3e38, 3e38])
        y = net.forward(np.ones((4, 2)))
        assert y.dtype == np.float32 and np.isfinite(y).all()
        with np.errstate(over="ignore"):
            assert np.sum(y) == np.inf

    def test_parameter_roundtrip_and_shape_rejection(self, rng, tmp_path):
        # A network built from a loaded checkpoint adopts its arrays, the
        # Bidirectional halves included, and computes what the saved one did.
        def build(init):
            return build_lstm(12, init, conv_filters=2, lstm_units=(3, 4), dense_units=3)

        net = build(rng)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net.parameters(), meta={"manifest": {"seed": 7}, "step": 3})
        loaded, meta = load_checkpoint(path)
        assert meta == {"manifest": {"seed": 7}, "step": 3}
        net2 = build(loaded)
        assert net2.parameters().keys() == net.parameters().keys()
        for key, value in net2.parameters().items():
            assert_bitwise(value, net.parameters()[key])
            assert np.shares_memory(value, loaded[key])
        x = rng.normal(size=(2, 12))
        assert_bitwise(net2.forward(x), net.forward(x))

        bad = dict(loaded)
        bad["bilstm2/bwd.w_hidden"] = np.zeros((3, 3))
        with pytest.raises(DimensionError,
                           match=r"bilstm2/bwd: shape mismatch for 'w_hidden'"):
            build(bad)

    def test_checkpoint_bytes_deterministic(self, rng, tmp_path):
        net = self._tiny(rng)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, net.parameters(), meta={"step": 3})
        save_checkpoint(b, net.parameters(), meta={"step": 3})
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("failure", [OSError(28, "No space left on device"),
                                         KeyboardInterrupt()], ids=["os-error", "interrupt"])
    def test_failed_save_keeps_the_earlier_checkpoint(self, rng, tmp_path, monkeypatch,
                                                      failure):
        # The second save fails once its header is written, before any tensor.
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, self._tiny(rng).parameters(), meta={"step": 3})
        before = path.read_bytes()

        class TensorWriteFails:
            def __getattr__(self, name):
                return getattr(np, name)

            def ascontiguousarray(self, arr):
                raise failure

        monkeypatch.setattr(checkpoint, "np", TensorWriteFails())
        with pytest.raises(type(failure)):
            save_checkpoint(path, self._tiny(rng).parameters(), meta={"step": 4})
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_empty_tensor_roundtrip(self, tmp_path):
        # Empty and 0-d tensors keep their shapes.
        path = tmp_path / "net.ckpt"
        params = {"empty": np.zeros((0, 3)), "s": np.array(2.5),
                  "w": np.arange(6.0).reshape(2, 3)}
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert sorted(loaded) == sorted(params)
        for name, value in params.items():
            assert loaded[name].dtype == np.float64 and loaded[name].shape == value.shape
            np.testing.assert_array_equal(loaded[name], value)

    def test_save_streams_tensors_without_copies(self, tmp_path):
        # About 80 MB of parameters; a tobytes() copy per tensor would hold all of it.
        params = {"a": np.arange(6_000_000, dtype=np.float64).reshape(3000, 2000),
                  "b": np.linspace(-1, 1, 4_000_000), "s": np.array(-0.0)}
        param_bytes = sum(v.nbytes for v in params.values())
        path = tmp_path / "big.ckpt"
        peak = traced_peak(lambda: save_checkpoint(path, params, meta={"step": 1}))
        assert peak < param_bytes / 10
        header_line, body = path.read_bytes().split(b"\n", 1)
        assert body == b"".join(params[k].tobytes() for k in sorted(params))
        assert [e["nbytes"] for e in json.loads(header_line)["tensors"]] == [
            params[k].nbytes for k in sorted(params)]

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_binary_first_line_is_data_error(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\x00\x01\xff garbage\n")
        with pytest.raises(DataError, match="not a checkpoint file"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda h: h["tensors"][0].update(shape=[5, 4]), "has shape"),
        (lambda h: h.pop("tensors"), "lacks its tensors"),
        (lambda h: h["tensors"][0].pop("offset"), "malformed tensor entry"),
        (lambda h: h["tensors"][0].pop("shape"), "malformed tensor entry"),
        (lambda h: h["tensors"][0].update(offset=-8), "malformed tensor entry"),
        (lambda h: h["tensors"][0].update(offset=8), "truncated checkpoint"),
        (lambda h: h["tensors"][0].update(shape=[2**20, 2**20], nbytes=2**43),
         "truncated checkpoint"),
        (lambda h: h["tensors"][0].update(dtype="<f2", nbytes=32), "malformed tensor entry"),
        (lambda h: h["tensors"][0].update(dtype=">f8"), "malformed tensor entry"),
        (lambda h: h["tensors"][0].update(dtype="float32"), "malformed tensor entry"),
        (lambda h: h["tensors"][0].pop("dtype"), "malformed tensor entry"),
        (lambda h: h["tensors"][0].update(shape=[10**30], nbytes=8 * 10**30),
         "truncated checkpoint"),
        (lambda h: h["tensors"][0].update(shape=[10**30], nbytes=128), "has shape"),
        (lambda h: h["tensors"][0].update(shape=[2**62, 4], nbytes=0), "has shape"),
        (lambda h: h["tensors"][0].update(shape=[10**30, 0], nbytes=0), "has shape"),
        (lambda h: h["tensors"][0].update(shape=[4, 10**400], nbytes=0),
         "malformed tensor entry"),
        (lambda h: h["tensors"][0].update(shape=[4.0, 4]), "malformed tensor entry"),
    ], ids=["shape-vs-nbytes", "no-tensors", "no-offset", "no-shape", "negative-offset",
            "past-end", "huge-shape", "half-precision", "big-endian", "dtype-name",
            "no-dtype", "beyond-int64", "beyond-int64-vs-nbytes", "wraps-int64",
            "empty-beyond-int64", "beyond-float", "float-dimension"])
    def test_malformed_header_is_data_error(self, tmp_path, corrupt, match):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"w": np.arange(16.0).reshape(4, 4)})
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        corrupt(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(DataError, match=match) as raised:
            load_checkpoint(path)
        assert str(raised.value).startswith(f"{path}: ")


MIB = 1 << 20


class TestCheckpointPrecision:
    """Each tensor is stored in its own dtype and loads back bit for bit."""

    BIG = 196_613  # elements of one tensor: a read far larger than a file buffer

    def _params(self, rng, dtype):
        info = np.finfo(dtype)
        big = rng.normal(size=(self.BIG,)).astype(dtype)
        big[:7] = [-0.0, 0.0, info.smallest_subnormal, -info.smallest_subnormal, info.max,
                   np.inf, -np.inf]
        return {"big": big, "w": rng.normal(size=(4, 3)).astype(dtype),
                "s": np.array(-2.5, dtype), "empty": np.zeros((0, 2), dtype)}

    def test_save_writes_each_tensor_in_its_own_dtype(self, rng, tmp_path):
        params = self._params(rng, np.float32)
        params["wide"] = rng.normal(size=(2, 5))
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, meta={"step": 2})
        header_line, body = path.read_bytes().split(b"\n", 1)
        entries = json.loads(header_line)["tensors"]
        names = sorted(params)
        assert [e["name"] for e in entries] == names
        assert [e["dtype"] for e in entries] == [params[k].dtype.str for k in names]
        assert [e["nbytes"] for e in entries] == [params[k].nbytes for k in names]
        assert body == b"".join(params[k].tobytes() for k in names)

    def test_float32_load_round_trips_bit_for_bit(self, rng, tmp_path):
        params = self._params(rng, np.float32)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert sorted(loaded) == sorted(params)
        for name, value in params.items():
            assert_bitwise(loaded[name], value, np.float32)

    def test_float64_checkpoint_loads_bit_for_bit(self, rng, tmp_path):
        params = self._params(rng, np.float64)
        params["big"][7] = 1 + 2.0**-24  # no float32 value: nothing is rounded
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        assert sorted(loaded) == sorted(params)
        for name, value in params.items():
            assert_bitwise(loaded[name], value, np.float64)

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, ">f8"])
    def test_save_refuses_other_dtypes(self, dtype, tmp_path):
        path = tmp_path / "net.ckpt"
        with pytest.raises(ValueError, match="tensor 'w' is"):
            save_checkpoint(path, {"b": np.ones(2), "w": np.ones(3, dtype)})
        assert not path.exists()

    def test_v1_checkpoint_is_data_error_naming_it(self, tmp_path):
        # A v1 file stored every tensor as <f8 and had no dtype entries.
        path = tmp_path / "old.ckpt"
        header = {"format": "disagg-checkpoint-v1", "meta": {},
                  "tensors": [{"name": "w", "nbytes": 24, "offset": 0, "shape": [3]}]}
        path.write_bytes(json.dumps(header).encode() + b"\n" + np.ones(3).tobytes())
        with pytest.raises(DataError, match=r"old\.ckpt: not a disagg-checkpoint-v2"):
            load_checkpoint(path)

    def test_paper_width_rectangles_checkpoint_memory(self, tmp_path):
        # 27.9M parameters, 106.5 MiB in float32: neither direction may hold
        # a copy of a tensor.
        net = build_network("rectangles", 128, np.random.default_rng(0))
        params = net.parameters()
        param_bytes = sum(v.nbytes for v in params.values())
        assert param_bytes > 100 * MIB
        path = tmp_path / "rect.ckpt"
        save_peak = traced_peak(lambda: save_checkpoint(path, params, meta={"step": 1}))
        assert save_peak < 2 * MIB
        loaded = {}
        load_peak = traced_peak(lambda: loaded.update(load_checkpoint(path)[0]))
        assert load_peak < param_bytes + 2 * MIB
        for name, value in params.items():
            assert_bitwise(loaded[name], value, np.float32)
