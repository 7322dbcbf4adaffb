import json

import numpy as np
import pytest

from conftest import check_network_gradients, numeric_gradient, relative_error
from disagg.errors import DataError, DimensionError, NumericError
from disagg.nn import (LSTM, Bidirectional, Conv1D, Dense, Flatten, NesterovSGD,
                       Network, Reshape, clip_gradients, load_checkpoint,
                       save_checkpoint)


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


class TestConv1D:
    def test_valid_output_length(self):
        layer = Conv1D("c", 1, 16, filter_size=4, border="valid")
        assert layer.output_length(128) == 125
        y = layer.forward(np.zeros((1, 128, 1)))
        assert y.shape == (1, 125, 16)

    def test_same_output_length(self, rng):
        layer = Conv1D("c", 2, 3, filter_size=4, border="same", rng=rng)
        assert layer.forward(rng.normal(size=(2, 50, 2))).shape == (2, 50, 3)

    def test_stride_two_length(self):
        layer = Conv1D("c", 1, 1, filter_size=4, stride=2, border="valid")
        assert layer.output_length(10) == 4

    def test_same_pad_split_is_left_light(self, rng):
        # filter 4: pad 1 left, 2 right; a length-1 kernel slot check via
        # correlation against a manual computation.
        layer = Conv1D("c", 1, 1, filter_size=4, border="same", rng=rng)
        x = rng.normal(size=(1, 6, 1))
        w = layer.params["weights"][:, 0, 0]
        padded = np.concatenate([[0.0], x[0, :, 0], [0.0, 0.0]])
        expected = [padded[i : i + 4] @ w for i in range(6)]
        np.testing.assert_allclose(layer.forward(x)[0, :, 0], expected)

    @pytest.mark.parametrize("border,stride", [("valid", 1), ("valid", 2), ("same", 1)])
    def test_gradients(self, border, stride, rng):
        layer = Conv1D("c", 3, 4, filter_size=4, stride=stride, border=border,
                       activation="tanh", rng=rng)
        layer.params["bias"][:] = rng.normal(scale=0.1, size=4)
        check_layer_gradients(layer, rng.normal(size=(2, 9, 3)), rng)


class TestLSTM:
    def test_output_shape_and_zero_input(self, rng):
        layer = LSTM("l", 3, 5, rng=rng)
        layer.params["bias"][:] = 0
        y = layer.forward(np.zeros((2, 7, 3)))
        assert y.shape == (2, 7, 5)
        # zero input, zero bias: gates still fire at sigmoid(0) but the cell
        # candidate is tanh(0)=0, so the hidden state stays exactly zero.
        np.testing.assert_array_equal(y, np.zeros((2, 7, 5)))

    def test_gradients(self, rng):
        layer = LSTM("l", 3, 4, rng=rng)
        layer.params["bias"][:] = rng.normal(scale=0.1, size=16)
        check_layer_gradients(layer, rng.normal(size=(2, 7, 3)), rng)

    def test_truncation_inert_for_short_sequences(self, rng):
        x = rng.normal(size=(1, 6, 2))
        full = LSTM("l", 2, 3, truncate=500, rng=np.random.default_rng(9))
        y, cache = full.forward_cached(x)
        dy = np.ones_like(y)
        dx_full, _ = full.backward(dy, cache)
        same = LSTM("l", 2, 3, truncate=6, rng=np.random.default_rng(9))
        y2, cache2 = same.forward_cached(x)
        dx_same, _ = same.backward(dy, cache2)
        np.testing.assert_array_equal(dx_full, dx_same)

    def test_truncation_cuts_gradient_flow(self, rng):
        # With truncate=1 the loss at the last step cannot reach the first
        # input; with full BPTT it can.
        x = rng.normal(size=(1, 5, 2))
        dy = np.zeros((1, 5, 3))
        dy[0, -1] = 1.0
        cut = LSTM("l", 2, 3, truncate=1, rng=np.random.default_rng(9))
        y, cache = cut.forward_cached(x)
        dx_cut, _ = cut.backward(dy, cache)
        np.testing.assert_array_equal(dx_cut[0, :-1], np.zeros((4, 2)))
        full = LSTM("l", 2, 3, truncate=500, rng=np.random.default_rng(9))
        y, cache = full.forward_cached(x)
        dx_full, _ = full.backward(dy, cache)
        assert np.abs(dx_full[0, :-1]).max() > 0


class TestBidirectional:
    def test_concat_width(self, rng):
        layer = Bidirectional("b", LSTM("f", 2, 4, rng=rng), LSTM("w", 2, 4, rng=rng))
        assert layer.forward(rng.normal(size=(1, 5, 2))).shape == (1, 5, 8)

    def test_mismatched_halves_rejected(self, rng):
        with pytest.raises(DimensionError, match="share hidden size"):
            Bidirectional("b", LSTM("f", 2, 4, rng=rng), LSTM("w", 2, 5, rng=rng))

    def test_mirrored_weights_on_palindrome(self, rng):
        fwd = LSTM("f", 1, 3, rng=rng)
        bwd = LSTM("w", 1, 3, rng=rng)
        bwd.params = {k: v.copy() for k, v in fwd.params.items()}
        layer = Bidirectional("b", fwd, bwd)
        x = np.array([1.0, 2.0, 5.0, 2.0, 1.0]).reshape(1, 5, 1)
        y = layer.forward(x)
        # palindromic input + identical halves: backward half mirrors forward
        np.testing.assert_allclose(y[0, :, 3:], y[0, ::-1, :3], atol=1e-12)

    def test_zero_input_zero_bias_zero_output(self, rng):
        layer = Bidirectional("b", LSTM("f", 2, 3, rng=rng), LSTM("w", 2, 3, rng=rng))
        y = layer.forward(np.zeros((1, 4, 2)))
        np.testing.assert_array_equal(y, np.zeros((1, 4, 6)))

    def test_gradients(self, rng):
        layer = Bidirectional("b", LSTM("f", 3, 4, rng=rng), LSTM("w", 3, 4, rng=rng))
        check_layer_gradients(layer, rng.normal(size=(2, 6, 3)), rng)


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
        opt = NesterovSGD(params, learning_rate=0.1, momentum=0.9)
        opt.step({"p": np.array([1.0])})
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


class TestNetwork:
    def _tiny(self, rng):
        return Network([
            Reshape("to_channels", (6, 1)),
            Conv1D("conv", 1, 2, filter_size=3, border="same", rng=rng),
            Flatten("flat"),
            Dense("out", 12, 6, "linear", rng=rng),
        ], window_width=6)

    def test_single_neuron_gradient_hand_value(self):
        net = Network([Dense("n", 1, 1, "linear")], window_width=1)
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

    def test_parameter_roundtrip_and_shape_rejection(self, rng, tmp_path):
        net = self._tiny(rng)
        params = {k: v.copy() for k, v in net.parameters().items()}
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, params, meta={"manifest_sha256": "abc"})
        loaded, meta = load_checkpoint(path)
        assert meta["manifest_sha256"] == "abc"
        net2 = self._tiny(np.random.default_rng(99))
        net2.load_parameters(loaded)
        for k, v in net2.parameters().items():
            np.testing.assert_array_equal(v, params[k])

        bad = dict(loaded)
        bad["out/weights"] = np.zeros((3, 3))
        with pytest.raises(DimensionError, match="shape mismatch"):
            net2.load_parameters(bad)

    def test_checkpoint_bytes_deterministic(self, rng, tmp_path):
        net = self._tiny(rng)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, net.parameters(), meta={"step": 3})
        save_checkpoint(b, net.parameters(), meta={"step": 3})
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt, match", [
        (lambda h: h["tensors"][0].update(shape=[5, 4]), "has shape"),
        (lambda h: h.pop("tensors"), "lacks its tensors"),
        (lambda h: h["tensors"][0].pop("offset"), "malformed tensor entry"),
        (lambda h: h["tensors"][0].pop("shape"), "malformed tensor entry"),
        (lambda h: h["tensors"][0].update(offset=-8), "malformed tensor entry"),
    ], ids=["shape-vs-nbytes", "no-tensors", "no-offset", "no-shape", "negative-offset"])
    def test_malformed_header_is_data_error(self, tmp_path, corrupt, match):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"w": np.arange(16.0).reshape(4, 4)})
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        corrupt(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(DataError, match=match):
            load_checkpoint(path)
