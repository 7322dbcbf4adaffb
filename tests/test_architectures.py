import hashlib
import itertools

import numpy as np
import pytest

from conftest import traced_peak
from disagg.architectures import (BATCH_SIZES, KINDS, NETWORK_DTYPE, PLATEAU_PATIENCE,
                                  UPDATE_BUDGETS, build_dae, build_lstm, build_network,
                                  build_rectangles, train)
from disagg.datagen import Batch
from disagg.errors import ConfigError, DimensionError, NumericError
from disagg.nn import Dense, NesterovSGD, Network


def repeat_batch(batch):
    return itertools.repeat(batch)


class TestLstmStack:
    def test_layer_enumeration(self):
        net = build_lstm(128)
        kinds = [d["type"] for d in net.describe()]
        assert kinds == ["reshape", "conv1d", "bidirectional_lstm", "bidirectional_lstm",
                         "dense", "dense", "reshape"]
        conv = net.describe()[1]
        assert (conv["filter_size"], conv["stride"], conv["filters"]) == (4, 1, 16)
        assert conv["border"] == "same" and conv["activation"] == "linear"
        bi1, bi2 = net.describe()[2], net.describe()[3]
        assert bi1["units"] == 128 and bi1["peepholes"] and bi1["merge"] == "concat"
        assert bi2["units"] == 256 and bi2["peepholes"]
        dense, head = net.describe()[4], net.describe()[5]
        assert (dense["units"], dense["activation"]) == (128, "tanh")
        assert (head["units"], head["activation"]) == (1, "linear")

    def test_output_length_equals_input_length(self, rng):
        net = build_lstm(32, rng, conv_filters=2, lstm_units=(3, 4), dense_units=3)
        assert net.forward(rng.normal(size=(2, 32))).shape == (2, 32)

    def test_zero_weights_zero_output(self, rng):
        net = build_lstm(16, rng, conv_filters=2, lstm_units=(3, 3), dense_units=2)
        for value in net.parameters().values():
            value[...] = 0.0
        np.testing.assert_array_equal(net.forward(rng.normal(size=(1, 16))), np.zeros((1, 16)))

    def test_offset_equivariance_modulo_edges(self):
        # Identical content shifted within a zero window produces the same
        # per-timestep outputs over the shared support, once the conv halo
        # and recurrent warm-up are excluded.
        width, content_len, warmup = 128, 48, 16
        net = build_lstm(width, np.random.default_rng(11), conv_filters=4,
                         lstm_units=(6, 6), dense_units=6)
        content = np.random.default_rng(5).normal(size=content_len)
        out = {}
        for offset in (24, 44):
            window = np.zeros(width)
            window[offset : offset + content_len] = content
            y = net.forward(window[None, :])[0]
            out[offset] = y[offset + warmup : offset + content_len - warmup]
        np.testing.assert_allclose(out[24], out[44], atol=1e-3)


class TestDaeStack:
    def test_layer_enumeration_and_widths(self):
        net = build_dae(128)
        desc = net.describe()
        kinds = [d["type"] for d in desc]
        assert kinds == ["reshape", "conv1d", "reshape", "dense", "dense", "dense",
                         "reshape", "conv1d", "reshape"]
        assert desc[1]["filters"] == 8 and desc[1]["border"] == "valid"
        assert [d["units"] for d in desc[3:6]] == [1000, 128, 1000]
        assert all(d["activation"] == "relu" for d in desc[3:6])
        assert desc[7]["filters"] == 1 and desc[7]["border"] == "valid"

    def test_output_is_centre_crop_length(self, rng):
        net = build_dae(128, rng, conv_filters=2, code_units=4)
        assert net.forward(rng.normal(size=(2, 128))).shape == (2, 122)
        assert net.output_offset == 3

    def test_code_layer_always_128(self):
        for width in (64, 128, 256):
            assert build_dae(width).describe()[4]["units"] == 128

    def test_zero_training_on_zeros_reconstructs_zeros(self, rng):
        net = build_dae(16, rng, conv_filters=2, code_units=3)
        batch = Batch(inputs=np.zeros((4, 16)), targets=np.zeros((4, 16)))
        opt = NesterovSGD(net.parameters(), learning_rate=0.01)
        train(net, repeat_batch(batch), opt, 50)
        np.testing.assert_allclose(net.forward(np.zeros((1, 16))), np.zeros((1, 10)),
                                   atol=1e-6)

    def test_window_too_small_rejected(self):
        with pytest.raises(ConfigError):
            build_dae(8)


class TestRectanglesStack:
    def test_layer_enumeration(self):
        net = build_rectangles(128)
        desc = net.describe()
        kinds = [d["type"] for d in desc]
        assert kinds == ["reshape", "conv1d", "conv1d", "reshape",
                         "dense", "dense", "dense", "dense", "dense"]
        assert desc[1]["filters"] == 16 and desc[2]["filters"] == 16
        assert [d["units"] for d in desc[4:]] == [4096, 3072, 2048, 512, 3]
        assert [d["activation"] for d in desc[4:]] == ["relu"] * 4 + ["linear"]

    def test_conv_stack_output_shape(self, rng):
        net = build_rectangles(128, rng, conv_filters=16, dense_units=(8, 6, 4, 3))
        x = rng.normal(size=(1, 128))
        y = x.reshape(1, 128, 1)
        for layer in net.layers[:3]:
            y = layer.forward(y)
        assert y.shape == (1, 122, 16)

    def test_output_dimension_three(self, rng):
        net = build_rectangles(32, rng, conv_filters=2, dense_units=(6, 5, 4, 3))
        assert net.forward(rng.normal(size=(5, 32))).shape == (5, 3)
        assert net.output_kind == "triple"

    def test_zero_init_zero_triple(self, rng):
        net = build_rectangles(16, rng, conv_filters=2, dense_units=(4, 3, 3, 2))
        for value in net.parameters().values():
            value[...] = 0.0
        np.testing.assert_array_equal(net.forward(rng.normal(size=(1, 16))),
                                      np.zeros((1, 3)))


class TestSpecDefaults:
    def test_update_budgets(self):
        assert UPDATE_BUDGETS == {"lstm": 10_000, "dae": 100_000, "rectangles": 300_000}

    def test_batch_sizes(self):
        assert BATCH_SIZES == {"lstm": 16, "dae": 64, "rectangles": 64}

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown architecture kind"):
            build_network("perceptron", 64, np.random.default_rng(0))


SMALL = {  # kind -> builder at a small width, for a Generator or a checkpoint mapping
    "lstm": lambda init: build_lstm(12, init, conv_filters=2, lstm_units=(3, 4),
                                    dense_units=3),
    "dae": lambda init: build_dae(16, init, conv_filters=2, code_units=4),
    "rectangles": lambda init: build_rectangles(16, init, conv_filters=2, dense_units=(4, 3)),
}


def parameter_digest(network) -> str:
    h = hashlib.sha256()
    for name, value in network.parameters().items():
        h.update(name.encode())
        h.update(value.tobytes())
    return h.hexdigest()[:16]


class TestBuildFromCheckpoint:
    @pytest.mark.parametrize("kind, digest", [("lstm", "922f583e596758f1"),
                                              ("dae", "282e9c13bc0186fd"),
                                              ("rectangles", "5f5434d11ad42556")])
    def test_generator_draws_are_unchanged(self, kind, digest):
        # The fresh weights of a Generator, drawn in the layers' order; a
        # change here changes every trained checkpoint.
        assert parameter_digest(SMALL[kind](np.random.default_rng(0))) == digest

    @pytest.mark.parametrize("kind", sorted(SMALL))
    def test_adopts_the_loaded_arrays(self, kind, rng):
        trained = SMALL[kind](rng)
        tensors = {name: value.copy() for name, value in trained.parameters().items()}
        net = SMALL[kind](tensors)
        assert net.parameters().keys() == tensors.keys()
        for name, value in net.parameters().items():
            assert np.shares_memory(value, tensors[name])
        x = rng.normal(size=(3, net.layers[0].target_shape[0]))  # "to_channels": (width, 1)
        np.testing.assert_array_equal(net.forward(x), trained.forward(x))

    @pytest.mark.parametrize("kind, name, layer, param", [
        ("lstm", "bilstm1/bwd.peep_out", "bilstm1/bwd", "peep_out"),
        ("dae", "code/bias", "code", "bias"),
        ("rectangles", "head/weights", "head", "weights"),
    ])
    def test_missing_tensor_rejected(self, kind, name, layer, param, rng):
        tensors = dict(SMALL[kind](rng).parameters())
        del tensors[name]
        with pytest.raises(DimensionError,
                           match=rf"^{layer}: parameter name mismatch: missing=\['{param}'\]"):
            SMALL[kind](tensors)

    @pytest.mark.parametrize("extra", ["stray/weights", "head/scale", "head"])
    def test_extra_tensor_rejected(self, extra, rng):
        tensors = dict(SMALL["dae"](rng).parameters())
        tensors[extra] = np.zeros(3)
        with pytest.raises(DimensionError, match=f"extra=.*{extra}"):
            SMALL["dae"](tensors)

    @pytest.mark.parametrize("kind", sorted(SMALL))
    def test_misshaped_tensor_rejected_naming_it(self, kind, rng):
        tensors = dict(SMALL[kind](rng).parameters())
        for name in sorted(tensors):
            bad = dict(tensors)
            bad[name] = np.zeros(tensors[name].size + 1)
            prefix, param = name.split("/")
            half, _, param = param.rpartition(".")
            layer = f"{prefix}/{half}" if half else prefix
            with pytest.raises(DimensionError,
                               match=f"^{layer}: shape mismatch for '{param}'"):
                SMALL[kind](bad)


def arrays_in(value):
    """Every array in a (nested) cache tuple."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_in(item)


BUILDERS = {"lstm": build_lstm, "dae": build_dae, "rectangles": build_rectangles}


class TestNetworkDtype:
    @pytest.mark.parametrize("kind", KINDS)
    def test_build_network_trains_in_float32(self, kind, rng):
        assert NETWORK_DTYPE == np.float32
        width = 12
        net = build_network(kind, width, np.random.default_rng(0))
        assert net.dtype == np.float32
        # The float64 builder's draws from the same seed, rounded.
        wide = BUILDERS[kind](width, np.random.default_rng(0)).parameters()
        for name, value in net.parameters().items():
            assert value.dtype == np.float32
            np.testing.assert_array_equal(value, wide[name].astype(np.float32))

        x = rng.normal(size=(2, width))
        assert net.forward(x).dtype == np.float32
        y, caches = np.asarray(x, net.dtype), []
        for layer in net.layers:
            y, cache = layer.forward_cached(y)
            assert y.dtype == np.float32, layer.name
            assert all(a.dtype == np.float32 for a in arrays_in(cache)), layer.name
            caches.append(cache)
        dy = np.ones_like(y)
        for layer, cache in zip(reversed(net.layers), reversed(caches)):
            dy, layer_grads = layer.backward(dy, cache)
            assert dy.dtype == np.float32, layer.name
            assert all(g.dtype == np.float32 for g in layer_grads.values()), layer.name
        target = rng.uniform(size=3 if net.output_kind == "triple" else width)
        _, grads = net.loss_and_gradients(x, np.tile(target, (2, 1)))
        assert grads.keys() == net.parameters().keys()
        assert all(g.dtype == np.float32 for g in grads.values())

        optimizer = NesterovSGD(net.parameters(), 0.01)
        optimizer.step(grads)
        for tensors in (optimizer.velocity, net.parameters()):
            assert all(v.dtype == np.float32 for v in tensors.values())

    def test_float32_tensors_adopted_float64_rounded(self, rng):
        tensors = {k: v.astype(np.float32) for k, v in SMALL["dae"](rng).parameters().items()}
        net = build_dae(16, tensors, conv_filters=2, code_units=4, dtype=np.float32)
        for name, value in net.parameters().items():
            assert np.shares_memory(value, tensors[name])
        wide = {k: v.astype(np.float64) for k, v in tensors.items()}
        net = build_dae(16, wide, conv_filters=2, code_units=4, dtype=np.float32)
        for name, value in net.parameters().items():
            assert value.dtype == np.float32
            np.testing.assert_array_equal(value, tensors[name])

    def test_mixed_parameter_dtypes_rejected(self, rng):
        with pytest.raises(DimensionError, match="mix dtypes"):
            Network([Dense("a", 2, 2, init=rng), Dense("b", 2, 2, init=rng, dtype=np.float32)])


class TestTraining:
    def _toy_net_and_batch(self, kind, rng, dtype=np.float64):
        if kind == "lstm":
            net = build_lstm(16, rng, conv_filters=2, lstm_units=(3, 3), dense_units=3,
                             dtype=dtype)
            targets = rng.uniform(0, 1, size=(8, 16))
        elif kind == "dae":
            net = build_dae(16, rng, conv_filters=2, code_units=4, dtype=dtype)
            targets = rng.uniform(0, 1, size=(8, 16))
        else:
            net = build_rectangles(16, rng, conv_filters=2, dense_units=(8, 6, 4, 3),
                                   dtype=dtype)
            targets = rng.uniform(0, 1, size=(8, 3))
        batch = Batch(inputs=rng.normal(size=(8, 16)), targets=targets)
        return net, batch

    def test_budget_zero_returns_unchanged(self, rng):
        net, batch = self._toy_net_and_batch("dae", rng)
        before = {k: v.copy() for k, v in net.parameters().items()}
        result = train(net, repeat_batch(batch), NesterovSGD(net.parameters(), 0.1), 0)
        assert result.steps == []
        for key, value in net.parameters().items():
            np.testing.assert_array_equal(value, before[key])

    @pytest.mark.parametrize("kind, dtype", [
        pytest.param(kind, dtype, id=kind + suffix) for suffix, dtype in
        [("", np.float64), ("-float32", np.float32)] for kind in ["lstm", "dae", "rectangles"]])
    def test_memorisation_loss_decreases(self, kind, dtype, rng):
        net, batch = self._toy_net_and_batch(kind, rng, dtype)
        opt = NesterovSGD(net.parameters(), learning_rate=0.01)
        result = train(net, repeat_batch(batch), opt, 200)
        assert result.losses[-1] < result.losses[0]

    @pytest.mark.parametrize("kind", ["lstm", "dae", "rectangles"])
    def test_strict_decrease_first_50_steps_small_lr(self, kind, rng):
        net, batch = self._toy_net_and_batch(kind, rng)
        opt = NesterovSGD(net.parameters(), learning_rate=1e-3)
        result = train(net, repeat_batch(batch), opt, 50)
        diffs = np.diff(result.losses)
        assert np.all(diffs < 0), f"loss increased at steps {np.where(diffs >= 0)[0] + 1}"

    def test_same_seed_identical_loss_trace(self, rng):
        traces = []
        for _ in range(2):
            net, batch = self._toy_net_and_batch("dae", np.random.default_rng(21))
            opt = NesterovSGD(net.parameters(), learning_rate=0.01)
            traces.append(train(net, repeat_batch(batch), opt, 30).losses)
        assert traces[0] == traces[1]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_aborts_with_checkpoint(self, rng):
        net, batch = self._toy_net_and_batch("dae", rng)
        # Clipping bounds each update, so the rate must be absurd to overflow.
        opt = NesterovSGD(net.parameters(), learning_rate=1e100)
        tags = []
        with pytest.raises(NumericError):
            train(net, repeat_batch(batch), opt, 100,
                  on_checkpoint=lambda tag, step: tags.append(tag))
        assert tags == ["abort"]

    def test_interval_checkpoints_follow_the_recipe(self, rng):
        net = Network([Dense("d", 2, 2, activation="linear", init=rng)])
        batch = Batch(inputs=rng.normal(size=(2, 2)), targets=rng.normal(size=(2, 2)))
        calls = []
        train(net, repeat_batch(batch), NesterovSGD(net.parameters(), 0.01), 1000,
              on_checkpoint=lambda tag, step: calls.append((tag, step)))
        assert calls == [("interval", 250), ("interval", 500), ("interval", 750),
                         ("final", 1000)]

    def test_plateau_halves_learning_rate(self, rng):
        net, batch = self._toy_net_and_batch("dae", rng)
        # Zero-error target: loss stalls at a constant, triggering plateaus.
        batch = Batch(inputs=batch.inputs, targets=net.forward(batch.inputs))
        opt = NesterovSGD(net.parameters(), learning_rate=0.01)
        train(net, repeat_batch(batch), opt, PLATEAU_PATIENCE + 10)
        assert opt.learning_rate < 0.01

    def test_peak_memory_holds_one_gradient_set(self, rng):
        # About 40 MB of Dense parameters.  Training holds the parameters,
        # the velocity and one gradient set (3x); keeping the previous
        # step's gradients alive and a full-size optimizer scratch is 5x.
        batch = Batch(inputs=rng.normal(size=(4, 1000)), targets=rng.normal(size=(4, 1000)))
        holder = {}

        def build_and_train():
            net = Network([Dense("d1", 1000, 2500, activation="relu", init=rng),
                           Dense("d2", 2500, 1000, activation="linear", init=rng)])
            holder["param_bytes"] = sum(v.nbytes for v in net.parameters().values())
            train(net, repeat_batch(batch), NesterovSGD(net.parameters(), 0.01), 3)

        peak = traced_peak(build_and_train)
        param_bytes = holder["param_bytes"]
        assert param_bytes > 35e6
        # params + velocity + 1.5 gradient sets
        assert peak < 3.5 * param_bytes
