"""The three trainable architectures and the shared training loop.

Each builder assembles a fixed layer stack around a target appliance's
window width:

* `build_lstm`    - conv front end, two bidirectional peephole LSTM
                    layers, per-timestep dense head; emits one power
                    sample per input sample.
* `build_dae`     - convolutional denoising autoencoder with a 128-unit
                    code layer; reconstructs the clean target appliance
                    power from the aggregate.  Two valid convolutions
                    trim 3 samples from each edge, so the output covers
                    the centre of the window.
* `build_rectangles` - conv front end plus a deep ReLU stack regressing
                    (start, end, mean power) of the first activation.

Every builder either draws fresh weights from a numpy Generator (for
training) or adopts the tensors of a checkpoint (for inference), so an
inference network holds each parameter once.  The builders compute in
float64 by default, which the finite-difference gradient checks need;
`build_network`, the one the CLI and the acceptance experiment train
and run, builds in NETWORK_DTYPE.

Layer widths default to the full-scale values; tests pass smaller ones
for gradient checking.  Update budgets and batch sizes default to the
full-scale training recipe and may be overridden for desk-scale runs;
the rest of the recipe (clipping, loss smoothing, the plateau rule, the
interval checkpoints) is fixed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .nn import (LSTM, Bidirectional, Conv1D, Dense, NesterovSGD, Network, Reshape,
                 clip_gradients)

KINDS = ("lstm", "dae", "rectangles")

UPDATE_BUDGETS = {"lstm": 10_000, "dae": 100_000, "rectangles": 300_000}

# 64 sequences per batch, except the largest recurrent nets where memory
# forced 16.
BATCH_SIZES = {"lstm": 16, "dae": 64, "rectangles": 64}

# The nets train and infer in single precision, as the paper's did on a
# GPU; their checkpoints hold float32 too, and `disaggregate` refuses a
# tensor of any other dtype.
NETWORK_DTYPE = np.float32

DEFAULT_LEARNING_RATE = 0.01

# The training recipe: loss smoothing, the plateau rule that halves the
# learning rate, and the interval checkpoints (see `train`).
SMOOTHING = 0.05
PLATEAU_PATIENCE = 500
PLATEAU_IMPROVEMENT = 0.01
MIN_LEARNING_RATE = 1e-5
CHECKPOINT_MIN_BUDGET = 1000
CHECKPOINT_INTERVALS = 4


def build_network(kind: str, window_width: int, init) -> Network:
    """The `kind` network for `window_width` in NETWORK_DTYPE, initialised
    from `init` (see `build_lstm`)."""
    if kind == "lstm":
        return build_lstm(window_width, init, dtype=NETWORK_DTYPE)
    if kind == "dae":
        return build_dae(window_width, init, dtype=NETWORK_DTYPE)
    if kind == "rectangles":
        return build_rectangles(window_width, init, dtype=NETWORK_DTYPE)
    raise ConfigError(f"unknown architecture kind {kind!r}; choose from {KINDS}")


def _part(init, prefix):
    """What the layer whose tensors are named `prefix + param` is built
    from: the Generator `init` itself, or those tensors of the mapping
    `init`, keyed by param."""
    if isinstance(init, np.random.Generator):
        return init
    return {name[len(prefix):]: value for name, value in init.items()
            if name.startswith(prefix)}


def _network(layers, init, **outputs) -> Network:
    """The network of `layers`; a DimensionError if `init` is a mapping
    with a tensor no layer adopted."""
    network = Network(layers, **outputs)
    if not isinstance(init, np.random.Generator):
        extra = sorted(set(init) - set(network.parameters()))
        if extra:
            raise DimensionError(f"parameter name mismatch: extra={extra}")
    return network


def _bidirectional(name, input_dim, units, init, dtype) -> Bidirectional:
    """A bidirectional LSTM layer; a checkpoint names its halves' tensors
    `{name}/fwd.{param}` and `{name}/bwd.{param}`."""
    fwd, bwd = (LSTM(f"{name}/{half}", input_dim, units, init=_part(init, f"{name}/{half}."),
                     dtype=dtype)
                for half in ("fwd", "bwd"))
    return Bidirectional(name, fwd, bwd)


def build_lstm(window_width: int, init=None, conv_filters: int = 16,
               lstm_units: tuple[int, int] = (128, 256), dense_units: int = 128,
               dtype=np.float64) -> Network:
    """Recurrent sequence-to-sequence net; output length equals input length.

    `init` (as for every builder) is a numpy Generator the fresh weights
    are drawn from, default `default_rng(0)`, or a {'layer/param': array}
    mapping such as `load_checkpoint` returns, whose arrays the layers
    adopt as their parameters; a tensor missing, left over or of the
    wrong shape is a DimensionError.  The parameters have `dtype`; a
    tensor of another dtype is rounded to it.
    """
    if window_width <= 0:
        raise ConfigError("window_width must be positive")
    init = np.random.default_rng(0) if init is None else init
    u1, u2 = lstm_units
    layers = [
        Reshape("to_channels", (window_width, 1)),
        Conv1D("conv", 1, conv_filters, filter_size=4, border="same", init=_part(init, "conv/"),
               dtype=dtype),
        _bidirectional("bilstm1", conv_filters, u1, init, dtype),
        _bidirectional("bilstm2", 2 * u1, u2, init, dtype),
        Dense("dense", 2 * u2, dense_units, activation="tanh", init=_part(init, "dense/"),
              dtype=dtype),
        Dense("head", dense_units, 1, activation="linear", init=_part(init, "head/"),
              dtype=dtype),
        Reshape("to_sequence", (window_width,)),
    ]
    return _network(layers, init, output_kind="sequence", output_offset=0)


def build_dae(window_width: int, init=None, conv_filters: int = 8,
              code_units: int = 128, dtype=np.float64) -> Network:
    """Denoising autoencoder; output covers the centre window_width-6 samples."""
    if window_width <= 8:
        raise ConfigError("window_width must exceed 8 for the autoencoder")
    init = np.random.default_rng(0) if init is None else init
    hidden = (window_width - 3) * conv_filters
    layers = [
        Reshape("to_channels", (window_width, 1)),
        Conv1D("encoder_conv", 1, conv_filters, filter_size=4, border="valid",
               init=_part(init, "encoder_conv/"), dtype=dtype),
        Reshape("flatten", (hidden,)),
        Dense("encoder_dense", hidden, hidden, activation="relu",
              init=_part(init, "encoder_dense/"), dtype=dtype),
        Dense("code", hidden, code_units, activation="relu", init=_part(init, "code/"),
              dtype=dtype),
        Dense("decoder_dense", code_units, hidden, activation="relu",
              init=_part(init, "decoder_dense/"), dtype=dtype),
        Reshape("unflatten", (window_width - 3, conv_filters)),
        Conv1D("decoder_conv", conv_filters, 1, filter_size=4, border="valid",
               init=_part(init, "decoder_conv/"), dtype=dtype),
        Reshape("to_sequence", (window_width - 6,)),
    ]
    return _network(layers, init, output_kind="sequence", output_offset=3)


def build_rectangles(window_width: int, init=None, conv_filters: int = 16,
                     dense_units: tuple[int, ...] = (4096, 3072, 2048, 512),
                     dtype=np.float64) -> Network:
    """Regressor for (start, end, mean power) of the first activation."""
    if window_width <= 8:
        raise ConfigError("window_width must exceed 8 for the rectangles net")
    init = np.random.default_rng(0) if init is None else init
    width = (window_width - 6) * conv_filters
    layers = [
        Reshape("to_channels", (window_width, 1)),
        Conv1D("conv1", 1, conv_filters, filter_size=4, border="valid",
               init=_part(init, "conv1/"), dtype=dtype),
        Conv1D("conv2", conv_filters, conv_filters, filter_size=4, border="valid",
               init=_part(init, "conv2/"), dtype=dtype),
        Reshape("flatten", (width,)),
    ]
    for idx, units in enumerate(dense_units, start=1):
        layers.append(Dense(f"dense{idx}", width, units, activation="relu",
                            init=_part(init, f"dense{idx}/"), dtype=dtype))
        width = units
    layers.append(Dense("head", width, 3, activation="linear", init=_part(init, "head/"),
                        dtype=dtype))
    return _network(layers, init, output_kind="triple")


@dataclass
class TrainResult:
    """Loss trace of one training run: one (step, loss, smoothed loss) per update."""

    steps: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    smoothed: list[float] = field(default_factory=list)


def train(network: Network, batches, optimizer: NesterovSGD, update_budget: int, *,
          on_log=None, on_checkpoint=None) -> TrainResult:
    """Run exactly `update_budget` Nesterov-SGD steps, gradients clipped at
    GRADIENT_CLIP_BOUND.

    The smoothed loss is an exponential moving average (weight
    SMOOTHING); when it fails to improve by PLATEAU_IMPROVEMENT
    (relative) within PLATEAU_PATIENCE steps, the learning rate is
    halved, down to MIN_LEARNING_RATE.  Each step also goes to
    `on_log(step, loss, smoothed, wallclock)` as it is recorded.  A budget
    of at least CHECKPOINT_MIN_BUDGET goes to `on_checkpoint("interval",
    step)` every budget // CHECKPOINT_INTERVALS steps before the last.  A
    non-finite loss or gradient aborts training, checkpointing the last
    finite state via `on_checkpoint(tag, step)` before re-raising.
    """
    every = (update_budget // CHECKPOINT_INTERVALS
             if update_budget >= CHECKPOINT_MIN_BUDGET else 0)
    result = TrainResult()
    ema = None
    best_ema = np.inf
    since_best = 0
    start = time.monotonic()
    step = 0
    try:
        for step in range(1, update_budget + 1):
            batch = next(batches)
            loss, grads = network.loss_and_gradients(batch.inputs, batch.targets)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at step {step}")
            optimizer.step(clip_gradients(grads))
            del grads  # so the next backward pass never runs beside this gradient set

            ema = loss if ema is None else (1 - SMOOTHING) * ema + SMOOTHING * loss
            result.steps.append(step)
            result.losses.append(loss)
            result.smoothed.append(ema)
            if on_log:
                on_log(step, loss, ema, time.monotonic() - start)
            if ema < best_ema * (1 - PLATEAU_IMPROVEMENT):
                best_ema = ema
                since_best = 0
            else:
                since_best += 1
                if since_best >= PLATEAU_PATIENCE:
                    optimizer.learning_rate = max(optimizer.learning_rate / 2,
                                                  MIN_LEARNING_RATE)
                    since_best = 0
            if on_checkpoint and every and step % every == 0 and step < update_budget:
                on_checkpoint("interval", step)
    except NumericError:
        if on_checkpoint:
            on_checkpoint("abort", step)
        raise
    if on_checkpoint:
        on_checkpoint("final", step)
    return result
