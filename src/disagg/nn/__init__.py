"""Minimal trainable-layer stack: dense, 1D convolution, peephole LSTM,
bidirectional composition, MSE objective, Nesterov SGD, gradient
clipping, and truncated backpropagation through time."""

from .checkpoint import load_checkpoint, save_checkpoint
from .layers import LSTM, Bidirectional, Conv1D, Dense, Reshape
from .network import Network
from .optim import GRADIENT_CLIP_BOUND, MOMENTUM, NesterovSGD, clip_gradients

__all__ = [
    "LSTM", "Bidirectional", "Conv1D", "Dense", "Reshape",
    "Network", "NesterovSGD", "clip_gradients",
    "GRADIENT_CLIP_BOUND", "MOMENTUM",
    "save_checkpoint", "load_checkpoint",
]
