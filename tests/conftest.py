"""Shared helpers: finite-difference gradient oracle and tiny fixtures."""

import tracemalloc

import numpy as np
import pytest

from disagg import blas
from disagg.nn import layers

EPS = 1e-5
GRAD_TOL = 1e-4


def numeric_gradient(loss_fn, arr, eps=EPS):
    """Central finite differences of a scalar function w.r.t. `arr` in place."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


def traced_peak(fn):
    """Bytes `fn()` allocates at its peak, above what was live when it began
    (tracemalloc sees NumPy's array buffers)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def relative_error(analytic, numeric):
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale)) if analytic.size else 0.0


def general_position(network, rng, scale=0.05):
    """Nudge all parameters so no ReLU pre-activation sits exactly on its kink
    (finite differences are invalid at kinks)."""
    for value in network.parameters().values():
        value += rng.normal(scale=scale, size=value.shape)


def check_network_gradients(network, x, target, tol=GRAD_TOL):
    """Assert analytic MSE gradients match central differences for every
    parameter; returns the worst relative error."""
    _, grads = network.loss_and_gradients(x, target)

    def loss():
        y = network.forward(x)
        diff = y - network.align_target(np.asarray(target, dtype=np.float64), y.shape)
        return float(np.mean(diff * diff))

    worst = 0.0
    for key, value in network.parameters().items():
        numeric = numeric_gradient(loss, value)
        err = relative_error(grads[key], numeric)
        assert err < tol, f"{key}: relative error {err:.3e} >= {tol}"
        worst = max(worst, err)
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def lane_jobs(monkeypatch):
    """The jobs handed to the lane worker while the test runs, counted."""
    layers._in_parallel(lambda: None, lambda: None)  # starts the worker
    jobs = []
    submit = layers._worker.submit

    def counting_submit(*args, **kwargs):
        jobs.append(args)
        return submit(*args, **kwargs)

    monkeypatch.setattr(layers._worker, "submit", counting_submit)
    return jobs


@pytest.fixture
def lanes_on(monkeypatch, lane_jobs):
    """Every `in_lanes` call runs two lanes, whatever the size of its work
    and the BLAS thread count; the jobs of the second lane, counted."""
    monkeypatch.setattr(layers, "LANE_MIN_WORK", 0)
    monkeypatch.setattr(blas, "threads", lambda: 1)
    return lane_jobs
