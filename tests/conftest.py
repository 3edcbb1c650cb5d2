"""Shared fixtures and helpers for the TT-SNN reproduction test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import obs
from repro.autograd.tensor import Tensor, active_trace, is_grad_enabled
from repro.resilience import faults


def pytest_addoption(parser):
    parser.addoption("--shuffle-seed", type=int, default=None,
                     help="run the collected tests in an order shuffled by this seed")


def pytest_report_header(config):
    seed = config.getoption("--shuffle-seed")
    return None if seed is None else f"test order shuffled with --shuffle-seed {seed}"


def pytest_collection_modifyitems(config, items):
    """Shuffle the test order when ``--shuffle-seed`` is given.

    Tests must pass in any order; a fixed seed makes a failing order
    reproducible.
    """
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)


def _model_instruments() -> set:
    """Keys of default-registry instruments scoped to one served model.

    Servers label every per-model instrument with ``model`` and must remove
    them when the model or the server goes.  Unlabelled process-wide
    counters (runtime replays, injected faults, ...) are created once per
    process by design and are not model state.
    """
    return {instrument.key for instrument in obs.default_registry().instruments()
            if "model" in instrument.labels}


@pytest.fixture(autouse=True)
def process_state_restored():
    """Fail the test that leaks process state, not the tests that run after it.

    A leaked ``no_grad`` would silently freeze every tensor built later, a
    leaked op trace would record unrelated ops into a stale capture, a
    leaked fault injector would fire faults into innocent tests, leaked
    tracing would export spans from every later test, and a leaked
    per-model instrument would keep a dead server in every later scrape.
    """
    instruments = _model_instruments()
    yield
    assert is_grad_enabled(), "test left grad mode disabled"
    assert active_trace() is None, "test left an op trace installed"
    assert faults.get_injector() is None, "test left a fault injector installed"
    assert not obs.enabled(), "test left tracing enabled"
    leaked = sorted(_model_instruments() - instruments)
    assert not leaked, f"test left per-model instruments in the default metrics registry: {leaked}"


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for every test."""
    return np.random.default_rng(12345)


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference numerical gradient of a scalar-valued ``fn``.

    ``fn`` receives a plain ndarray and must return a Python float.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, atol: float = 1e-2,
                      rtol: float = 5e-2) -> None:
    """Compare analytic and numeric gradients with tolerances suited to float32."""
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


#: Eval-mode firing-rate band every LIF layer must reach before a parity
#: check on it means anything: a layer that never spikes hides the layers
#: behind it.
FIRING_BAND = (0.02, 0.6)


def calibrate_norms(model, images: np.ndarray, batches: int = 6, batch: int = 16) -> None:
    """Fill batch-norm running statistics with a few no-grad train-mode forwards.

    A freshly initialised network in eval mode normalises with the initial
    (0, 1) statistics and barely spikes past its first layer; the calibrated
    model stands in for a trained one.  Leaves the model reset, in eval mode.
    """
    from repro.autograd.tensor import no_grad
    from repro.snn.encoding import encode_batch
    from repro.snn.functional import reset_model_state

    model.train()
    with no_grad():
        for index in range(batches):
            chunk = images[index * batch:(index + 1) * batch]
            model.run_timesteps(encode_batch(chunk, model.timesteps))
    reset_model_state(model)
    model.eval()


def assert_spiking(model, images: np.ndarray) -> None:
    """Assert every LIF layer fires inside :data:`FIRING_BAND` in eval mode.

    The rates come from one no-grad direct-coded forward of ``images``, the
    path serving engines run.
    """
    from repro.autograd.tensor import no_grad
    from repro.snn.functional import reset_model_state
    from repro.snn.neurons import LIFNeuron

    rates = {}
    lifs = [(name, m) for name, m in model.named_modules() if isinstance(m, LIFNeuron)]
    for name, module in lifs:
        def recorder(currents, _name=name, _forward=module.forward_sequence):
            spikes = _forward(currents)
            rates[_name] = np.count_nonzero(spikes.data) / spikes.data.size
            return spikes

        module.forward_sequence = recorder
    model.eval()
    try:
        with no_grad():
            model.run_images(images)
    finally:
        for _, module in lifs:
            del module.forward_sequence
        reset_model_state(model)
    low, high = FIRING_BAND
    assert lifs and len(rates) == len(lifs), f"not every LIF layer ran: {sorted(rates)}"
    assert all(low <= rate <= high for rate in rates.values()), (
        f"LIF firing rates outside {FIRING_BAND}: {rates}")


class OpTableContext:
    """A kernel context driven through its shared op-table entry.

    Compiled replays never call a :class:`~repro.autograd.tensor.Function`
    directly: they run the entry's forward, inference forward and backward
    kernels, which build a fresh context per call.  This adapter exposes that
    route with the context's own ``forward`` / ``forward_inference`` /
    ``backward`` methods, so one test body checks both routes;
    ``context`` is the context the last ``forward`` built.
    """

    def __init__(self, op_name: str, attrs: dict):
        from repro.autograd.ops import get_op

        self._op = get_op(op_name)
        self._attrs = attrs
        self._ins = self._out = self.context = None

    def forward(self, *ins: np.ndarray) -> np.ndarray:
        self._ins = ins
        self._out, self.context = self._op.forward(list(ins), self._attrs)
        return self._out

    def forward_inference(self, *ins: np.ndarray) -> np.ndarray:
        return self._op.forward_inference(list(ins), self._attrs)

    def backward(self, grad: np.ndarray) -> tuple:
        needs = [True] * len(self._ins)
        return tuple(self._op.backward(grad, self._ins, self._out, self.context,
                                       self._attrs, needs))


@pytest.fixture
def small_image_batch(rng) -> np.ndarray:
    """A tiny (N, C, H, W) float batch."""
    return rng.standard_normal((2, 3, 8, 8)).astype(np.float32)


@pytest.fixture
def tiny_resnet():
    """A very small spiking ResNet-18 for integration tests."""
    from repro.models.resnet import spiking_resnet18

    return spiking_resnet18(num_classes=4, in_channels=3, timesteps=2, width_scale=0.07,
                            rng=np.random.default_rng(0))


@pytest.fixture
def tiny_static_dataset():
    """A tiny synthetic static-image dataset."""
    from repro.data.synthetic import make_static_image_dataset

    return make_static_image_dataset(num_samples=16, num_classes=4, channels=3,
                                     height=12, width=12, seed=7)


@pytest.fixture
def tiny_event_dataset():
    """A tiny synthetic event dataset."""
    from repro.data.synthetic import make_event_dataset

    return make_event_dataset(num_samples=12, num_classes=4, timesteps=3, channels=2,
                              height=12, width=12, seed=7)
