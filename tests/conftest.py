"""Shared fixtures and helpers for the TT-SNN reproduction test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import obs
from repro.autograd.tensor import Tensor, active_trace, is_grad_enabled
from repro.resilience import faults
from repro.runtime import backends
from repro.runtime.backends import Backend, NativeKernel, NumbaBackend
from repro.runtime.backends.codegen import compile_python
from repro.runtime.ops import get_op


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


class ReferenceTwinBackend(Backend):
    """Test-only native backend: the reference kernels under a native name.

    It is eligible for the nodes the numba backend compiles (``ew_chain`` and
    the specialized fused LIF) and hands the planner each node's own
    :class:`~repro.runtime.ops.OpDef` kernels wrapped in a
    :class:`NativeKernel`.  Plans built with it therefore run the native
    code path — ``@twin`` labels, native/fallback counters, quarantine —
    while staying exactly equal to the reference, on machines without numba.
    """

    name = "twin"
    eligible = NumbaBackend.eligible

    def compile_node(self, node, slots, needs, node_has_backward):
        opdef = get_op(node.op)
        return NativeKernel(self.name, opdef.forward, opdef.backward,
                            opdef.forward_inference, label=node.op)


class PythonCodegenBackend(NumbaBackend):
    """Test-only native backend: the numba backend without ``@njit``.

    The flat-loop sources of :mod:`repro.runtime.backends.codegen` are
    plain valid Python, so this backend runs the numba backend's whole
    pipeline — emission, marshalling, plan-time verification, token-guarded
    backward — in real plans on machines without numba, only slower.
    """

    name = "codegen"

    def _compile(self, source, names):
        return compile_python(source)


@pytest.fixture
def install_backend(monkeypatch):
    """Make ``backend=<backend.name>`` resolve to a test-only backend.

    Returns a function taking a :class:`Backend` instance and returning its
    name; every other name still resolves as usual.
    """
    def install(backend: Backend) -> str:
        previous = backends.resolve_backend
        monkeypatch.setattr(
            backends, "resolve_backend",
            lambda name: backend if name == backend.name else previous(name))
        return backend.name
    return install


@pytest.fixture
def twin_backend(install_backend) -> str:
    """Install :class:`ReferenceTwinBackend`; returns the name to pass."""
    return install_backend(ReferenceTwinBackend())


@pytest.fixture
def codegen_backend(install_backend) -> str:
    """Install :class:`PythonCodegenBackend`; returns the name to pass."""
    return install_backend(PythonCodegenBackend())


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
