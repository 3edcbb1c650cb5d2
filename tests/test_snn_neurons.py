"""Tests for the LIF neuron and surrogate gradients (Eq. 1 of the paper)."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.snn.neurons import (
    LIFNeuron,
    SurrogateArctan,
    SurrogateRectangular,
    SurrogateSigmoid,
    spike_function,
)


class TestSpikeFunction:
    def test_forward_is_heaviside(self):
        pre = Tensor(np.array([-0.1, 0.0, 0.3]))
        out = spike_function(pre)
        np.testing.assert_array_equal(out.data, [0.0, 1.0, 1.0])

    def test_output_is_binary(self, rng):
        pre = Tensor(rng.standard_normal(100).astype(np.float32))
        out = spike_function(pre)
        assert set(np.unique(out.data)).issubset({0.0, 1.0})

    def test_surrogate_gradient_nonzero_near_threshold(self):
        pre = Tensor(np.array([0.1, -0.1, 3.0]), requires_grad=True)
        spike_function(pre, SurrogateRectangular(width=1.0)).sum().backward()
        assert pre.grad[0] > 0 and pre.grad[1] > 0
        assert pre.grad[2] == 0.0      # far from threshold -> outside the window

    def test_rectangular_width_scales_gradient(self):
        narrow = SurrogateRectangular(width=0.5)
        wide = SurrogateRectangular(width=2.0)
        x = np.array([0.0])
        assert narrow.derivative(x)[0] > wide.derivative(x)[0]

    def test_arctan_and_sigmoid_peak_at_zero(self):
        for surrogate in (SurrogateArctan(), SurrogateSigmoid()):
            values = surrogate.derivative(np.array([-1.0, 0.0, 1.0]))
            assert values[1] == max(values)
            assert np.all(values > 0)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            SurrogateRectangular(width=0.0)


class TestLIFDynamics:
    def test_subthreshold_input_never_spikes(self):
        lif = LIFNeuron(tau_m=0.25, v_threshold=0.5)
        current = Tensor(np.full((1, 4), 0.3, dtype=np.float32))
        for _ in range(10):
            spikes = lif(current)
        # u_inf = 0.3 / (1 - 0.25) = 0.4 < 0.5
        assert spikes.data.sum() == 0

    def test_suprathreshold_input_spikes_immediately(self):
        lif = LIFNeuron(v_threshold=0.5)
        spikes = lif(Tensor(np.full((1, 3), 0.8, dtype=np.float32)))
        assert np.all(spikes.data == 1.0)

    def test_hard_reset_to_zero(self):
        lif = LIFNeuron(tau_m=0.5, v_threshold=0.5, hard_reset=True)
        lif(Tensor(np.array([[1.0]], dtype=np.float32)))      # spikes, resets to 0
        # Next step integrates only the new input scaled by leak of the reset (0) membrane.
        lif(Tensor(np.array([[0.2]], dtype=np.float32)))
        assert lif.membrane_potential.data[0, 0] == pytest.approx(0.2)

    def test_soft_reset_subtracts_threshold(self):
        lif = LIFNeuron(tau_m=1.0, v_threshold=0.5, hard_reset=False)
        lif(Tensor(np.array([[0.8]], dtype=np.float32)))
        assert lif.membrane_potential.data[0, 0] == pytest.approx(0.3)

    def test_membrane_accumulates_with_leak(self):
        lif = LIFNeuron(tau_m=0.5, v_threshold=10.0)
        lif(Tensor(np.array([[1.0]], dtype=np.float32)))
        lif(Tensor(np.array([[1.0]], dtype=np.float32)))
        # u2 = 0.5 * 1.0 + 1.0 = 1.5
        assert lif.membrane_potential.data[0, 0] == pytest.approx(1.5)

    def test_reset_state_clears_membrane(self):
        lif = LIFNeuron()
        lif(Tensor(np.ones((1, 2), dtype=np.float32)))
        assert lif.membrane_potential is not None
        lif.reset_state()
        assert lif.membrane_potential is None

    def test_paper_default_parameters(self):
        lif = LIFNeuron()
        assert lif.tau_m == pytest.approx(0.25)
        assert lif.v_threshold == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LIFNeuron(tau_m=0.0)
        with pytest.raises(ValueError):
            LIFNeuron(v_threshold=-1.0)
        with pytest.raises(ValueError):
            LIFNeuron(surrogate="unknown")

    def test_gradient_flows_through_time(self):
        """BPTT: the loss at t=2 must produce a gradient on the t=1 input."""
        lif = LIFNeuron(tau_m=0.5, v_threshold=0.4, detach_reset=True)
        x1 = Tensor(np.array([[0.3]], dtype=np.float32), requires_grad=True)
        x2 = Tensor(np.array([[0.2]], dtype=np.float32), requires_grad=True)
        s1 = lif(x1)
        s2 = lif(x2)
        s2.sum().backward()
        assert x2.grad is not None
        assert x1.grad is not None       # membrane carries x1 into timestep 2
        assert abs(x1.grad[0, 0]) > 0

    def test_spikes_are_binary_over_random_input(self, rng):
        lif = LIFNeuron()
        for _ in range(3):
            spikes = lif(Tensor(rng.standard_normal((2, 8)).astype(np.float32)))
            assert set(np.unique(spikes.data)).issubset({0.0, 1.0})


def _per_step_lif_backward(membranes, spikes, grad_output, surrogate, tau_m, v_threshold,
                           hard_reset, detach_reset):
    """The BPTT recurrence one timestep at a time, surrogate taken per step."""
    grad_input = np.empty_like(grad_output)
    grad_post = np.zeros_like(grad_output[0])
    for t in range(grad_output.shape[0] - 1, -1, -1):
        grad_spike = grad_output[t]
        if not detach_reset:
            reset_term = membranes[t] if hard_reset else v_threshold
            grad_spike = grad_spike - grad_post * reset_term
        grad = grad_spike * surrogate.derivative(membranes[t] - v_threshold)
        grad = grad + ((1.0 - spikes[t]) * grad_post if hard_reset else grad_post)
        grad_input[t] = grad
        grad_post = grad * tau_m
    return grad_input


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("detach_reset", [True, False], ids=["detach", "attached"])
@pytest.mark.parametrize("hard_reset", [True, False], ids=["hard", "soft"])
@pytest.mark.parametrize("surrogate", [SurrogateRectangular(1.0), SurrogateRectangular(0.5),
                                       SurrogateArctan(), SurrogateSigmoid()],
                         ids=["rect1", "rect0.5", "arctan", "sigmoid"])
def test_fused_lif_backward_matches_per_step_recurrence_bitwise(surrogate, hard_reset,
                                                                 detach_reset, dtype):
    """The whole-history backward keeps the per-step recurrence's bits, signed zeros too."""
    from repro.snn.neurons import _FusedLIFSequence

    rng = np.random.default_rng(5)
    currents = (rng.standard_normal((5, 3, 4, 6)) * 0.6).astype(dtype)
    grad_output = rng.standard_normal(currents.shape).astype(dtype)
    grad_output[rng.random(currents.shape) < 0.1] = -0.0
    fused = _FusedLIFSequence(0.25, 0.5, surrogate, hard_reset, detach_reset)
    spikes = fused.forward(currents)
    (got,) = fused.backward(grad_output)
    want = _per_step_lif_backward(fused._membranes, spikes, grad_output, surrogate,
                                  0.25, 0.5, hard_reset, detach_reset)
    assert got.dtype == want.dtype == dtype
    bits = {4: np.uint32, 8: np.uint64}[got.dtype.itemsize]
    np.testing.assert_array_equal(got.view(bits), want.view(bits))
