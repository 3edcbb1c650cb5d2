"""Property-based tests (hypothesis) for core invariants.

These cover the mathematical properties the whole reproduction hinges on:
broadcasting-safe gradient accumulation, convolution linearity, exactness of
the full-rank TT decomposition, equivalence of the PTT module and its merged
dense kernel, binary spike outputs, and monotonicity of the compression
formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd.conv import conv2d
from repro.autograd.tensor import Tensor
from repro.snn.neurons import LIFNeuron
from repro.tt.compression import dense_conv_params, tt_conv_params
from repro.tt.decomposition import max_tt_ranks, tt_cores_to_dense, tt_decompose_conv
from repro.tt.layers import PTTConv2d, STTConv2d
from repro.tt.reconstruct import merge_tt_layer


# Shared strategies ----------------------------------------------------------

small_dims = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _array(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


class TestAutogradProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, rows=small_dims, cols=small_dims)
    def test_sum_gradient_is_ones(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        x = Tensor(_array(rng, rows, cols), requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((rows, cols)))

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, n=small_dims)
    def test_addition_gradient_splits_equally(self, seed, n):
        rng = np.random.default_rng(seed)
        a = Tensor(_array(rng, n), requires_grad=True)
        b = Tensor(_array(rng, n), requires_grad=True)
        ((a + b) * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, b.grad)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, n=small_dims, m=small_dims)
    def test_broadcast_gradient_shape_matches_leaf(self, seed, n, m):
        rng = np.random.default_rng(seed)
        a = Tensor(_array(rng, n, m), requires_grad=True)
        b = Tensor(_array(rng, 1, m), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (n, m)
        assert b.grad.shape == (1, m)


class TestConvolutionProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, channels=st.integers(2, 5), size=st.integers(4, 9))
    def test_convolution_is_linear_in_input(self, seed, channels, size):
        """conv(a*x + b*y) == a*conv(x) + b*conv(y)."""
        rng = np.random.default_rng(seed)
        w = Tensor(_array(rng, 4, channels, 3, 3))
        x = Tensor(_array(rng, 1, channels, size, size))
        y = Tensor(_array(rng, 1, channels, size, size))
        combined = conv2d(Tensor(2.0 * x.data + 3.0 * y.data), w, padding=1)
        separate = 2.0 * conv2d(x, w, padding=1).data + 3.0 * conv2d(y, w, padding=1).data
        np.testing.assert_allclose(combined.data, separate, rtol=1e-3, atol=1e-3)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, out_c=st.integers(2, 6))
    def test_convolution_of_zero_input_is_zero(self, seed, out_c):
        rng = np.random.default_rng(seed)
        w = Tensor(_array(rng, out_c, 3, 3, 3))
        x = Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32))
        assert np.all(conv2d(x, w, padding=1).data == 0)


class TestTTProperties:
    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, in_c=st.integers(2, 8), out_c=st.integers(2, 8))
    def test_full_rank_decomposition_is_exact(self, seed, in_c, out_c):
        rng = np.random.default_rng(seed)
        w = _array(rng, out_c, in_c, 3, 3)
        cores = tt_decompose_conv(w, rank=max_tt_ranks(in_c, out_c, (3, 3)))
        np.testing.assert_allclose(tt_cores_to_dense(cores), w, atol=1e-3)

    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, in_c=st.integers(2, 8), out_c=st.integers(2, 8),
           rank=st.integers(1, 6))
    def test_truncation_error_bounded_by_one(self, seed, in_c, out_c, rank):
        """The relative Frobenius error of a TT-SVD truncation never exceeds ~1."""
        rng = np.random.default_rng(seed)
        w = _array(rng, out_c, in_c, 3, 3)
        cores = tt_decompose_conv(w, rank=rank)
        assert 0.0 <= cores.relative_error <= 1.0 + 1e-6

    @settings(max_examples=12, deadline=None)
    @given(seed=seeds, in_c=st.integers(3, 8), out_c=st.integers(3, 8), rank=st.integers(1, 4))
    def test_ptt_merge_equivalence_property(self, seed, in_c, out_c, rank):
        """For any shape/rank, the merged dense kernel reproduces the PTT forward (stride 1)."""
        rng = np.random.default_rng(seed)
        layer = PTTConv2d(in_c, out_c, 3, rank=rank, rng=rng)
        merged = merge_tt_layer(layer)
        x = Tensor(_array(rng, 1, in_c, 7, 7))
        np.testing.assert_allclose(layer(x).data, merged(x).data, atol=2e-4, rtol=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(in_c=st.integers(8, 256), out_c=st.integers(8, 256), rank=st.integers(1, 32))
    def test_tt_params_fewer_than_dense_when_rank_small(self, in_c, out_c, rank):
        """Whenever r < 3*I*O/(I+O+6r) the TT layer has fewer parameters; check the
        paper's regime (rank well below the channel counts) always compresses."""
        if rank * 4 > min(in_c, out_c):
            return  # outside the compression regime the claim need not hold
        dense = dense_conv_params(in_c, out_c, (3, 3))
        tt = tt_conv_params(in_c, out_c, (3, 3), (rank, rank, rank))
        assert tt < dense

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, rank=st.integers(1, 4))
    def test_stt_and_ptt_same_parameter_count(self, seed, rank):
        rng = np.random.default_rng(seed)
        stt = STTConv2d(6, 10, 3, rank=rank, rng=rng)
        ptt = PTTConv2d(6, 10, 3, rank=rank, rng=rng)
        assert stt.num_parameters() == ptt.num_parameters()


class TestLIFProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, tau=st.floats(0.05, 1.0), threshold=st.floats(0.1, 2.0))
    def test_spikes_always_binary(self, seed, tau, threshold):
        rng = np.random.default_rng(seed)
        lif = LIFNeuron(tau_m=tau, v_threshold=threshold)
        for _ in range(3):
            spikes = lif(Tensor(_array(rng, 2, 6)))
            assert set(np.unique(spikes.data)).issubset({0.0, 1.0})

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_hard_reset_membrane_below_threshold_after_spike(self, seed):
        rng = np.random.default_rng(seed)
        lif = LIFNeuron(tau_m=0.25, v_threshold=0.5, hard_reset=True)
        spikes = lif(Tensor(np.abs(_array(rng, 1, 8)) + 0.6))     # everything spikes
        assert np.all(spikes.data == 1.0)
        assert np.all(lif.membrane_potential.data == 0.0)

    @settings(max_examples=15, deadline=None)
    @given(scale=st.floats(0.0, 0.36))
    def test_never_spikes_below_threshold(self, scale):
        lif = LIFNeuron(tau_m=0.25, v_threshold=0.5)
        current = Tensor(np.full((1, 4), scale, dtype=np.float32))
        total = 0.0
        for _ in range(5):
            total += float(lif(current).data.sum())
        # Steady-state membrane = scale / (1 - tau_m) = scale / 0.75 <= 0.48,
        # strictly below the 0.5 threshold, so no spike may ever fire.
        assert total == 0.0


class TestGraphOptimizerProperties:
    """Replay correctness of the plan-time graph optimizer
    (:mod:`repro.runtime.optimizer`) across random shapes, strides, step
    modes and TT formats."""

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, in_c=st.integers(3, 8), out_c=st.integers(3, 8),
           rank=st.integers(1, 4), size=st.integers(6, 10),
           stride=st.integers(1, 2), stride_mode=st.sampled_from(["first", "last"]),
           variant=st.sampled_from(["stt", "ptt"]))
    def test_tt_layer_o2_replay_matches_eager_forward(self, seed, in_c, out_c, rank,
                                                      size, stride, stride_mode, variant):
        """O2-compiled TT layers reproduce the eager forward for any
        shape/rank/stride/stride-mode combination."""
        from repro.tt.layers import PTTConv2d, STTConv2d

        rng = np.random.default_rng(seed)
        cls = STTConv2d if variant == "stt" else PTTConv2d
        layer = cls(in_c, out_c, 3, rank=rank, stride=stride,
                    stride_mode=stride_mode, rng=rng)
        layer.eval()
        compiled = layer.compile(optimize="O2")
        x = _array(rng, 2, in_c, size, size)
        compiled(x)                       # capture
        replayed = compiled(x)            # optimized replay
        from repro.autograd.tensor import no_grad
        with no_grad():
            want = layer(Tensor(x)).data
        np.testing.assert_allclose(replayed, want, atol=2e-4, rtol=1e-3)

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds, timesteps=st.integers(1, 4), n=st.integers(1, 3),
           size=st.sampled_from([8, 12]), variant=st.sampled_from(["stt", "ptt", "htt"]),
           mode=st.sampled_from(["single", "fused"]))
    def test_o1_train_grads_match_o0_any_shape(self, seed, timesteps, n, size,
                                               variant, mode):
        """One O1-compiled train step reproduces the O0 loss and gradients to
        <= 1e-6 for random batch shapes, timestep counts, formats and step
        modes."""
        from repro.models.vgg import spiking_vgg9
        from repro.models.builder import convert_to_tt
        from repro.training.config import TrainingConfig
        from repro.training.trainer import BPTTTrainer

        rng = np.random.default_rng(seed)
        models = []
        for _ in range(2):
            model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=timesteps,
                                 width_scale=0.1, rng=np.random.default_rng(seed))
            convert_to_tt(model, variant=variant, rank=3, timesteps=timesteps)
            models.append(model)
        models[1].load_state_dict(models[0].state_dict())
        config = TrainingConfig(timesteps=timesteps, batch_size=n, step_mode=mode)
        t_o0 = BPTTTrainer(models[0], config, compile=True, optimize="O0")
        t_o1 = BPTTTrainer(models[1], config, compile=True, optimize="O1")
        data = rng.random((n, 3, size, size)).astype(np.float32)
        labels = rng.integers(0, 4, n)
        for _ in range(2):                # capture step, then one replay
            s0 = t_o0.train_step(data, labels)
            s1 = t_o1.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= 1e-6
        for (name, p0), (_, p1) in zip(models[0].named_parameters(),
                                       models[1].named_parameters()):
            np.testing.assert_allclose(p0.grad, p1.grad, atol=1e-6,
                                       err_msg=f"grad {name}")

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, rows=st.integers(2, 6), cols=st.integers(2, 6),
           depth=st.integers(2, 5))
    def test_random_elementwise_chains_replay_exactly(self, seed, rows, cols, depth):
        """Random unary/binary elementwise chains replay bit-equal at O1."""
        from repro.runtime import CompiledForward

        rng = np.random.default_rng(seed)
        constants = [Tensor(_array(rng, rows, cols)) for _ in range(depth)]
        ops = rng.integers(0, 5, depth)

        def chain(t):
            out = t
            for k in range(depth):
                op = ops[k]
                if op == 0:
                    out = out + constants[k]
                elif op == 1:
                    out = out * constants[k]
                elif op == 2:
                    out = out.tanh()
                elif op == 3:
                    out = (out * 0.5).exp()
                else:
                    out = out.abs() + 0.1
            return out

        compiled = CompiledForward(chain, optimize="O1")
        x = _array(rng, rows, cols)
        compiled(x)
        replayed = compiled(x)
        from repro.autograd.tensor import no_grad
        with no_grad():
            want = chain(Tensor(x)).data
        np.testing.assert_array_equal(replayed, want)

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds, features=st.integers(3, 10), momentum=st.floats(0.01, 0.5),
           gamma_scale=st.floats(0.5, 2.0))
    def test_bn_fold_matches_unfolded_eval(self, seed, features, momentum, gamma_scale):
        """Eval-BN folding into the preceding convolution stays within 1e-6 of
        the unfolded replay for random statistics and affine parameters."""
        from repro.nn.layers import Conv2d, batch_norm_sequence
        from repro.runtime import CompiledForward
        from repro.autograd.tensor import no_grad

        rng = np.random.default_rng(seed)
        conv = Conv2d(3, features, kernel_size=3, padding=1, rng=rng)
        running_mean = rng.standard_normal(features).astype(np.float32)
        running_var = (0.5 + rng.random(features)).astype(np.float32)
        weight = Tensor((1 + 0.2 * rng.standard_normal(features)).astype(np.float32))
        bias = Tensor(rng.standard_normal(features).astype(np.float32))

        def fn(t):
            folded = conv.forward_sequence(t)
            return batch_norm_sequence(folded, weight, bias, eps=1e-5,
                                       momentum=momentum, training=False,
                                       running_mean=running_mean,
                                       running_var=running_var,
                                       gamma_scale=gamma_scale)

        x = rng.random((2, 2, 6, 6, 3)).astype(np.float32)
        compiled = CompiledForward(fn, optimize="O2")
        compiled(x)
        replayed = compiled(x)
        with no_grad():
            want = fn(Tensor(x)).data
        # Folded float32 conv weights reassociate the scale multiply, so the
        # replay can drift a few ulp past 1e-6 for large gamma_scale values.
        np.testing.assert_allclose(replayed, want, atol=1e-5, rtol=1e-5)
