"""Tests for the STT / PTT / HTT convolution modules."""

import numpy as np
import pytest

from repro.autograd.conv import conv2d
from repro.autograd.tensor import Tensor
from repro.runtime.graph import GraphCapture
from repro.tt.decomposition import max_tt_ranks
from repro.tt.layers import HTTConv2d, PTTConv2d, STTConv2d, parse_htt_schedule


class TestConstruction:
    def test_sub_convolution_shapes(self):
        layer = PTTConv2d(16, 32, 3, rank=5)
        assert layer.conv1.weight.shape == (5, 16, 1, 1)
        assert layer.conv2.weight.shape == (5, 5, 3, 1)
        assert layer.conv3.weight.shape == (5, 5, 1, 3)
        assert layer.conv4.weight.shape == (32, 5, 1, 1)

    def test_parameter_count_formula(self):
        i, o, r = 16, 32, 5
        layer = STTConv2d(i, o, 3, rank=r)
        expected = r * i + 3 * r * r + 3 * r * r + o * r
        assert layer.num_parameters() == expected

    def test_rank_clipped_to_channels(self):
        layer = PTTConv2d(4, 4, 3, rank=64)
        assert max(layer.ranks) <= max(max_tt_ranks(4, 4, (3, 3)))
        assert layer.ranks[0] == layer.ranks[1] == layer.ranks[2]

    def test_rejects_invalid_rank(self):
        with pytest.raises(ValueError):
            STTConv2d(8, 8, 3, rank=0)
        with pytest.raises(ValueError):
            STTConv2d(8, 8, 3, rank=(2, 2))

    def test_rejects_non_square_kernel(self):
        with pytest.raises(ValueError):
            PTTConv2d(8, 8, (3, 5), rank=2)

    def test_rejects_bad_stride_mode(self):
        with pytest.raises(ValueError):
            PTTConv2d(8, 8, 3, rank=2, stride_mode="middle")


class TestForwardShapes:
    @pytest.mark.parametrize("cls", [STTConv2d, PTTConv2d])
    def test_output_shape_matches_dense(self, cls, rng):
        layer = cls(6, 12, 3, rank=4)
        x = Tensor(rng.standard_normal((2, 6, 10, 10)).astype(np.float32))
        assert layer(x).shape == (2, 12, 10, 10)

    @pytest.mark.parametrize("stride_mode", ["first", "last"])
    def test_strided_output_shape(self, rng, stride_mode):
        layer = PTTConv2d(6, 12, 3, rank=4, stride=2, stride_mode=stride_mode)
        x = Tensor(rng.standard_normal((1, 6, 8, 8)).astype(np.float32))
        assert layer(x).shape == (1, 12, 4, 4)

    def test_gradients_reach_all_cores(self, rng):
        layer = PTTConv2d(4, 6, 3, rank=3)
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        layer(x).sum().backward()
        for conv in layer.sub_convolutions():
            assert conv.weight.grad is not None
            assert np.any(conv.weight.grad != 0)


class TestDenseInitialisation:
    def test_stt_from_full_rank_dense_matches_dense_conv(self, rng):
        """With full TT-ranks, the STT chain reproduces the dense convolution exactly."""
        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        layer = STTConv2d(6, 8, 3, rank=max(max_tt_ranks(6, 8, (3, 3))), dense_weight=w)
        x = Tensor(rng.standard_normal((2, 6, 9, 9)).astype(np.float32))
        dense_out = conv2d(x, Tensor(w), padding=1)
        np.testing.assert_allclose(layer(x).data, dense_out.data, atol=1e-3)

    def test_truncated_init_is_approximation(self, rng):
        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        layer = STTConv2d(6, 8, 3, rank=2, dense_weight=w)
        x = Tensor(rng.standard_normal((1, 6, 9, 9)).astype(np.float32))
        dense_out = conv2d(x, Tensor(w), padding=1)
        # Not exact, but correlated (the decomposition keeps the top singular directions).
        error = np.abs(layer(x).data - dense_out.data).mean()
        assert 0 < error < np.abs(dense_out.data).mean() * 2

    def test_load_dense_weight_shape_check(self, rng):
        layer = STTConv2d(6, 8, 3, rank=2)
        with pytest.raises(ValueError):
            layer.load_dense_weight(rng.standard_normal((8, 7, 3, 3)))

    def test_extract_cores_round_trip(self, rng):
        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        layer = STTConv2d(6, 8, 3, rank=3, dense_weight=w)
        cores = layer.extract_cores()
        assert cores.w1.shape == (6, 3)
        assert cores.w4.shape == (3, 8)
        layer2 = STTConv2d(6, 8, 3, rank=3)
        layer2.load_cores(cores)
        x = Tensor(rng.standard_normal((1, 6, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(layer(x).data, layer2(x).data, atol=1e-5)


class TestPTTSemantics:
    def test_ptt_branches_share_first_output(self, rng):
        """Eq. 5: both asymmetric kernels consume conv1's output; the sum feeds conv4."""
        layer = PTTConv2d(4, 4, 3, rank=2)
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        shared = layer.conv1(x)
        manual = layer.conv4(layer.conv2(shared) + layer.conv3(shared))
        np.testing.assert_allclose(layer(x).data, manual.data, atol=1e-5)

    def test_ptt_differs_from_stt_wiring(self, rng):
        """The same cores wired sequentially vs in parallel give different outputs."""
        w = rng.standard_normal((8, 8, 3, 3)).astype(np.float32)
        stt = STTConv2d(8, 8, 3, rank=4, dense_weight=w)
        ptt = PTTConv2d(8, 8, 3, rank=4, dense_weight=w)
        x = Tensor(rng.standard_normal((1, 8, 7, 7)).astype(np.float32))
        assert not np.allclose(stt(x).data, ptt(x).data, atol=1e-3)


class TestHTT:
    def test_schedule_parsing(self):
        assert parse_htt_schedule("FFHH") == [False, False, True, True]
        assert parse_htt_schedule([True, False]) == [True, False]
        with pytest.raises(ValueError):
            parse_htt_schedule("FFXH")
        assert parse_htt_schedule(None, 5) == [False, False, False, True, True]
        assert parse_htt_schedule("HF", 2) == [True, False]
        with pytest.raises(ValueError):
            parse_htt_schedule("FFH", 4)
        with pytest.raises(ValueError):
            parse_htt_schedule(None)

    def test_default_schedule_half_late(self):
        layer = HTTConv2d(4, 4, 3, rank=2, timesteps=4)
        assert layer.schedule == [False, False, True, True]

    def test_schedule_length_validated(self):
        with pytest.raises(ValueError):
            HTTConv2d(4, 4, 3, rank=2, timesteps=4, schedule="FFH")

    def test_half_timesteps_use_short_path(self, rng):
        layer = HTTConv2d(4, 6, 3, rank=3, timesteps=2, schedule="FH")
        x = Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))
        full_out = layer(x)                          # t=0: full PTT path
        half_out = layer(x)                          # t=1: conv1 -> conv4 only
        manual_half = layer.conv4(layer.conv1(x))
        np.testing.assert_allclose(half_out.data, manual_half.data, atol=1e-5)
        assert not np.allclose(full_out.data, half_out.data, atol=1e-4)

    def test_reset_time_restarts_schedule(self, rng):
        layer = HTTConv2d(4, 4, 3, rank=2, timesteps=2, schedule="FH")
        x = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
        first = layer(x)
        layer(x)
        layer.reset_time()
        again = layer(x)
        np.testing.assert_allclose(first.data, again.data, atol=1e-6)

    def test_timestep_counter_saturates(self, rng):
        layer = HTTConv2d(4, 4, 3, rank=2, timesteps=2, schedule="FH")
        x = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
        for _ in range(5):       # more calls than timesteps must not crash
            layer(x)
        assert layer.half_timestep(10) is True

    @pytest.mark.parametrize("schedule, crosses", [("FFHH", 1), ("FFFF", 1), ("HHHH", 0),
                                                   ("FHFH", 1), ("FFFHHH", 1)])
    def test_sequence_wiring_runs_each_op_once(self, rng, schedule, crosses):
        """conv1, the cross and conv4 run once over all T, with no slice or join.

        The half steps pass through inside the one ``cross_conv`` node; with no
        full step there is no cross on the tape at all.
        """
        timesteps = len(schedule)
        layer = HTTConv2d(4, 6, 3, rank=3, timesteps=timesteps, schedule=schedule)
        x_seq = Tensor(rng.standard_normal((timesteps, 2, 5, 5, 4)).astype(np.float32),
                       requires_grad=True)
        with GraphCapture() as capture:
            layer.forward_sequence(x_seq)
        ops = [node.op for node in capture.nodes]
        assert ops.count("cross_conv") == crosses
        assert "getitem" not in ops and "concatenate" not in ops
        fn_classes = [node.attrs["cls"].__name__ for node in capture.nodes if node.op == "fn"]
        assert fn_classes == ["ConvChannelsLastFunction"] * 2

    def test_invalid_timesteps(self):
        with pytest.raises(ValueError):
            HTTConv2d(4, 4, 3, rank=2, timesteps=0)
