"""Tests for the post-training merge of TT cores into dense kernels (Eq. 6)."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.models.builder import convert_to_tt, count_tt_layers
from repro.models.resnet import spiking_resnet18
from repro.nn.layers import Conv2d
from repro.tt.layers import HTTConv2d, PTTConv2d, STTConv2d
from repro.tt.reconstruct import merge_model, merge_tt_layer, reconstruct_dense_weight


class TestReconstructWeight:
    def test_ptt_reconstruction_is_cross_shaped(self, rng):
        layer = PTTConv2d(4, 6, 3, rank=3)
        dense = reconstruct_dense_weight(layer)
        assert dense.shape == (6, 4, 3, 3)
        # The four corners of the 3x3 kernel must be exactly zero (Fig. 1c).
        corners = dense[:, :, [0, 0, 2, 2], [0, 2, 0, 2]]
        np.testing.assert_array_equal(corners, np.zeros_like(corners))
        # The cross positions are generically non-zero.
        assert np.abs(dense[:, :, 1, 1]).sum() > 0

    def test_stt_reconstruction_matches_decomposed_weight(self, rng):
        from repro.tt.decomposition import max_tt_ranks

        w = rng.standard_normal((8, 6, 3, 3)).astype(np.float32)
        layer = STTConv2d(6, 8, 3, rank=max(max_tt_ranks(6, 8, (3, 3))), dense_weight=w)
        np.testing.assert_allclose(reconstruct_dense_weight(layer), w, atol=1e-3)

    def test_htt_uses_parallel_reconstruction(self, rng):
        layer = HTTConv2d(4, 6, 3, rank=3, timesteps=4)
        dense = reconstruct_dense_weight(layer)
        corners = dense[:, :, [0, 0, 2, 2], [0, 2, 0, 2]]
        np.testing.assert_array_equal(corners, np.zeros_like(corners))

    def test_rejects_unknown_layer_type(self):
        with pytest.raises(TypeError):
            reconstruct_dense_weight(Conv2d(3, 3, 3))


class TestMergeEquivalence:
    """Algorithm 1 lines 20-22: the merged dense conv must act like the TT module."""

    def test_ptt_merge_exact_for_stride_one(self, rng):
        layer = PTTConv2d(5, 7, 3, rank=4)
        merged = merge_tt_layer(layer)
        x = Tensor(rng.standard_normal((2, 5, 9, 9)).astype(np.float32))
        np.testing.assert_allclose(layer(x).data, merged(x).data, atol=1e-4)

    def test_stt_merge_exact_for_stride_one(self, rng):
        layer = STTConv2d(5, 7, 3, rank=4)
        merged = merge_tt_layer(layer)
        x = Tensor(rng.standard_normal((2, 5, 9, 9)).astype(np.float32))
        np.testing.assert_allclose(layer(x).data, merged(x).data, atol=1e-4)

    def test_merge_exact_for_strided_layer_in_last_mode(self, rng):
        """stride_mode='last' keeps the merge exact even with stride 2."""
        layer = PTTConv2d(5, 7, 3, rank=4, stride=2, stride_mode="last")
        merged = merge_tt_layer(layer)
        x = Tensor(rng.standard_normal((1, 5, 8, 8)).astype(np.float32))
        np.testing.assert_allclose(layer(x).data, merged(x).data, atol=1e-4)

    def test_merged_layer_configuration(self):
        layer = PTTConv2d(5, 7, 3, rank=4, stride=2)
        merged = merge_tt_layer(layer)
        assert isinstance(merged, Conv2d)
        assert merged.stride == (2, 2)
        assert merged.padding == (1, 1)
        assert merged.kernel_size == (3, 3)

    def test_htt_merge_matches_full_path(self, rng):
        """HTT merges its full (PTT) path; a schedule with half steps is refused."""
        layer = HTTConv2d(5, 7, 3, rank=4, timesteps=2, schedule="FF")
        merged = merge_tt_layer(layer)
        x = Tensor(rng.standard_normal((1, 5, 9, 9)).astype(np.float32))
        layer.reset_time()
        for _ in range(2):
            np.testing.assert_allclose(layer(x).data, merged(x).data, atol=1e-4)

        with pytest.raises(ValueError, match="'FH'"):
            merge_tt_layer(HTTConv2d(5, 7, 3, rank=4, timesteps=2, schedule="FH"))


class TestMergeModel:
    def test_merge_model_replaces_all_tt_layers(self):
        model = spiking_resnet18(num_classes=4, in_channels=3, timesteps=2, width_scale=0.07,
                                 rng=np.random.default_rng(0))
        replaced = convert_to_tt(model, variant="ptt", rank=4)
        assert count_tt_layers(model) == len(replaced) == 16
        merged = merge_model(model)
        assert merged == 16
        assert count_tt_layers(model) == 0

    def test_merged_model_still_runs(self, rng):
        model = spiking_resnet18(num_classes=4, in_channels=3, timesteps=2, width_scale=0.07,
                                 rng=np.random.default_rng(0))
        convert_to_tt(model, variant="ptt", rank=4)
        inputs = rng.random((2, 2, 3, 12, 12)).astype(np.float32)
        before = model.run_timesteps(inputs)
        merge_model(model)
        after = model.run_timesteps(inputs)
        assert after[0].shape == before[0].shape

    def test_merge_model_on_dense_model_is_noop(self):
        model = spiking_resnet18(num_classes=4, in_channels=3, timesteps=2, width_scale=0.07)
        assert merge_model(model) == 0
