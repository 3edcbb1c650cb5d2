"""Tests for datasets, loaders, synthetic generators and transforms."""

import numpy as np
import pytest

from repro.data.datasets import ArrayDataset, DataLoader, EventDataset
from repro.data.synthetic import (
    SyntheticCIFAR10,
    SyntheticDVSGesture,
    SyntheticNCaltech101,
    make_event_dataset,
    make_static_image_dataset,
)
from repro.data.transforms import Compose, Normalize, RandomCrop, RandomHorizontalFlip


class TestArrayDataset:
    def test_basic_access(self, rng):
        images = rng.random((10, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 3, 10)
        ds = ArrayDataset(images, labels)
        image, label = ds[4]
        assert image.shape == (3, 8, 8)
        assert isinstance(label, int)
        assert len(ds) == 10
        assert ds.num_classes == labels.max() + 1

    def test_transform_applied(self, rng):
        ds = ArrayDataset(np.ones((4, 1, 4, 4), dtype=np.float32), np.zeros(4),
                          transform=lambda x: x * 2)
        assert ds[0][0].max() == pytest.approx(2.0)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(np.ones((4, 4, 4)), np.zeros(4))
        with pytest.raises(ValueError):
            ArrayDataset(np.ones((4, 1, 4, 4)), np.zeros(5))


class TestEventDataset:
    def test_access_and_props(self, rng):
        frames = rng.random((6, 3, 2, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 2, 6)
        ds = EventDataset(frames, labels)
        sample, _ = ds[0]
        assert sample.shape == (3, 2, 8, 8)
        assert ds.timesteps == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            EventDataset(np.ones((4, 2, 8, 8)), np.zeros(4))


class TestDataLoader:
    def test_batches_cover_dataset(self, rng):
        ds = ArrayDataset(rng.random((10, 1, 4, 4)).astype(np.float32), np.arange(10) % 3)
        loader = DataLoader(ds, batch_size=4, shuffle=False)
        batches = list(loader)
        assert len(batches) == 3 == len(loader)
        assert sum(len(labels) for _, labels in batches) == 10

    def test_drop_last(self, rng):
        ds = ArrayDataset(rng.random((10, 1, 4, 4)).astype(np.float32), np.zeros(10))
        loader = DataLoader(ds, batch_size=4, shuffle=False, drop_last=True)
        assert len(list(loader)) == 2

    def test_shuffle_is_seeded(self, rng):
        ds = ArrayDataset(rng.random((10, 1, 4, 4)).astype(np.float32), np.arange(10))
        loads = [np.concatenate([labels for _, labels in DataLoader(ds, 4, shuffle=True, seed=3)])
                 for _ in range(2)]
        np.testing.assert_array_equal(loads[0], loads[1])

    def test_event_batches_are_time_major(self, rng):
        frames = rng.random((6, 3, 2, 8, 8)).astype(np.float32)
        ds = EventDataset(frames, np.zeros(6))
        data, labels = next(iter(DataLoader(ds, batch_size=2, shuffle=False)))
        assert data.shape == (3, 2, 2, 8, 8)       # (T, N, C, H, W)

    def test_invalid_batch_size(self, rng):
        ds = ArrayDataset(rng.random((4, 1, 4, 4)).astype(np.float32), np.zeros(4))
        with pytest.raises(ValueError):
            DataLoader(ds, batch_size=0)


class TestDataLoaderEpochs:
    def _dataset(self, rng, n=22):
        return ArrayDataset(rng.random((n, 1, 4, 4)).astype(np.float32),
                            np.arange(n) % 3)

    def test_set_epoch_reproduces_order_across_instances(self, rng):
        ds = self._dataset(rng)
        a = DataLoader(ds, batch_size=4, shuffle=True, seed=9)
        b = DataLoader(ds, batch_size=4, shuffle=True, seed=9)
        a.set_epoch(3)
        b.set_epoch(3)
        for (_, la), (_, lb) in zip(a, b):
            np.testing.assert_array_equal(la, lb)

    def test_epochs_differ_without_set_epoch(self, rng):
        ds = self._dataset(rng)
        loader = DataLoader(ds, batch_size=22, shuffle=True, seed=1)
        first = next(iter(loader))[1]
        second = next(iter(loader))[1]
        assert not np.array_equal(first, second)


class TestSyntheticGenerators:
    def test_static_dataset_properties(self):
        ds = make_static_image_dataset(40, 5, channels=3, height=16, width=16, seed=1)
        assert ds.images.shape == (40, 3, 16, 16)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert set(np.unique(ds.labels)) == set(range(5))

    def test_static_dataset_deterministic(self):
        a = make_static_image_dataset(10, 3, seed=7)
        b = make_static_image_dataset(10, 3, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_static_classes_are_distinguishable(self):
        """Class means must differ far more than within-class noise (learnable signal)."""
        ds = make_static_image_dataset(60, 3, height=16, width=16, noise=0.2, seed=0)
        means = [ds.images[ds.labels == c].mean(axis=0) for c in range(3)]
        between = np.mean([np.abs(means[0] - means[1]).mean(), np.abs(means[1] - means[2]).mean()])
        within = np.mean([ds.images[ds.labels == c].std(axis=0).mean() for c in range(3)])
        assert between > within * 0.5

    def test_event_dataset_properties(self):
        ds = make_event_dataset(20, 4, timesteps=5, channels=2, height=16, width=16, seed=2)
        assert ds.frames.shape == (20, 5, 2, 16, 16)
        assert set(np.unique(ds.frames)).issubset({0.0, 1.0})

    def test_event_timesteps_carry_distinct_information(self):
        """Dynamic data: frames must differ across timesteps (the property HTT suffers from)."""
        ds = make_event_dataset(8, 4, timesteps=4, height=16, width=16, seed=0)
        sample = ds.frames[0]
        differences = [np.abs(sample[t] - sample[t + 1]).mean() for t in range(3)]
        assert all(d > 0.01 for d in differences)

    def test_named_dataset_classes(self):
        assert SyntheticCIFAR10(num_samples=20).num_classes == 10
        assert SyntheticNCaltech101(num_samples=101, num_classes=101).timesteps == 6
        assert SyntheticDVSGesture(num_samples=11, num_classes=11).frames.shape[2] == 2

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            make_static_image_dataset(3, 10)


class TestTransforms:
    def test_normalize(self):
        image = np.ones((3, 4, 4), dtype=np.float32)
        out = Normalize([0.5, 0.5, 0.5], [0.5, 0.5, 0.5])(image)
        np.testing.assert_allclose(out, np.ones_like(image))

    def test_normalize_rejects_zero_std(self):
        with pytest.raises(ValueError):
            Normalize([0.0], [0.0])

    def test_flip(self, rng):
        image = rng.random((1, 4, 4)).astype(np.float32)
        flipped = RandomHorizontalFlip(p=1.0)(image)
        np.testing.assert_array_equal(flipped, image[..., ::-1])

    def test_crop_preserves_shape(self, rng):
        image = rng.random((3, 16, 16)).astype(np.float32)
        assert RandomCrop(padding=2, seed=0)(image).shape == (3, 16, 16)

    def test_compose(self, rng):
        image = rng.random((1, 8, 8)).astype(np.float32)
        pipeline = Compose([RandomHorizontalFlip(p=0.0), RandomCrop(padding=0)])
        np.testing.assert_array_equal(pipeline(image), image)
