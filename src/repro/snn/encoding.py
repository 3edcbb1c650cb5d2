"""Input encoders: static pixels or event frames -> per-timestep SNN inputs.

The paper uses *direct coding* (Wu et al., 2019) for static CIFAR images: the
float image is fed to the first (non-decomposed) convolution at every
timestep, and that layer's LIF neurons produce the first spike trains.  For
dynamic datasets (N-Caltech101, DVS Gesture) the input already is a sequence
of event frames, one per timestep, so the encoder simply validates and
forwards them.

The trainer, evaluation, the data-parallel workers and the inference engine
leave direct coding to the model: :func:`prepare_batch` keeps static images
4-D, and :meth:`~repro.models.base.SpikingModel.run_images` runs the
time-invariant stem once on them instead of on ``T`` identical copies.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor

__all__ = [
    "DirectEncoder",
    "RepeatEncoder",
    "PoissonEncoder",
    "EventFrameEncoder",
    "encode_batch",
    "prepare_batch",
]


class DirectEncoder:
    """Direct coding: repeat the analog image across ``timesteps``.

    Output shape is ``(T, N, C, H, W)``.  The conversion to spikes happens in
    the first convolution + LIF stage of the network (the paper's "direct
    coding" scheme), so the encoder itself performs no binarisation.  The
    explicit copies are for callers that need the sequence itself (an
    augmentation, :meth:`~repro.models.base.SpikingModel.run_timesteps`);
    models run static images cheaper through
    :meth:`~repro.models.base.SpikingModel.run_images`, which computes the
    time-invariant stem once.
    """

    def __init__(self, timesteps: int):
        if timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {timesteps}")
        self.timesteps = timesteps

    def __call__(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) images, got shape {images.shape}")
        return np.broadcast_to(images, (self.timesteps,) + images.shape).copy()


# Direct coding is "repeat the image T times"; keep an explicit alias so model
# code can express intent (RepeatEncoder) or match the paper's wording
# (DirectEncoder) interchangeably.
RepeatEncoder = DirectEncoder


def encode_batch(data: np.ndarray, timesteps: int) -> np.ndarray:
    """Shape one training batch for the timestep engines.

    Static ``(N, C, H, W)`` images are direct-coded (repeated ``T`` times);
    ``(T', N, C, H, W)`` event sequences are truncated or padded (by tiling
    the last frame) to exactly ``timesteps`` frames.  Returns a contiguous
    ``(T, N, C, H, W)`` array, which both the single-step loop and the fused
    batch-folding engine consume directly.  Static images that need no
    per-timestep augmentation are cheaper through :func:`prepare_batch`.
    """
    data = np.asarray(data, dtype=np.float32)
    if data.ndim == 4:
        return DirectEncoder(timesteps)(data)
    if data.ndim == 5:
        return EventFrameEncoder(timesteps)(data)
    raise ValueError(f"unsupported batch shape {data.shape}")


def prepare_batch(data: np.ndarray, timesteps: int,
                  augment: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
    """Shape one batch for :meth:`~repro.models.base.SpikingModel.run_batch`.

    Static ``(N, C, H, W)`` images without an ``augment`` stay 4-D: the model
    direct-codes them itself (:meth:`~repro.models.base.SpikingModel.run_images`)
    and simulates its own ``timesteps``.  Anything else — event sequences, or
    images an augmentation must see as ``(T, N, C, H, W)`` — goes through
    :func:`encode_batch` and then ``augment``.
    """
    data = np.asarray(data, dtype=np.float32)
    if data.ndim == 4 and augment is None:
        return data
    batch = encode_batch(data, timesteps)
    return batch if augment is None else augment(batch)


class PoissonEncoder:
    """Poisson rate coding: pixel intensity -> Bernoulli spike probability.

    Provided for completeness / ablations; the paper itself uses direct
    coding, which trains better at small timestep counts.
    """

    def __init__(self, timesteps: int, gain: float = 1.0, seed: Optional[int] = None):
        if timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {timesteps}")
        self.timesteps = timesteps
        self.gain = gain
        self._rng = np.random.default_rng(seed)

    def __call__(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=np.float32)
        if images.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) images, got shape {images.shape}")
        probability = np.clip(images * self.gain, 0.0, 1.0)
        draws = self._rng.random((self.timesteps,) + images.shape)
        return (draws < probability).astype(np.float32)


class EventFrameEncoder:
    """Pass-through encoder for event-camera data already shaped ``(T, N, C, H, W)``.

    Validates the timestep count and optionally truncates / tiles the
    sequence so that datasets recorded with more frames than the training
    timestep count can still be used.
    """

    def __init__(self, timesteps: int):
        if timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {timesteps}")
        self.timesteps = timesteps

    def __call__(self, frames: np.ndarray) -> np.ndarray:
        frames = np.asarray(frames, dtype=np.float32)
        if frames.ndim != 5:
            raise ValueError(f"expected (T, N, C, H, W) event frames, got shape {frames.shape}")
        available = frames.shape[0]
        if available == self.timesteps:
            return frames
        if available > self.timesteps:
            return frames[: self.timesteps]
        # Tile the last frame to pad short recordings.
        pad = np.repeat(frames[-1:], self.timesteps - available, axis=0)
        return np.concatenate([frames, pad], axis=0)
