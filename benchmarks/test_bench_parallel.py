"""Benchmark for data-parallel training (:mod:`repro.parallel`).

``DataParallelTrainer`` replays the compiled O1 train plan in N worker
processes over deterministic batch shards and all-reduces gradients through
shared memory, so the wall-clock win has to survive the synchronisation
overhead (weight broadcast, gradient tree-reduce, one optimizer step on the
coordinator).  This file asserts the headline guarantees:

* **throughput** — 2 workers step at least **1.5x** the single-process
  ``BPTTTrainer`` rate on VGG-9 ``T = 4`` (interleaved A/B medians; skipped
  on single-core machines where there is nothing to parallelise over);
* **parity**     — losses and reduced gradients match the single-process
  trainer to **1e-6** at the identical effective batch;
* **elasticity** — a run killed mid-epoch resumes from its checkpoint to
  the exact uninterrupted loss sequence.

Numbers are recorded to ``BENCH_parallel.json`` (see ``tools/bench_check.py
--fresh``), keeping the data-parallel metrics separate from the runtime
sink so either suite can regenerate alone.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.data.datasets import DataLoader
from repro.data.synthetic import make_static_image_dataset
from repro.models.vgg import spiking_vgg9
from repro.parallel import DataParallelTrainer
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

from conftest import BENCH_PARALLEL_JSON, BENCH_SCALE, median_speedup, record_bench

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(not FORK_AVAILABLE,
                                reason="data-parallel pool needs fork start method")

TIMESTEPS = 4
TRAIN_BATCH = 32          # enough per-step compute that the shard forwards
                          # dominate the per-step synchronisation overhead


def _make_model(width_scale: float = BENCH_SCALE["width_scale"],
                timesteps: int = TIMESTEPS):
    # norm="none": BN computes per-shard batch statistics (standard DDP
    # semantics), which breaks exact parity with one monolithic batch; the
    # parity benchmark therefore uses a normalisation-free model.
    return spiking_vgg9(num_classes=BENCH_SCALE["num_classes"], in_channels=3,
                        timesteps=timesteps, width_scale=width_scale,
                        norm="none", rng=np.random.default_rng(0))


def _make_batch(n: int, batch_size: int):
    ds = make_static_image_dataset(n, BENCH_SCALE["num_classes"],
                                   height=BENCH_SCALE["image_size"],
                                   width=BENCH_SCALE["image_size"], seed=0)
    return next(iter(DataLoader(ds, batch_size=batch_size, shuffle=False)))


def test_two_worker_throughput_vs_single_process():
    """2-worker data-parallel step rate >= 1.5x the single-process trainer."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("data-parallel speedup needs >= 2 CPU cores")
    data, labels = _make_batch(TRAIN_BATCH, TRAIN_BATCH)
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=TRAIN_BATCH,
                            learning_rate=0.05, seed=0)
    single = BPTTTrainer(_make_model(), config, compile=True)
    single.train_step(data, labels)          # warm-up: capture
    single.train_step(data, labels)          # first replay
    with DataParallelTrainer(_make_model(), config, num_workers=2) as dp:
        dp.train_step(data, labels)          # warm-up: fork + capture
        dp.train_step(data, labels)
        speedup, single_s, dp_s = median_speedup(
            lambda: single.train_step(data, labels),
            lambda: dp.train_step(data, labels),
            calls=3, trials=7, attempts=4)
        utilization = dp.utilization()
    print(f"\nVGG-9 T={TIMESTEPS} N={TRAIN_BATCH} data-parallel train step: "
          f"single {single_s * 1e3:.1f} ms, 2 workers {dp_s * 1e3:.1f} ms, "
          f"speedup {speedup:.2f}x, utilization {utilization}")
    record_bench("parallel_train_throughput", {
        "model": "vgg9", "timesteps": TIMESTEPS, "batch": TRAIN_BATCH,
        "workers": 2, "single_step_ms": single_s * 1e3,
        "dp2_step_ms": dp_s * 1e3, "speedup_vs_single_process": speedup,
    }, path=BENCH_PARALLEL_JSON)
    assert speedup >= 1.5, (
        f"2-worker data-parallel step must be >= 1.5x single-process, "
        f"got {speedup:.2f}x")


def test_loss_and_gradient_parity_with_single_process():
    """Losses and reduced gradients match the single process to 1e-6."""
    batch = 8
    data, labels = _make_batch(24, batch)
    config = TrainingConfig(timesteps=2, batch_size=batch,
                            learning_rate=0.05, seed=0)
    single = BPTTTrainer(_make_model(width_scale=0.1, timesteps=2), config,
                         compile=True)
    with DataParallelTrainer(_make_model(width_scale=0.1, timesteps=2),
                             config, num_workers=2) as dp:
        loss_diff = grad_diff = 0.0
        for _ in range(3):
            ref = single.train_step(data, labels)
            par = dp.train_step(data, labels)
            loss_diff = max(loss_diff, abs(ref["loss"] - par["loss"]))
        for (name, p_ref), (_, p_par) in zip(single.model.named_parameters(),
                                             dp.model.named_parameters()):
            if p_ref.grad is not None:
                grad_diff = max(grad_diff,
                                float(np.abs(p_ref.grad - p_par.grad).max()))
    print(f"\ndata-parallel parity over 3 steps: max |loss delta| "
          f"{loss_diff:.2e}, max |grad delta| {grad_diff:.2e}")
    record_bench("parallel_train_parity", {
        "workers": 2, "steps": 3, "effective_batch": batch,
        "loss_parity_max_abs": loss_diff, "grad_parity_max_abs": grad_diff,
    }, path=BENCH_PARALLEL_JSON)
    assert loss_diff <= 1e-6
    assert grad_diff <= 1e-6


def test_kill_and_resume_reproduces_loss_sequence(tmp_path):
    """A mid-epoch kill + checkpoint resume replays the exact loss curve."""
    ds = make_static_image_dataset(24, BENCH_SCALE["num_classes"],
                                   height=BENCH_SCALE["image_size"],
                                   width=BENCH_SCALE["image_size"], seed=3)
    config = TrainingConfig(timesteps=2, batch_size=8, epochs=2,
                            learning_rate=0.05, seed=3)
    path = str(tmp_path / "bench.ckpt")

    def build():
        return DataParallelTrainer(_make_model(width_scale=0.1, timesteps=2),
                                   config, num_workers=2, train_dataset=ds)

    with build() as reference:
        reference.fit(epochs=2)

    killed = build()
    killed.train_epoch(0)
    killed.train_epoch(1, max_batches=1)
    killed.save_checkpoint(path)
    prefix = list(killed.step_loss_history)
    killed._pool.kill()                      # simulated crash, no handshake

    resumed = build()
    resumed.load_checkpoint(path)
    with resumed:
        resumed.fit(epochs=2)
    curve = prefix + resumed.step_loss_history
    assert curve == reference.step_loss_history, \
        "resumed loss sequence diverged from the uninterrupted run"
    print(f"\nkill/resume: {len(prefix)} steps before the kill, "
          f"{len(resumed.step_loss_history)} after; "
          f"{len(curve)}-step curve reproduced exactly")
