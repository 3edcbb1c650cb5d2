"""Tests for data-parallel training: shm primitives, pool, trainer, search fan-out."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.data.datasets import DataLoader
from repro.data.synthetic import make_event_dataset, make_static_image_dataset
from repro.models.resnet import spiking_resnet18
from repro.parallel import (
    DataParallelTrainer,
    ParamBlock,
    SharedArray,
    WorkerCrashError,
    WorkerPool,
    split_batch,
    tree_reduce_rows,
)
from repro.training.checkpoint import load_training_state, save_training_state
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(not FORK_AVAILABLE,
                                reason="data-parallel pool needs fork start method")


def tiny_model(seed: int = 0):
    # norm="none": BN computes per-shard batch statistics, which is standard
    # DDP semantics but breaks exact parity with one monolithic batch; the
    # parity tests therefore use a normalisation-free model.
    return spiking_resnet18(num_classes=4, in_channels=3, timesteps=2,
                            width_scale=0.07, norm="none",
                            rng=np.random.default_rng(seed))


def tiny_config(**overrides):
    defaults = dict(timesteps=2, epochs=2, batch_size=8, learning_rate=0.05, seed=3)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture
def static_ds():
    return make_static_image_dataset(num_samples=24, num_classes=4, channels=3,
                                     height=12, width=12, seed=7)


def assert_no_segment(name: str) -> None:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    seg.close()
    raise AssertionError(f"shared-memory segment {name} was orphaned")


class TestShmPrimitives:
    def test_tree_reduce_matches_sum(self):
        rng = np.random.default_rng(0)
        for count in (1, 2, 3, 4, 5, 8):
            matrix = rng.standard_normal((count, 17))
            expected = matrix.sum(axis=0)
            reduced = tree_reduce_rows(matrix.copy(), count)
            np.testing.assert_allclose(reduced, expected, rtol=1e-12)

    def test_tree_reduce_deterministic_bits(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((4, 33))
        a = tree_reduce_rows(matrix.copy(), 4)
        b = tree_reduce_rows(matrix.copy(), 4)
        assert np.array_equal(a, b)

    def test_param_block_round_trip(self):
        model = tiny_model()
        params = [p for p in model.parameters() if p.requires_grad]
        block = ParamBlock((n, p) for n, p in model.named_parameters()
                           if p.requires_grad)
        flat = np.zeros(block.total)
        block.write_params(flat, params)
        originals = [p.data.copy() for p in params]
        for p in params:
            p.data[...] = 0.0
        block.read_params(flat, params)
        for p, original in zip(params, originals):
            assert np.array_equal(p.data, original)
            assert p.data.dtype == original.dtype

    def test_accumulate_and_assign_grads(self):
        model = tiny_model()
        params = [p for p in model.parameters() if p.requires_grad]
        block = ParamBlock((n, p) for n, p in model.named_parameters()
                           if p.requires_grad)
        rng = np.random.default_rng(2)
        for p in params:
            p.grad = rng.standard_normal(p.data.shape).astype(p.data.dtype)
        row = np.zeros(block.total)
        block.accumulate_grads(row, params, 0.5)
        block.accumulate_grads(row, params, 0.5)
        reference = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        block.assign_grads(row, params)
        for p, ref in zip(params, reference):
            np.testing.assert_allclose(p.grad, ref, rtol=1e-6)
            assert p.grad.dtype == p.data.dtype

    def test_shared_array_create_attach_unlink(self):
        owner = SharedArray.create("test", (4, 5))
        owner.array[:] = 7.5
        view = SharedArray.attach(owner.name, (4, 5))
        assert np.all(view.array == 7.5)
        view.array[0, 0] = -1.0
        assert owner.array[0, 0] == -1.0
        name = owner.name
        view.close()
        owner.unlink()
        owner.unlink()  # idempotent
        assert_no_segment(name)


class TestSplitBatch:
    def test_static_batch_splits_on_axis0(self):
        data = np.arange(8 * 3).reshape(8, 3, 1, 1).astype(np.float32)
        labels = np.arange(8)
        shards = split_batch(data, labels, 3)
        assert [s[0].shape[0] for s in shards] == [3, 3, 2]
        np.testing.assert_array_equal(np.concatenate([s[0] for s in shards]), data)
        np.testing.assert_array_equal(np.concatenate([s[1] for s in shards]), labels)

    def test_event_batch_splits_on_axis1(self):
        data = np.zeros((3, 6, 2, 4, 4), dtype=np.float32)  # (T, N, C, H, W)
        labels = np.arange(6)
        shards = split_batch(data, labels, 2)
        assert all(s[0].shape[0] == 3 for s in shards)
        assert [s[0].shape[1] for s in shards] == [3, 3]

    def test_more_shards_than_samples_yields_empty_tail(self):
        data = np.zeros((2, 3, 4, 4), dtype=np.float32)
        shards = split_batch(data, np.arange(2), 4)
        assert [s[1].shape[0] for s in shards] == [1, 1, 0, 0]


class TestDataParallelParity:
    def test_two_worker_losses_match_single_process(self, static_ds):
        config = tiny_config()
        data, labels = next(iter(DataLoader(static_ds, batch_size=8, shuffle=False)))
        single = BPTTTrainer(tiny_model(), config, compile=True)
        reference = [single.train_step(data, labels) for _ in range(3)]
        with DataParallelTrainer(tiny_model(), config, num_workers=2) as dp:
            parallel = [dp.train_step(data, labels) for _ in range(3)]
        for ref, par in zip(reference, parallel):
            assert abs(ref["loss"] - par["loss"]) <= 1e-6
            assert ref["accuracy"] == par["accuracy"]

    def test_accum_fallback_bitwise_matches_two_workers(self, static_ds):
        config = tiny_config()
        data, labels = next(iter(DataLoader(static_ds, batch_size=8, shuffle=False)))
        with DataParallelTrainer(tiny_model(), config, num_workers=2) as two:
            losses_two = [two.train_step(data, labels)["loss"] for _ in range(3)]
        with DataParallelTrainer(tiny_model(), config, num_workers=1,
                                 accum_steps=2) as accum:
            losses_accum = [accum.train_step(data, labels)["loss"] for _ in range(3)]
        # Same micro-shard decomposition, same float64 accumulator: the only
        # difference is *where* the shards ran, so the bits must agree.
        assert losses_two == losses_accum

    def test_event_data_parallel_step(self):
        from repro.models.vgg import spiking_vgg9

        ds = make_event_dataset(num_samples=12, num_classes=4, timesteps=3,
                                channels=2, height=12, width=12, seed=7)
        config = tiny_config(timesteps=3, batch_size=6)
        model = spiking_vgg9(num_classes=4, in_channels=2, timesteps=3,
                             width_scale=0.1, norm="none",
                             rng=np.random.default_rng(0))
        data, labels = next(iter(DataLoader(ds, batch_size=6, shuffle=False)))
        with DataParallelTrainer(model, config, num_workers=2) as dp:
            stats = dp.train_step(data, labels)
        assert np.isfinite(stats["loss"])

    def test_epoch_training_reduces_loss(self, static_ds):
        config = tiny_config(epochs=4)
        with DataParallelTrainer(tiny_model(), config, num_workers=2,
                                 train_dataset=static_ds) as dp:
            history = dp.fit(epochs=4)
        assert history[-1].loss < history[0].loss

    def test_epoch_parity_with_accum_fallback(self, static_ds):
        config = tiny_config()
        with DataParallelTrainer(tiny_model(), config, num_workers=2,
                                 train_dataset=static_ds) as two:
            two.fit(epochs=1)
        with DataParallelTrainer(tiny_model(), config, num_workers=1,
                                 accum_steps=2, train_dataset=static_ds) as accum:
            accum.fit(epochs=1)
        assert two.step_loss_history == accum.step_loss_history

    def test_batch_size_must_cover_shards(self):
        with pytest.raises(ValueError):
            DataParallelTrainer(tiny_model(), tiny_config(batch_size=2),
                                num_workers=2, accum_steps=2)


def _static_epoch_case():
    # 17 samples in batches of 8: the final batch holds one sample, so one
    # of its two micro-shards is empty.
    ds = make_static_image_dataset(num_samples=17, num_classes=4, channels=3,
                                   height=12, width=12, seed=7)
    return tiny_model, ds, tiny_config()


def _event_epoch_case():
    from repro.models.vgg import spiking_vgg9

    # 13 event samples in batches of 6 (final batch of one); norm="bn"
    # exercises per-shard batch statistics.
    ds = make_event_dataset(num_samples=13, num_classes=4, timesteps=3,
                            channels=2, height=12, width=12, seed=7)

    def build():
        return spiking_vgg9(num_classes=4, in_channels=2, timesteps=3,
                            width_scale=0.1, norm="bn",
                            rng=np.random.default_rng(0))

    return build, ds, tiny_config(timesteps=3, batch_size=6)


WORKER_LAYOUTS = {"2-workers": dict(num_workers=2),
                  "1-worker-x2-accum": dict(num_workers=1, accum_steps=2)}


class TestEpochIsTrainStepOverSeededLoader:
    """``fit``/``train_epoch`` step exactly the batches of the coordinator's
    seeded loader: the oracle is a second trainer calling ``train_step`` over
    ``DataLoader(ds, batch_size, shuffle=True, drop_last, seed=config.seed)``
    after ``set_epoch(e)``, stepping the scheduler between epochs.  Losses
    must agree bitwise."""

    @staticmethod
    def _train_step_losses(build, ds, config, epochs, drop_last=False, **layout):
        loader = DataLoader(ds, batch_size=config.batch_size, shuffle=True,
                            drop_last=drop_last, seed=config.seed)
        losses = []
        with DataParallelTrainer(build(), config, drop_last=drop_last,
                                 **layout) as oracle:
            for epoch in range(epochs):
                loader.set_epoch(epoch)
                losses.extend(oracle.train_step(data, labels)["loss"]
                              for data, labels in loader)
                oracle.scheduler.step()
        return losses

    @pytest.mark.parametrize("layout", list(WORKER_LAYOUTS))
    @pytest.mark.parametrize("case", [_static_epoch_case, _event_epoch_case],
                             ids=["static", "event"])
    def test_two_epoch_fit_matches_train_step_loop(self, case, layout):
        build, ds, config = case()
        with DataParallelTrainer(build(), config, train_dataset=ds,
                                 **WORKER_LAYOUTS[layout]) as dp:
            dp.fit(epochs=2)
        assert len(dp.step_loss_history) == 2 * 3
        assert dp.step_loss_history == self._train_step_losses(
            build, ds, config, epochs=2, **WORKER_LAYOUTS[layout])

    def test_drop_last_skips_the_short_batch(self):
        build, ds, config = _static_epoch_case()
        with DataParallelTrainer(build(), config, num_workers=2,
                                 train_dataset=ds, drop_last=True) as dp:
            dp.fit(epochs=2)
        assert len(dp.step_loss_history) == 2 * 2
        assert dp.step_loss_history == self._train_step_losses(
            build, ds, config, epochs=2, drop_last=True, num_workers=2)

    def test_mid_epoch_stop_then_resume(self):
        build, ds, config = _static_epoch_case()
        with DataParallelTrainer(build(), config, num_workers=2,
                                 train_dataset=ds) as dp:
            dp.train_epoch(0, max_batches=1)
            assert dp._cursor == {"epoch": 0, "batch": 1}
            assert dp.history == []
            dp.fit(epochs=2)
        assert dp.step_loss_history == self._train_step_losses(
            build, ds, config, epochs=2, num_workers=2)


class TestCheckpointResume:
    def test_mid_epoch_kill_and_resume_reproduces_curve(self, static_ds, tmp_path):
        config = tiny_config()
        path = str(tmp_path / "dp.ckpt")

        reference = DataParallelTrainer(tiny_model(), config, num_workers=2,
                                        train_dataset=static_ds)
        with reference:
            reference.fit(epochs=2)

        killed = DataParallelTrainer(tiny_model(), config, num_workers=2,
                                     train_dataset=static_ds)
        killed.train_epoch(0)
        killed.train_epoch(1, max_batches=2)
        assert killed._cursor == {"epoch": 1, "batch": 2}
        killed.save_checkpoint(path)
        prefix = list(killed.step_loss_history)
        segments = killed._pool.segment_names
        killed._pool.kill()  # simulated crash: no graceful handshake
        for name in segments:
            assert_no_segment(name)

        resumed = DataParallelTrainer(tiny_model(), config, num_workers=2,
                                      train_dataset=static_ds)
        resumed.load_checkpoint(path)
        with resumed:
            resumed.fit(epochs=2)
        assert prefix + resumed.step_loss_history == reference.step_loss_history

    def test_elastic_resume_different_worker_count(self, static_ds, tmp_path):
        config = tiny_config()
        path = str(tmp_path / "dp.ckpt")
        reference = DataParallelTrainer(tiny_model(), config, num_workers=2,
                                        train_dataset=static_ds)
        with reference:
            reference.fit(epochs=2)

        first = DataParallelTrainer(tiny_model(), config, num_workers=2,
                                    train_dataset=static_ds)
        with first:
            first.train_epoch(0)
            first.save_checkpoint(path)
        prefix = list(first.step_loss_history)

        # Resume the 2-worker checkpoint on 1 worker with gradient
        # accumulation: same micro-shard decomposition, same curve.
        resumed = DataParallelTrainer(tiny_model(), config, num_workers=1,
                                      accum_steps=2, train_dataset=static_ds)
        resumed.load_checkpoint(path)
        with resumed:
            resumed.fit(epochs=2)
        curve = prefix + resumed.step_loss_history
        assert all(abs(a - b) <= 1e-6
                   for a, b in zip(curve, reference.step_loss_history))

    def test_checkpoint_restores_scheduler_and_history(self, static_ds, tmp_path):
        config = tiny_config()
        path = str(tmp_path / "dp.ckpt")
        a = DataParallelTrainer(tiny_model(), config, num_workers=2,
                                train_dataset=static_ds)
        with a:
            a.fit(epochs=1)
            a.save_checkpoint(path)
        b = DataParallelTrainer(tiny_model(), config, num_workers=2,
                                train_dataset=static_ds)
        state = b.load_checkpoint(path)
        assert b.optimizer.lr == a.optimizer.lr
        assert b.scheduler.last_epoch == a.scheduler.last_epoch
        assert len(b.history) == 1
        assert state["extra"]["num_workers"] == 2

    def test_save_training_state_standalone(self, tmp_path):
        model = tiny_model()
        path = str(tmp_path / "model.ckpt")
        save_training_state(path, model, cursor={"epoch": 5, "batch": 2},
                            extra={"tag": "unit"})
        fresh = tiny_model(seed=9)
        state = load_training_state(path, fresh)
        assert state["cursor"] == {"epoch": 5, "batch": 2}
        assert state["extra"]["tag"] == "unit"
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  fresh.named_parameters()):
            assert np.array_equal(a.data, b.data)


class TestWorkerCrash:
    def test_worker_exception_propagates_and_cleans_up(self, static_ds):
        config = tiny_config()
        dp = DataParallelTrainer(tiny_model(), config, num_workers=2)
        data, labels = next(iter(DataLoader(static_ds, batch_size=8, shuffle=False)))
        dp.train_step(data, labels)
        pool = dp._pool
        segments = pool.segment_names
        # Ship a poisoned batch: out-of-range labels raise in the worker's loss.
        with pytest.raises(WorkerCrashError) as err:
            dp.train_step(data, np.full_like(labels, 99))
        assert err.value.remote_traceback is not None
        assert pool.closed
        for name in segments:
            assert_no_segment(name)

    def test_dead_worker_process_detected(self, static_ds):
        pool = WorkerPool(tiny_model(), 2, timesteps=2)
        segments = pool.segment_names
        pool._procs[1].terminate()
        pool._procs[1].join()
        with pytest.raises(WorkerCrashError, match="worker 1"):
            pool.ping()
        for name in segments:
            assert_no_segment(name)

    def test_unknown_command_reports_remote_traceback(self):
        pool = WorkerPool(tiny_model(), 1, timesteps=2)
        pool.send(0, {"cmd": "does-not-exist"})
        with pytest.raises(WorkerCrashError, match="does-not-exist"):
            pool.gather()

    def test_close_is_idempotent_and_reaps_children(self):
        pool = WorkerPool(tiny_model(), 2, timesteps=2)
        procs = list(pool._procs)
        assert pool.ping() == [0, 1]
        pool.close()
        pool.close()
        assert all(not p.is_alive() for p in procs)


class TestObsIntegration:
    def test_worker_spans_and_allreduce_metrics(self, static_ds):
        from repro.obs.metrics import default_registry
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        captured = []

        class Capture:
            def export(self, span):
                captured.append(span)

        previous_exporters = tracer.exporters
        tracer.enabled = True
        tracer.set_exporters([Capture()])
        try:
            config = tiny_config()
            data, labels = next(iter(DataLoader(static_ds, batch_size=8,
                                                shuffle=False)))
            with DataParallelTrainer(tiny_model(), config, num_workers=2) as dp:
                dp.train_step(data, labels)
        finally:
            tracer.enabled = False
            tracer.set_exporters(previous_exporters)

        steps = [s for s in captured if s.name == "train.step"]
        assert len(steps) == 1
        step = steps[0]
        workers = [c for c in step.children if c.name == "train.worker"]
        assert sorted(c.attrs["rank"] for c in workers) == [0, 1]
        assert sum(c.attrs["n"] for c in workers) == 8
        assert step.find("train.allreduce") is not None
        assert step.find("train.optimizer") is not None

        hist = default_registry().get("train_allreduce_seconds")
        assert hist is not None and hist.snapshot()["count"] >= 1
        util = default_registry().get("train_worker_utilization",
                                      labels={"worker": "0"})
        assert util is not None and 0.0 <= util.value <= 1.0
