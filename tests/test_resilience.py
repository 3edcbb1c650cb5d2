"""Chaos suite for :mod:`repro.resilience` — seeded faults, hardened recovery.

The contract under test, end to end:

* a :class:`FaultPlan` replays the *identical* fault schedule on every run
  (and across processes), so every chaos scenario here is reproducible;
* every injected fault is survived by the subsystem it strikes — hung pool
  workers are killed/respawned and the step retried to the exact fault-free
  loss curve, corrupted checkpoints are skipped by
  ``CheckpointManager.load_latest_valid``, an injected NaN raises a typed
  ``NumericFault`` naming the offending node, fleet requests resolve with an answer or a typed error, transient prefetch
  errors retry while permanent ones propagate;
* nothing leaks — no orphaned worker processes, no ``/dev/shm`` segments;
* every fire is visible in :mod:`repro.obs` (the
  ``repro_faults_injected_total`` counter and ``fault.injected`` span
  events).
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.data.datasets import DataLoader
from repro.data.synthetic import make_static_image_dataset
from repro.fleet import FleetServer
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.obs import configure as obs_configure
from repro.obs.metrics import default_registry
from repro.obs.trace import get_tracer
from repro.parallel import DataParallelTrainer, SharedArray, WorkerCrashError
from repro.resilience import (
    CheckpointCorruptError,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NumericFault,
    faults,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serve import InferenceServer
from repro.serve.engine import InferenceEngine
from repro.training.checkpoint import (
    CheckpointManager,
    load_training_state,
    save_training_state,
    verify_checkpoint,
)
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

NUM_CLASSES = 4


@pytest.fixture(autouse=True)
def _clean_faults_and_tracer():
    """No plan and a disabled tracer before and after every test."""
    faults.uninstall()
    tracer = get_tracer()
    yield
    faults.uninstall()
    tracer.enabled = False
    tracer.set_exporters(())
    tracer.flight = None


def tiny_model(seed: int = 0):
    return spiking_resnet18(num_classes=NUM_CLASSES, in_channels=3, timesteps=2,
                            width_scale=0.07, norm="none",
                            rng=np.random.default_rng(seed))


def tiny_config(**overrides):
    defaults = dict(timesteps=2, epochs=1, batch_size=8, learning_rate=0.05,
                    seed=3)
    defaults.update(overrides)
    return TrainingConfig(**defaults)


@pytest.fixture
def static_ds():
    return make_static_image_dataset(num_samples=24, num_classes=NUM_CLASSES,
                                     channels=3, height=12, width=12, seed=7)


def assert_no_segment(name: str) -> None:
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    seg.close()
    raise AssertionError(f"shared-memory segment {name} still exists")


def counter_value(name: str, labels=None) -> float:
    metric = default_registry().get(name, labels)
    return metric.value if metric is not None else 0.0


class _CaptureExporter:
    def __init__(self):
        self.spans = []

    def export(self, span) -> None:
        self.spans.append(span)


# ---------------------------------------------------------------------------
# fault plan determinism


class TestFaultPlanDeterminism:
    def _drive(self, injector: FaultInjector):
        log = []
        for step in range(20):
            for rank in range(2):
                action = injector.maybe("worker.crash", rank=rank, step=step)
                if action is not None:
                    log.append(("crash", rank, step, action))
            if injector.maybe("checkpoint.corrupt", path="x") is not None:
                log.append(("corrupt", step))
        return log

    def test_same_plan_replays_identical_schedule(self):
        plan = FaultPlan(seed=11, faults=[
            FaultSpec("worker.crash", rank=1, probability=0.3, max_fires=None,
                      exitcode=9),
            FaultSpec("checkpoint.corrupt", at=(2, 5), mode="truncate"),
        ])
        first = self._drive(FaultInjector(plan))
        second = self._drive(FaultInjector(plan))
        assert first == second
        assert first  # the schedule actually fired something
        # A different seed draws a different probability stream.
        other = FaultPlan(seed=12, faults=plan.faults)
        assert self._drive(FaultInjector(other)) != first

    def test_visit_indexing_counts_matching_visits_only(self):
        plan = FaultPlan(faults=[FaultSpec("worker.hang", rank=1, at=1,
                                           seconds=5.0)])
        injector = FaultInjector(plan)
        # rank-0 visits never advance the rank-1 spec's counter.
        assert injector.maybe("worker.hang", rank=0) is None
        assert injector.maybe("worker.hang", rank=1) is None   # visit 0
        assert injector.maybe("worker.hang", rank=0) is None
        action = injector.maybe("worker.hang", rank=1)          # visit 1
        assert action == {"seconds": 5.0}
        assert injector.maybe("worker.hang", rank=1) is None    # max_fires hit

    def test_string_context_matches_by_substring(self):
        plan = FaultPlan(faults=[FaultSpec("replica.crash", replica="/r0.",
                                           at=0)])
        injector = FaultInjector(plan)
        assert injector.maybe("replica.crash", replica="m/v1/r1.0") is None
        assert injector.maybe("replica.crash", replica="m/v1/r0.0") == {}

    def test_disabled_layer_is_inactive(self):
        assert faults.get_injector() is None
        with faults.inject(FaultPlan()) as injector:
            assert faults.get_injector() is injector
            assert injector.maybe("worker.crash", rank=0) is None
        assert faults.get_injector() is None

    def test_fired_log_and_counts(self):
        with faults.inject(FaultPlan(faults=[
                FaultSpec("replica.slow", at=(0, 1), seconds=0.0)])) as inj:
            inj.maybe("replica.slow", replica="m/v1/r0.0")
            inj.maybe("replica.slow", replica="m/v1/r0.0")
            inj.maybe("replica.slow", replica="m/v1/r0.0")
        assert inj.fire_counts() == {"replica.slow": 2}
        assert [e["visit"] for e in inj.fired("replica.slow")] == [0, 1]

    def test_plan_pickles(self):
        import pickle

        plan = FaultPlan(seed=5, faults=[FaultSpec("worker.crash", rank=0,
                                                   at=3, exitcode=7)])
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == 5
        assert clone.faults[0].site == "worker.crash"
        assert clone.faults[0].action == {"exitcode": 7}
        assert clone.sites() == ("worker.crash",)


# ---------------------------------------------------------------------------
# circuit breaker


class TestCircuitBreaker:
    def _breaker(self, **overrides):
        clock = [0.0]
        defaults = dict(window=10, min_requests=4, error_threshold=0.5,
                        open_duration_s=1.0, half_open_probes=2,
                        time_fn=lambda: clock[0])
        defaults.update(overrides)
        return CircuitBreaker(**defaults), clock

    def test_trips_open_on_error_rate(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record_success()
        assert breaker.state == CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_half_open_probes_then_close(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock[0] = 1.5
        assert breaker.allow()          # probe 1 admitted, now half-open
        assert breaker.allow()          # probe 2 admitted
        assert not breaker.allow()      # probe budget exhausted
        breaker.record_success()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        # The window was cleared: old failures cannot re-trip it.
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self):
        breaker, clock = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        clock[0] = 1.2
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock[0] = 2.0  # the cool-down clock restarted at the re-trip
        assert breaker.state == OPEN
        clock[0] = 2.5
        assert breaker.state == HALF_OPEN

    def test_snapshot(self):
        breaker, _ = self._breaker()
        breaker.record_success()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["window"] == 2 and snap["errors"] == 1


# ---------------------------------------------------------------------------
# shared-memory atexit guard


class TestShmAtexitGuard:
    def test_leftover_owned_segment_is_unlinked(self):
        from repro.parallel import shm

        seg = SharedArray.create("guardtest", (4,))
        name = seg.name
        assert seg in shm._LIVE_OWNED
        # Simulate the coordinator dying without close(): run the guard.
        shm._unlink_leftover_segments()
        assert_no_segment(name)

    def test_unlink_removes_from_registry(self):
        from repro.parallel import shm

        seg = SharedArray.create("guardtest2", (4,))
        seg.unlink()
        assert seg not in shm._LIVE_OWNED
        assert_no_segment(seg.name)

    def test_attached_segment_never_registers(self):
        from repro.parallel import shm

        owner = SharedArray.create("guardtest3", (4,))
        attached = SharedArray.attach(owner.name, (4,))
        assert attached not in shm._LIVE_OWNED
        attached.close()
        owner.unlink()


# ---------------------------------------------------------------------------
# durable checkpoints


def _loss_curve(model, steps, data, labels, config=None, **trainer_kwargs):
    trainer = BPTTTrainer(model, config or tiny_config(), **trainer_kwargs)
    return trainer, [trainer.train_step(data, labels)["loss"]
                     for _ in range(steps)]


class TestCheckpointDurability:
    @pytest.fixture
    def batch(self, static_ds):
        return next(iter(DataLoader(static_ds, batch_size=8, shuffle=False)))

    def test_roundtrip_and_rotation(self, tmp_path, batch):
        data, labels = batch
        model = tiny_model()
        manager = CheckpointManager(str(tmp_path), keep=2)
        trainer = BPTTTrainer(model, tiny_config())
        for step in range(4):
            trainer.train_step(data, labels)
            manager.save(model, optimizer=trainer.optimizer,
                         cursor={"epoch": 0, "batch": step + 1})
        paths = manager.paths()
        assert len(paths) == 2  # keep-K pruned the two oldest
        assert all(verify_checkpoint(p) for p in paths)
        state = manager.load_latest_valid(model=tiny_model(1))
        assert state["cursor"] == {"epoch": 0, "batch": 4}
        assert state["path"] == paths[0] and state["skipped"] == []

    @pytest.mark.parametrize("mode", ["truncate", "bitflip", "partial"])
    def test_corruption_recovers_to_exact_curve(self, tmp_path, batch, mode):
        data, labels = batch
        # Reference run: 4 uninterrupted steps, checkpoint after step 2.
        ref_model = tiny_model()
        ref = BPTTTrainer(ref_model, tiny_config())
        ref_losses = [ref.train_step(data, labels)["loss"] for _ in range(2)]
        clean_dir = tmp_path / "ref"
        clean_mgr = CheckpointManager(str(clean_dir))
        clean_mgr.save(ref_model, optimizer=ref.optimizer,
                       cursor={"batch": 2})
        ref_losses += [ref.train_step(data, labels)["loss"] for _ in range(2)]

        # Faulty run: same two steps, one good save, then a save that is
        # corrupted by the injected fault — recovery must land on the good
        # save and reproduce the reference tail exactly.
        run_dir = tmp_path / "run"
        manager = CheckpointManager(str(run_dir))
        model = tiny_model()
        trainer = BPTTTrainer(model, tiny_config())
        for _ in range(2):
            trainer.train_step(data, labels)
        manager.save(model, optimizer=trainer.optimizer, cursor={"batch": 2})
        trainer.train_step(data, labels)
        with faults.inject(FaultPlan(faults=[
                FaultSpec("checkpoint.corrupt", at=0, mode=mode)])) as injector:
            manager.save(model, optimizer=trainer.optimizer,
                         cursor={"batch": 3})
        assert injector.fire_counts() == {"checkpoint.corrupt": 1}

        valid = manager.latest_valid()
        assert valid is not None
        resumed_model = tiny_model(99)  # deliberately different init
        resumed = BPTTTrainer(resumed_model, tiny_config())
        state = manager.load_latest_valid(model=resumed_model,
                                          optimizer=resumed.optimizer)
        assert state["cursor"] == {"batch": 2}
        if mode == "partial":
            # The interrupted save never produced ckpt-2; nothing to skip.
            assert state["path"].endswith("ckpt-1.ckpt")
        else:
            assert any(p.endswith("ckpt-2.ckpt") for p in state["skipped"])
        tail = [resumed.train_step(data, labels)["loss"] for _ in range(2)]
        assert tail == ref_losses[2:], (
            f"post-recovery curve diverged under {mode} corruption")

    def test_all_corrupt_returns_none(self, tmp_path, batch):
        data, labels = batch
        model = tiny_model()
        manager = CheckpointManager(str(tmp_path))
        with faults.inject(FaultPlan(faults=[
                FaultSpec("checkpoint.corrupt", at=(0, 1), mode="bitflip",
                          max_fires=None)])):
            manager.save(model)
            manager.save(model)
        assert manager.latest_valid() is None
        assert manager.load_latest_valid(model=model) is None

    def test_typed_error_on_direct_load_of_corrupt_file(self, tmp_path, batch):
        model = tiny_model()
        path = str(tmp_path / "one.ckpt")
        save_training_state(path, model)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        assert not verify_checkpoint(path)
        with pytest.raises(CheckpointCorruptError):
            load_training_state(path, model=model)

    def test_legacy_bare_pickle_still_loads(self, tmp_path):
        import pickle

        model = tiny_model()
        path = str(tmp_path / "legacy.ckpt")
        reference = str(tmp_path / "framed.ckpt")
        save_training_state(reference, model)
        framed = open(reference, "rb").read()
        from repro.training.checkpoint import CHECKPOINT_MAGIC, _DIGEST_BYTES

        payload = framed[len(CHECKPOINT_MAGIC) + _DIGEST_BYTES:]
        with open(path, "wb") as handle:
            handle.write(payload)  # pre-checksum format: bare pickle
        assert verify_checkpoint(path)
        state = load_training_state(path, model=tiny_model(1))
        assert state["version"] == 1
        assert isinstance(pickle.loads(payload), dict)


# ---------------------------------------------------------------------------
# numeric guards


class TestNumericGuards:
    def _compiled_forward(self, model):
        return model.compile(fn=model.run_timesteps, optimize="O1",
                             guard_numerics=True)

    def test_reference_kernel_fault_raises_typed(self):
        rng = np.random.default_rng(0)
        model = tiny_model()
        model.eval()
        fwd = self._compiled_forward(model)
        x = rng.standard_normal((2, 2, 3, 12, 12)).astype(np.float32)
        fwd(x)
        fwd(x)
        with faults.inject(FaultPlan(faults=[FaultSpec("runtime.nan", at=0)])):
            with pytest.raises(NumericFault) as err:
                fwd(x)
        assert err.value.position >= 0

    def test_guard_off_pays_no_guarded_path(self):
        model = tiny_model()
        model.eval()
        fwd = model.compile(fn=model.run_timesteps, optimize="O1")
        x = np.random.default_rng(0).standard_normal(
            (2, 2, 3, 12, 12)).astype(np.float32)
        fwd(x)
        plan = next(iter(fwd._plans.values()))[0]
        assert plan.guard_numerics is False

    @pytest.mark.parametrize("compile", [False, True])
    def test_trainer_skips_nonfinite_steps_then_escalates(self, static_ds,
                                                          compile):
        data, labels = next(iter(DataLoader(static_ds, batch_size=8,
                                            shuffle=False)))
        model = tiny_model()
        trainer = BPTTTrainer(model, tiny_config(), compile=compile,
                              guard_numerics=True, max_skip_steps=2)
        good = trainer.train_step(data, labels)
        assert "skipped" not in good
        # Poison the classification head: the loss goes NaN from here on.
        weights = model.classifier.weight.data.copy()
        model.classifier.weight.data[:] = np.nan
        skipped = trainer.train_step(data, labels)
        assert skipped["skipped"] == 1.0 and not np.isfinite(skipped["loss"])
        assert trainer.skipped_steps == 1
        # The guard withheld the update AND zeroed the poisoned gradients.
        assert all(p.grad is None or np.allclose(p.grad, 0.0)
                   for p in model.parameters())
        # Restoring the weights resumes training and resets the streak.
        model.classifier.weight.data[:] = weights
        fine = trainer.train_step(data, labels)
        assert "skipped" not in fine and np.isfinite(fine["loss"])
        assert trainer._consecutive_skips == 0
        # A persistent fault escalates after max_skip_steps consecutive skips.
        model.classifier.weight.data[:] = np.nan
        trainer.train_step(data, labels)
        trainer.train_step(data, labels)
        with pytest.raises(NumericFault, match="consecutive"):
            trainer.train_step(data, labels)

    def test_epoch_stats_exclude_skipped_steps(self, static_ds):
        model = tiny_model()
        trainer = BPTTTrainer(model, tiny_config(), guard_numerics=True,
                              max_skip_steps=10)
        model.classifier.weight.data[:] = np.nan
        loader = DataLoader(static_ds, batch_size=8, shuffle=True,
                            seed=3)
        result = trainer.train_epoch(loader, epoch=0)
        assert trainer.skipped_steps == 3
        assert np.isnan(result.loss)  # zero counted batches
        assert result.accuracy == 0.0

    def test_engine_eager_guard_rejects_nan_logits(self):
        model = spiking_vgg9(num_classes=NUM_CLASSES, in_channels=3,
                             timesteps=2, width_scale=0.08,
                             rng=np.random.default_rng(0))
        engine = InferenceEngine(model, guard_numerics=True)
        sample = np.zeros((3, 10, 10), dtype=np.float32)
        engine.infer(sample)  # healthy model serves fine
        engine.model.classifier.bias.data[:] = np.nan
        with pytest.raises(NumericFault):
            engine.infer(sample)


    @pytest.mark.parametrize("optimize", ["O1", "O2"])
    def test_engine_compiled_guard_rejects_nan_logits(self, optimize):
        model = spiking_vgg9(num_classes=NUM_CLASSES, in_channels=3,
                             timesteps=2, width_scale=0.08,
                             rng=np.random.default_rng(0))
        engine = InferenceEngine(model, compile=True, optimize=optimize,
                                 guard_numerics=True)
        sample = np.zeros((3, 10, 10), dtype=np.float32)
        healthy = engine.infer(sample)
        engine.infer(sample)                  # replayed plan serves fine
        bias = engine.model.classifier.bias.data.copy()
        engine.model.classifier.bias.data[:] = np.nan
        with pytest.raises(NumericFault) as err:
            engine.infer(sample)
        assert err.value.position >= 0
        # The fault poisons neither the plan nor the engine: once the
        # parameters are healthy again the same plan serves the same logits.
        engine.model.classifier.bias.data[:] = bias
        np.testing.assert_array_equal(engine.infer(sample), healthy)
        assert engine.runtime_stats()["captures"] == 1

# ---------------------------------------------------------------------------
# data-loader retry


class TestLoaderRetry:
    def test_transient_prefetch_error_retries_to_identical_batches(self, static_ds):
        plain = [(_d.copy(), _l.copy()) for _d, _l in
                 DataLoader(static_ds, batch_size=8, shuffle=True, seed=5)]
        loader = DataLoader(static_ds, batch_size=8, shuffle=True, seed=5,
                            prefetch=True, prefetch_retries=2,
                            prefetch_retry_backoff_s=0.001)
        with faults.inject(FaultPlan(faults=[
                FaultSpec("data.prefetch", at=(0, 3))])) as injector:
            batches = [(d.copy(), l.copy()) for d, l in loader]
        assert injector.fire_counts() == {"data.prefetch": 2}
        assert len(batches) == len(plain)
        for (da, la), (db, lb) in zip(plain, batches):
            np.testing.assert_array_equal(da, db)
            np.testing.assert_array_equal(la, lb)

    def test_exhausted_retries_propagate(self, static_ds):
        loader = DataLoader(static_ds, batch_size=8, shuffle=False,
                            prefetch=True, prefetch_retries=2,
                            prefetch_retry_backoff_s=0.001)
        # Three consecutive failures on one batch beat the 2-retry budget.
        with faults.inject(FaultPlan(faults=[
                FaultSpec("data.prefetch", at=(0, 1, 2),
                          message="disk on fire")])):
            with pytest.raises(OSError, match="disk on fire"):
                list(loader)

    def test_permanent_error_spans_still_emitted(self, static_ds):
        capture = _CaptureExporter()
        obs_configure(enabled=True, exporters=[capture], flight_capacity=None)
        loader = DataLoader(static_ds, batch_size=8, shuffle=False,
                            prefetch=True, prefetch_retries=0)
        with faults.inject(FaultPlan(faults=[FaultSpec("data.prefetch")])):
            with pytest.raises(OSError):
                list(loader)
        assert any(span.name == "data.prefetch_error" for span in capture.spans)


# ---------------------------------------------------------------------------
# slow replica behind the single-replica server


class TestSlowReplica:
    def test_slow_replica_delays_but_answers(self):
        server = InferenceServer(max_batch_size=4, max_wait_ms=1.0)
        try:
            engine = server.register("m", tiny_model())
            engine.infer = lambda batch: batch.sum(axis=(1, 2, 3))[:, None]
            sample = np.ones((3, 4, 4), dtype=np.float32)
            with faults.inject(FaultPlan(faults=[
                    FaultSpec("replica.slow", at=0, seconds=0.2)])) as injector:
                start = time.perf_counter()
                result = server.submit("m", sample).result(timeout=10.0)
                elapsed = time.perf_counter() - start
            assert elapsed >= 0.2
            assert injector.fire_counts() == {"replica.slow": 1}
            np.testing.assert_allclose(result, [48.0])
        finally:
            server.close()


# ---------------------------------------------------------------------------
# pool watchdog (fork-backed)


@pytest.mark.skipif(not FORK_AVAILABLE,
                    reason="data-parallel pool needs fork start method")
class TestPoolResilience:
    def _run_epoch(self, static_ds, plan=None, timeout=4.0):
        if plan is not None:
            faults.install(plan)
        try:
            trainer = DataParallelTrainer(
                tiny_model(), tiny_config(), num_workers=2,
                train_dataset=static_ds, step_timeout_s=timeout)
            with trainer:
                trainer.train_epoch(epoch=0)
                pool = trainer._pool
                segments = pool.segment_names
                restarts = pool.worker_restarts
            return {
                "losses": list(trainer.step_loss_history),
                "retries": trainer.step_retries,
                "restarts": restarts,
                "segments": segments,
            }
        finally:
            faults.uninstall()

    def test_hung_worker_recovers_to_exact_fault_free_curve(self, static_ds):
        clean = self._run_epoch(static_ds)
        assert clean["retries"] == 0 and clean["restarts"] == 0
        plan = FaultPlan(seed=1, faults=[
            FaultSpec("worker.hang", rank=1, at=1, seconds=60.0)])
        chaos = self._run_epoch(static_ds, plan=plan, timeout=3.0)
        assert chaos["retries"] == 1
        assert chaos["restarts"] == 1
        assert chaos["losses"] == clean["losses"], (
            "recovered run must reproduce the fault-free loss curve exactly")
        for name in chaos["segments"]:
            assert_no_segment(name)
        assert not multiprocessing.active_children()

    def test_same_plan_same_recovery_twice(self, static_ds):
        plan = FaultPlan(seed=2, faults=[
            FaultSpec("worker.hang", rank=0, at=2, seconds=60.0)])
        first = self._run_epoch(static_ds, plan=plan, timeout=3.0)
        second = self._run_epoch(static_ds, plan=plan, timeout=3.0)
        assert first["losses"] == second["losses"]
        assert first["retries"] == second["retries"] == 1
        assert first["restarts"] == second["restarts"] == 1

    def test_injected_crash_surfaces_typed_and_cleans_up(self, static_ds):
        faults.install(FaultPlan(faults=[
            FaultSpec("worker.crash", rank=1, at=0, exitcode=23)]))
        try:
            trainer = DataParallelTrainer(
                tiny_model(), tiny_config(), num_workers=2,
                train_dataset=static_ds, step_timeout_s=4.0)
            data, labels = next(iter(DataLoader(static_ds, batch_size=8,
                                                shuffle=False)))
            trainer._ensure_pool()
            segments = trainer._pool.segment_names
            with pytest.raises(WorkerCrashError, match="worker 1"):
                trainer.train_step(data, labels)
            for name in segments:
                assert_no_segment(name)
        finally:
            faults.uninstall()
        assert not multiprocessing.active_children()

    def test_fault_metrics_exported(self, static_ds):
        base = counter_value("repro_pool_worker_restarts_total")
        plan = FaultPlan(seed=1, faults=[
            FaultSpec("worker.hang", rank=1, at=1, seconds=60.0)])
        self._run_epoch(static_ds, plan=plan, timeout=3.0)
        assert counter_value("repro_pool_worker_restarts_total") == base + 1
        assert counter_value("repro_train_step_retries_total") >= 1


# ---------------------------------------------------------------------------
# fleet chaos


def _fleet_model(seed: int = 0):
    return spiking_vgg9(num_classes=NUM_CLASSES, in_channels=3, timesteps=2,
                        width_scale=0.08, rng=np.random.default_rng(seed))


class TestFleetChaos:
    def test_seeded_burst_every_request_resolves(self):
        plan = FaultPlan(seed=4, faults=[
            FaultSpec("replica.crash", replica="/r0.0", at=2),
            FaultSpec("replica.slow", replica="/r1.", at=(1, 4),
                      seconds=0.02, max_fires=2),
        ])
        faults.install(plan)
        server = FleetServer(replicas=2, max_batch_size=4, max_wait_ms=1.0,
                             restart_backoff_s=0.05, restart_backoff_cap_s=0.2)
        try:
            server.register("m", _fleet_model(),
                            warmup_sample=np.zeros((3, 10, 10),
                                                   dtype=np.float32))
            rng = np.random.default_rng(0)
            futures = [server.submit(
                "m", rng.standard_normal((3, 10, 10)).astype(np.float32))
                for _ in range(24)]
            resolved = 0
            for future in futures:
                try:
                    logits = future.result(timeout=30.0)
                    assert logits.shape == (NUM_CLASSES,)
                    assert np.isfinite(logits).all()
                    resolved += 1
                except Exception as exc:  # noqa: BLE001 - typed check below
                    from repro.fleet.errors import BatcherClosed, FleetError

                    assert isinstance(exc, (FleetError, BatcherClosed)), (
                        f"untyped failure leaked to a client: {exc!r}")
            assert resolved >= 20  # the crash strands at most a few
            injector = faults.get_injector()
            assert injector.fire_counts().get("replica.crash") == 1
            # The supervisor replaces the crashed replica.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status = server.replica_status("m")
                if all(row["alive"] for row in status) and any(
                        row["restarts"] >= 1 for row in status):
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"replica never restarted: {status}")
            report = server.health_report("m")
            assert report["ready"] is True
            assert {row["slot"] for row in report["replicas"]} == {0, 1}
            assert all(row["breaker"] is not None
                       for row in report["replicas"])
        finally:
            server.close()
            faults.uninstall()

    def test_breaker_feeds_router_and_health_report(self):
        server = FleetServer(replicas=2, max_batch_size=4, max_wait_ms=1.0,
                             breaker_window=4, breaker_min_requests=2,
                             breaker_error_threshold=0.5, breaker_open_s=30.0)
        try:
            server.register("m", _fleet_model(),
                            warmup_sample=np.zeros((3, 10, 10),
                                                   dtype=np.float32))
            entry = server._entry("m")
            slot0 = entry.group.slots[0]
            # Force slot 0's breaker open directly (unit-style: the breaker
            # transition logic is covered above; this asserts the *router*
            # respects it).
            for _ in range(4):
                slot0.replica.breaker.record_failure()
            assert slot0.replica.breaker.state == OPEN
            report = server.health_report("m")
            rows = {row["slot"]: row for row in report["replicas"]}
            assert rows[0]["alive"] and not rows[0]["routable"]
            assert rows[1]["routable"]
            assert report["ready"] is True  # slot 1 carries the model
            sample = np.zeros((3, 10, 10), dtype=np.float32)
            # The slow site runs in every fused forward of slot 0: it must
            # never fire while slot 0's breaker is open.
            with faults.inject(FaultPlan(faults=[
                    FaultSpec("replica.slow", replica="/r0.", at=0,
                              seconds=0.0)])) as injector:
                for _ in range(6):
                    server.infer("m", sample, timeout=30.0)
            # All traffic served around the open breaker.
            assert injector.fire_counts() == {}
            status = server.replica_status("m")
            assert status[0]["breaker"] == OPEN
            assert status[1]["breaker"] == CLOSED
        finally:
            server.close()

    def test_all_breakers_open_still_serves(self):
        server = FleetServer(replicas=2, max_batch_size=4, max_wait_ms=1.0,
                             breaker_open_s=30.0)
        try:
            server.register("m", _fleet_model(),
                            warmup_sample=np.zeros((3, 10, 10),
                                                   dtype=np.float32))
            entry = server._entry("m")
            for slot in entry.group.slots:
                for _ in range(5):
                    slot.replica.breaker.record_failure()
                assert slot.replica.breaker.state == OPEN
            assert server.health_report("m")["ready"] is False
            # Availability beats purity: the router falls back to the alive
            # (if tripped) replicas rather than failing the request.
            logits = server.infer("m", np.zeros((3, 10, 10), dtype=np.float32),
                                  timeout=30.0)
            assert logits.shape == (NUM_CLASSES,)
        finally:
            server.close()

    def test_sustained_health_resets_restart_budget(self):
        faults.install(FaultPlan(faults=[
            FaultSpec("replica.crash", replica="/r0.0", at=0)]))
        server = FleetServer(replicas=2, max_batch_size=4, max_wait_ms=1.0,
                             restart_backoff_s=0.05, restart_backoff_cap_s=0.2,
                             restart_reset_s=0.3)
        try:
            server.register("m", _fleet_model())
            sample = np.zeros((3, 10, 10), dtype=np.float32)
            server.infer("m", sample, timeout=30.0)  # trips the r0 crash
            faults.uninstall()
            deadline = time.monotonic() + 10.0
            saw_restart = False
            while time.monotonic() < deadline:
                status = server.replica_status("m")
                restarts = [row["restarts"] for row in status]
                saw_restart = saw_restart or any(r >= 1 for r in restarts)
                if saw_restart and all(r == 0 for r in restarts) and all(
                        row["alive"] for row in status):
                    break
                server.infer("m", sample, timeout=30.0)
                time.sleep(0.05)
            else:
                pytest.fail(f"restart budget never reset: {status}")
        finally:
            server.close()
            faults.uninstall()


# ---------------------------------------------------------------------------
# observability of injected faults


class TestFaultObservability:
    def test_fires_count_in_metrics_registry(self):
        base = counter_value("repro_faults_injected_total",
                             {"site": "replica.slow"})
        with faults.inject(FaultPlan(faults=[
                FaultSpec("replica.slow", at=0, seconds=0.0)])) as injector:
            injector.maybe("replica.slow", replica="m/v1/r0.0")
        assert counter_value("repro_faults_injected_total",
                             {"site": "replica.slow"}) == base + 1

    def test_fires_emit_span_events(self):
        capture = _CaptureExporter()
        tracer = obs_configure(enabled=True, exporters=[capture],
                               flight_capacity=None)
        with faults.inject(FaultPlan(faults=[
                FaultSpec("replica.slow", at=0, seconds=0.0)])) as injector:
            with tracer.span("serve.request"):
                injector.maybe("replica.slow", replica="m/v1/r0.0")
        events = [(name, attrs) for span in capture.spans
                  for _, name, attrs in span.events]
        fault_events = [attrs for name, attrs in events
                        if name == "fault.injected"]
        assert fault_events == [{"site": "replica.slow",
                                 "replica": "m/v1/r0.0"}]
