"""Tests for the ``repro.fleet`` multi-replica serving fleet.

Covers the full subsystem:

* :class:`AdmissionQueue` — priority ordering, bounded capacity with typed
  ``Overloaded`` backpressure, crash-reroute requeue;
* :class:`CanaryRollout` / :class:`ShadowRollout` — deterministic credit
  split and the promote/rollback gate, pure-unit and end-to-end;
* :class:`FleetServer` — burst correctness vs a direct engine, deadline and
  overload shedding with typed errors, crash rerouting plus supervised
  restart, ``register`` racing ``register`` or ``close``, rollout under
  live traffic;
* :class:`StreamingSession` — chunked persistent-membrane inference equal
  to the one-shot fixed-``T`` forward, replica affinity, crash re-pinning
  and idle eviction;
* observability — span trees and the fleet's metrics-registry exports.

Tag models (all weights zero, classifier bias set to a known constant) make
logits *exactly* the bias vector, so version-identity assertions are exact
rather than statistical.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.autograd.tensor import no_grad
from repro.fleet import (
    AdmissionQueue,
    BatcherClosed,
    CanaryRollout,
    DeadlineExceeded,
    FleetError,
    FleetRequest,
    FleetServer,
    Overloaded,
    ReplicaCrashed,
    SessionClosed,
    ShadowRollout,
)
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.obs.metrics import default_registry
from repro.obs.trace import get_tracer
from repro.resilience import CLOSED, HALF_OPEN, FaultPlan, FaultSpec, faults
from repro.search import LayerChoice, TTSupernet
from repro.serve.engine import InferenceEngine
from repro.tt.layers import HTTConv2d

TIMESTEPS = 2
SAMPLE_SHAPE = (3, 10, 10)
NUM_CLASSES = 4


@pytest.fixture(autouse=True)
def _quiet_tracer():
    """Leave the process-wide tracer exactly as we found it (disabled)."""
    tracer = get_tracer()
    yield
    tracer.enabled = False
    tracer.set_exporters(())
    tracer.flight = None


def _tiny_model(seed: int = 0, timesteps: int = TIMESTEPS):
    return spiking_vgg9(num_classes=NUM_CLASSES, in_channels=3,
                        timesteps=timesteps, width_scale=0.08,
                        rng=np.random.default_rng(seed))


def _tag_model(tag: float, timesteps: int = TIMESTEPS):
    """All-zero weights + constant classifier bias: logits are exactly [tag]*C."""
    model = _tiny_model(0, timesteps)
    for param in model.parameters():
        param.data[:] = 0.0
    model.classifier.bias.data[:] = np.float32(tag)
    return model


def _samples(count: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((count,) + SAMPLE_SHAPE).astype(np.float32)


def _request(value: float = 0.0, priority: int = 0) -> FleetRequest:
    return FleetRequest(np.full(SAMPLE_SHAPE, np.float32(value)), Future(),
                        priority=priority)


class TestAdmissionQueue:
    def test_priority_ordering_fifo_within_level(self):
        queue = AdmissionQueue(capacity=8)
        low1, low2 = _request(1.0, 0), _request(2.0, 0)
        high = _request(3.0, 5)
        queue.put(low1)
        queue.put(low2)
        queue.put(high)
        assert queue.pop_batch(1, 0.0) == [high]
        assert queue.pop_batch(1, 0.0) == [low1]
        assert queue.pop_batch(1, 0.0) == [low2]
        assert queue.pop_batch(1, 0.0) == []

    def test_overload_is_typed_and_carries_retry_hint(self):
        queue = AdmissionQueue(capacity=2)
        queue.put(_request())
        queue.put(_request())
        with pytest.raises(Overloaded) as excinfo:
            queue.put(_request())
        assert isinstance(excinfo.value, FleetError)
        assert excinfo.value.retry_after_s > 0
        assert queue.depth == 2

    def test_requeue_bypasses_capacity(self):
        queue = AdmissionQueue(capacity=1)
        queue.put(_request())
        rerouted = _request()
        assert queue.requeue(rerouted)  # full, but admitted work stays admitted
        assert queue.depth == 2
        queue.close()
        assert not queue.requeue(_request())
        with pytest.raises(Overloaded):
            queue.put(_request())

    def test_retry_hint_tracks_service_rate(self):
        queue = AdmissionQueue(capacity=4)
        for _ in range(4):
            queue.put(_request())
        slow_before = queue.retry_after()
        for _ in range(16):
            queue.note_served(2.0)
        assert queue.retry_after() > slow_before


class TestRolloutUnits:
    def test_canary_credit_split_is_deterministic(self):
        rollout = CanaryRollout(version=2, fraction=0.25, min_requests=100)
        arms = [rollout.choose_arm() for _ in range(12)]
        assert arms.count("canary") == 3
        # Exactly every 4th request canaries — no sampling noise.
        assert all(arm == "canary" for arm in arms[3::4])

    def test_gate_promotes_healthy_candidate(self):
        rollout = CanaryRollout(version=2, fraction=0.5, min_requests=3)
        decision = None
        for _ in range(3):
            assert rollout.record("baseline", 0.01, False) is None
        for _ in range(3):
            decision = rollout.record("canary", 0.01, False) or decision
        assert decision == "promote"
        assert rollout.decision == "promote"
        # The gate fires exactly once.
        assert rollout.record("canary", 0.01, False) is None

    def test_gate_rolls_back_on_error_rate(self):
        rollout = CanaryRollout(version=2, fraction=0.5, min_requests=3,
                                max_error_rate=0.2)
        decision = None
        for _ in range(3):
            decision = rollout.record("canary", None, True) or decision
        assert decision == "rollback"

    def test_gate_rolls_back_on_latency_regression(self):
        rollout = CanaryRollout(version=2, fraction=0.5, min_requests=4,
                                max_p99_ratio=2.0)
        for _ in range(4):
            rollout.record("baseline", 0.01, False)
        decision = None
        for _ in range(4):
            decision = rollout.record("canary", 0.1, False) or decision
        assert decision == "rollback"

    def test_shadow_tracks_divergence(self):
        rollout = ShadowRollout(version=3, tolerance=1e-5)
        rollout.record(np.zeros(4), np.zeros(4))
        assert rollout.clean
        rollout.record(np.zeros(4), np.full(4, 0.5))
        assert not rollout.clean
        report = rollout.report()
        assert report["compared"] == 2
        assert report["mismatches"] == 1
        assert report["max_abs_diff"] == pytest.approx(0.5)
        rollout.record(np.zeros(4), None, shadow_error=True)
        assert rollout.report()["shadow_errors"] == 1


class TestFleetServing:
    @pytest.mark.parametrize("kill_first", [False, True])
    def test_burst_matches_direct_engine(self, kill_first):
        # With ``kill_first`` slot 0 dies between two halves of the burst:
        # its stranded requests reroute to the sibling, so every request
        # still answers with the direct engine's row.
        model = _tiny_model()
        samples = _samples(16)
        direct = InferenceEngine(model).infer(samples)
        with FleetServer(replicas=2, max_batch_size=4, max_wait_ms=1.0) as fleet:
            fleet.register("vgg", model, warmup_sample=samples[0])
            futures = [fleet.submit("vgg", sample) for sample in samples[:8]]
            if kill_first:
                fleet._entry("vgg").group.slots[0].replica.kill()
            futures += [fleet.submit("vgg", sample) for sample in samples[8:]]
            rows = np.stack([future.result(timeout=60) for future in futures])
        np.testing.assert_allclose(rows, direct, atol=1e-6)

    def test_prebuilt_engine_is_served_and_restarts_as_a_clone(self):
        # Slot 0 serves the registered engine object itself; its sibling and
        # a restarted slot 0 serve clones built the same way.
        samples = _samples(4)
        engine = InferenceEngine(_tiny_model(), compile=True)
        direct = engine.infer(samples)
        with FleetServer(replicas=2, max_batch_size=4, max_wait_ms=1.0,
                         restart_backoff_s=0.05) as fleet:
            assert fleet.register("vgg", engine) is engine
            slots = fleet._entry("vgg").group.slots
            assert slots[0].replica.engine is engine
            assert slots[1].replica.engine is not engine
            slots[0].replica.kill()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not (
                    slots[0].generation == 1 and slots[0].replica.alive):
                time.sleep(0.02)
            restarted = slots[0].replica.engine
            assert slots[0].generation == 1 and restarted is not engine
            assert restarted.compile and restarted.optimize == engine.optimize
            np.testing.assert_allclose(restarted.infer(samples), direct, atol=1e-6)
            rows = np.stack([fleet.submit("vgg", sample).result(timeout=60)
                             for sample in samples])
        np.testing.assert_allclose(rows, direct, atol=1e-6)

    def test_expired_deadline_fails_typed(self):
        with FleetServer(replicas=1, max_wait_ms=1.0) as fleet:
            fleet.register("vgg", _tag_model(1.0))
            future = fleet.submit("vgg", _samples(1)[0], deadline_s=-0.1)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=10)
            assert fleet._entry("vgg").metrics["shed_deadline"].value == 1

    def test_overload_sheds_typed_and_admitted_requests_complete(self):
        # Every fused forward sleeps 30 ms, so the instant burst outruns
        # the replica and the admission bound must engage.
        slow = FaultPlan(faults=[FaultSpec("replica.slow", probability=1.0,
                                           max_fires=None, seconds=0.03)])
        samples = _samples(30)
        with faults.inject(slow), FleetServer(replicas=1, max_wait_ms=1.0,
                                              queue_capacity=3) as fleet:
            fleet.register("vgg", _tag_model(1.0),
                           warmup_sample=samples[0])
            admitted, shed = [], 0
            for sample in samples:
                try:
                    admitted.append(fleet.submit("vgg", sample))
                except Overloaded as exc:
                    assert exc.retry_after_s > 0
                    shed += 1
            assert shed > 0, "30 instant submissions must overflow capacity 3"
            for future in admitted:
                np.testing.assert_allclose(future.result(timeout=60),
                                           np.ones(NUM_CLASSES), atol=1e-6)
            assert fleet._entry("vgg").metrics["shed_overloaded"].value == shed

    def test_real_bursts_shed_at_the_admission_bound(self):
        """No patching and no fault: a faster-than-service burst sheds at
        the door, because replicas pull from the bounded queue itself."""
        samples = _samples(60)
        with FleetServer(replicas=1, max_batch_size=2, max_wait_ms=1.0,
                         queue_capacity=2) as fleet:
            fleet.register("vgg", _tag_model(2.0), warmup_sample=samples[0])
            admitted, shed = [], 0
            for sample in samples:
                try:
                    admitted.append(fleet.submit("vgg", sample))
                except Overloaded:
                    shed += 1
            assert shed > 0, ("a 60-request instant burst against capacity 2 "
                              "+ one batch of 2 must shed")
            for future in admitted:
                np.testing.assert_allclose(future.result(timeout=60),
                                           np.full(NUM_CLASSES, 2.0), atol=1e-6)

    def test_stats_count_every_fused_forward(self):
        # More replica workers than cores pull from one queue, with a short
        # switch interval: each request must be popped, answered and
        # counted in exactly one batch.
        samples = _samples(40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with FleetServer(replicas=4, max_batch_size=4,
                             max_wait_ms=1.0) as fleet:
                fleet.register("vgg", _tag_model(1.0),
                               warmup_sample=samples[0])
                futures = [fleet.submit("vgg", sample) for sample in samples]
                for future in futures:
                    np.testing.assert_allclose(future.result(timeout=60),
                                               np.ones(NUM_CLASSES), atol=1e-6)
                stats = fleet.stats("vgg")
                fills = stats.batch_fill_histogram()
        finally:
            sys.setswitchinterval(interval)
        assert stats.requests == len(samples)
        assert stats.batches >= 1
        assert 1 <= stats.mean_batch_fill() <= 4
        assert sum(size * count for size, count in fills.items()) == len(samples)

    def test_replica_crash_reroutes_and_restarts(self):
        samples = _samples(12)
        with FleetServer(replicas=2, max_batch_size=2, max_wait_ms=5.0,
                         restart_backoff_s=0.05) as fleet:
            fleet.register("vgg", _tag_model(3.0), warmup_sample=samples[0])
            entry = fleet._entry("vgg")
            futures = [fleet.submit("vgg", sample) for sample in samples[:6]]
            entry.group.slots[0].replica.kill()
            futures += [fleet.submit("vgg", sample) for sample in samples[6:]]
            # No request is lost without a typed error: every future either
            # answers or fails with a fleet-typed exception.
            for future in futures:
                try:
                    row = future.result(timeout=60)
                except (FleetError, BatcherClosed):
                    continue
                np.testing.assert_allclose(row, np.full(NUM_CLASSES, 3.0),
                                           atol=1e-6)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if entry.group.slots[0].replica.alive:
                    break
                time.sleep(0.02)
            assert entry.group.slots[0].replica.alive, "replica never restarted"
            assert entry.group.slots[0].generation == 1
            assert entry.metrics["restarts"].value == 1
            # The restarted replica serves again.
            np.testing.assert_allclose(
                fleet.submit("vgg", samples[0]).result(timeout=60),
                np.full(NUM_CLASSES, 3.0), atol=1e-6)

    def test_no_replicas_left_fails_typed(self):
        with FleetServer(replicas=1, max_wait_ms=1.0, max_restarts=0) as fleet:
            fleet.register("vgg", _tag_model(1.0))
            fleet._entry("vgg").group.slots[0].replica.kill()
            future = fleet.submit("vgg", _samples(1)[0])
            with pytest.raises(ReplicaCrashed):
                future.result(timeout=10)

    def test_half_open_replica_probes_one_request_at_a_time(self, monkeypatch):
        # A recovering replica earns its traffic back one request per probe:
        # the burst queued behind its half-open breaker is not one batch.
        samples = _samples(8)
        with FleetServer(replicas=1, max_batch_size=8, max_wait_ms=50.0,
                         breaker_open_s=0.05) as fleet:
            fleet.register("vgg", _tag_model(1.0), warmup_sample=samples[0])
            replica = fleet._entry("vgg").group.slots[0].replica
            sizes = []
            run_batch = replica.run_batch

            def counted(batch):
                sizes.append(len(batch))
                return run_batch(batch)

            monkeypatch.setattr(replica, "run_batch", counted)
            for _ in range(5):
                replica.breaker.record_failure()
            deadline = time.monotonic() + 10
            while (replica.breaker.state != HALF_OPEN
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            futures = [fleet.submit("vgg", sample) for sample in samples]
            for future in futures:
                np.testing.assert_allclose(future.result(timeout=60),
                                           np.ones(NUM_CLASSES), atol=1e-6)
            assert replica.breaker.state == CLOSED
        assert sizes[:2] == [1, 1]
        assert sum(sizes) == len(samples)

    def test_unknown_model_and_bad_shapes(self):
        with FleetServer(replicas=1) as fleet:
            fleet.register("vgg", _tag_model(1.0))
            with pytest.raises(KeyError):
                fleet.submit("nope", _samples(1)[0])
            with pytest.raises(ValueError):
                fleet.submit("vgg", np.zeros((2,) + SAMPLE_SHAPE, np.float32))


def _serving_threads(before) -> list:
    """Replica-worker and supervisor threads started since ``before`` and still alive."""
    return [thread for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
            and thread.name.startswith(("fleet-replica-", "fleet-supervisor-"))]


class TestRegisterRaces:
    """``register`` builds its group outside the fleet lock; whatever it
    races, the loser gets one typed error and leaves no thread running."""

    def test_concurrent_duplicate_register_keeps_one_group(self, monkeypatch):
        before = set(threading.enumerate())
        both_built = threading.Barrier(2, timeout=60)
        original = FleetServer._build_group

        def build_then_meet(self, *args, **kwargs):
            group = original(self, *args, **kwargs)
            both_built.wait()  # both calls passed the first name check
            return group

        monkeypatch.setattr(FleetServer, "_build_group", build_then_meet)
        fleet = FleetServer(replicas=1, max_wait_ms=1.0)
        errors = []

        def register() -> None:
            try:
                fleet.register("m", _tag_model(1.0))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=register) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        try:
            assert [type(exc) for exc in errors] == [ValueError]
            assert fleet.models() == ["m"]
            np.testing.assert_allclose(
                fleet.infer("m", _samples(1)[0], timeout=60),
                np.ones(NUM_CLASSES), atol=1e-6)
        finally:
            fleet.close()
        assert _serving_threads(before) == []

    def test_register_finishing_after_close_raises(self, monkeypatch):
        before = set(threading.enumerate())
        built, release = threading.Event(), threading.Event()
        original = FleetServer._build_group

        def build_then_hold(self, *args, **kwargs):
            group = original(self, *args, **kwargs)
            built.set()
            assert release.wait(timeout=60)
            return group

        monkeypatch.setattr(FleetServer, "_build_group", build_then_hold)
        fleet = FleetServer(replicas=1, max_wait_ms=1.0)
        errors = []

        def register() -> None:
            try:
                fleet.register("late", _tag_model(1.0))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        thread = threading.Thread(target=register)
        thread.start()
        try:
            assert built.wait(timeout=60)
            fleet.close()
        finally:
            release.set()
            thread.join(timeout=60)
        assert [type(exc) for exc in errors] == [RuntimeError]
        assert fleet.models() == []
        assert _serving_threads(before) == []

    @pytest.mark.parametrize("mode", ["replace", "canary", "shadow"])
    def test_deploy_finishing_after_unregister_raises(self, monkeypatch, mode):
        before = set(threading.enumerate())
        fleet = FleetServer(replicas=1, max_wait_ms=1.0)
        fleet.register("m", _tag_model(1.0))
        built, release = threading.Event(), threading.Event()
        original = FleetServer._build_group

        def build_then_hold(self, *args, **kwargs):
            group = original(self, *args, **kwargs)
            built.set()
            assert release.wait(timeout=60)
            return group

        monkeypatch.setattr(FleetServer, "_build_group", build_then_hold)
        errors = []

        def deploy() -> None:
            try:
                fleet.deploy("m", _tag_model(2.0), version=2, mode=mode)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        thread = threading.Thread(target=deploy)
        thread.start()
        try:
            assert built.wait(timeout=60)
            fleet.unregister("m")
        finally:
            release.set()
            thread.join(timeout=60)
            fleet.close()
        assert [type(exc) for exc in errors] == [RuntimeError]
        assert fleet.models() == []
        assert _serving_threads(before) == []


class TestSwapRaces:
    def test_submit_racing_a_replace_joins_the_new_group(self, monkeypatch):
        # A replace deploy retires the group ``submit`` just chose, and the
        # supervisor closes its queue, before the put: the request joins
        # the group serving now instead of shedding.
        sample = _samples(1)[0]
        put = AdmissionQueue.put
        swapped = []

        def swap_then_put(queue, request):
            if not swapped:
                swapped.append(queue)
                fleet.deploy("tag", _tag_model(2.0), version=2)
                deadline = time.monotonic() + 10
                while not queue.closed and time.monotonic() < deadline:
                    time.sleep(0.01)
            return put(queue, request)

        with FleetServer(replicas=1, max_wait_ms=1.0) as fleet:
            fleet.register("tag", _tag_model(1.0), warmup_sample=sample)
            monkeypatch.setattr(AdmissionQueue, "put", swap_then_put)
            future = fleet.submit("tag", sample)
            np.testing.assert_allclose(future.result(timeout=60),
                                       np.full(NUM_CLASSES, 2.0), atol=1e-6)
            assert swapped[0].closed
            assert fleet._entry("tag").metrics["shed_overloaded"].value == 0


class TestRolloutEndToEnd:
    def test_canary_auto_promotes_healthy_version(self):
        samples = _samples(40)
        with FleetServer(replicas=2, max_wait_ms=1.0) as fleet:
            fleet.register("tag", _tag_model(1.0), warmup_sample=samples[0])
            # max_p99_ratio is slack: this test exercises the promote path,
            # not latency discrimination, and a 1-core CI box jitters.
            rollout = fleet.deploy("tag", _tag_model(2.0), version=2,
                                   mode="canary", fraction=0.25, min_requests=5,
                                   max_p99_ratio=100.0)
            for sample in samples:
                row = fleet.submit("tag", sample).result(timeout=60)
                # Either arm answers correctly for its version, never a mix.
                assert np.allclose(row, 1.0) or np.allclose(row, 2.0)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and rollout.decision is None:
                time.sleep(0.02)
            assert rollout.decision == "promote"
            entry = fleet._entry("tag")
            assert entry.metrics["promotions"].value == 1
            assert entry.group.version == 2
            # Post-promotion traffic is answered only by v2.
            row = fleet.submit("tag", samples[0]).result(timeout=60)
            np.testing.assert_allclose(row, np.full(NUM_CLASSES, 2.0), atol=1e-6)

    def test_canary_rolls_back_when_candidate_dies(self):
        samples = _samples(30)
        with FleetServer(replicas=1, max_wait_ms=1.0, max_restarts=0) as fleet:
            fleet.register("tag", _tag_model(1.0), warmup_sample=samples[0])
            rollout = fleet.deploy("tag", _tag_model(2.0), version=2,
                                   mode="canary", fraction=0.5, min_requests=3,
                                   max_error_rate=0.2)
            for slot in fleet._entry("tag").canary["group"].slots:
                slot.replica.kill()
            rows = [fleet.submit("tag", sample).result(timeout=60)
                    for sample in samples]
            # The dead candidate never answers a client; baseline covers.
            for row in rows:
                np.testing.assert_allclose(row, np.ones(NUM_CLASSES), atol=1e-6)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and rollout.decision is None:
                time.sleep(0.02)
            assert rollout.decision == "rollback"
            entry = fleet._entry("tag")
            assert entry.metrics["rollbacks"].value == 1
            assert entry.group.version == 1
            assert entry.canary is None

    def test_canary_crash_mid_traffic_falls_back_to_baseline(self, monkeypatch):
        # The only candidate replica crashes on its first batch while more
        # canary requests wait in its queue: the crashed batch and the
        # stranded queue both rejoin the baseline, so no client sees the
        # dying candidate.
        samples = _samples(40)
        with FleetServer(replicas=1, max_batch_size=4, max_wait_ms=1.0,
                         max_restarts=0) as fleet:
            fleet.register("tag", _tag_model(1.0), warmup_sample=samples[0])
            rollout = fleet.deploy("tag", _tag_model(2.0), version=2,
                                   mode="canary", fraction=0.5,
                                   min_requests=100)
            candidate = fleet._entry("tag").canary["group"].slots[0].replica
            release = threading.Event()
            run_batch = candidate.run_batch

            def held(batch):
                release.wait(10)
                return run_batch(batch)

            monkeypatch.setattr(candidate, "run_batch", held)
            crash = FaultPlan(faults=[FaultSpec("replica.crash",
                                                replica="/v2/r0.", at=0)])
            with faults.inject(crash) as injector:
                futures = [fleet.submit("tag", sample) for sample in samples]
                release.set()
                rows = [future.result(timeout=60) for future in futures]
                assert injector.fire_counts() == {"replica.crash": 1}
            for row in rows:
                np.testing.assert_allclose(row, np.ones(NUM_CLASSES), atol=1e-6)
            canary = rollout.report()["arms"]["canary"]
            assert canary["errors"] == canary["requests"] >= 5

    def test_shadow_compares_but_never_answers(self):
        samples = _samples(10)
        with FleetServer(replicas=1, max_wait_ms=1.0) as fleet:
            fleet.register("tag", _tag_model(1.0), warmup_sample=samples[0])
            rollout = fleet.deploy("tag", _tag_model(2.0), version=2,
                                   mode="shadow", tolerance=1e-5)
            for sample in samples:
                row = fleet.submit("tag", sample).result(timeout=60)
                np.testing.assert_allclose(row, np.ones(NUM_CLASSES), atol=1e-6)
            deadline = time.monotonic() + 10
            while (time.monotonic() < deadline
                   and rollout.report()["compared"] < len(samples)):
                time.sleep(0.02)
            report = fleet.shadow_report("tag")
            assert report["compared"] == len(samples)
            assert report["mismatches"] == len(samples)
            assert report["max_abs_diff"] == pytest.approx(1.0)
            fleet.stop_shadow("tag")
            assert fleet.shadow_report("tag") is None

    def test_clean_shadow_promotes_on_request(self):
        samples = _samples(6)
        with FleetServer(replicas=1, max_wait_ms=1.0) as fleet:
            fleet.register("tag", _tag_model(5.0), warmup_sample=samples[0])
            rollout = fleet.deploy("tag", _tag_model(5.0), version=2, mode="shadow")
            for sample in samples:
                fleet.submit("tag", sample).result(timeout=60)
            deadline = time.monotonic() + 10
            while (time.monotonic() < deadline
                   and rollout.report()["compared"] < len(samples)):
                time.sleep(0.02)
            assert rollout.clean
            fleet.promote_shadow("tag")
            assert fleet._entry("tag").group.version == 2
            row = fleet.submit("tag", samples[0]).result(timeout=60)
            np.testing.assert_allclose(row, np.full(NUM_CLASSES, 5.0), atol=1e-6)


class TestStreamingSessions:
    def test_chunked_stream_matches_one_shot_forward(self):
        """The acceptance bar: chunked streaming == fixed-T forward to 1e-6."""
        model = _tiny_model(seed=3, timesteps=6)
        frames = _samples(6, seed=9)  # six genuinely different event frames
        one_shot = InferenceEngine(model).infer(frames[:, None])  # (T,1,C,H,W)
        with FleetServer(replicas=2, max_wait_ms=1.0) as fleet:
            fleet.register("stream", model)
            session = fleet.open_session("stream")
            pinned = session.replica_name
            session.send_chunk(frames[:2])
            # Batch traffic interleaves with the stream on the same fleet
            # without perturbing the carried membrane state.
            fleet.submit("stream", frames[0]).result(timeout=60)
            session.send_chunk(frames[2:3])
            final = session.send_chunk(frames[3:])
            assert session.replica_name == pinned  # affinity held
            assert session.timesteps_seen == 6
            np.testing.assert_allclose(final, one_shot[0], atol=1e-6)
            session.close()
            with pytest.raises(SessionClosed):
                session.send_chunk(frames[:1])

    @pytest.mark.parametrize("kind", ["htt", "supernet"])
    def test_chunked_stream_of_htt_model_matches_one_shot(self, kind):
        """Unmerged HTT layers resume their schedule at every chunk boundary."""
        # Residual paths keep spikes alive through a tiny randomly
        # initialised network, so every HTT layer sees input.
        model = spiking_resnet18(num_classes=NUM_CLASSES, in_channels=3, timesteps=4,
                                 width_scale=0.07, rng=np.random.default_rng(3))
        if kind == "htt":
            convert_to_tt(model, variant="htt", rank=4, timesteps=4, schedule="FFHH")
            timed = [m for m in model.modules() if isinstance(m, HTTConv2d)]
        else:
            model = TTSupernet(model, max_rank=4, schedule="FFHH")
            model.apply_config([LayerChoice("htt", 4) for _ in model.space.layers])
            timed = model.layers()
        frames = _samples(4, seed=9)
        # Calibrate the batch norms: with the initial running statistics no
        # spike gets past the first layer and every schedule looks alike.
        with no_grad():
            for seed in range(3):
                model.run_timesteps(_samples(16, seed=seed).reshape(4, 4, *SAMPLE_SHAPE))
        model.eval()
        engine = InferenceEngine(model, merge=False)
        one_shot = engine.infer(frames[:, None])[0]
        state = engine.stream_state()
        total = np.zeros_like(one_shot)
        for t in range(4):
            logits_sum, state = engine.infer_stream(frames[t:t + 1], state)
            total += logits_sum
        assert state.timesteps_seen == 4
        np.testing.assert_allclose(total / 4, one_shot, atol=1e-6)
        # Not vacuous: the half timesteps change the logits.
        for layer in timed:
            layer.schedule = [False] * 4
        all_full = InferenceEngine(model, merge=False).infer(frames[:, None])[0]
        assert np.abs(all_full - one_shot).max() > 1e-3

    def test_session_repins_after_replica_crash(self):
        model = _tiny_model(seed=3, timesteps=6)
        frames = _samples(6, seed=9)
        one_shot = InferenceEngine(model).infer(frames[:, None])
        with FleetServer(replicas=2, max_wait_ms=1.0, max_restarts=0) as fleet:
            fleet.register("stream", model)
            session = fleet.open_session("stream")
            session.send_chunk(frames[:3])
            pinned = session.replica_name
            entry = fleet._entry("stream")
            for slot in entry.group.slots:
                if slot.replica.name == pinned:
                    slot.replica.kill()
            final = session.send_chunk(frames[3:])
            assert session.repins == 1
            assert session.replica_name != pinned
            # The temporal state travelled with the session: the stream is
            # still numerically the one-shot forward.
            np.testing.assert_allclose(final, one_shot[0], atol=1e-6)

    def test_idle_sessions_are_evicted(self):
        with FleetServer(replicas=1, max_wait_ms=1.0,
                         session_idle_timeout_s=0.1) as fleet:
            fleet.register("stream", _tag_model(1.0))
            session = fleet.open_session("stream")
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not session.closed:
                time.sleep(0.02)
            assert session.closed
            assert session.close_reason == "idle"
            with pytest.raises(SessionClosed):
                session.send_chunk(np.zeros((1,) + SAMPLE_SHAPE, np.float32))
            assert not fleet._entry("stream").sessions


class _CollectExporter:
    def __init__(self):
        self.spans = []

    def export(self, span):
        self.spans.append(span)


class TestObservability:
    def test_request_trace_tree_and_metrics(self):
        tracer = get_tracer()
        exporter = _CollectExporter()
        tracer.set_exporters((exporter,))
        tracer.enabled = True
        registry = default_registry()
        try:
            with FleetServer(replicas=2, max_wait_ms=1.0) as fleet:
                fleet.register("traced", _tag_model(1.0))
                fleet.submit("traced", _samples(1)[0]).result(timeout=60)
                assert registry.get("repro_fleet_queue_depth",
                                    {"model": "traced"}) is not None
                assert registry.get(
                    "repro_fleet_replica_outstanding",
                    {"model": "traced", "replica": "0"}) is not None
                utilization = registry.get(
                    "repro_fleet_replica_utilization",
                    {"model": "traced", "replica": "0"})
                assert 0.0 <= utilization.value <= 1.0
        finally:
            tracer.enabled = False
            tracer.set_exporters(())
        roots = [span for span in exporter.spans if span.name == "serve.request"]
        assert roots, "fleet requests must produce serve.request roots"
        root = roots[-1]
        assert root.attrs.get("arm") == "baseline"
        assert root.attrs.get("version") == "1"
        assert root.find("serve.queue_wait") is not None
        batch = root.find("serve.batch")
        assert batch is not None and batch.attrs["replica"].startswith("traced/v1/r")
        assert batch.find("engine.infer") is not None, \
            "the fused forward must nest inside the fleet request tree"

    def test_unregister_removes_fleet_metrics(self):
        registry = default_registry()
        with FleetServer(replicas=1, max_wait_ms=1.0) as fleet:
            fleet.register("gone", _tag_model(1.0))
            fleet.submit("gone", _samples(1)[0]).result(timeout=60)
            assert registry.get("repro_fleet_queue_depth",
                                {"model": "gone"}) is not None
            fleet.unregister("gone")
            assert registry.get("repro_fleet_queue_depth",
                                {"model": "gone"}) is None
            assert registry.get("repro_serve_requests_total",
                                {"model": "gone"}) is None
            with pytest.raises(KeyError):
                fleet.submit("gone", _samples(1)[0])

    def test_close_resolves_queued_requests_typed(self, monkeypatch):
        # Blind the replica workers' pop so submissions stay queued, then
        # close the fleet: every queued future must resolve with a typed
        # error, not hang.
        monkeypatch.setattr(AdmissionQueue, "pop_batch",
                            lambda self, max_size, max_wait_s: time.sleep(0.005) or [])
        fleet = FleetServer(replicas=1, max_wait_ms=1.0, queue_capacity=16)
        fleet.register("vgg", _tag_model(1.0))
        futures = [fleet.submit("vgg", sample) for sample in _samples(8)]
        fleet.close()
        for future in futures:
            assert future.done()
            exc = None if future.cancelled() else future.exception()
            assert future.cancelled() or isinstance(
                exc, (BatcherClosed, FleetError))
