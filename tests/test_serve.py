"""Tests for the ``repro.serve`` subsystem.

Covers the five serving components plus the facade:

* :class:`InferenceEngine` — snapshot semantics and request shapes;
* :class:`ModelRegistry` — versioning, warm-up at load, atomic hot-swap;
* :class:`ResponseCache` — LRU eviction, digest keys, isolation copies;
* :class:`ServerStats` — percentiles, QPS, batch-fill histogram;
* :class:`InferenceServer` — the wired-together request path: batching
  policy and concurrency safety (32+ threads, exactly one response per
  request, exceptions forwarded), caching, hot-swap and teardown.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.fleet import AdmissionQueue, FleetServer
from repro.models.builder import convert_to_tt, count_tt_layers
from repro.models.vgg import spiking_vgg9
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.serve import (
    BatcherClosed,
    InferenceEngine,
    InferenceServer,
    ModelRegistry,
    ResponseCache,
    ServerStats,
    input_digest,
)

TIMESTEPS = 2
SAMPLE_SHAPE = (3, 10, 10)


@pytest.fixture(scope="module")
def tiny_engine() -> InferenceEngine:
    """A merged serving snapshot of a tiny PTT VGG-9 (shared: engines are frozen)."""
    model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=TIMESTEPS,
                         width_scale=0.08, rng=np.random.default_rng(0))
    convert_to_tt(model, variant="ptt", rank=3)
    return InferenceEngine(model)


def _echo_batch(batch: np.ndarray) -> np.ndarray:
    """Identity-revealing stand-in for an engine: row i -> that sample's mean."""
    return batch.mean(axis=(1, 2, 3))


def _sample(value: float) -> np.ndarray:
    return np.full(SAMPLE_SHAPE, np.float32(value))


def _tiny_model(seed: int = 0):
    return spiking_vgg9(num_classes=4, in_channels=3, timesteps=TIMESTEPS,
                        width_scale=0.08, rng=np.random.default_rng(seed))


def _stub_server(infer, **server_kwargs) -> InferenceServer:
    """An ``InferenceServer`` whose model ``"stub"`` answers through ``infer``.

    The served engine is the one ``register`` returns, so replacing its
    ``infer`` swaps in any batch function (echo, gated, failing).
    """
    server = InferenceServer(**server_kwargs)
    engine = server.register("stub", _tiny_model())
    engine.infer = infer
    return server


class TestInferenceEngine:
    def test_accepts_all_request_shapes(self, tiny_engine, rng):
        single = rng.random(SAMPLE_SHAPE).astype(np.float32)
        batch = rng.random((5,) + SAMPLE_SHAPE).astype(np.float32)
        encoded = rng.random((TIMESTEPS, 5) + SAMPLE_SHAPE).astype(np.float32)
        assert tiny_engine.infer(single).shape == (4,)
        assert tiny_engine.infer(batch).shape == (5, 4)
        assert tiny_engine.infer(encoded).shape == (5, 4)
        with pytest.raises(ValueError):
            tiny_engine.infer(rng.random((10, 10)))

    def test_single_sample_equals_batch_row(self, tiny_engine, rng):
        batch = rng.random((3,) + SAMPLE_SHAPE).astype(np.float32)
        np.testing.assert_allclose(tiny_engine.infer(batch[0]),
                                   tiny_engine.infer(batch)[0], atol=1e-6)

    def test_counts_requests(self, rng):
        model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=TIMESTEPS,
                             width_scale=0.08, rng=np.random.default_rng(0))
        engine = InferenceEngine(model)
        assert engine.requests_served == 0
        engine.infer(rng.random((3,) + SAMPLE_SHAPE).astype(np.float32))
        engine.infer(rng.random(SAMPLE_SHAPE).astype(np.float32))
        assert engine.requests_served == 4

    def test_dense_model_merges_zero_layers(self):
        model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=TIMESTEPS,
                             width_scale=0.08)
        engine = InferenceEngine(model)
        assert engine.merged_layers == 0

    def test_adopting_without_copy_merges_in_place(self):
        model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=TIMESTEPS,
                             width_scale=0.08, rng=np.random.default_rng(0))
        convert_to_tt(model, variant="ptt", rank=3)
        engine = InferenceEngine(model, merge=True, copy_model=False)
        assert engine.model is model
        assert count_tt_layers(model) == 0
        assert not model.training

    def test_rejects_non_spiking_model(self):
        with pytest.raises(TypeError):
            InferenceEngine(object())  # type: ignore[arg-type]

    def test_timesteps_override_retimes_the_snapshot(self, rng):
        model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=4,
                             width_scale=0.08, rng=np.random.default_rng(0))
        engine = InferenceEngine(model, timesteps=2)
        assert engine.timesteps == 2 and engine.model.timesteps == 2
        assert model.timesteps == 4                 # source model untouched
        sample = rng.random(SAMPLE_SHAPE).astype(np.float32)
        assert engine.infer(sample).shape == (4,)   # serves at the shorter T
        with pytest.raises(ValueError):
            InferenceEngine(model, timesteps=0)

    def test_warmup_needs_sample_or_shape(self, tiny_engine):
        with pytest.raises(ValueError):
            tiny_engine.warmup()
        tiny_engine.warmup(input_shape=SAMPLE_SHAPE)


class TestServerBatching:
    def test_every_request_gets_its_own_answer_under_contention(self):
        """>= 32 threads submit simultaneously; each gets exactly its result."""
        num_threads, per_thread = 32, 4
        results: dict = {}
        errors: list = []
        with _stub_server(_echo_batch, max_batch_size=8, max_wait_ms=5,
                          cache_capacity=0) as server:
            barrier = threading.Barrier(num_threads)

            def client(tid: int) -> None:
                try:
                    barrier.wait()
                    for j in range(per_thread):
                        value = tid * 100 + j
                        results[(tid, j)] = float(server.infer("stub", _sample(value)))
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [threading.Thread(target=client, args=(tid,))
                       for tid in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = server.stats("stub")

        assert not errors
        assert len(results) == num_threads * per_thread
        for (tid, j), value in results.items():
            assert value == pytest.approx(tid * 100 + j, abs=1e-3)
        assert stats.requests == num_threads * per_thread
        assert max(stats.batch_fill_histogram()) <= 8
        assert sum(size * count for size, count
                   in stats.batch_fill_histogram().items()) == stats.requests

    def test_batches_fill_up_to_max_batch_size(self):
        with _stub_server(_echo_batch, max_batch_size=4, max_wait_ms=50) as server:
            futures = [server.submit("stub", _sample(i)) for i in range(8)]
            for future in futures:
                future.result(timeout=5)
            histogram = server.stats("stub").batch_fill_histogram()
            assert max(histogram) <= 4
            assert server.stats("stub").batches >= 2

    def test_exceptions_propagate_to_every_request_in_the_batch(self):
        def explode(batch):
            raise RuntimeError("model fell over")

        with _stub_server(explode, max_batch_size=4, max_wait_ms=20) as server:
            futures = [server.submit("stub", _sample(i)) for i in range(4)]
            for future in futures:
                with pytest.raises(RuntimeError, match="fell over"):
                    future.result(timeout=5)

    def test_stats_are_recorded_before_the_future_resolves(self):
        """A done-callback (run inside ``set_result``) already sees the request
        and its batch counted: the worker records before it publishes."""
        attached = threading.Event()
        seen: list = []

        def gated(batch: np.ndarray) -> np.ndarray:
            attached.wait(timeout=5)
            return batch.mean(axis=(1, 2, 3))

        with _stub_server(gated, max_batch_size=1, max_wait_ms=0) as server:
            stats = server.stats("stub")
            future = server.submit("stub", _sample(1))
            future.add_done_callback(
                lambda _: seen.append((stats.requests, stats.batches)))
            attached.set()
            future.result(timeout=5)
        assert seen == [(1, 1)]

    @pytest.mark.parametrize("server_kind", ["inference", "fleet"])
    def test_short_engine_output_fails_every_request(self, server_kind):
        """An engine answering fewer rows than requests fails the whole
        batch: no future is stranded, none is counted as served."""
        def short(batch: np.ndarray) -> np.ndarray:
            return batch.mean(axis=(1, 2, 3))[:-1]   # one row short, any size

        if server_kind == "inference":
            server = _stub_server(short, max_batch_size=4, max_wait_ms=50)
        else:
            server = FleetServer(replicas=2, max_batch_size=4, max_wait_ms=50)
            server.register("stub", _tiny_model())
            for slot in server._entry("stub").group.slots:
                slot.replica.engine.infer = short
        with server:
            futures = [server.submit("stub", _sample(i)) for i in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="rows"):
                    future.result(timeout=5)
            assert server.stats("stub").requests == 0

    def test_close_fails_queued_requests_then_rejects(self):
        """close() resolves every queued future, even while the worker is
        wedged inside the engine, and returns despite the wedge; the
        in-flight batch still answers once the engine returns."""
        started = threading.Event()
        release = threading.Event()

        def blocking(batch: np.ndarray) -> np.ndarray:
            started.set()
            release.wait(timeout=10)
            return batch.mean(axis=(1, 2, 3))

        server = _stub_server(blocking, max_batch_size=1, max_wait_ms=1)
        first = server.submit("stub", _sample(0))
        assert started.wait(timeout=5)            # worker is inside blocking()
        queued = [server.submit("stub", _sample(i)) for i in range(1, 5)]
        closer = threading.Thread(target=lambda: server.close(timeout=0.2))
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive()              # close returns despite the wedge
        for future in queued:
            assert future.done()
            assert future.cancelled() or isinstance(future.exception(),
                                                    BatcherClosed)
        with pytest.raises(RuntimeError):
            server.submit("stub", _sample(9))
        server.close()                            # idempotent
        # The in-flight request still resolves through the normal batch path.
        release.set()
        assert float(first.result(timeout=5)) == pytest.approx(0.0, abs=1e-3)

    def test_submit_racing_unregister_fails_typed(self, monkeypatch):
        """A model torn down between picking its queue and the put fails the
        request with ``BatcherClosed``: the unbounded server never sheds."""
        put = AdmissionQueue.put

        def unregister_then_put(queue, request):
            monkeypatch.setattr(AdmissionQueue, "put", put)
            server.unregister("stub")
            return put(queue, request)

        with _stub_server(_echo_batch) as server:
            monkeypatch.setattr(AdmissionQueue, "put", unregister_then_put)
            with pytest.raises(BatcherClosed):
                server.submit("stub", _sample(0))

    def test_submit_validates_shape(self):
        with _stub_server(_echo_batch) as server:
            with pytest.raises(ValueError):
                server.submit("stub", np.zeros((2,) + SAMPLE_SHAPE, dtype=np.float32))

    def test_predict_convenience(self, tiny_engine, rng):
        sample = rng.random(SAMPLE_SHAPE).astype(np.float32)
        with InferenceServer(max_wait_ms=1) as server:
            server.register("vgg", tiny_engine)
            assert server.predict("vgg", sample) == int(np.argmax(tiny_engine.infer(sample)))

    def test_the_published_engine_is_the_served_object(self):
        """Every fused forward runs on the engine ``register`` / ``swap``
        return: an instance attribute on it intercepts the served batches."""
        sizes: list = []
        with InferenceServer(max_batch_size=4, max_wait_ms=20,
                             cache_capacity=0) as server:
            for publish in (server.register, server.swap):
                engine = publish("vgg", _tiny_model())
                assert server.registry.get("vgg") is engine
                engine.infer = lambda batch: sizes.append(len(batch)) or _echo_batch(batch)
                futures = [server.submit("vgg", _sample(i)) for i in range(3)]
                rows = [float(future.result(timeout=10)) for future in futures]
                assert rows == pytest.approx([0.0, 1.0, 2.0], abs=1e-3)
        assert sum(sizes) == 6


class TestModelRegistry:
    def _model(self, seed: int = 0):
        return spiking_vgg9(num_classes=4, in_channels=3, timesteps=TIMESTEPS,
                            width_scale=0.08, rng=np.random.default_rng(seed))

    def test_register_get_and_auto_versioning(self):
        registry = ModelRegistry()
        first = registry.register("vgg", self._model(0))
        second = registry.register("vgg", self._model(1))
        assert registry.versions("vgg") == [1, 2]
        assert registry.latest_version("vgg") == 2
        assert registry.get("vgg") is second
        assert registry.get("vgg", version=1) is first
        assert "vgg" in registry and len(registry) == 1

    def test_warmup_runs_before_publication(self):
        registry = ModelRegistry()
        engine = registry.register("vgg", self._model(),
                                   warmup_sample=np.zeros(SAMPLE_SHAPE, np.float32))
        assert engine.requests_served >= 1

    def test_duplicate_version_rejected(self):
        registry = ModelRegistry()
        registry.register("vgg", self._model(), version="prod")
        with pytest.raises(ValueError, match="already has"):
            registry.register("vgg", self._model(), version="prod")

    def test_swap_is_atomic_and_moves_latest(self):
        registry = ModelRegistry()
        registry.register("vgg", self._model(0))
        old = registry.get("vgg")
        with pytest.raises(KeyError):
            registry.swap("missing", self._model(1))
        new = registry.swap("vgg", self._model(1))
        assert registry.get("vgg") is new and new is not old
        assert registry.get("vgg", version=1) is old   # old version still addressable

    def test_unregister_repoints_latest(self):
        registry = ModelRegistry()
        registry.register("vgg", self._model(0))
        registry.register("vgg", self._model(1))
        registry.unregister("vgg", version=2)
        assert registry.latest_version("vgg") == 1
        registry.unregister("vgg")
        with pytest.raises(KeyError):
            registry.get("vgg")

    def test_duplicate_version_fails_before_warmup(self):
        registry = ModelRegistry()
        registry.register("vgg", self._model(0), version="prod")
        spare = InferenceEngine(self._model(1))
        with pytest.raises(ValueError, match="already has"):
            registry.register("vgg", spare, version="prod",
                              warmup_sample=np.zeros(SAMPLE_SHAPE, np.float32))
        assert spare.requests_served == 0           # rejected before warm-up ran

    def test_make_latest_false_keeps_pointer(self):
        registry = ModelRegistry()
        registry.register("vgg", self._model(0))
        registry.register("vgg", self._model(1), make_latest=False)
        assert registry.latest_version("vgg") == 1

    def test_describe_lists_every_version(self):
        registry = ModelRegistry()
        registry.register("vgg", self._model(0))
        registry.register("vgg", self._model(1))
        rows = registry.describe()
        assert [(name, version, latest) for name, version, latest, _ in rows] == \
            [("vgg", 1, False), ("vgg", 2, True)]


class TestResponseCache:
    def test_lru_eviction_order(self):
        cache = ResponseCache(capacity=2)
        cache.put("a", np.array([1.0]))
        cache.put("b", np.array([2.0]))
        assert cache.get("a") is not None          # refresh 'a'
        cache.put("c", np.array([3.0]))            # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert len(cache) == 2

    def test_hit_miss_counters(self):
        cache = ResponseCache(capacity=4)
        assert cache.get("x") is None
        cache.put("x", np.array([1.0]))
        cache.get("x")
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_digest_separates_content_shape_dtype(self, rng):
        a = rng.random((3, 4, 4)).astype(np.float32)
        assert input_digest(a) == input_digest(a.copy())
        assert input_digest(a) != input_digest(a + 1e-6)
        assert input_digest(a) != input_digest(a.reshape(3, 2, 8))
        assert input_digest(a) != input_digest(a.astype(np.float64))

    def test_values_are_isolated_copies(self):
        cache = ResponseCache(capacity=2)
        value = np.array([1.0, 2.0])
        cache.put("k", value)
        value[:] = -1                               # caller mutates after put
        fetched = cache.get("k")
        np.testing.assert_array_equal(fetched, [1.0, 2.0])
        fetched[:] = -2                             # caller mutates the response
        np.testing.assert_array_equal(cache.get("k"), [1.0, 2.0])

    def test_counters_export_through_metrics_registry(self):
        registry = MetricsRegistry()
        cache = ResponseCache(capacity=2, name="exported", registry=registry)
        labels = {"model": "exported"}
        cache.get("miss")
        cache.put("a", np.array([1.0]))
        cache.put("b", np.array([2.0]))
        cache.put("c", np.array([3.0]))            # evicts 'a'
        cache.get("c")
        assert registry.get("repro_serve_response_cache_hits_total",
                            labels).value == cache.hits == 1
        assert registry.get("repro_serve_response_cache_misses_total",
                            labels).value == cache.misses == 1
        assert registry.get("repro_serve_response_cache_evictions_total",
                            labels).value == cache.evictions == 1
        cache.deregister_metrics()
        assert registry.get("repro_serve_response_cache_hits_total",
                            labels) is None
        # The plain attributes keep working after deregistration.
        cache.get("c")
        assert cache.hits == 2

    def test_anonymous_cache_stays_out_of_the_registry(self):
        before = len(default_registry().snapshot())
        cache = ResponseCache(capacity=2)
        cache.put("k", np.array([1.0]))
        assert len(default_registry().snapshot()) == before

    def test_lookup_and_clear(self, rng):
        cache = ResponseCache(capacity=2)
        sample = rng.random(SAMPLE_SHAPE).astype(np.float32)
        key, value = cache.lookup(sample)
        assert value is None
        cache.put(key, np.array([1.0]))
        assert cache.lookup(sample)[1] is not None
        cache.clear()
        assert len(cache) == 0


class TestServerStats:
    def test_percentiles_match_numpy(self):
        stats = ServerStats()
        latencies = [i / 1000.0 for i in range(1, 101)]
        for latency in latencies:
            stats.record_request(latency)
        summary = stats.latency_summary()
        assert summary["p50_s"] == pytest.approx(np.percentile(latencies, 50))
        assert summary["p95_s"] == pytest.approx(np.percentile(latencies, 95))
        assert summary["p99_s"] == pytest.approx(np.percentile(latencies, 99))
        assert summary["count"] == 100

    def test_qps_over_observed_window(self):
        stats = ServerStats()
        # 10 requests completing over one virtual second.
        for i in range(10):
            stats.record_request(0.0, timestamp=100.0 + i / 9.0)
        assert stats.qps() == pytest.approx(10.0, rel=0.01)

    def test_batch_fill_histogram_and_mean(self):
        stats = ServerStats()
        for size in (4, 4, 8):
            stats.record_batch(size)
        assert stats.batch_fill_histogram() == {4: 2, 8: 1}
        assert stats.mean_batch_fill() == pytest.approx(16 / 3)

    def test_empty_stats_render_zeros(self):
        table = ServerStats().as_table()
        assert table["requests"] == 0 and table["qps"] == 0
        assert "p99_ms" in table
        assert ServerStats().format_table()        # renders without traffic

    def test_bounded_latency_window(self):
        stats = ServerStats(max_samples=10)
        for i in range(25):
            stats.record_request(float(i))
        assert stats.latency_summary()["count"] == 10
        assert stats.requests == 25                # totals are not windowed

    def test_reset(self):
        stats = ServerStats()
        stats.record_request(0.5)
        stats.record_batch(4)
        stats.record_cache(hit=True)
        stats.reset()
        assert stats.requests == 0 and stats.batches == 0 and stats.cache_hits == 0


class TestInferenceServer:
    def test_end_to_end_burst(self, tiny_engine, rng):
        """64 concurrent submissions: all answered, stats populated."""
        samples = rng.random((64,) + SAMPLE_SHAPE).astype(np.float32)
        direct = tiny_engine.infer(samples)
        with InferenceServer(max_batch_size=16, max_wait_ms=10) as server:
            server.register("vgg", tiny_engine, warmup_sample=samples[0])
            futures = [server.submit("vgg", sample) for sample in samples]
            rows = np.stack([future.result(timeout=30) for future in futures])
            np.testing.assert_allclose(rows, direct, atol=1e-6)
            table = server.stats_table()["vgg"]
            assert table["requests"] >= 64
            assert table["qps"] > 0 and table["p99_ms"] > 0
            assert server.stats("vgg").mean_batch_fill() > 1.0

    def test_cache_short_circuits_repeats(self, tiny_engine, rng):
        sample = rng.random(SAMPLE_SHAPE).astype(np.float32)
        with InferenceServer(max_wait_ms=1) as server:
            server.register("vgg", tiny_engine)
            first = server.infer("vgg", sample)
            second = server.infer("vgg", sample)
            np.testing.assert_array_equal(first, second)
            assert server.cache("vgg").hits == 1
            assert server.stats("vgg").cache_hits == 1
            # use_cache=False bypasses the lookup entirely.
            server.infer("vgg", sample, use_cache=False)
            assert server.cache("vgg").hits == 1

    def test_hot_swap_changes_answers_and_cache_keys(self, rng):
        sample = rng.random(SAMPLE_SHAPE).astype(np.float32)
        model_a = spiking_vgg9(num_classes=4, in_channels=3, timesteps=TIMESTEPS,
                               width_scale=0.08, rng=np.random.default_rng(0))
        model_b = spiking_vgg9(num_classes=4, in_channels=3, timesteps=TIMESTEPS,
                               width_scale=0.08, rng=np.random.default_rng(9))
        # Give v2 unmistakably different logits regardless of spiking activity.
        model_b.classifier.bias.data[:] = np.arange(4, dtype=np.float32)
        with InferenceServer(max_wait_ms=1) as server:
            server.register("vgg", model_a)
            before = server.infer("vgg", sample)
            server.swap("vgg", model_b)
            after = server.infer("vgg", sample)
            assert server.registry.latest_version("vgg") == 2
            # The cached v1 response must not answer for v2.
            assert server.cache("vgg").hits == 0
            assert not np.allclose(before, after)

    def test_unregister_tears_down_plumbing(self, tiny_engine, rng):
        registry = default_registry()
        labels = {"model": "ephemeral"}
        sample = rng.random(SAMPLE_SHAPE).astype(np.float32)
        with InferenceServer(max_wait_ms=1) as server:
            server.register("ephemeral", tiny_engine)
            server.infer("ephemeral", sample)
            assert registry.get("repro_serve_requests_total", labels) is not None
            assert registry.get("repro_serve_response_cache_misses_total",
                                labels) is not None
            serving = [t for t in threading.enumerate() if "ephemeral" in t.name]
            assert serving
            server.unregister("ephemeral")
            # Plumbing is gone: serving threads stopped, instruments
            # deregistered, the name no longer served.
            assert registry.get("repro_serve_requests_total", labels) is None
            assert registry.get("repro_serve_response_cache_misses_total",
                                labels) is None
            assert not [t for t in serving if t.is_alive()]
            with pytest.raises(KeyError):
                server.submit("ephemeral", sample)
            with pytest.raises(KeyError):
                server.stats("ephemeral")

    def test_unregister_single_version_keeps_serving(self, tiny_engine, rng):
        sample = rng.random(SAMPLE_SHAPE).astype(np.float32)
        with InferenceServer(max_wait_ms=1) as server:
            server.register("multi", tiny_engine, version=1)
            server.register("multi", tiny_engine, version=2)
            server.unregister("multi", version=2)
            assert server.registry.latest_version("multi") == 1
            assert server.infer("multi", sample).shape == (4,)

    def test_hot_swap_under_concurrent_traffic(self, rng):
        """Hammer a served name from several threads across a hot swap.

        Tag models (all-zero weights, constant classifier bias) answer with
        exactly their bias, so version identity is checkable per response:
        every answer must be all-v1 or all-v2 (never a mix), requests
        submitted after ``swap`` returned must all be v2, and v1 cache
        entries must never answer v2 traffic.
        """
        def tag_model(tag: float):
            model = spiking_vgg9(num_classes=4, in_channels=3,
                                 timesteps=TIMESTEPS, width_scale=0.08,
                                 rng=np.random.default_rng(0))
            for param in model.parameters():
                param.data[:] = 0.0
            model.classifier.bias.data[:] = np.float32(tag)
            return model

        pool = [rng.random(SAMPLE_SHAPE).astype(np.float32) for _ in range(6)]
        swapped = threading.Event()
        stop = threading.Event()
        outcomes: list = []
        errors: list = []

        def hammer(tid: int) -> None:
            i = tid
            try:
                while not stop.is_set():
                    after_swap = swapped.is_set()
                    row = server.infer("hot", pool[i % len(pool)], timeout=30)
                    outcomes.append((after_swap, row))
                    i += 1
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        with InferenceServer(max_batch_size=4, max_wait_ms=1) as server:
            server.register("hot", tag_model(1.0))
            primed = server.infer("hot", pool[0])       # cache a v1 answer
            np.testing.assert_allclose(primed, np.ones(4), atol=1e-6)
            threads = [threading.Thread(target=hammer, args=(tid,))
                       for tid in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.15)
            server.swap("hot", tag_model(2.0))
            swapped.set()
            time.sleep(0.15)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            # The v1-keyed cache entry must not answer the v2 request.
            np.testing.assert_allclose(server.infer("hot", pool[0]),
                                       np.full(4, 2.0), atol=1e-6)
        assert outcomes
        saw_v1 = saw_v2 = False
        for after_swap, row in outcomes:
            is_v1 = np.allclose(row, 1.0, atol=1e-6)
            is_v2 = np.allclose(row, 2.0, atol=1e-6)
            assert is_v1 != is_v2, f"mixed-version logits: {row}"
            saw_v1 |= is_v1
            saw_v2 |= is_v2
            if after_swap:
                # Staleness is bounded to in-flight batches: anything
                # submitted after swap() returned is answered by v2.
                assert is_v2, "request submitted after swap answered by v1"
        assert saw_v1 and saw_v2, "traffic did not straddle the swap"

    def test_serves_models_from_a_prepopulated_registry(self, tiny_engine, rng):
        """Names registered directly on the registry get plumbing lazily."""
        registry = ModelRegistry()
        registry.register("direct", tiny_engine)
        with InferenceServer(registry, max_wait_ms=1) as server:
            sample = rng.random(SAMPLE_SHAPE).astype(np.float32)
            assert server.infer("direct", sample).shape == (4,)
            assert server.stats("direct").requests >= 1

    def test_unknown_model_and_closed_server(self, tiny_engine, rng):
        server = InferenceServer(max_wait_ms=1)
        server.register("vgg", tiny_engine)
        with pytest.raises(KeyError):
            server.submit("nope", rng.random(SAMPLE_SHAPE).astype(np.float32))
        server.close()
        with pytest.raises(RuntimeError):
            server.submit("vgg", rng.random(SAMPLE_SHAPE).astype(np.float32))
        with pytest.raises(RuntimeError):
            server.register("other", tiny_engine)

    def test_register_racing_close_raises_and_starts_no_batcher(
            self, tiny_engine, monkeypatch):
        # The registry publishes outside the server lock; a close() landing
        # meanwhile must fail the register, not leave a batcher thread behind.
        before = set(threading.enumerate())
        published, release = threading.Event(), threading.Event()
        original = ModelRegistry.register

        def publish_then_hold(self, *args, **kwargs):
            engine = original(self, *args, **kwargs)
            published.set()
            assert release.wait(timeout=60)
            return engine

        monkeypatch.setattr(ModelRegistry, "register", publish_then_hold)
        server = InferenceServer(max_wait_ms=1)
        errors = []

        def register() -> None:
            try:
                server.register("late", tiny_engine)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        thread = threading.Thread(target=register)
        thread.start()
        try:
            assert published.wait(timeout=60)
            server.close()
        finally:
            release.set()
            thread.join(timeout=60)
        assert [type(exc) for exc in errors] == [RuntimeError]
        leaked = [t for t in threading.enumerate()
                  if t not in before and t.is_alive()
                  and t.name.startswith(("fleet-replica-", "fleet-supervisor-"))]
        assert leaked == []

    def test_pipeline_result_is_directly_servable(self, tiny_static_dataset):
        from repro.training.config import TrainingConfig
        from repro.training.pipeline import TTSNNPipeline

        config = TrainingConfig(timesteps=2, epochs=1, batch_size=8,
                                learning_rate=0.05, tt_variant="htt", tt_rank=3, seed=0)
        pipeline = TTSNNPipeline(
            lambda: spiking_vgg9(num_classes=4, in_channels=3, timesteps=2,
                                 width_scale=0.08, rng=np.random.default_rng(0)),
            config,
        )
        # HTT's half timesteps have no dense equivalent: the merge stage is
        # refused, so the pipeline serves the TT cores.
        with pytest.raises(ValueError, match="half timesteps"):
            pipeline.run(tiny_static_dataset, epochs=0)
        result = pipeline.run(tiny_static_dataset, epochs=1, merge_after_training=False)
        engine = result.serving_engine
        assert isinstance(engine, InferenceEngine)
        assert not engine.model.training
        assert engine.merged_layers == 0
        assert count_tt_layers(engine.model) == result.tt_layers > 0
        sample = tiny_static_dataset.images[0]
        with InferenceServer(max_wait_ms=1) as server:
            server.register("htt", engine, warmup_sample=sample)
            assert 0 <= server.predict("htt", sample) < 4
        # Sweeps that never serve can skip the snapshot cost entirely.
        result = pipeline.run(tiny_static_dataset, epochs=0, merge_after_training=False,
                              build_serving_engine=False)
        assert result.serving_engine is None
