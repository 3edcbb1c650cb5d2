"""Inference serving: TT-core engines, dynamic batching, registry, cache, stats.

The paper trains TT-decomposed spiking networks for deployment (Algorithm 1,
lines 19-22).  This package is that deployment layer:

* :class:`~repro.serve.engine.InferenceEngine` — a frozen serving snapshot:
  TT cores kept (``merge=True`` merges them to dense per Eq. 6),
  ``eval()`` forced, fused ``no_grad`` forward as the only code path.
* :class:`~repro.serve.registry.ModelRegistry` — named + versioned engines
  with warm-up at load and atomic hot-swap.
* :class:`~repro.serve.cache.ResponseCache` — LRU logits cache keyed by an
  input digest.
* :class:`~repro.serve.stats.ServerStats` — p50/p95/p99 latency, QPS and
  batch-fill accounting.
* :class:`~repro.serve.server.InferenceServer` — the facade wiring all of
  the above together per model name.  It is the single-replica
  configuration of :class:`repro.fleet.server.FleetServer`: concurrent
  single-sample requests queue per model, and a replica worker coalesces
  them into one fused batch under a ``max_batch_size`` / ``max_wait_ms``
  policy, so serving throughput rides the time-fused engine instead of
  paying per-request Python overhead.

Quickstart (mirrors ``examples/serve_quickstart.py``)::

    import numpy as np
    from repro.data.synthetic import make_static_image_dataset
    from repro.models.resnet import spiking_resnet18
    from repro.serve import InferenceServer
    from repro.training.config import TrainingConfig
    from repro.training.pipeline import TTSNNPipeline

    dataset = make_static_image_dataset(64, num_classes=8, height=16, width=16, seed=0)
    config = TrainingConfig(timesteps=4, epochs=1, batch_size=16,
                            tt_variant="htt", tt_rank=8, seed=0)
    pipeline = TTSNNPipeline(
        lambda: spiking_resnet18(num_classes=8, timesteps=4, width_scale=0.125,
                                 rng=np.random.default_rng(0)),
        config,
    )
    # HTT's half timesteps cannot be merged to dense; serve the TT cores.
    result = pipeline.run(dataset, epochs=1, merge_after_training=False)

    server = InferenceServer(max_batch_size=16, max_wait_ms=2.0)
    server.register("ttsnn", result.serving_engine,
                    warmup_sample=dataset.images[0])
    futures = [server.submit("ttsnn", img) for img in dataset.images[:32]]
    logits = [f.result() for f in futures]          # one row per request
    print(server.stats("ttsnn").format_table())     # p50/p95/p99, QPS, batch fill
    server.close()
"""

from repro.serve.cache import ResponseCache, input_digest
from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry
from repro.serve.stats import ServerStats

__all__ = [
    "InferenceEngine",
    "BatcherClosed",
    "ModelRegistry",
    "ResponseCache",
    "input_digest",
    "ServerStats",
    "InferenceServer",
]


def __getattr__(name: str):
    # InferenceServer is built on repro.fleet, which imports this package's
    # engine: both names load on first use, so neither package imports the
    # other while it is initialising.
    if name == "InferenceServer":
        from repro.serve.server import InferenceServer
        return InferenceServer
    if name == "BatcherClosed":
        from repro.fleet.errors import BatcherClosed
        return BatcherClosed
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
