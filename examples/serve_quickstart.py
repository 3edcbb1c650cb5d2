"""Serve a trained TT-SNN: train -> register -> burst of requests.

This picks up where ``examples/quickstart.py`` stops.  ``repro.serve`` turns
the trained model into an endpoint that runs its TT cores:

1. train a tiny HTT-decomposed spiking VGG-9 with :class:`TTSNNPipeline`
   (unmerged: HTT skips two sub-convolutions on its half timesteps, which
   the dense Eq. 6 merge cannot express),
2. take the ready-to-serve :class:`InferenceEngine` off the pipeline result,
3. register it (with warm-up) in an :class:`InferenceServer` (the fleet's
   single-replica configuration), which wires a batching replica worker,
   an LRU response cache and latency/throughput accounting,
4. fire a concurrent burst of requests and print the stats table.

Run:  python examples/serve_quickstart.py
Takes well under a minute on a laptop CPU.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.data.synthetic import make_static_image_dataset
from repro.models.builder import count_tt_layers
from repro.models.vgg import spiking_vgg9
from repro.serve import InferenceServer
from repro.training.config import TrainingConfig
from repro.training.pipeline import TTSNNPipeline


def main() -> None:
    num_classes = 8
    timesteps = 4
    dataset = make_static_image_dataset(num_samples=96, num_classes=num_classes,
                                        height=16, width=16, seed=0)

    # 1. Train a tiny HTT model (full path early timesteps, half path late).
    config = TrainingConfig(
        timesteps=timesteps,
        epochs=2,
        batch_size=16,
        learning_rate=0.05,
        tt_variant="htt",
        tt_rank=8,
        seed=0,
    )
    pipeline = TTSNNPipeline(
        lambda: spiking_vgg9(num_classes=num_classes, in_channels=3, timesteps=timesteps,
                             width_scale=0.125, rng=np.random.default_rng(0)),
        config,
    )
    result = pipeline.run(dataset, epochs=config.epochs, merge_after_training=False,
                          verbose=True)

    # 2. The pipeline result carries an eval-mode serving snapshot.
    engine = result.serving_engine
    print(f"\ntrained {result.method}: {result.tt_layers} TT layers, "
          f"engine serves {count_tt_layers(engine.model)} of them as TT cores "
          f"({engine.merged_layers} merged to dense)")

    # 3. Register it (warm-up runs before the model becomes visible).
    server = InferenceServer(max_batch_size=16, max_wait_ms=5.0, cache_capacity=256)
    server.register("ttsnn-vgg9", engine, warmup_sample=dataset.images[0])

    # 4. Concurrent burst: 16 client threads x 8 requests each.
    predictions = {}

    def client(tid: int) -> None:
        for j in range(8):
            index = (tid * 8 + j) % len(dataset.images)
            predictions[(tid, j)] = server.predict("ttsnn-vgg9", dataset.images[index])

    threads = [threading.Thread(target=client, args=(tid,)) for tid in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    accuracy = np.mean([
        predictions[(tid, j)] == dataset.labels[(tid * 8 + j) % len(dataset.images)]
        for tid in range(16) for j in range(8)
    ])

    print(f"\nanswered {len(predictions)} concurrent requests "
          f"(prediction accuracy {100 * accuracy:.1f} %)")

    # A repeated request is answered from the LRU response cache.
    server.predict("ttsnn-vgg9", dataset.images[0])
    print(f"repeat request: {server.cache('ttsnn-vgg9').hits} response-cache hit(s)")

    print("\n=== serving stats ===")
    print(server.stats("ttsnn-vgg9").format_table())
    server.close()


if __name__ == "__main__":
    main()
