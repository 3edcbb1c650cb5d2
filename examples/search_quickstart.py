"""One-shot TT-rank/format search: supernet -> evolution -> Pareto -> serve.

The paper fixes one decomposition format for the whole network and picks each
layer's rank with a single offline VBMF pass.  ``repro.search`` replaces both
decisions with a hardware-aware search:

1. wrap a spiking VGG-9 in a :class:`TTSupernet` — every decomposable
   convolution gains an entangled choice over {dense, STT, PTT, HTT} and a
   rank grid, all sharing one set of max-rank TT cores (rank-``r`` = leading
   slice of rank-``R``),
2. warm the supernet up with uniform random (format, rank) sampling per step,
3. run a short evolutionary search; every candidate is scored by validation
   accuracy of the sampled subnet plus analytic cost — parameters, FLOPs and
   *simulated training energy* on the modelled accelerator,
4. extract the accuracy-vs-energy Pareto front, pick the knee, materialise it
   into a standalone model, fine-tune briefly, and
5. serve the winner's TT cores through ``repro.serve``.

Run:  python examples/search_quickstart.py
Takes well under a minute on a laptop CPU.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import make_static_image_dataset
from repro.hardware.accelerator import ExistingAcceleratorModel
from repro.models.specs import vgg_layer_specs
from repro.models.vgg import VGG9_CONFIG, spiking_vgg9
from repro.search import EvolutionarySearch, SearchConfig, Searcher, TTSupernet
from repro.serve import InferenceServer, ModelRegistry


def main() -> None:
    num_classes = 4
    timesteps = 4

    # 1. Entangled supernet over a laptop-scale spiking VGG-9.
    model = spiking_vgg9(num_classes=num_classes, in_channels=3, timesteps=timesteps,
                         width_scale=0.15, rng=np.random.default_rng(0))
    supernet = TTSupernet(model, max_rank=8)
    print(f"search space: {len(supernet.space)} layers, "
          f"{supernet.space.num_configurations():,} configurations")

    train = make_static_image_dataset(num_samples=160, num_classes=num_classes,
                                      height=16, width=16, noise=0.25, seed=0)
    val = make_static_image_dataset(num_samples=64, num_classes=num_classes,
                                    height=16, width=16, noise=0.25, seed=1)

    # 2-4. Warm-up, evolutionary exploration, Pareto selection, fine-tune.
    searcher = Searcher(
        supernet, train, val,
        specs=vgg_layer_specs(VGG9_CONFIG, num_classes=num_classes),
        config=SearchConfig(warmup_epochs=5, batch_size=16, eval_batch_size=64,
                            learning_rate=0.1, cost_metric="energy_pj",
                            selection="knee", finetune_epochs=1, seed=0),
        strategy=EvolutionarySearch(population_size=8, generations=2,
                                    parents=4, elite=2),
        accelerator=ExistingAcceleratorModel(),
    )
    result = searcher.run()

    print(f"\nevaluated {len(result.evaluated)} candidates; "
          f"Pareto front ({len(result.front)} points):")
    for point in result.front:
        marker = "  <- winner" if point is result.winner else ""
        config = " ".join(f"{c.format}:{c.rank}" for c in point.config)
        print(f"  acc={point.accuracy:.3f}  energy={point.cost.energy_uj:.1f} uJ  "
              f"flops={point.cost.flops_G:.3f} G  [{config}]{marker}")

    # 5. Serve the materialised winner's TT cores behind the server.
    registry = ModelRegistry()
    server = InferenceServer(registry, max_batch_size=16, max_wait_ms=2.0)
    try:
        result.publish(server, "searched",
                       warmup_sample=np.zeros((3, 16, 16), np.float32))
        sample = train.images[0]
        prediction = server.predict("searched", sample, timeout=60)
        print(f"\nserved prediction for sample 0: class {int(prediction)} "
              f"(label {int(train.labels[0])})")
        print(f"summary: {result.summary()}")
    finally:
        server.close()


if __name__ == "__main__":
    main()
