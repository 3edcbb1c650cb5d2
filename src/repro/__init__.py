"""TT-SNN reproduction: Tensor Train Decomposition for Efficient SNN Training.

A complete, self-contained (NumPy-only) reproduction of

    D. Lee, R. Yin, Y. Kim, A. Moitra, Y. Li, P. Panda,
    "TT-SNN: Tensor Train Decomposition for Efficient Spiking Neural Network
    Training", DATE 2024.

Subpackages
-----------
``repro.autograd``   reverse-mode autodiff engine (the PyTorch stand-in)
``repro.nn``         layers, initialisers, containers
``repro.optim``      SGD / Adam / LR schedulers
``repro.snn``        LIF neurons, surrogate gradients, encoders, tdBN/TEBN,
                     TET loss, NDA augmentation
``repro.tt``         TT decomposition, VBMF rank selection, STT/PTT/HTT layers,
                     post-training reconstruction (the paper's contribution)
``repro.models``     spiking ResNet-18/34/20, VGG-9/11, TT model surgery,
                     analytical paper-scale layer specs
``repro.data``       synthetic CIFAR / N-Caltech101 / DVS-Gesture stand-ins
``repro.metrics``    parameter / FLOP accounting, training-time profiling
``repro.hardware``   accelerator energy models (existing SATA-like vs the
                     proposed multi-cluster design)
``repro.training``   BPTT trainer and the Algorithm-1 pipeline
``repro.serve``      inference serving: TT-core engines, dynamic
                     micro-batching, model registry, response cache, stats
``repro.obs``        observability: tracing spans, metrics registry,
                     Chrome-trace / JSONL exporters, flight recorder
``repro.resilience`` deterministic fault injection, durable checkpoints,
                     numeric guards, per-replica circuit breakers
``repro.search``     one-shot TT-rank/format search: entangled supernet,
                     random + evolutionary strategies, hardware-aware Pareto
                     selection
``repro.experiments`` one driver per paper table / figure
"""

__version__ = "1.1.0"

from repro import (
    autograd,
    data,
    hardware,
    metrics,
    models,
    nn,
    obs,
    optim,
    resilience,
    search,
    serve,
    snn,
    training,
    tt,
)

__all__ = [
    "autograd",
    "nn",
    "optim",
    "snn",
    "tt",
    "models",
    "data",
    "metrics",
    "hardware",
    "training",
    "serve",
    "search",
    "obs",
    "resilience",
    "__version__",
]
