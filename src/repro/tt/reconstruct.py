"""Post-training reconstruction of dense weights from TT cores (Eq. 6).

After training, the paper merges the four sub-convolutions of every TT module
back into a single dense kernel so that inference runs as an ordinary
spike-driven convolution (Algorithm 1, lines 20-22):

.. math::

    \\widetilde{W} = (w^{(1)} \\times_1 w^{(2)} \\times_1 w^{(4)})
                   + (w^{(1)} \\times_1 w^{(3)} \\times_1 w^{(4)})

For the *parallel* variants the reconstructed kernel is a 3x3 cross: the
vertical branch fills the middle column, the horizontal branch fills the
middle row, and the centre cell receives both contributions.  For the
sequential variant the reconstruction is the full TT contraction.

Because every TT module places its stride on the final 1x1 sub-convolution,
the merged dense convolution (same stride, "same" padding) is an *exact*
functional replacement — verified by the equivalence tests in
``tests/test_tt_reconstruct.py``.  HTT is the exception: its half timesteps
skip ``conv2``/``conv3``, which no single dense kernel can do, so an HTT
layer merges only when its schedule is all full.
"""

from __future__ import annotations

import copy
from typing import Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2d
from repro.nn.module import Module
from repro.tt.decomposition import TTCores, cached_einsum, tt_cores_to_dense
from repro.tt.layers import HTTConv2d, PTTConv2d, STTConv2d, TTConv2dBase

__all__ = ["reconstruct_dense_weight", "check_mergeable", "merge_tt_layer", "merge_model",
           "snapshot_merged"]


def _parallel_cores_to_dense(cores: TTCores) -> np.ndarray:
    """Eq. (6): merge PTT/HTT cores into a dense cross-shaped ``(O, I, K, K)`` kernel."""
    w1, w2, w3, w4 = cores.w1, cores.w2, cores.w3, cores.w4
    in_c = w1.shape[0]
    out_c = w4.shape[1]
    k1 = w2.shape[1]
    k2 = w3.shape[1]

    # Vertical branch: x -> w1 -> w2 -> w4, kernel footprint (K, 1).
    vertical = cached_einsum("ia,akb,bo->oik", w1, w2, w4)
    # Horizontal branch: x -> w1 -> w3 -> w4, kernel footprint (1, K).
    horizontal = cached_einsum("ia,akb,bo->oik", w1, w3, w4)

    dense = np.zeros((out_c, in_c, k1, k2), dtype=np.float32)
    dense[:, :, :, k2 // 2] += vertical.astype(np.float32)
    dense[:, :, k1 // 2, :] += horizontal.astype(np.float32)
    return dense


def reconstruct_dense_weight(layer: TTConv2dBase) -> np.ndarray:
    """Reconstruct the dense ``(O, I, K, K)`` weight equivalent to a TT layer.

    * STT layers contract all four cores (exact inverse of the TT-SVD).
    * PTT and HTT layers use the parallel reconstruction of Eq. (6); HTT
      reconstructs its *full-path* weights, which equal the layer only on
      its full timesteps (:func:`merge_tt_layer` refuses a schedule with
      half steps).
    """
    if not isinstance(layer, TTConv2dBase):
        raise TypeError(f"cannot reconstruct weights for layer of type {type(layer).__name__}")
    cores = layer.extract_cores()
    if isinstance(layer, STTConv2d):
        return tt_cores_to_dense(cores)
    return _parallel_cores_to_dense(cores)


def check_mergeable(module: Module) -> None:
    """Raise the :class:`ValueError` :func:`merge_tt_layer` would raise inside ``module``.

    An HTT layer whose schedule has a half (``H``) timestep cannot merge:
    the merged kernel is the full path, so it would run ``conv2``/``conv3``
    on the timesteps the trained model skips them and serve a different
    model.  ``module`` may be one TT layer or a whole model.
    """
    for layer in module.modules():
        if isinstance(layer, HTTConv2d) and any(layer.schedule):
            schedule = "".join("H" if h else "F" for h in layer.schedule)
            raise ValueError(
                f"cannot merge an HTT layer with schedule {schedule!r}: the merged "
                "kernel would serve the full path on its half timesteps; serve the "
                "model unmerged (InferenceEngine(model, merge=False))"
            )


def merge_tt_layer(layer: TTConv2dBase) -> Conv2d:
    """Build a dense :class:`~repro.nn.Conv2d` that replaces ``layer`` at inference.

    An HTT layer whose schedule has a half (``H``) timestep is refused with
    :class:`ValueError` (:func:`check_mergeable`).  Serve such a model
    unmerged instead.
    """
    check_mergeable(layer)
    dense_weight = reconstruct_dense_weight(layer)
    merged = Conv2d(
        layer.in_channels,
        layer.out_channels,
        kernel_size=layer.kernel_size,
        stride=layer.stride,
        padding=layer.padding,
        bias=False,
    )
    merged.weight.data[...] = dense_weight
    return merged


def merge_model(model: Module) -> int:
    """Replace every TT layer inside ``model`` (in place) by its dense equivalent.

    Returns the number of layers merged.  This implements Algorithm 1 lines
    20-22: after training, the whole network becomes a plain spike-driven
    CNN again.  Every replacement is built before any is swapped in, so a
    layer :func:`merge_tt_layer` refuses leaves ``model`` unchanged.
    """
    replacements = [
        (module, child_name, merge_tt_layer(child))
        for module in list(model.modules())
        for child_name, child in list(module.named_children())
        if isinstance(child, TTConv2dBase)
    ]
    for module, child_name, merged in replacements:
        setattr(module, child_name, merged)
    return len(replacements)


def snapshot_merged(model: Module) -> Tuple[Module, int]:
    """Deep-copy ``model`` and merge every TT layer inside the *copy*.

    The serving layer (:class:`repro.serve.engine.InferenceEngine`) uses this
    to snapshot a live (possibly still-training) model without mutating it:
    the original keeps its TT cores and gradients, the returned copy is the
    plain spike-driven CNN of Algorithm 1 lines 20-22.  Transient spiking
    state (LIF membranes, HTT timestep counters) is reset on both sides —
    membranes can hold references into the last autograd graph, and copying
    that graph would be both wrong and expensive.

    Returns ``(merged_copy, merged_layer_count)``.
    """
    if hasattr(model, "reset") and callable(model.reset):
        model.reset()
    snapshot = copy.deepcopy(model)
    return snapshot, merge_model(snapshot)
