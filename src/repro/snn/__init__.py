"""Spiking-neural-network substrate.

Everything SNN-specific the paper relies on lives here:

* :mod:`repro.snn.neurons` — the iterative LIF neuron of Eq. (1) with
  surrogate-gradient spike functions (rectangular / arctan / sigmoid).
* :mod:`repro.snn.encoding` — direct coding of static images into spike
  trains, Poisson rate coding, and event-frame handling for dynamic datasets.
* :mod:`repro.snn.norm` — threshold-dependent batch norm (tdBN) and temporal
  effective batch norm (TEBN), needed for the Table III compatibility study.
* :mod:`repro.snn.loss` — the standard mean-logit cross entropy used by the
  paper's pipeline plus the TET re-weighted loss.
* :mod:`repro.snn.augment` — neuromorphic data augmentation (NDA).
* :mod:`repro.snn.functional` — spike-train statistics (firing rates,
  spike sparsity) used by the hardware energy model.
"""

from repro.snn.neurons import (
    LIFNeuron,
    LIFState,
    SurrogateArctan,
    SurrogateRectangular,
    SurrogateSigmoid,
    lif_sequence,
    spike_function,
)
from repro.snn.encoding import (DirectEncoder, PoissonEncoder, RepeatEncoder, encode_batch,
                                prepare_batch)
from repro.snn.norm import TDBatchNorm2d, TEBatchNorm2d
from repro.snn.loss import TETLoss, mean_output_cross_entropy
from repro.snn.augment import NeuromorphicAugment
from repro.snn import functional

__all__ = [
    "LIFNeuron",
    "LIFState",
    "SurrogateRectangular",
    "SurrogateArctan",
    "SurrogateSigmoid",
    "spike_function",
    "lif_sequence",
    "encode_batch",
    "prepare_batch",
    "DirectEncoder",
    "PoissonEncoder",
    "RepeatEncoder",
    "TDBatchNorm2d",
    "TEBatchNorm2d",
    "TETLoss",
    "mean_output_cross_entropy",
    "NeuromorphicAugment",
    "functional",
]
