"""TT convolution modules: STT (sequential), PTT (parallel) and HTT (half).

All three replace one dense ``KxK`` convolution by the four sub-convolutions
obtained from TT decomposition (Fig. 1 of the paper):

* ``conv1``: ``(r, I, 1, 1)``   — input-channel mixing
* ``conv2``: ``(r, r, K, 1)``   — vertical kernel slice
* ``conv3``: ``(r, r, 1, K)``   — horizontal kernel slice
* ``conv4``: ``(O, r, 1, 1)``   — output-channel mixing

and differ only in how the sub-convolutions are wired:

* **STT** (Gabor & Zdunek baseline): ``conv1 -> conv2 -> conv3 -> conv4``.
* **PTT** (proposed): ``conv2`` and ``conv3`` both consume the output of
  ``conv1`` and their results are summed before ``conv4`` (Eq. 5) — the
  effective receptive field is a 3x3 cross (no corners).  The channels-last
  engine runs that cross as one op,
  :func:`~repro.autograd.conv.cross_conv`: one gather of the five taps
  (the shared centre once) and one GEMM.
* **HTT** (proposed): PTT wiring on "full" timesteps, and the short path
  ``conv1 -> conv4`` on "half" timesteps (Fig. 2), exploiting timestep
  redundancy.  Both paths end in the same ``conv4``, so the fused sequence
  path runs ``conv1 -> cross -> conv4`` once over all ``T`` timesteps, the
  cross op taking the schedule as a per-timestep mask: it convolves the
  full timesteps' rows and passes the half timesteps' rows through
  (:func:`htt_sequence_wiring`).

The NCHW single-step paths (``forward``) keep the composed
``conv2(x) + conv3(x)`` (:func:`summed_cross`), so ``step_mode="single"``
checks the cross op independently.

A note on stride: the dense convolution's stride can be placed either on the
*first* 1x1 sub-convolution (``stride_mode="first"``, the default) or on the
*last* one (``stride_mode="last"``).  The first-mode runs sub-convolutions
2-4 at the downsampled resolution, which reproduces the paper's FLOP
accounting exactly (Table II: 5.97x on CIFAR-10, 9.25x on N-Caltech101); the
last-mode keeps the post-training merge (Eq. 6,
:mod:`repro.tt.reconstruct`) an exact functional equivalent even for strided
layers, because subsampling after a stride-1 convolution selects exactly the
outputs a strided convolution would compute.  For stride-1 layers (the vast
majority) the two modes are identical and the merge is always exact.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.conv import cross_conv
from repro.autograd.tensor import Tensor
from repro.nn.layers import Conv2d, _pair
from repro.nn.module import Module, TimedModule, fold_time, unfold_time
from repro.tt.decomposition import TTCores, max_tt_ranks, tt_decompose_conv

__all__ = [
    "TTConv2dBase",
    "STTConv2d",
    "PTTConv2d",
    "HTTConv2d",
    "parse_htt_schedule",
    "stt_wiring",
    "ptt_wiring",
    "htt_step_wiring",
    "htt_sequence_wiring",
    "summed_cross",
    "cross_callable",
    "normalised_projection",
]


# ---------------------------------------------------------------------------
# Wiring functions
# ---------------------------------------------------------------------------
#
# The three decomposition formats share the same four sub-convolutions and
# differ only in how they are wired together.  The wiring lives in these
# module-level functions, parameterised by convolution *callables* (STT takes
# all four; PTT and HTT take ``conv1``, the ``conv2 + conv3`` cross and
# ``conv4``), so that other parameterisations of the same cores — in
# particular the entangled supernet of :mod:`repro.search.supernet`, which
# applies the convolutions through sliced views of shared max-rank weights —
# execute the exact same operation sequence and stay bitwise-identical to the
# standalone layers below.


def stt_wiring(conv1, conv2, conv3, conv4, x: Tensor) -> Tensor:
    """Sequential chain ``conv1 -> conv2 -> conv3 -> conv4`` (Fig. 1b)."""
    out = conv1(x)
    out = conv2(out)
    out = conv3(out)
    return conv4(out)


def ptt_wiring(conv1, cross, conv4, x: Tensor) -> Tensor:
    """Parallel wiring of Eq. 5 (Fig. 1c): ``conv4(cross(conv1(x)))``.

    ``cross`` is the 3x3 cross ``conv2 + conv3`` over ``conv1``'s output:
    :func:`summed_cross` composes it from the two convolutions,
    :func:`cross_callable` runs it as one ``cross_conv`` op.
    """
    return conv4(cross(conv1(x)))


def htt_step_wiring(conv1, cross, conv4, x: Tensor, use_half: bool) -> Tensor:
    """One HTT timestep (Fig. 2): PTT wiring, or the short path on half steps."""
    if use_half:
        return conv4(conv1(x))
    return ptt_wiring(conv1, cross, conv4, x)


def htt_sequence_wiring(conv1, cross, conv4, x_seq: Tensor,
                        flags: Sequence[bool]) -> Tensor:
    """Schedule-aware fused HTT over a channels-last ``(T, N, H, W, C)`` sequence.

    The callables operate on folded channels-last ``(T*N, H, W, C)``
    batches; ``flags[t]`` is ``True`` when timestep ``t`` takes the half
    path.  ``conv1`` and ``conv4`` run once over all ``T`` timesteps, and
    ``cross(h, half=flags)`` (:func:`cross_callable`) runs the cross on the
    full timesteps' rows and passes the half timesteps' rows through.
    """
    timesteps = x_seq.shape[0]
    mixed = cross(conv1(fold_time(x_seq)), half=flags)
    return unfold_time(conv4(mixed), timesteps)


def summed_cross(conv2, conv3):
    """The cross as ``conv2(h) + conv3(h)``: the composed form of Eq. 5.

    The NCHW single-step paths use it, so ``step_mode="single"`` stays an
    independent oracle for the fused engine's :func:`cross_callable`.
    """
    return lambda h: conv2(h) + conv3(h)


def cross_callable(weight2: Tensor, weight3: Tensor):
    """The cross over folded channels-last batches as one ``cross_conv`` op.

    ``weight2`` and ``weight3`` are the ``(r, r, K, 1)`` and ``(r, r, 1, K)``
    cores; the returned ``cross(h, half=None)`` takes the optional
    per-timestep half schedule of :func:`~repro.autograd.conv.cross_conv`.
    """
    return lambda h, half=None: cross_conv(h, weight2, weight3, half)


def normalised_projection(norm: Module, weight: Tensor, stride, timesteps: int):
    """A ``conv4`` callable whose output is already normalised by ``norm``.

    The callable takes and returns folded channels-last ``(T*N, H, W, C)``
    batches like the other sub-convolution callables, so the wiring
    functions run it unchanged.  It unfolds its ``(T*N, H, W, r)`` input to
    the ``(T, N, H, W, r)`` sequence that ``norm.forward_projected`` needs
    for per-timestep statistics, which normalises the 1x1 projection by
    ``weight`` (stride ``stride``) in rank space, and folds the result back.
    """
    def conv4(h: Tensor) -> Tensor:
        return fold_time(norm.forward_projected(unfold_time(h, timesteps), weight, stride))

    return conv4


def parse_htt_schedule(schedule: Union[str, Sequence[bool], None],
                       timesteps: Optional[int] = None) -> List[bool]:
    """Parse an HTT schedule into a list of per-timestep "use half path" flags.

    Accepts either a string of ``'F'`` (full) / ``'H'`` (half) characters —
    the notation of Table IV — or a sequence of booleans where ``True`` means
    the half path is used at that timestep.  With ``timesteps`` given, the
    schedule must have that length, and ``None`` selects the default: full
    for the first half of the timesteps and half for the rest (Table IV's
    best ordering).
    """
    if timesteps is not None and timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    if schedule is None:
        if timesteps is None:
            raise ValueError("the default HTT schedule needs the number of timesteps")
        return [False] * (timesteps - timesteps // 2) + [True] * (timesteps // 2)
    if isinstance(schedule, str):
        bad = sorted(set(schedule.upper()) - {"F", "H"})
        if bad:
            raise ValueError(f"HTT schedule characters must be 'F' or 'H', got {bad}")
        flags = [ch == "H" for ch in schedule.upper()]
    else:
        flags = [bool(x) for x in schedule]
    if timesteps is not None and len(flags) != timesteps:
        raise ValueError(
            f"schedule length {len(flags)} does not match timesteps {timesteps}"
        )
    return flags


class TTConv2dBase(Module):
    """Shared construction logic of the STT / PTT / HTT modules.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of the dense convolution being replaced.
    kernel_size:
        Kernel size of the dense convolution (the paper always uses 3).
    rank:
        TT-rank ``r`` shared by the three internal ranks (the paper's
        convention); a triple is accepted for STT-style experiments.
    stride:
        Stride of the replaced convolution.
    stride_mode:
        Where the stride is applied: ``"first"`` (on the first 1x1, the
        paper's operation-count convention) or ``"last"`` (on the final 1x1,
        exact merge equivalence for strided layers).
    dense_weight:
        Optional dense ``(O, I, K, K)`` weight to initialise the cores from
        (Algorithm 1, line 4).  When omitted the sub-convolutions use fresh
        Kaiming initialisation.
    """

    variant = "base"
    #: ``forward_sequence(x_seq, norm)`` normalises ``conv4``'s projection
    #: in rank space (read by :func:`repro.models.blocks.conv_norm_sequence`).
    fuses_norm = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        rank: Union[int, Tuple[int, int, int]] = 8,
        stride: Union[int, Tuple[int, int]] = 1,
        stride_mode: str = "first",
        dense_weight: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        kh, kw = _pair(kernel_size)
        if kh != kw:
            raise ValueError("TT modules decompose square kernels; got "
                             f"kernel_size={kernel_size}")
        if isinstance(rank, (int, np.integer)):
            ranks = (int(rank),) * 3
        else:
            ranks = tuple(int(r) for r in rank)
            if len(ranks) != 3:
                raise ValueError(f"rank must be an int or a triple, got {rank!r}")
        if min(ranks) < 1:
            raise ValueError(f"TT ranks must be >= 1, got {ranks}")
        # Clip to the maximal admissible TT-ranks so that layers built with a
        # generous rank on a narrow (scaled-down) convolution stay consistent
        # with what tt_decompose_conv can actually produce.  The sequential
        # variant clips each rank independently (full-rank STT is then an
        # exact re-parameterisation of the dense kernel); the parallel
        # variants (PTT/HTT) keep the three ranks equal — conv3 consumes
        # conv1's output, so its input width must match r1, and the paper
        # uses a single rank per layer anyway.
        limits = max_tt_ranks(in_channels, out_channels, (kh, kw))
        if self.variant == "stt":
            ranks = tuple(min(r, limit) for r, limit in zip(ranks, limits))
        else:
            uniform = min(min(ranks), min(limits))
            ranks = (uniform, uniform, uniform)

        if stride_mode not in ("first", "last"):
            raise ValueError(f"stride_mode must be 'first' or 'last', got {stride_mode!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = _pair(stride)
        self.stride_mode = stride_mode
        self.padding = (kh // 2, kw // 2)
        self.ranks = ranks
        r1, r2, r3 = ranks

        first_stride = self.stride if stride_mode == "first" else (1, 1)
        last_stride = self.stride if stride_mode == "last" else (1, 1)

        self.conv1 = Conv2d(in_channels, r1, kernel_size=(1, 1), stride=first_stride, padding=0,
                            bias=False, rng=rng)
        self.conv2 = Conv2d(r1, r2, kernel_size=(kh, 1), stride=1, padding=(kh // 2, 0),
                            bias=False, rng=rng)
        # In the parallel variants conv3 also consumes conv1's output, so its
        # input channel count must equal r1; the paper uses a single rank per
        # layer which makes r1 == r2 anyway.
        conv3_in = r2 if self.variant == "stt" else r1
        self.conv3 = Conv2d(conv3_in, r3, kernel_size=(1, kw), stride=1, padding=(0, kw // 2),
                            bias=False, rng=rng)
        self.conv4 = Conv2d(r3, out_channels, kernel_size=(1, 1), stride=last_stride,
                            padding=0, bias=False, rng=rng)

        if dense_weight is not None:
            self.load_dense_weight(np.asarray(dense_weight))

    # -- initialisation from a dense kernel --------------------------------

    def load_dense_weight(self, dense_weight: np.ndarray) -> TTCores:
        """Initialise the four sub-convolutions by TT-decomposing ``dense_weight``."""
        expected = (self.out_channels, self.in_channels) + self.kernel_size
        if dense_weight.shape != expected:
            raise ValueError(f"dense weight shape {dense_weight.shape} does not match layer {expected}")
        cores = tt_decompose_conv(dense_weight, self.ranks)
        self.load_cores(cores)
        return cores

    def load_cores(self, cores: TTCores) -> None:
        """Copy TT-cores into the sub-convolution weights."""
        conv1_w, conv2_w, conv3_w, conv4_w = cores.conv_weights()
        for layer, weight in ((self.conv1, conv1_w), (self.conv2, conv2_w),
                              (self.conv3, conv3_w), (self.conv4, conv4_w)):
            if layer.weight.data.shape != weight.shape:
                raise ValueError(
                    f"core shape {weight.shape} does not match sub-convolution "
                    f"{layer.weight.data.shape}; ranks were clipped during decomposition — "
                    f"construct the layer with rank={cores.ranks} instead"
                )
            layer.weight.data[...] = weight.astype(np.float32)
        self.ranks = cores.ranks

    def extract_cores(self) -> TTCores:
        """Read the current sub-convolution weights back into TT-core form."""
        r1 = self.conv1.out_channels
        r2 = self.conv2.out_channels
        r3 = self.conv3.out_channels
        i = self.in_channels
        o = self.out_channels
        kh, kw = self.kernel_size
        w1 = self.conv1.weight.data.reshape(r1, i).T.copy()
        w2 = self.conv2.weight.data.reshape(r2, self.conv2.in_channels, kh).transpose(1, 2, 0).copy()
        w3 = self.conv3.weight.data.reshape(r3, self.conv3.in_channels, kw).transpose(1, 2, 0).copy()
        w4 = self.conv4.weight.data.reshape(o, r3).T.copy()
        return TTCores(w1=w1, w2=w2, w3=w3, w4=w4, ranks=(r1, r2, r3))

    # -- bookkeeping --------------------------------------------------------

    def sub_convolutions(self) -> List[Conv2d]:
        """The four sub-convolution layers in pipeline order."""
        return [self.conv1, self.conv2, self.conv3, self.conv4]

    def num_parameters(self, trainable_only: bool = True) -> int:
        return sum(conv.weight.size for conv in self.sub_convolutions())

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"rank={self.ranks}, stride={self.stride}, variant={self.variant}"
        )

    def forward(self, x: Tensor) -> Tensor:
        return self._wire(self.sub_convolutions(), summed_cross(self.conv2, self.conv3), x)

    def forward_channels_last(self, x: Tensor) -> Tensor:
        convs = [c.forward_channels_last for c in self.sub_convolutions()]
        return self._wire(convs, self._cross(), x)

    def forward_sequence(self, x_seq: Tensor, norm: Optional[Module] = None) -> Tensor:
        """Fused step-mode path over a channels-last ``(T, N, H, W, C)`` sequence.

        STT and PTT apply the same sub-convolution wiring at every timestep,
        so the whole sequence runs as one time-folded batch; HTT overrides
        this with a schedule-aware implementation.  In channels-last layout
        the 1x1 sub-convolutions are pure GEMMs with no im2col gather.

        With a batch-norm ``norm`` (one with ``forward_projected``), the
        output is ``norm``'s normalisation of the layer's output, with
        ``conv4`` and the norm run as one rank-space node
        (:func:`normalised_projection`).
        """
        timesteps = x_seq.shape[0]
        convs = self._sequence_convs(norm, timesteps)
        return unfold_time(self._wire(convs, self._cross(), fold_time(x_seq)), timesteps)

    def _wire(self, convs: Sequence, cross, x: Tensor) -> Tensor:
        """Apply the variant's wiring to the four sub-convolutions or the cross."""
        raise NotImplementedError

    def _cross(self):
        """The channels-last ``conv2 + conv3`` cross as one op (:func:`cross_callable`)."""
        return cross_callable(self.conv2.weight, self.conv3.weight)

    def _sequence_convs(self, norm: Optional[Module], timesteps: int) -> list:
        """The four channels-last callables, ``conv4`` normalised when ``norm`` is set."""
        convs = [c.forward_channels_last for c in self.sub_convolutions()]
        if norm is not None:
            convs[3] = normalised_projection(norm, self.conv4.weight, self.conv4.stride,
                                             timesteps)
        return convs


class STTConv2d(TTConv2dBase):
    """Sequential TT convolution (Fig. 1b): ``conv1 -> conv2 -> conv3 -> conv4``."""

    variant = "stt"

    def _wire(self, convs: Sequence, cross, x: Tensor) -> Tensor:
        return stt_wiring(*convs, x)


class PTTConv2d(TTConv2dBase):
    """Parallel TT convolution (Fig. 1c, Eq. 5).

    ``conv2`` (vertical) and ``conv3`` (horizontal) both consume the output
    of ``conv1``; their sum feeds ``conv4``.  The effective kernel is a 3x3
    cross that sees vertical and horizontal context simultaneously, which is
    what recovers the accuracy STT loses.  The channels-last paths run that
    cross as one ``cross_conv`` op; the NCHW single-step path sums the two
    convolutions.
    """

    variant = "ptt"

    def _wire(self, convs: Sequence, cross, x: Tensor) -> Tensor:
        return ptt_wiring(convs[0], cross, convs[3], x)


class HTTConv2d(TTConv2dBase, TimedModule):
    """Half TT convolution (Fig. 2).

    Uses the full PTT wiring on timesteps marked ``'F'`` and the short path
    ``conv1 -> conv4`` on timesteps marked ``'H'``.  The timestep counter of
    :class:`~repro.nn.module.TimedModule` selects the schedule entry.

    Parameters
    ----------
    timesteps:
        Number of simulation timesteps ``T``.
    schedule:
        Placement of full/half sub-convolutions, e.g. ``"FFHH"`` (the paper's
        default: full in early timesteps, half in late timesteps — Table IV
        shows this ordering is the best).  Defaults to full for the first
        half of the timesteps and half for the rest.
    """

    variant = "htt"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        rank: Union[int, Tuple[int, int, int]] = 8,
        stride: Union[int, Tuple[int, int]] = 1,
        stride_mode: str = "first",
        timesteps: int = 4,
        schedule: Optional[Union[str, Sequence[bool]]] = None,
        dense_weight: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(in_channels, out_channels, kernel_size=kernel_size, rank=rank,
                         stride=stride, stride_mode=stride_mode,
                         dense_weight=dense_weight, rng=rng)
        self.schedule = parse_htt_schedule(schedule, timesteps)
        self.timesteps = timesteps

    def half_timestep(self, t: int) -> bool:
        """Whether timestep ``t`` uses the half path."""
        return self.schedule[min(t, self.timesteps - 1)]

    def forward(self, x: Tensor) -> Tensor:
        (t,) = self.advance_time()
        return htt_step_wiring(self.conv1, summed_cross(self.conv2, self.conv3), self.conv4,
                               x, self.half_timestep(t))

    def forward_channels_last(self, x: Tensor) -> Tensor:
        # Folded batches mix timesteps, so the schedule cannot be applied;
        # HTT handles time explicitly in forward_sequence.
        raise RuntimeError("HTTConv2d is schedule-dependent; use forward_sequence")

    def forward_sequence(self, x_seq: Tensor, norm: Optional[Module] = None) -> Tensor:
        """Schedule-aware fused path over a channels-last ``(T, N, H, W, C)`` sequence.

        See :func:`htt_sequence_wiring`: the cross runs only on the timesteps
        the schedule marks full.  ``norm`` is handled as in
        :meth:`TTConv2dBase.forward_sequence`.
        """
        timesteps = x_seq.shape[0]
        flags = [self.half_timestep(t) for t in self.advance_time(timesteps)]
        conv1, _, _, conv4 = self._sequence_convs(norm, timesteps)
        return htt_sequence_wiring(conv1, self._cross(), conv4, x_seq, flags)

    def extra_repr(self) -> str:
        schedule = "".join("H" if h else "F" for h in self.schedule)
        return super().extra_repr() + f", schedule={schedule}"
