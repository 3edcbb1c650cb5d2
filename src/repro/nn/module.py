"""``Module`` / ``Parameter`` infrastructure.

Provides hierarchical parameter registration, train/eval mode propagation,
state-dict export/import and named traversal — the minimum surface area the
model zoo (:mod:`repro.models`), the TT layers (:mod:`repro.tt.layers`) and
the trainer (:mod:`repro.training`) rely on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, apply_op

__all__ = [
    "Parameter",
    "Module",
    "ModuleList",
    "StatelessModule",
    "StatefulModule",
    "TimedModule",
    "SeqToBatch",
    "fold_time",
    "unfold_time",
    "repeat_time",
    "sequence_forward",
]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a trainable leaf of a module.

    Unlike a plain tensor, a parameter keeps ``requires_grad`` even when it
    is built inside ``no_grad()``: grad mode governs graph construction, not
    whether a model's weights are trainable.
    """

    def __init__(self, data, requires_grad: bool = True, name: str = ""):
        super().__init__(data, name=name)
        self.requires_grad = bool(requires_grad)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, :class:`Tensor` buffers (via
    :meth:`register_buffer`) and child :class:`Module` instances as plain
    attributes; registration happens automatically through ``__setattr__``.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute registration ------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        else:
            # A plain attribute; remove any stale registration under this name.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: Optional[Tensor]) -> None:
        """Register a non-trainable tensor that is part of the module state."""
        if value is not None and not isinstance(value, Tensor):
            value = Tensor(np.asarray(value))
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (used by containers)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ---------------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters in this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, buf in self._buffers.items():
            if buf is not None:
                yield (f"{prefix}{name}", buf)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        yield from self._modules.items()

    # -- train/eval --------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set the module (and all children) into training or evaluation mode."""
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- gradients ---------------------------------------------------------------

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear the gradient of every parameter.

        The default drops the gradient buffers entirely (``grad = None``);
        backward then accumulates on first write, so no full-size memset is
        paid per parameter per step.  ``set_to_none=False`` zero-fills the
        existing buffers in place instead, for callers holding references.
        """
        for param in self.parameters():
            param.zero_grad(set_to_none=set_to_none)

    def num_parameters(self, trainable_only: bool = True) -> int:
        """Total number of scalar parameters."""
        total = 0
        for param in self.parameters():
            if trainable_only and not param.requires_grad:
                continue
            total += param.size
        return total

    # -- state dict ----------------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat mapping of parameter/buffer names to array copies."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = buf.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter/buffer values from a mapping produced by :meth:`state_dict`."""
        own: Dict[str, Tensor] = dict(self.named_parameters())
        own.update(dict(self.named_buffers()))
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, value in state.items():
            if name not in own:
                continue
            target = own[name]
            value = np.asarray(value, dtype=target.data.dtype)
            if value.shape != target.data.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': stored {value.shape}, module {target.data.shape}"
                )
            target.data[...] = value

    # -- call --------------------------------------------------------------------

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def compile(self, fn=None, optimize: str = "O0", profile: bool = False,
                guard_numerics: bool = False):
        """Return a compiled (capture/replay) no-grad forward of this module.

        The first call per input signature traces one eager forward into an
        execution plan (:mod:`repro.runtime`); later calls with the same
        shape/dtype replay the plan on the raw input array without touching
        Python autograd or module dispatch.  A shape change re-captures
        automatically.  Pass ``fn`` to compile a different entry point than
        ``self.__call__`` (e.g. ``model.run_timesteps`` for spiking models).

        ``optimize`` selects the plan-time graph-optimizer level
        (:mod:`repro.runtime.optimizer`): ``"O1"`` elides identity pools
        while keeping parameter slots live (updates between replays stay
        visible), ``"O2"`` additionally constant-folds eval batch norms and
        freezes GEMM operands — O2 plans bake the current parameter
        values, so call :meth:`~repro.runtime.replay.CompiledForward.invalidate`
        (or rely on a shape change) after mutating parameters.
        ``profile=True`` records per-kernel timings.  Plans run the NumPy
        reference kernels in float32 (inputs are cast to float32).

        ``guard_numerics=True`` checks every node's output for NaN/Inf during
        replay: a non-finite value raises a typed
        :class:`~repro.resilience.errors.NumericFault` (see
        :mod:`repro.resilience`).
        """
        from repro.runtime.replay import CompiledForward

        return CompiledForward(fn if fn is not None else self, owner=self,
                               optimize=optimize, profile=profile,
                               guard_numerics=guard_numerics)

    # -- introspection -------------------------------------------------------------

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lines: List[str] = []
        extra = self.extra_repr()
        header = f"{self.__class__.__name__}({extra})" if extra else f"{self.__class__.__name__}("
        if not self._modules:
            return header if extra else f"{self.__class__.__name__}()"
        lines.append(f"{self.__class__.__name__}(")
        for name, child in self._modules.items():
            child_repr = repr(child).split("\n")
            lines.append(f"  ({name}): {child_repr[0]}")
            lines.extend(f"  {line}" for line in child_repr[1:])
        lines.append(")")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Step-mode execution: folding timesteps into the batch for stateless layers
# ---------------------------------------------------------------------------
#
# A spiking network simulated for ``T`` timesteps only has *true* sequential
# dependencies inside its stateful layers (the LIF membrane recurrence and
# anything keeping a timestep counter).  Every stateless layer — convolution,
# linear, pooling, reshaping — applies the identical function at every
# timestep, so its ``T`` per-step calls can be fused into ONE call on a
# ``(T*N, ...)`` batch.  That turns ``T x depth`` small GEMMs into ``depth``
# large ones and shrinks the autograd tape by the same factor.
#
# The pieces:
#
# * :func:`fold_time` / :func:`unfold_time` — the ``(T, N, ...) <-> (T*N, ...)``
#   reshapes (differentiable, zero-copy on contiguous data).
# * :func:`repeat_time` — copies one timestep ``(1, N, ...)`` to ``(T, N, ...)``;
#   direct-coded models run their time-invariant stem once and expand here.
# * :class:`StatelessModule` — mixin giving a layer a ``forward_sequence`` that
#   folds time into the batch around its ordinary ``forward``.
# * :class:`StatefulModule` — marker base class for layers that carry state
#   across timesteps; they must implement ``forward_sequence`` themselves.
# * :class:`TimedModule` — base class of every layer whose function depends
#   on the timestep index (TEBN's per-timestep gain, the HTT schedule).  It
#   owns the model's one kind of timestep counter: ``reset_model_state``
#   rewinds it, streaming resumes it at the stream position, and each call
#   advances it by the number of timesteps it consumed.
# * :class:`SeqToBatch` — adapter wrapping an arbitrary stateless module (e.g.
#   third-party layers that cannot inherit ``StatelessModule``).
# * :func:`sequence_forward` — dispatcher used by the models' layer-by-layer
#   propagation: fused path when the layer supports it, per-step fallback
#   otherwise.
#
# Layout convention: inside the zoo models' fused pipelines, image sequences
# flow CHANNELS-LAST — ``(T, N, H, W, C)`` — which is the profitable layout
# for the NumPy/BLAS backend (C-contiguous im2col gathers, transpose-free
# GEMMs).  The models convert from the public ``(T, N, C, H, W)`` layout once
# at the pipeline entry; convolution/norm/pool layers provide channels-last
# ``forward_sequence`` implementations, while elementwise layers (LIF,
# activations, dropout) are layout-agnostic.  The generic
# :class:`StatelessModule` fold is only layout-safe for such elementwise
# modules — channel-sensitive layers override ``forward_sequence``.


def fold_time(x_seq: Tensor) -> Tensor:
    """Reshape a time-major sequence ``(T, N, ...)`` into a ``(T*N, ...)`` batch."""
    shape = x_seq.shape
    if len(shape) < 2:
        raise ValueError(f"expected at least (T, N) dimensions, got shape {shape}")
    return x_seq.reshape((shape[0] * shape[1],) + shape[2:])


def unfold_time(x: Tensor, timesteps: int) -> Tensor:
    """Reshape a folded ``(T*N, ...)`` batch back into ``(T, N, ...)``."""
    shape = x.shape
    if timesteps < 1 or shape[0] % timesteps != 0:
        raise ValueError(
            f"folded batch of {shape[0]} rows is not divisible into {timesteps} timesteps"
        )
    return x.reshape((timesteps, shape[0] // timesteps) + shape[1:])


def repeat_time(x_step: Tensor, timesteps: int) -> Tensor:
    """Copy a one-step ``(1, N, ...)`` sequence to ``(T, N, ...)``.

    One traced op: its forward makes one copy per timestep, its backward sums
    the gradient over the time axis.
    """
    if x_step.ndim < 2 or x_step.shape[0] != 1:
        raise ValueError(f"expected a one-step (1, N, ...) sequence, got shape {x_step.shape}")
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    return apply_op("repeat_time", (x_step,), {"timesteps": int(timesteps)})


class StatelessModule(Module):
    """A layer whose computation is identical at every timestep.

    Stateless layers process a whole ``(T, N, ...)`` sequence in one fused
    call by folding the time axis into the batch axis; subclasses only
    implement the ordinary single-step :meth:`forward`.
    """

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Apply :meth:`forward` to all timesteps at once via batch folding."""
        timesteps = x_seq.shape[0]
        return unfold_time(self.forward(fold_time(x_seq)), timesteps)


class StatefulModule(Module):
    """A layer that carries state between timesteps (membrane, counters).

    Subclasses must provide a :meth:`forward_sequence` consuming the whole
    ``(T, N, ...)`` sequence — the time recurrence cannot be folded into the
    batch, but it *can* be implemented as a single fused op over time (see
    :meth:`repro.snn.neurons.LIFNeuron.forward_sequence`).
    """

    def forward_sequence(self, x_seq: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError(
            f"{self.__class__.__name__} is stateful and must implement forward_sequence"
        )


class TimedModule(Module):
    """A layer whose computation depends on the index of the current timestep.

    The counter ``_t`` is the timestep the next call consumes.  A per-step
    ``forward`` advances it by one and a fused ``forward_sequence`` by the
    sequence length, via :meth:`advance_time`; :meth:`reset_time` (hooked
    into :func:`repro.snn.functional.reset_model_state`) rewinds it.
    """

    def __init__(self):
        super().__init__()
        self._t = 0

    def reset_time(self) -> None:
        """Rewind the timestep counter (a new input sequence starts)."""
        self._t = 0

    @property
    def time_index(self) -> int:
        """The timestep the next call consumes; streaming sets it to resume."""
        return self._t

    @time_index.setter
    def time_index(self, t: int) -> None:
        if t < 0:
            raise ValueError(f"time_index must be >= 0, got {t}")
        self._t = int(t)

    def advance_time(self, steps: int = 1) -> range:
        """Consume ``steps`` timesteps; returns their indices."""
        start = self._t
        self._t = start + steps
        return range(start, start + steps)


class SeqToBatch(Module):
    """Adapter running an arbitrary stateless module over a folded sequence.

    Wraps ``inner`` so that ``forward`` accepts ``(T, N, ...)`` input,
    reshapes it to ``(T*N, ...)``, applies ``inner`` once, and restores the
    time axis.  Use it to drop modules that do not inherit
    :class:`StatelessModule` into a fused layer-by-layer pipeline.  The
    wrapped module must genuinely be stateless — a stateful module would see
    all timesteps as one batch and silently compute the wrong recurrence.
    """

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def forward(self, x_seq: Tensor) -> Tensor:
        timesteps = x_seq.shape[0]
        return unfold_time(self.inner(fold_time(x_seq)), timesteps)

    # The adapter's forward already consumes sequences.
    forward_sequence = forward

    def extra_repr(self) -> str:
        return f"inner={self.inner.__class__.__name__}"


def sequence_forward(module: Module, x_seq: Tensor) -> Tensor:
    """Run ``module`` over a ``(T, N, ...)`` sequence, fused when possible.

    Layers exposing ``forward_sequence`` (stateless fold, vectorised norm,
    fused LIF recurrence, schedule-aware TT) take the fast path; anything
    else falls back to a per-timestep loop.  The fallback preserves
    per-step semantics but NOT layout: inside a channels-last pipeline
    (the zoo models' fused path) it hands the module ``(N, H, W, C)``
    frames, which is only safe for elementwise / layout-agnostic modules —
    channel-sensitive layers must implement ``forward_sequence``.
    """
    forward_seq = getattr(module, "forward_sequence", None)
    if callable(forward_seq):
        return forward_seq(x_seq)
    timesteps = x_seq.shape[0]
    return Tensor.stack([module(x_seq[t]) for t in range(timesteps)], axis=0)


class ModuleList(Module):
    """Hold a list of child modules, registering each for parameter traversal."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._list: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        index = len(self._list)
        self._list.append(module)
        self.add_module(str(index), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)

    def __getitem__(self, index: int) -> Module:
        return self._list[index]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not callable
        raise RuntimeError("ModuleList is a container and cannot be called directly")
