"""Core ``Tensor`` type with reverse-mode automatic differentiation.

The design mirrors the small tape-based engines used by PyTorch internally:
every differentiable operation returns a new :class:`Tensor` holding

* ``data`` -- the forward value (a ``numpy.ndarray`` of ``float32``/``float64``),
* ``_prev`` -- the parent tensors that produced it,
* ``_backward`` -- a closure that, given the already-accumulated gradient of
  the output, accumulates gradients into the parents.

Calling :meth:`Tensor.backward` performs a topological sort of the graph and
runs the closures in reverse order.

Broadcasting is fully supported: gradients flowing into a broadcast operand
are reduced (summed) over the broadcast axes so that ``grad.shape`` always
matches ``data.shape``.

Op table and tracing
--------------------
Every op's math lives once, in the op table of :mod:`repro.autograd.ops`.
The ``Tensor`` methods, the functional helpers and :meth:`Function.apply`
all go through :func:`apply_op`, which runs the op's forward kernel, wires
a backward closure that calls its backward kernel, and reports the op to an
*active trace* (installed per-thread via :func:`set_trace`) as a structured
record — op name, input/output tensors, static attributes and, where
needed, saved forward state.  The compiled runtime (:mod:`repro.runtime`)
installs a :class:`~repro.runtime.graph.GraphCapture` as the trace to turn
one eager step into a replayable execution plan, and replays it through the
same table; with no trace installed the check is a single thread-local read
per op.
"""

from __future__ import annotations

import contextlib
import contextvars
import operator
import threading
from itertools import compress
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.ops import OPS, _index_backward, _index_repeats, _unbroadcast  # noqa: F401

__all__ = [
    "Tensor",
    "Function",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "set_trace",
    "active_trace",
    "record_op",
    "apply_op",
]

# ---------------------------------------------------------------------------
# per-thread grad-enabled switch
# ---------------------------------------------------------------------------

# Per thread: serving threads enter and leave ``no_grad`` concurrently, and a
# process-wide flag let one thread's exit restore another thread's ``False``.
# A ContextVar rather than a ``threading.local`` because every autograd op
# reads it twice and ``ContextVar.get`` costs about half as much; each new
# thread starts from an empty context, so it starts with grad mode on.
_GRAD_ENABLED: "contextvars.ContextVar[bool]" = contextvars.ContextVar(
    "grad_enabled", default=True)


def is_grad_enabled() -> bool:
    """Return ``True`` when operations on this thread should build the graph."""
    return _GRAD_ENABLED.get()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction on this thread.

    Inside the block every operation behaves like a plain NumPy computation:
    results have ``requires_grad=False`` and no backward closures are stored.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


# ---------------------------------------------------------------------------
# op tracing hook (consumed by repro.runtime)
# ---------------------------------------------------------------------------

_TRACE_TLS = threading.local()


def active_trace():
    """Return the trace object installed on this thread (or ``None``)."""
    return getattr(_TRACE_TLS, "trace", None)


def set_trace(trace):
    """Install ``trace`` as this thread's active op trace; returns the previous one.

    The trace must expose ``record(op, inputs, out, attrs, saved)`` where
    ``inputs`` is a tuple of :class:`Tensor`, ``out`` is the produced
    :class:`Tensor` (or ``None`` for side-effect-only records), ``attrs`` is
    a dict of static attributes and ``saved`` is optional forward state
    needed by the op's backward (e.g. a :class:`Function` context).
    """
    previous = getattr(_TRACE_TLS, "trace", None)
    _TRACE_TLS.trace = trace
    return previous


def record_op(op: str, inputs: Tuple["Tensor", ...], out: Optional["Tensor"],
              attrs: Optional[dict] = None, saved=None) -> None:
    """Report one executed op to the active trace (no-op when none installed)."""
    trace = getattr(_TRACE_TLS, "trace", None)
    if trace is not None:
        trace.record(op, inputs, out, attrs or {}, saved)


_NO_ATTRS: dict = {}
# C-level accessors: on Python 3.11 a comprehension costs a frame per op.
_data_of = operator.attrgetter("data")
_requires_grad_of = operator.attrgetter("requires_grad")


def apply_op(op: str, parents: Tuple["Tensor", ...], attrs: dict = _NO_ATTRS):
    """Run ``OPS[op]`` on ``parents`` eagerly, wire its backward and trace it.

    The forward kernel's result becomes the output tensor; a kernel that
    returns ``(result, saved)`` hands ``saved`` to its backward kernel and
    to the trace, and one that returns ``None`` is a side-effect op with no
    output.  The backward closure calls the op's backward kernel and
    accumulates each gradient into the parent that needs one, so eager steps
    and compiled replays run the same kernels.
    """
    opdef = OPS[op]
    arrays = list(map(_data_of, parents))
    result = opdef.forward(arrays, attrs)
    saved = None
    if type(result) is tuple:
        result, saved = result
    out = None
    if result is not None:
        out = Tensor(result)
        kernel = opdef.backward
        if kernel is not None and _GRAD_ENABLED.get():
            needs = tuple(map(_requires_grad_of, parents))
            if True in needs:
                data = out.data

                def backward(grad: np.ndarray) -> None:
                    grads = kernel(grad, arrays, data, saved, attrs, needs)
                    for parent, need, g in zip(parents, needs, grads):
                        if need and g is not None:
                            parent._accumulate_grad(g)

                out.requires_grad = True
                out._prev = tuple(compress(parents, needs))
                out._backward = backward
    trace = getattr(_TRACE_TLS, "trace", None)
    if trace is not None:
        trace.record(op, parents, out, attrs, saved)
    return out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _channel_sums(rows: np.ndarray) -> np.ndarray:
    """Sums over the second-to-last axis: ``(..., M, C)`` to ``(..., C)``.

    One (batched) GEMV against a ones vector.  For channels-last activations
    ``rows.sum(axis=-2)`` runs a short strided loop per channel and is ~15x
    slower when ``C`` is small.
    """
    return np.matmul(np.ones(rows.shape[-2], rows.dtype), rows)


def as_tensor(value: ArrayLike, dtype=np.float32) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy when already a Tensor)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _asarray(value: ArrayLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """N-dimensional array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like forward value.  Stored as ``float32`` unless the input
        already is a floating ndarray of another precision.
    requires_grad:
        When ``True`` (and grad mode is enabled) the tensor is a graph leaf
        whose ``.grad`` is populated by :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_grad_owned", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self._grad_owned: bool = False
        self.name = name

    # -- basic properties ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return apply_op("detach", (self,))

    def copy(self) -> "Tensor":
        out = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        record_op("copy", (self,), out)
        return out

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear the gradient.

        With ``set_to_none=True`` (the default) the gradient buffer is simply
        dropped — backward then *accumulates on first write* (stores the
        incoming gradient instead of adding into a zeroed array), so no
        full-size memset is paid per step.  ``set_to_none=False`` zero-fills
        the existing buffer in place for callers that hold references to it.
        """
        if set_to_none or self.grad is None:
            self.grad = None
            self._grad_owned = False
        elif self._grad_owned:
            self.grad.fill(0.0)
        else:
            # The array was adopted by reference and may be shared (e.g. add
            # hands the same upstream gradient to both parents) — zero-filling
            # it in place would corrupt the sibling's gradient.
            self.grad = np.zeros_like(self.grad)
            self._grad_owned = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # -- graph machinery ----------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Optional[Callable[[np.ndarray], None]],
    ) -> "Tensor":
        """Create a non-leaf tensor from an op result, wiring the graph."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._prev = tuple(p for p in parents if p.requires_grad or p._prev)
            out._backward = backward
        return out

    def _accumulate_grad(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            # Accumulate-on-first-write: adopt the incoming array by reference
            # (not owned, so a later accumulation allocates instead of writing
            # into storage a sibling may share).  Only non-contiguous views
            # are copied: a C-contiguous one has its copy's exact layout, so
            # downstream reductions see the same bits.  The compiled plans
            # apply the same rule (ExecutionPlan._accumulate_grad).
            if grad.base is not None and not grad.flags["C_CONTIGUOUS"]:
                self.grad = grad.copy()
                self._grad_owned = True
            else:
                self.grad = grad
                self._grad_owned = False
        elif self._grad_owned:
            np.add(self.grad, grad, out=self.grad)
        else:
            # The stored array was adopted by reference and may be shared with
            # another consumer (e.g. add passes the same upstream gradient to
            # both parents) — allocate the sum, then accumulate in place.
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of some scalar objective with respect to this tensor.
            Defaults to ``1`` which is only valid for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological order of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply_op("add", (self, as_tensor(other, dtype=self.data.dtype)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply_op("neg", (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other, dtype=self.data.dtype))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply_op("mul", (self, as_tensor(other, dtype=self.data.dtype)))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply_op("div", (self, as_tensor(other, dtype=self.data.dtype)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        return apply_op("pow", (self,), {"exponent": exponent})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return apply_op("matmul", (self, as_tensor(other, dtype=self.data.dtype)))

    # -- comparisons (non differentiable, return plain Tensors) -------------

    def _compare(self, other: ArrayLike, op: str) -> "Tensor":
        if isinstance(other, Tensor):
            return apply_op(op, (self, other))
        return apply_op(op + "_scalar", (self,),
                        {"other": _asarray(other, self.data.dtype)})

    def __gt__(self, other: ArrayLike) -> "Tensor":
        return self._compare(other, "greater")

    def __ge__(self, other: ArrayLike) -> "Tensor":
        return self._compare(other, "greater_equal")

    def __lt__(self, other: ArrayLike) -> "Tensor":
        return self._compare(other, "less")

    def __le__(self, other: ArrayLike) -> "Tensor":
        return self._compare(other, "less_equal")

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("max", (self,), {"axis": axis, "keepdims": keepdims})

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op("reshape", (self,), {"shape": shape})

    def view(self, *shape) -> "Tensor":
        return self.reshape(*shape)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.data.shape
        new_shape = shape[:start_dim] + (-1,)
        return self.reshape(new_shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        return apply_op("transpose", (self,), {"axes": axes})

    def permute(self, *axes) -> "Tensor":
        return self.transpose(*axes)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        return apply_op("squeeze", (self,), {"axis": axis})

    def unsqueeze(self, axis: int) -> "Tensor":
        return apply_op("unsqueeze", (self,), {"axis": axis})

    def __getitem__(self, index) -> "Tensor":
        return apply_op("getitem", (self,), {"index": index})

    # -- elementwise math -----------------------------------------------------

    def exp(self) -> "Tensor":
        return apply_op("exp", (self,))

    def log(self) -> "Tensor":
        return apply_op("log", (self,))

    def sqrt(self) -> "Tensor":
        return apply_op("sqrt", (self,))

    def tanh(self) -> "Tensor":
        return apply_op("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        return apply_op("sigmoid", (self,))

    def relu(self) -> "Tensor":
        return apply_op("relu", (self,))

    def abs(self) -> "Tensor":
        return apply_op("abs", (self,))

    def clip(self, low: float, high: float) -> "Tensor":
        return apply_op("clip", (self,), {"low": low, "high": high})

    # -- static constructors ---------------------------------------------------

    @staticmethod
    def zeros(shape, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def zeros_like(other: "Tensor", requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros_like(other.data), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, requires_grad: bool = False, rng: Optional[np.random.Generator] = None) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return apply_op("stack", tuple(tensors), {"axis": axis})

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        return apply_op("concatenate", tuple(tensors), {"axis": axis})


# ---------------------------------------------------------------------------
# Function: custom differentiable ops
# ---------------------------------------------------------------------------


class Function:
    """Base class for custom differentiable operations.

    Subclasses implement :meth:`forward` (NumPy in, NumPy out) and
    :meth:`backward` (gradient of the output in, tuple of gradients of the
    inputs out).  ``ctx`` (``self``) may store anything needed for backward
    via attribute assignment.

    Example
    -------
    The surrogate-gradient Heaviside used by the LIF neuron is implemented as
    a ``Function``: forward returns ``(u >= v_th)`` while backward returns a
    smooth surrogate derivative.

    ``apply`` reports a ``"fn"`` trace record carrying the subclass and its
    constructor kwargs, so the compiled runtime can re-instantiate a fresh
    context and re-run forward/backward on replay.
    """

    def forward(self, *arrays: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs: ArrayLike, **kwargs) -> Tensor:
        """Run the op on ``inputs`` and wire it into the autograd graph."""
        return apply_op("fn", tuple([as_tensor(x) for x in inputs]),
                        {"cls": cls, "kwargs": kwargs})
