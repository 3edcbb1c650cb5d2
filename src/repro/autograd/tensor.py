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

Op tracing
----------
Every differentiable op additionally reports itself to an *active trace*
(installed per-thread via :func:`set_trace`) as a structured record — op
name, input/output tensors, static attributes and, where needed, saved
forward state.  The compiled runtime (:mod:`repro.runtime`) installs a
:class:`~repro.runtime.graph.GraphCapture` as the trace to turn one eager
step into a replayable execution plan; with no trace installed the check is
a single thread-local read per op.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "Function",
    "Workspace",
    "ws_buf",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "set_trace",
    "active_trace",
    "record_op",
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


def _traced(op: str, data: np.ndarray, parents: Sequence["Tensor"],
            backward: Optional[Callable[[np.ndarray], None]],
            attrs: Optional[dict] = None, saved=None) -> "Tensor":
    """Create an op result via :meth:`Tensor._make` and report it to the trace."""
    out = Tensor._make(data, parents, backward)
    trace = getattr(_TRACE_TLS, "trace", None)
    if trace is not None:
        trace.record(op, tuple(parents), out, attrs or {}, saved)
    return out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting may have expanded an operand along leading axes or along
    axes of size one; the gradient of a broadcast is the sum over the expanded
    axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over the extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were of size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _channel_sums(rows: np.ndarray) -> np.ndarray:
    """Sums over the second-to-last axis: ``(..., M, C)`` to ``(..., C)``.

    One (batched) GEMV against a ones vector.  For channels-last activations
    ``rows.sum(axis=-2)`` runs a short strided loop per channel and is ~15x
    slower when ``C`` is small.
    """
    return np.matmul(np.ones(rows.shape[-2], rows.dtype), rows)


def _index_repeats(index) -> bool:
    """Whether ``array[index]`` may select one element twice.

    Ints, slices, ``None``, ``...`` and a lone boolean mask never do.  A lone
    integer array does when two of its entries are equal, or when it mixes
    signs (``-1`` and ``dim - 1`` name the same element).  Any other index
    counts as repeating.
    """
    parts = index if isinstance(index, tuple) else (index,)
    arrays = [part for part in parts
              if part is not None and part is not Ellipsis
              and not isinstance(part, (slice, int, np.integer))]
    if not arrays:
        return False
    if len(arrays) > 1:
        return True
    array = np.asarray(arrays[0])
    if array.dtype == np.bool_:
        return False
    if array.dtype.kind not in "iu":
        return True
    flat = array.ravel().tolist()
    if flat and min(flat) < 0 <= max(flat):
        return True
    return len(set(flat)) != len(flat)


def _index_backward(like: np.ndarray, index, grad) -> np.ndarray:
    """Gradient of ``like[index]``: ``grad`` scattered into zeros shaped as ``like``.

    ``np.add.at`` accumulates an index that selects an element twice, but it
    is an unbuffered per-element loop; every other index is a plain
    assignment.  Adding 0 before the assignment turns ``-0.0`` into ``+0.0``
    as ``0 + grad`` in ``np.add.at`` does, so both routes agree bitwise.
    """
    full = np.zeros_like(like)
    grad = np.asarray(grad)
    if _index_repeats(index):
        np.add.at(full, index, grad)
    else:
        full[index] = grad + 0
    return full


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
        out = Tensor(self.data, requires_grad=False)
        record_op("detach", (self,), out)
        return out

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
            # Accumulate-on-first-write: adopt the incoming array when it owns
            # its storage (ops hand over fresh temporaries); copy views so a
            # later in-place accumulation cannot corrupt shared memory.
            if grad.base is not None:
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
        other_t = as_tensor(other, dtype=self.data.dtype)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad or self._prev:
                self._accumulate_grad(grad)
            if other_t.requires_grad or other_t._prev:
                other_t._accumulate_grad(grad)

        return _traced("add", out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(-grad)

        return _traced("neg", out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other, dtype=self.data.dtype))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other, dtype=self.data.dtype)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad or self._prev:
                self._accumulate_grad(grad * other_t.data)
            if other_t.requires_grad or other_t._prev:
                other_t._accumulate_grad(grad * self.data)

        return _traced("mul", out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other, dtype=self.data.dtype)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad or self._prev:
                self._accumulate_grad(grad / other_t.data)
            if other_t.requires_grad or other_t._prev:
                other_t._accumulate_grad(-grad * self.data / (other_t.data ** 2))

        return _traced("div", out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return _traced("pow", out_data, (self,), backward, {"exponent": exponent})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = as_tensor(other, dtype=self.data.dtype)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if self.requires_grad or self._prev:
                if b.ndim == 1:
                    grad_a = np.outer(grad, b) if a.ndim > 1 else grad * b
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate_grad(_unbroadcast(np.asarray(grad_a), a.shape))
            if other_t.requires_grad or other_t._prev:
                if a.ndim == 1:
                    grad_b = np.outer(a, grad) if b.ndim > 1 else a * grad
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other_t._accumulate_grad(_unbroadcast(np.asarray(grad_b), b.shape))

        return _traced("matmul", out_data, (self, other_t), backward)

    # -- comparisons (non differentiable, return plain Tensors) -------------

    def _compare(self, other: ArrayLike, op: str, ufunc) -> "Tensor":
        if isinstance(other, Tensor):
            out = Tensor(ufunc(self.data, other.data).astype(self.data.dtype))
            record_op(op, (self, other), out)
        else:
            other_arr = _asarray(other, self.data.dtype)
            out = Tensor(ufunc(self.data, other_arr).astype(self.data.dtype))
            record_op(op + "_scalar", (self,), out, {"other": other_arr})
        return out

    def __gt__(self, other: ArrayLike) -> "Tensor":
        return self._compare(other, "greater", np.greater)

    def __ge__(self, other: ArrayLike) -> "Tensor":
        return self._compare(other, "greater_equal", np.greater_equal)

    def __lt__(self, other: ArrayLike) -> "Tensor":
        return self._compare(other, "less", np.less)

    def __le__(self, other: ArrayLike) -> "Tensor":
        return self._compare(other, "less_equal", np.less_equal)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.data.shape)]
                g = g.reshape(shape)
            self._accumulate_grad(np.broadcast_to(g, self.data.shape))

        return _traced("sum", out_data, (self,), backward,
                       {"axis": axis, "keepdims": keepdims})

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
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = [1 if i in axes else s for i, s in enumerate(self.data.shape)]
                g = g.reshape(shape)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Distribute gradient equally among ties.
            denom = mask.sum(axis=axis, keepdims=True)
            self._accumulate_grad(mask * g / denom)

        return _traced("max", out_data, (self,), backward,
                       {"axis": axis, "keepdims": keepdims})

    # -- shape manipulation ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(np.asarray(grad).reshape(original))

        return _traced("reshape", out_data, (self,), backward,
                       {"shape": tuple(out_data.shape)})

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
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(np.asarray(grad).transpose(inverse))

        return _traced("transpose", out_data, (self,), backward, {"axes": tuple(axes)})

    def permute(self, *axes) -> "Tensor":
        return self.transpose(*axes)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        original = self.data.shape
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(np.asarray(grad).reshape(original))

        return _traced("squeeze", out_data, (self,), backward, {"axis": axis})

    def unsqueeze(self, axis: int) -> "Tensor":
        original = self.data.shape
        out_data = np.expand_dims(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(np.asarray(grad).reshape(original))

        return _traced("unsqueeze", out_data, (self,), backward, {"axis": axis})

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(_index_backward(self.data, index, grad))

        return _traced("getitem", out_data, (self,), backward, {"index": index})

    # -- elementwise math -----------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * out_data)

        return _traced("exp", out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad / self.data)

        return _traced("log", out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * 0.5 / np.maximum(out_data, 1e-12))

        return _traced("sqrt", out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * (1.0 - out_data ** 2))

        return _traced("tanh", out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * out_data * (1.0 - out_data))

        return _traced("sigmoid", out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(self.data.dtype)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * mask)

        return _traced("relu", out_data, (self,), backward)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * sign)

        return _traced("abs", out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = ((self.data >= low) & (self.data <= high)).astype(self.data.dtype)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * mask)

        return _traced("clip", out_data, (self,), backward, {"low": low, "high": high})

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
        tensors = list(tensors)
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(np.asarray(grad), len(tensors), axis=axis)
            for t, piece in zip(tensors, pieces):
                if t.requires_grad or t._prev:
                    t._accumulate_grad(np.squeeze(piece, axis=axis))

        return _traced("stack", out_data, tensors, backward, {"axis": axis})

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad or t._prev:
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(start, stop)
                    t._accumulate_grad(g[tuple(index)])

        return _traced("concatenate", out_data, tensors, backward, {"axis": axis})


# ---------------------------------------------------------------------------
# Function: custom differentiable ops
# ---------------------------------------------------------------------------


class Workspace:
    """Named pool of persistent scratch buffers for kernel contexts.

    A :class:`Function` context that has a workspace installed (see
    :meth:`Function.set_workspace`) writes its large temporaries — im2col
    columns, padded inputs, membrane histories, normalised activations —
    into buffers that live across calls instead of allocating fresh arrays
    every time.  The compiled runtime's graph optimizer attaches one
    workspace per specialized graph node, which removes the steady-state
    allocation traffic from replayed kernels; the eager path never installs
    one, so eager execution is unchanged.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers = {}

    def buf(self, key: str, shape: Tuple[int, ...], dtype, zero: bool = False) -> np.ndarray:
        """Return the persistent buffer for ``key``, creating it on first use.

        ``zero=True`` zero-fills only on creation (callers rely on regions
        they never write — e.g. a padded image's border — staying zero).
        Buffers are keyed by ``(key, shape, dtype)``, so a caller switching
        shape or dtype (e.g. a float32 plan after a float64 capture of the
        same module) gets a distinct buffer instead of silently recreating —
        or worse, aliasing — the other precision's storage.
        """
        full_key = (key, tuple(shape), np.dtype(dtype).str)
        buffer = self._buffers.get(full_key)
        if buffer is not None:
            return buffer
        buffer = np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
        self._buffers[full_key] = buffer
        return buffer

    def nbytes(self) -> int:
        return sum(buffer.nbytes for buffer in self._buffers.values())


def ws_buf(ctx, key: str, shape: Tuple[int, ...], dtype, zero: bool = False) -> np.ndarray:
    """Scratch buffer for a kernel context: workspace-backed when installed.

    Without a workspace this is a plain allocation (``np.zeros`` /
    ``np.empty``), i.e. exactly what the eager kernels always did.
    """
    ws = getattr(ctx, "_ws", None)
    if ws is None:
        return np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
    return ws.buf(key, shape, dtype, zero=zero)


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

    #: Installed by the graph optimizer on persistent (plan-owned) contexts;
    #: ``None`` on every eagerly-created context.
    _ws: Optional[Workspace] = None

    def set_workspace(self, workspace: Optional[Workspace]) -> None:
        """Install a persistent scratch-buffer pool (see :class:`Workspace`)."""
        self._ws = workspace

    def forward(self, *arrays: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> Tuple[Optional[np.ndarray], ...]:  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs: ArrayLike, **kwargs) -> Tensor:
        """Run the op on ``inputs`` and wire it into the autograd graph."""
        ctx = cls(**kwargs) if kwargs else cls()
        tensors = [as_tensor(x) for x in inputs]
        out_data = ctx.forward(*[t.data for t in tensors])

        def backward(grad: np.ndarray) -> None:
            grads = ctx.backward(np.asarray(grad))
            if not isinstance(grads, tuple):
                grads = (grads,)
            for t, g in zip(tensors, grads):
                if g is None:
                    continue
                if t.requires_grad or t._prev:
                    t._accumulate_grad(g)

        return _traced("fn", out_data, tensors, backward,
                       {"cls": cls, "kwargs": kwargs}, saved=ctx)
