"""Functional neural-network primitives on top of the autograd engine.

These are the NumPy analogues of ``torch.nn.functional`` calls the TT-SNN
training pipeline needs: activations, softmax / cross entropy (used by the
plain loss and by the TET loss), pooling, dropout, and linear/batch-norm
helpers shared by the layer classes in :mod:`repro.nn`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd.tensor import Function, Tensor, apply_op, as_tensor
from repro.autograd.conv import _pair, conv2d_output_shape, im2col

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "mse_loss",
    "nll_loss",
    "linear",
    "dropout",
    "avg_pool2d",
    "max_pool2d",
    "adaptive_avg_pool2d",
    "avg_pool2d_cl",
    "max_pool2d_cl",
    "adaptive_avg_pool2d_cl",
    "pad2d",
    "one_hot",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def _stopgrad_max(x: Tensor, axis: int) -> Tensor:
    """Gradient-free ``max(x, axis, keepdims=True)`` (softmax stabiliser).

    The result carries no backward (the shift cancels analytically) but IS
    reported to the op trace: a replay must recompute it from the live input,
    not reuse the value baked at capture time.
    """
    return apply_op("stopgrad_max", (x,), {"axis": axis})


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - _stopgrad_max(x, axis)
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - _stopgrad_max(x, axis)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def nll_loss(log_probs: Tensor, labels) -> Tensor:
    """Negative log-likelihood of ``labels`` under ``log_probs``.

    ``labels`` is either an integer vector ``(N,)`` or a pre-built one-hot
    ``(N, C)`` :class:`Tensor` — the latter lets the compiled runtime feed
    labels through a replayable placeholder instead of baking them into the
    captured graph.
    """
    log_probs = as_tensor(log_probs)
    if isinstance(labels, Tensor):
        mask = labels
    else:
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        n, c = log_probs.shape
        mask = Tensor(one_hot(labels, c))
    picked = (log_probs * mask).sum(axis=1)
    return -picked.mean()


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Softmax cross-entropy between ``logits (N, C)`` and integer (or one-hot) labels."""
    return nll_loss(log_softmax(logits, axis=1), labels)


def mse_loss(prediction: Tensor, target: Union[Tensor, np.ndarray]) -> Tensor:
    """Mean squared error."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch layout: weight is (out, in))."""
    out = as_tensor(x) @ as_tensor(weight).transpose()
    if bias is not None:
        out = out + as_tensor(bias)
    return out


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng or np.random.default_rng()
    return apply_op("dropout", (as_tensor(x),), {"p": p, "rng": rng})


def pad2d(x: Tensor, padding: Tuple[int, int]) -> Tensor:
    """Zero-pad the two trailing (spatial) dimensions by ``(ph, pw)`` on each side."""
    ph, pw = padding
    if ph == 0 and pw == 0:
        return as_tensor(x)
    return apply_op("pad2d", (as_tensor(x),), {"padding": (ph, pw)})


class _AvgPool2dFunction(Function):
    """Average pooling with im2col lowering."""

    def __init__(self, kernel_size, stride=None, padding=0):
        self.kernel = _pair(kernel_size)
        self.stride = _pair(stride if stride is not None else kernel_size)
        self.padding = _pair(padding)
        self._x_shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        kh, kw = self.kernel
        out_h, out_w = conv2d_output_shape((h, w), (kh, kw), self.stride, self.padding)
        cols = im2col(x, (kh, kw), self.stride, self.padding)
        cols = cols.reshape(n, c, kh * kw, out_h * out_w)
        self._x_shape = x.shape
        return cols.mean(axis=2).reshape(n, c, out_h, out_w).astype(x.dtype)

    def backward(self, grad_output: np.ndarray):
        from repro.autograd.conv import col2im

        n, c, h, w = self._x_shape
        kh, kw = self.kernel
        out_h, out_w = conv2d_output_shape((h, w), (kh, kw), self.stride, self.padding)
        grad = grad_output.reshape(n, c, 1, out_h * out_w) / (kh * kw)
        grad_cols = np.broadcast_to(grad, (n, c, kh * kw, out_h * out_w))
        grad_cols = grad_cols.reshape(n, c * kh * kw, out_h * out_w)
        grad_x = col2im(np.ascontiguousarray(grad_cols), self._x_shape, (kh, kw), self.stride, self.padding)
        return (grad_x,)


def _window_max_first_wins(views, index: bool = True):
    """First-wins max (and, with ``index``, the window-index map) over kernel-position views.

    ``views`` lists the slices of each kernel position in ``argmax`` order.
    Shared by the training and inference paths of the NCHW and
    channels-last pools, so their tie-breaking can never diverge.

    The select is plain ufuncs with ``out=``: a three-operand ``where``
    select, or a masked ``copyto``, costs many times a ufunc on these
    strided views.  Per position ``k``, ``better = candidate > best`` marks
    the strict winners and ``np.maximum`` updates the running max.  The
    index map is the last ``k`` whose candidate was better, i.e.
    ``max_k(k * better)``, so strict ``>`` keeps the earlier position on
    ties, matching ``cols.argmax(axis)`` — which matters because spike maps
    are binary and tie constantly.  ``np.maximum`` takes ``best`` as its
    second operand, which NumPy's SIMD loops return on equal inputs, so a
    ``+0.0``/``-0.0`` tie keeps the earlier sign as well.  A NaN in a window
    reaches the output, as in the im2col path.
    """
    best = views[0].copy()
    if not index:
        for candidate in views[1:]:
            np.maximum(candidate, best, out=best)
        return best, None
    # int8 while the largest window index (len(views) - 1) fits in it.
    dtype = np.int8 if len(views) <= 128 else np.int32
    arg = np.zeros(best.shape, dtype)
    better = np.empty(best.shape, np.bool_)
    step = np.empty(best.shape, dtype)
    for k, candidate in enumerate(views[1:], start=1):
        np.greater(candidate, best, out=better)
        np.maximum(candidate, best, out=best)
        np.multiply(better, dtype(k), out=step)
        np.maximum(arg, step, out=arg)
    return best, arg


def _window_max_scatter_grad(grad_views, grad_output, argmax):
    """Scatter ``grad_output`` into the winning window position of each view.

    Writes ``grad * (argmax == k)`` into each (non-overlapping, jointly
    covering) window view, so the gradient buffer needs no pre-zeroing; the
    ``argmax == k`` masks share one scratch.  A losing position holds
    ``grad * 0``, which is ``-0.0`` where ``grad`` is negative.
    """
    mask = np.empty(argmax.shape, np.bool_)
    for k, view in enumerate(grad_views):
        np.equal(argmax, k, out=mask)
        np.multiply(grad_output, mask, out=view)


class _MaxPool2dFunction(Function):
    """Max pooling with im2col lowering (argmax stored for backward).

    Non-overlapping pools (stride == kernel, no padding, divisible sizes —
    the ubiquitous 2x2/2 case) run strided window views through
    :func:`_window_max_first_wins`, one ufunc select for training and
    inference; everything else falls back to the general im2col lowering.
    Tie-breaking matches ``argmax`` (first window element wins), which
    matters because spike maps are binary.
    """

    def __init__(self, kernel_size, stride=None, padding=0):
        self.kernel = _pair(kernel_size)
        self.stride = _pair(stride if stride is not None else kernel_size)
        self.padding = _pair(padding)
        self._x_shape = None
        self._argmax = None
        self._fast = False

    def _window_views(self, x: np.ndarray):
        """Yield the kernel-position slices ``x[:, :, i::kh, j::kw]`` in argmax order."""
        kh, kw = self.kernel
        for i in range(kh):
            for j in range(kw):
                yield x[:, :, i::kh, j::kw]

    def _is_fast(self, h: int, w: int) -> bool:
        kh, kw = self.kernel
        return (self.stride == self.kernel and self.padding == (0, 0)
                and h % kh == 0 and w % kw == 0 and kh * kw > 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._fast = self._is_fast(*x.shape[2:])
        if self._fast:
            self._x_shape = x.shape
            best, self._argmax = _window_max_first_wins(list(self._window_views(x)))
            return best
        return self._forward_general(x)

    def forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Max pooling without the argmax map (compiled no-grad replay path)."""
        if self._is_fast(*x.shape[2:]):
            return _window_max_first_wins(list(self._window_views(x)), index=False)[0]
        n, c, h, w = x.shape
        kh, kw = self.kernel
        out_h, out_w = conv2d_output_shape((h, w), (kh, kw), self.stride, self.padding)
        cols = im2col(x, (kh, kw), self.stride, self.padding)
        cols = cols.reshape(n, c, kh * kw, out_h * out_w)
        return cols.max(axis=2).reshape(n, c, out_h, out_w).astype(x.dtype, copy=False)

    def _forward_general(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        kh, kw = self.kernel
        out_h, out_w = conv2d_output_shape((h, w), (kh, kw), self.stride, self.padding)
        cols = im2col(x, (kh, kw), self.stride, self.padding)
        cols = cols.reshape(n, c, kh * kw, out_h * out_w)
        self._x_shape = x.shape
        # One reduction pass: argmax, then gather the winners.
        self._argmax = cols.argmax(axis=2)
        out = np.take_along_axis(cols, self._argmax[:, :, None, :], axis=2)
        return out.reshape(n, c, out_h, out_w).astype(x.dtype, copy=False)

    def backward(self, grad_output: np.ndarray):
        if self._fast:
            grad_x = np.empty(self._x_shape, grad_output.dtype)
            _window_max_scatter_grad(self._window_views(grad_x), grad_output, self._argmax)
            return (grad_x,)
        from repro.autograd.conv import col2im

        n, c, h, w = self._x_shape
        kh, kw = self.kernel
        out_h, out_w = conv2d_output_shape((h, w), (kh, kw), self.stride, self.padding)
        grad_cols = np.zeros((n, c, kh * kw, out_h * out_w), dtype=grad_output.dtype)
        flat_grad = grad_output.reshape(n, c, 1, out_h * out_w)
        np.put_along_axis(grad_cols, self._argmax[:, :, None, :], flat_grad, axis=2)
        grad_cols = grad_cols.reshape(n, c * kh * kw, out_h * out_w)
        grad_x = col2im(grad_cols, self._x_shape, (kh, kw), self.stride, self.padding)
        return (grad_x,)


class _ChannelsLastPoolBase(Function):
    """Shared plumbing for channels-last pooling over ``(M, H, W, C)`` inputs.

    The non-overlapping case (stride == kernel, no padding, divisible sizes —
    every pool in the model zoo) runs on strided window views with
    C-contiguous inner runs (max pooling through the same
    :func:`_window_max_first_wins` select as NCHW); anything else transposes
    to NCHW and delegates to the general functions (correct, just slower).
    """

    def __init__(self, kernel_size, stride=None, padding=0):
        self.kernel = _pair(kernel_size)
        self.stride = _pair(stride if stride is not None else kernel_size)
        self.padding = _pair(padding)
        self._x_shape = None
        self._fallback: Optional[Function] = None

    def _is_fast(self, h: int, w: int) -> bool:
        kh, kw = self.kernel
        return (self.stride == self.kernel and self.padding == (0, 0)
                and h % kh == 0 and w % kw == 0)

    def _windows(self, x: np.ndarray):
        """Kernel-position slices ``x[:, i::kh, j::kw, :]`` in (i, j) order."""
        kh, kw = self.kernel
        for i in range(kh):
            for j in range(kw):
                yield x[:, i::kh, j::kw, :]

    def _fallback_forward(self, x: np.ndarray, cls) -> np.ndarray:
        self._fallback = cls(self.kernel, self.stride, self.padding)
        out = self._fallback.forward(np.ascontiguousarray(x.transpose(0, 3, 1, 2)))
        return np.ascontiguousarray(out.transpose(0, 2, 3, 1))

    def _fallback_backward(self, grad_output: np.ndarray):
        (grad_nchw,) = self._fallback.backward(
            np.ascontiguousarray(grad_output.transpose(0, 3, 1, 2))
        )
        return (np.ascontiguousarray(grad_nchw.transpose(0, 2, 3, 1)),)


class _MaxPool2dCLFunction(_ChannelsLastPoolBase):
    """Channels-last max pooling (first-wins ties, matching the NCHW path)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self._is_fast(*x.shape[1:3]):
            return self._fallback_forward(x, _MaxPool2dFunction)
        self._x_shape = x.shape
        best, self._argmax = _window_max_first_wins(list(self._windows(x)))
        return best

    def forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Max pooling without the argmax map (compiled no-grad replay path)."""
        if not self._is_fast(*x.shape[1:3]):
            inner = _MaxPool2dFunction(self.kernel, self.stride, self.padding)
            out = inner.forward_inference(np.ascontiguousarray(x.transpose(0, 3, 1, 2)))
            return np.ascontiguousarray(out.transpose(0, 2, 3, 1))
        return _window_max_first_wins(list(self._windows(x)), index=False)[0]

    def backward(self, grad_output: np.ndarray):
        if self._fallback is not None:
            return self._fallback_backward(grad_output)
        # The window views jointly cover grad_x, so no pre-zeroing.
        grad_x = np.empty(self._x_shape, grad_output.dtype)
        _window_max_scatter_grad(self._windows(grad_x), grad_output, self._argmax)
        return (grad_x,)


class _AvgPool2dCLFunction(_ChannelsLastPoolBase):
    """Channels-last average pooling."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        m, h, w, c = x.shape
        if not self._is_fast(h, w):
            return self._fallback_forward(x, _AvgPool2dFunction)
        kh, kw = self.kernel
        self._x_shape = x.shape
        windowed = x.reshape(m, h // kh, kh, w // kw, kw, c)
        return windowed.mean(axis=(2, 4)).astype(x.dtype, copy=False)

    def backward(self, grad_output: np.ndarray):
        if self._fallback is not None:
            return self._fallback_backward(grad_output)
        m, h, w, c = self._x_shape
        kh, kw = self.kernel
        grad = grad_output / (kh * kw)
        expanded = np.broadcast_to(grad[:, :, None, :, None, :],
                                   (m, h // kh, kh, w // kw, kw, c))
        return (expanded.reshape(m, h, w, c),)


def max_pool2d_cl(x: Tensor, kernel_size, stride=None, padding=0) -> Tensor:
    """Channels-last 2-D max pooling over ``(M, H, W, C)``."""
    return _MaxPool2dCLFunction.apply(as_tensor(x), kernel_size=kernel_size,
                                      stride=stride, padding=padding)


def avg_pool2d_cl(x: Tensor, kernel_size, stride=None, padding=0) -> Tensor:
    """Channels-last 2-D average pooling over ``(M, H, W, C)``."""
    return _AvgPool2dCLFunction.apply(as_tensor(x), kernel_size=kernel_size,
                                      stride=stride, padding=padding)


def adaptive_avg_pool2d_cl(x: Tensor, output_size: Union[int, Tuple[int, int]] = 1) -> Tensor:
    """Channels-last adaptive average pooling (exact divisors only)."""
    oh, ow = _pair(output_size)
    x = as_tensor(x)
    _, h, w, _ = x.shape
    if h % oh or w % ow:
        raise ValueError(f"adaptive_avg_pool2d requires divisible sizes, got {(h, w)} -> {(oh, ow)}")
    return avg_pool2d_cl(x, kernel_size=(h // oh, w // ow), stride=(h // oh, w // ow))


def avg_pool2d(x: Tensor, kernel_size, stride=None, padding=0) -> Tensor:
    """2-D average pooling."""
    return _AvgPool2dFunction.apply(as_tensor(x), kernel_size=kernel_size, stride=stride, padding=padding)


def max_pool2d(x: Tensor, kernel_size, stride=None, padding=0) -> Tensor:
    """2-D max pooling."""
    return _MaxPool2dFunction.apply(as_tensor(x), kernel_size=kernel_size, stride=stride, padding=padding)


def adaptive_avg_pool2d(x: Tensor, output_size: Union[int, Tuple[int, int]] = 1) -> Tensor:
    """Adaptive average pooling to ``output_size`` (only exact divisors supported)."""
    oh, ow = _pair(output_size)
    x = as_tensor(x)
    _, _, h, w = x.shape
    if h % oh or w % ow:
        raise ValueError(f"adaptive_avg_pool2d requires divisible sizes, got {(h, w)} -> {(oh, ow)}")
    return avg_pool2d(x, kernel_size=(h // oh, w // ow), stride=(h // oh, w // ow))
