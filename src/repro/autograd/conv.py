"""im2col-based 2-D convolution with full forward/backward support.

The TT-SNN paper decomposes a dense ``(O, I, 3, 3)`` convolution into four
sub-convolutions with kernel shapes ``(r, I, 1, 1)``, ``(r, r, 3, 1)``,
``(r, r, 1, 3)`` and ``(O, r, 1, 1)``; this module therefore supports
*asymmetric* kernels and asymmetric padding, which the TT layers rely on.

The implementation uses the standard im2col / col2im lowering so that both
the forward pass and the weight/input gradients reduce to a single matrix
multiplication each, which keeps NumPy training throughput usable.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.tensor import Function, Tensor, apply_op, as_tensor

__all__ = [
    "conv2d",
    "conv2d_channels_last",
    "conv2d_output_shape",
    "im2col",
    "col2im",
    "Conv2dFunction",
    "ConvChannelsLastFunction",
    "cross_conv",
    "CrossConvFunction",
]

IntOrPair = Union[int, Tuple[int, int]]


def _pair(value: IntOrPair) -> Tuple[int, int]:
    """Normalise an int-or-pair argument to a 2-tuple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv2d_output_shape(
    input_hw: Tuple[int, int],
    kernel_hw: Tuple[int, int],
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tuple[int, int]:
    """Spatial output shape of a 2-D convolution (floor division semantics)."""
    h, w = input_hw
    kh, kw = kernel_hw
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution produces empty output: input {input_hw}, kernel {kernel_hw}, "
            f"stride {(sh, sw)}, padding {(ph, pw)}"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray,
    kernel_hw: Tuple[int, int],
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> np.ndarray:
    """Lower ``x (N, C, H, W)`` into column form ``(N, C*kh*kw, out_h*out_w)``."""
    return _im2col_batched(x, kernel_hw, stride, padding)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_hw: Tuple[int, int],
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = input_shape
    kh, kw = kernel_hw
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv2d_output_shape((h, w), (kh, kw), (sh, sw), (ph, pw))

    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols_reshaped = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols_reshaped[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:ph + h, pw:pw + w]
    return padded


def _im2col_batched(
    x: np.ndarray,
    kernel_hw: Tuple[int, int],
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> np.ndarray:
    """Lower ``x (N, C, H, W)`` into batched columns ``(N, C*kh*kw, out_h*out_w)``.

    The batched layout feeds :func:`numpy.matmul` broadcasting —
    ``(O, K) @ (N, K, L) -> (N, O, L)`` — so the convolution output lands
    directly in ``(N, O, ...)`` order with no transpose copy, and a
    time-folded ``(T*N, ...)`` batch runs through one strided-BLAS call.
    """
    n, c, h, w = x.shape
    kh, kw = kernel_hw
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv2d_output_shape((h, w), (kh, kw), (sh, sw), (ph, pw))

    if ph or pw:
        # Direct zero-fill + slice assignment: same result as np.pad
        # without its per-call Python overhead.
        padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded

    # Strided view: (N, C, kh, kw, out_h, out_w)
    stride_n, stride_c, stride_h, stride_w = x.strides
    shape = (n, c, kh, kw, out_h, out_w)
    strides = (stride_n, stride_c, stride_h, stride_w, stride_h * sh, stride_w * sw)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return patches.reshape(n, c * kh * kw, out_h * out_w)


class Conv2dFunction(Function):
    """Differentiable 2-D convolution (cross-correlation, PyTorch convention).

    Inputs (as NumPy arrays via :meth:`Function.apply`):

    * ``x`` of shape ``(N, C_in, H, W)``
    * ``weight`` of shape ``(C_out, C_in, kH, kW)``
    * ``bias`` of shape ``(C_out,)`` or omitted (pass ``None`` beforehand).

    Forward and both gradients are each one batched-GEMM over an im2col
    lowering kept in ``(N, K, L)`` layout, so no pass needs a transpose copy
    and cost scales with BLAS throughput even when the batch carries ``T``
    folded timesteps (the fused step mode).  The stride-1 input gradient is
    computed as a direct correlation with the flipped kernel, avoiding the
    strided col2im scatter on the BPTT hot path.
    """

    #: Cleared by the ``fn`` backward kernel when the convolution's input
    #: needs no gradient (e.g. the network input): backward then skips the
    #: entire input-gradient GEMM + column gather.
    input_needs_grad = True

    def __init__(self, stride: IntOrPair = 1, padding: IntOrPair = 0):
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._cols: Optional[np.ndarray] = None
        self._weight: Optional[np.ndarray] = None
        self._has_bias = False

    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        return self._compute(arrays, save=True)

    def forward_inference(self, *arrays: np.ndarray) -> np.ndarray:
        """Forward without retaining the im2col columns (no-grad replay path)."""
        return self._compute(arrays, save=False)

    def _compute(self, arrays, save: bool) -> np.ndarray:
        if len(arrays) == 3:
            x, weight, bias = arrays
            self._has_bias = True
        else:
            x, weight = arrays
            bias = None
        out_c, in_c, kh, kw = weight.shape
        n, c, h, w = x.shape
        if c != in_c:
            raise ValueError(f"input channels {c} do not match weight channels {in_c}")
        out_h, out_w = conv2d_output_shape((h, w), (kh, kw), self.stride, self.padding)

        cols = _im2col_batched(x, (kh, kw), self.stride, self.padding)  # (N, K, L)
        w_mat = weight.reshape(out_c, -1)                               # (O, K)
        out = np.matmul(w_mat, cols).reshape(n, out_c, out_h, out_w)
        if bias is not None:
            out = out + bias.reshape(1, out_c, 1, 1)

        if save:
            self._x_shape = x.shape
            self._cols = cols
            self._weight = weight
        return out.astype(x.dtype, copy=False)

    def backward(self, grad_output: np.ndarray):
        weight = self._weight
        out_c, in_c, kh, kw = weight.shape
        n = grad_output.shape[0]
        grad_nol = grad_output.reshape(n, out_c, -1)                    # (N, O, L)

        # (N, O, L) @ (N, L, K) -> (N, O, K), reduced over the batch; the
        # transposed operand stays a view (BLAS handles the stride).
        grad_weight = np.matmul(grad_nol, self._cols.transpose(0, 2, 1)).sum(axis=0)
        grad_weight = grad_weight.reshape(weight.shape)

        if not self.input_needs_grad:
            if self._has_bias:
                return None, grad_weight, grad_output.sum(axis=(0, 2, 3))
            return None, grad_weight

        sh, sw = self.stride
        ph, pw = self.padding
        if sh == 1 and sw == 1 and kh - 1 >= ph and kw - 1 >= pw:
            # Stride-1 input gradient as a direct correlation: convolve the
            # grad with the flipped, channel-transposed kernel.
            w_flip = np.ascontiguousarray(
                weight[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            ).reshape(in_c, -1)                                         # (C, O*kh*kw)
            g_cols = _im2col_batched(
                grad_output, (kh, kw), 1, (kh - 1 - ph, kw - 1 - pw),
            )                                                           # (N, O*kh*kw, H*W)
            h, w = self._x_shape[2], self._x_shape[3]
            # GEMM into the image-shaped array, so the returned gradient
            # owns its storage and the tape adopts it without a copy.
            grad_x = np.empty((n, in_c, h, w), grad_output.dtype)
            np.matmul(w_flip, g_cols, out=grad_x.reshape(n, in_c, h * w))
        else:
            w_mat = weight.reshape(out_c, -1)
            grad_cols = np.matmul(w_mat.T, grad_nol)                    # (N, K, L)
            grad_x = col2im(grad_cols, self._x_shape, (kh, kw), self.stride, self.padding)

        if self._has_bias:
            grad_bias = grad_output.sum(axis=(0, 2, 3))
            return grad_x, grad_weight, grad_bias
        return grad_x, grad_weight


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tensor:
    """Functional 2-D convolution over :class:`~repro.autograd.Tensor` inputs."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    if bias is not None:
        return Conv2dFunction.apply(x, weight, as_tensor(bias), stride=stride, padding=padding)
    return Conv2dFunction.apply(x, weight, stride=stride, padding=padding)


# ---------------------------------------------------------------------------
# Channels-last (NHWC) convolution — the fused step-mode engine's layout
# ---------------------------------------------------------------------------
#
# The fused engine keeps activations in ``(M, H, W, C)`` order (``M`` is the
# time-folded batch ``T*N``).  On CPU this is the profitable layout: im2col
# gathers copy C-contiguous runs instead of W-sized fragments, the forward
# pass is ONE large ``(M*L, K) @ (K, O)`` GEMM whose output is already in
# channels-last order (no transpose copies anywhere in forward or backward),
# and 1x1 convolutions — the bulk of the TT sub-convolutions — reduce to a
# plain matrix product with no gather at all.


def _im2col_cl(
    x: np.ndarray,
    kernel_hw: Tuple[int, int],
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> np.ndarray:
    """Lower channels-last ``x (M, H, W, C)`` into ``(M*out_h*out_w, kh*kw*C)`` columns."""
    m, h, w, c = x.shape
    kh, kw = kernel_hw
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv2d_output_shape((h, w), (kh, kw), (sh, sw), (ph, pw))

    if ph or pw:
        # Direct zero-fill + slice assignment: same result as np.pad
        # without its per-call Python overhead.
        padded = np.zeros((m, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
        padded[:, ph:ph + h, pw:pw + w, :] = x
        x = padded

    stride_m, stride_h, stride_w, stride_c = x.strides
    shape = (m, out_h, out_w, kh, kw, c)
    strides = (stride_m, stride_h * sh, stride_w * sw, stride_h, stride_w, stride_c)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return patches.reshape(m * out_h * out_w, kh * kw * c)


def _col2im_cl(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_hw: Tuple[int, int],
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> np.ndarray:
    """Adjoint of :func:`_im2col_cl`: scatter-add columns back into an ``(M, H, W, C)`` image."""
    m, h, w, c = input_shape
    kh, kw = kernel_hw
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv2d_output_shape((h, w), (kh, kw), (sh, sw), (ph, pw))

    padded = np.zeros((m, h + 2 * ph, w + 2 * pw, c), dtype=cols.dtype)
    cols_reshaped = cols.reshape(m, out_h, out_w, kh, kw, c)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, i:i_end:sh, j:j_end:sw, :] += cols_reshaped[:, :, :, i, j, :]
    if ph or pw:
        return padded[:, ph:ph + h, pw:pw + w, :]
    return padded


class ConvChannelsLastFunction(Function):
    """Differentiable channels-last 2-D convolution (one GEMM per pass).

    Inputs: ``x (M, H, W, C)`` and the ordinary ``weight (O, C, kH, kW)``
    (shared with the NCHW path — the layout conversion of the small weight
    tensor happens per call).  Output is ``(M, out_h, out_w, O)``.
    """

    #: Cleared by the ``fn`` backward kernel when the convolution's input
    #: needs no gradient (e.g. the network input): backward then skips the
    #: entire input-gradient GEMM + column gather.
    input_needs_grad = True

    def __init__(self, stride: IntOrPair = 1, padding: IntOrPair = 0):
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._cols: Optional[np.ndarray] = None
        self._weight: Optional[np.ndarray] = None
        self._is_1x1 = False
        self._has_bias = False
        # Set by the graph optimizer on no-grad plans whose weights are baked
        # constants: the (kh*kw*C, O) kernel matrix is then built once and
        # reused by every replay instead of being re-gathered per call.
        self.freeze_weights = False
        self._frozen_wmat: Optional[np.ndarray] = None

    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        return self._compute(arrays, save=True)

    def forward_inference(self, *arrays: np.ndarray) -> np.ndarray:
        """Forward without retaining the im2col columns (no-grad replay path)."""
        return self._compute(arrays, save=False)

    def _w_mat(self, weight: np.ndarray) -> np.ndarray:
        """Kernel matrix in column order ``(i, j, c) -> o``.

        Memory layout is load-bearing for bitwise equivalence: BLAS sums in
        a different order for transposed operands, so the frozen variant
        must reproduce the exact layout of the original expression
        ``weight.transpose(2, 3, 1, 0).reshape(kh*kw*in_c, out_c)`` — a
        strided *view* for 1x1 kernels, a C-contiguous copy otherwise.
        """
        out_c, in_c, kh, kw = weight.shape
        if self._frozen_wmat is not None:
            return self._frozen_wmat
        if kh == 1 and kw == 1:
            # The transpose-reshape is a free view here; keep it (and keep
            # its layout when freezing: copy first, transpose after).
            w_mat = weight.reshape(out_c, in_c).T
            if self.freeze_weights:
                self._frozen_wmat = weight.reshape(out_c, in_c).copy().T
                return self._frozen_wmat
            return w_mat
        w_mat = weight.transpose(2, 3, 1, 0).reshape(kh * kw * in_c, out_c)
        if self.freeze_weights:
            self._frozen_wmat = np.ascontiguousarray(w_mat)
            return self._frozen_wmat
        return w_mat

    def _compute(self, arrays, save: bool) -> np.ndarray:
        if len(arrays) == 3:
            x, weight, bias = arrays
            self._has_bias = True
        else:
            x, weight = arrays
            bias = None
        out_c, in_c, kh, kw = weight.shape
        m, h, w, c = x.shape
        if c != in_c:
            raise ValueError(f"input channels {c} do not match weight channels {in_c}")
        out_h, out_w = conv2d_output_shape((h, w), (kh, kw), self.stride, self.padding)

        self._is_1x1 = (kh == 1 and kw == 1 and self.padding == (0, 0))
        if self._is_1x1:
            sh, sw = self.stride
            view = x[:, ::sh, ::sw, :] if (sh, sw) != (1, 1) else x
            cols = view.reshape(-1, c)          # no-copy for stride 1, gathered otherwise
        else:
            cols = _im2col_cl(x, (kh, kw), self.stride, self.padding)  # (M*L, kh*kw*C)
        # Column order is (i, j, c): arrange the kernel matrix to match.
        out = (cols @ self._w_mat(weight)).reshape(m, out_h, out_w, out_c)
        if bias is not None:
            out = out + bias

        if save:
            self._x_shape = x.shape
            self._cols = cols
            self._weight = weight
        return out.astype(x.dtype, copy=False)

    def backward(self, grad_output: np.ndarray):
        weight = self._weight
        out_c, in_c, kh, kw = weight.shape
        m, h, w, _ = self._x_shape
        grad_flat = grad_output.reshape(-1, out_c)                      # (M*L, O)

        # (K, M*L) @ (M*L, O): the transposed operand stays a BLAS view.
        grad_w_mat = self._cols.T @ grad_flat                           # (kh*kw*C, O)
        grad_weight = np.ascontiguousarray(
            grad_w_mat.reshape(kh, kw, in_c, out_c).transpose(3, 2, 0, 1)
        )

        if not self.input_needs_grad:
            if self._has_bias:
                return None, grad_weight, grad_flat.sum(axis=0)
            return None, grad_weight

        sh, sw = self.stride
        ph, pw = self.padding
        if self._is_1x1 and (sh, sw) == (1, 1):
            # GEMMs into the image-shaped array here and below: the returned
            # gradient owns its storage, so the tape adopts it without a copy.
            grad_x = np.empty(self._x_shape, grad_output.dtype)
            np.matmul(grad_flat, weight.reshape(out_c, in_c),
                      out=grad_x.reshape(m * h * w, in_c))
        elif (sh, sw) == (1, 1) and kh - 1 >= ph and kw - 1 >= pw:
            # Stride-1 input gradient as a direct correlation with the
            # flipped kernel — another single GEMM on a gathered view.
            w_flip = np.ascontiguousarray(
                weight.transpose(2, 3, 0, 1)[::-1, ::-1]
            ).reshape(kh * kw * out_c, in_c)                            # rows in (i, j, o) order
            g_cols = _im2col_cl(grad_output, (kh, kw), 1, (kh - 1 - ph, kw - 1 - pw))
            grad_x = np.empty(self._x_shape, grad_output.dtype)
            np.matmul(g_cols, w_flip, out=grad_x.reshape(m * h * w, in_c))
        else:
            w_mat = weight.transpose(2, 3, 1, 0).reshape(kh * kw * in_c, out_c)
            grad_cols = grad_flat @ w_mat.T                             # (M*L, kh*kw*C)
            grad_x = _col2im_cl(grad_cols, self._x_shape, (kh, kw), self.stride, self.padding)

        if self._has_bias:
            grad_bias = grad_flat.sum(axis=0)
            return grad_x, grad_weight, grad_bias
        return grad_x, grad_weight


def conv2d_channels_last(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntOrPair = 1,
    padding: IntOrPair = 0,
) -> Tensor:
    """Functional channels-last convolution: ``(M, H, W, C) -> (M, oh, ow, O)``."""
    x = as_tensor(x)
    weight = as_tensor(weight)
    if bias is not None:
        return ConvChannelsLastFunction.apply(x, weight, as_tensor(bias),
                                              stride=stride, padding=padding)
    return ConvChannelsLastFunction.apply(x, weight, stride=stride, padding=padding)


# ---------------------------------------------------------------------------
# Cross convolution — the PTT/HTT middle (Eq. 5) as one kernel
# ---------------------------------------------------------------------------
#
# PTT sums a vertical ``(K, 1)`` and a horizontal ``(1, K)`` convolution of
# the same input, both "same"-padded and stride 1: together one ``K x K``
# cross whose centre tap belongs to both.  Gathering the ``2K - 1`` distinct
# taps once and running one GEMM replaces two pads, two im2col gathers, two
# GEMMs and the add.


def _cross_taps(kh: int, kw: int) -> Tuple[Tuple[int, int], ...]:
    """``(dy, dx)`` offsets of the cross taps in column order.

    The ``kh`` vertical taps come first (the centre among them, at index
    ``kh // 2``), then the ``kw - 1`` horizontal taps off the centre.
    """
    ph, pw = kh // 2, kw // 2
    return (tuple((i - ph, 0) for i in range(kh))
            + tuple((0, j - pw) for j in range(kw) if j != pw))


@functools.lru_cache(maxsize=64)
def _cross_index(h: int, w: int, taps: Tuple[Tuple[int, int], ...]) -> np.ndarray:
    """Source pixel of every ``(pixel, tap)`` pair of an ``(H, W)`` map, flattened.

    Pixels are numbered row-major; a tap that falls outside the map reads
    pixel ``H*W``, the zero pixel :func:`_gather_runs` appends.
    """
    ys, xs = np.divmod(np.arange(h * w), w)
    index = np.empty((h * w, len(taps)), np.intp)
    for k, (dy, dx) in enumerate(taps):
        sy, sx = ys + dy, xs + dx
        inside = (sy >= 0) & (sy < h) & (sx >= 0) & (sx < w)
        index[:, k] = np.where(inside, sy * w + sx, h * w)
    index = index.ravel()
    index.setflags(write=False)
    return index


def _full_row_runs(half: Optional[Tuple[bool, ...]], rows: int):
    """Row ranges ``(full_runs, half_runs)`` of a time-folded batch.

    ``half[t]`` marks timestep ``t`` as a half step; the batch holds the
    ``T = len(half)`` timesteps as ``rows // T`` consecutive rows each.
    Without a schedule every row is full.
    """
    if half is None:
        return [(0, rows)], []
    timesteps = len(half)
    if rows % timesteps:
        raise ValueError(f"{rows} folded rows do not split into {timesteps} timesteps")
    per_step = rows // timesteps
    runs = ([], [])
    start = 0
    for stop in range(1, timesteps + 1):
        if stop == timesteps or half[stop] != half[start]:
            runs[int(half[start])].append((start * per_step, stop * per_step))
            start = stop
    return runs


def _gather_runs(x: np.ndarray, taps, runs) -> np.ndarray:
    """The cross columns ``(rows*H*W, taps*C)`` of the batch rows in ``runs``.

    The rows are copied into ``(rows, H*W + 1, C)`` with a zero last pixel,
    then one :func:`numpy.take` gathers every tap of every pixel: a single
    C loop of ``C``-sized block copies, where per-tap slice copies into the
    interleaved columns run one short strided loop per pixel.
    """
    _, h, w, c = x.shape
    rows = sum(stop - start for start, stop in runs)
    pixels = np.empty((rows, h * w + 1, c), x.dtype)
    offset = 0
    for start, stop in runs:
        pixels[offset:offset + stop - start, :-1] = x[start:stop].reshape(stop - start, h * w, c)
        offset += stop - start
    pixels[:, -1] = 0
    cols = np.take(pixels, _cross_index(h, w, tuple(taps)), axis=1)
    return cols.reshape(rows * h * w, len(taps) * c)


def _gemm_into_runs(cols: np.ndarray, w_mat: np.ndarray, out: np.ndarray, runs) -> None:
    """``out[runs] = cols @ w_mat``: in place when the rows form one run."""
    if len(runs) == 1:
        start, stop = runs[0]
        np.matmul(cols, w_mat, out=out[start:stop].reshape(-1, w_mat.shape[1]))
        return
    result = cols @ w_mat
    offset = 0
    for start, stop in runs:
        block = out[start:stop]
        rows = block.size // w_mat.shape[1]
        block[...] = result[offset:offset + rows].reshape(block.shape)
        offset += rows


class CrossConvFunction(Function):
    """``conv2(x) + conv3(x)`` over a channels-last batch, as one GEMM per pass.

    Inputs: ``x (M, H, W, C)``, the vertical weight ``w2 (O, C, kH, 1)`` and
    the horizontal weight ``w3 (O, C, 1, kW)``, both odd-sized, applied
    stride 1 with "same" padding.  Output is ``(M, H, W, O)``.

    The forward gathers the ``kH + kW - 1`` cross taps into
    ``(M*H*W, taps*C)`` columns, the shared centre tap once with weight
    ``w2[:, :, kH//2, 0] + w3[:, :, 0, kW//2]``, and runs one GEMM.  The
    backward runs one weight-gradient GEMM, whose centre-tap rows go to both
    weights, and one input-gradient GEMM over the flipped cross gathered
    from the output gradient.

    ``half`` is a per-timestep schedule over the time-folded batch (see
    :func:`cross_conv`): the rows of half steps pass through unchanged, and
    so does their gradient.
    """

    #: Cleared by the ``fn`` backward kernel when the input needs no
    #: gradient: backward then skips the input-gradient gather and GEMM.
    input_needs_grad = True

    def __init__(self, half: Optional[Tuple[bool, ...]] = None):
        self.half = half
        self._x_shape: Optional[Tuple[int, ...]] = None
        self._cols: Optional[np.ndarray] = None
        self._w_taps: Optional[np.ndarray] = None
        self._kernel: Tuple[int, int] = (0, 0)
        self._runs = ([], [])
        # Set by the graph optimizer on no-grad plans whose weights are baked
        # constants: the per-tap kernels are then built once and reused.
        self.freeze_weights = False
        self._frozen_taps: Optional[np.ndarray] = None

    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        return self._compute(arrays, save=True)

    def forward_inference(self, *arrays: np.ndarray) -> np.ndarray:
        """Forward without retaining the gathered columns (no-grad replay path)."""
        return self._compute(arrays, save=False)

    def _compute(self, arrays, save: bool) -> np.ndarray:
        x, w2, w3 = arrays
        out_c, in_c, kh, one_h = w2.shape
        one_w, kw = w3.shape[2:]
        if (one_h, one_w) != (1, 1) or w3.shape[:2] != (out_c, in_c):
            raise ValueError("cross weights must be (O, C, kH, 1) and (O, C, 1, kW), "
                             f"got {w2.shape} and {w3.shape}")
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"cross kernel sizes must be odd, got ({kh}, {kw})")
        m, h, w, c = x.shape
        if c != in_c:
            raise ValueError(f"input channels {c} do not match weight channels {in_c}")
        full_runs, half_runs = _full_row_runs(self.half, m)
        if half_runs and out_c != in_c:
            raise ValueError("half steps pass their input through, so the cross must "
                             f"keep the channel count; got {in_c} -> {out_c}")

        w_taps = self._frozen_taps
        if w_taps is None:
            # Per-tap (C, O) kernels in _cross_taps order, the centre summed once.
            ph, pw = kh // 2, kw // 2
            w_taps = np.empty((kh + kw - 1, in_c, out_c), w2.dtype)
            w_taps[:kh] = w2[:, :, :, 0].transpose(2, 1, 0)
            w_taps[ph] += w3[:, :, 0, pw].T
            w_taps[kh:kh + pw] = w3[:, :, 0, :pw].transpose(2, 1, 0)
            w_taps[kh + pw:] = w3[:, :, 0, pw + 1:].transpose(2, 1, 0)
            if self.freeze_weights:
                self._frozen_taps = w_taps

        cols = _gather_runs(x, _cross_taps(kh, kw), full_runs)
        out = np.empty((m, h, w, out_c), x.dtype)
        for start, stop in half_runs:
            out[start:stop] = x[start:stop]
        _gemm_into_runs(cols, w_taps.reshape(-1, out_c), out, full_runs)

        if save:
            self._x_shape = x.shape
            self._cols = cols
            self._w_taps = w_taps
            self._kernel = (kh, kw)
            self._runs = (full_runs, half_runs)
        return out

    def backward(self, grad_output: np.ndarray):
        full_runs, half_runs = self._runs
        w_taps = self._w_taps
        n_taps, in_c, out_c = w_taps.shape
        kh, kw = self._kernel
        ph, pw = kh // 2, kw // 2

        parts = [grad_output[start:stop] for start, stop in full_runs]
        grad_full = parts[0] if len(parts) == 1 else np.concatenate(parts)
        # (taps*C, rows) @ (rows, O): the transposed operand stays a BLAS view.
        grad_taps = (self._cols.T @ grad_full.reshape(-1, out_c)).reshape(n_taps, in_c, out_c)
        grad_w2 = np.ascontiguousarray(grad_taps[:kh].transpose(2, 1, 0)[..., None])
        grad_w3 = np.empty((out_c, in_c, 1, kw), grad_taps.dtype)
        grad_w3[:, :, 0, pw] = grad_taps[ph].T                # the centre feeds both
        grad_w3[:, :, 0, :pw] = grad_taps[kh:kh + pw].transpose(2, 1, 0)
        grad_w3[:, :, 0, pw + 1:] = grad_taps[kh + pw:].transpose(2, 1, 0)

        if not self.input_needs_grad:
            return None, grad_w2, grad_w3

        # The flipped cross gathered from the output gradient, against the
        # per-tap kernels transposed to (O, C).
        flipped = tuple((-dy, -dx) for dy, dx in _cross_taps(kh, kw))
        g_cols = _gather_runs(grad_output, flipped, full_runs)
        w_flip = np.ascontiguousarray(w_taps.transpose(0, 2, 1)).reshape(-1, in_c)
        # Written in place: the returned gradient owns its storage, so the
        # tape adopts it without a copy.
        grad_x = np.empty(self._x_shape, grad_output.dtype)
        for start, stop in half_runs:
            grad_x[start:stop] = grad_output[start:stop]
        _gemm_into_runs(g_cols, w_flip, grad_x, full_runs)
        return grad_x, grad_w2, grad_w3


def cross_conv(x: Tensor, w2: Tensor, w3: Tensor,
               half: Optional[Sequence[bool]] = None) -> Tensor:
    """The TT middle ``conv2(x) + conv3(x)`` over a channels-last batch, as one op.

    ``x`` is a channels-last ``(M, H, W, C)`` batch, ``w2`` the ``(O, C, kH, 1)``
    vertical and ``w3`` the ``(O, C, 1, kW)`` horizontal kernel of Eq. 5, both
    "same"-padded.  ``half`` is an optional per-timestep schedule (``True``
    for a half step) over a time-folded ``(T*N, H, W, C)`` batch: half rows
    pass through unchanged.  With no full step there is no cross to run, so
    ``x`` itself is returned and nothing is recorded.
    """
    x = as_tensor(x)
    flags = None
    if half is not None:
        flags = tuple(bool(flag) for flag in half)
        if all(flags):
            return x
        if not any(flags):
            flags = None
    return apply_op("cross_conv", (x, as_tensor(w2), as_tensor(w3)),
                    {"cls": CrossConvFunction, "kwargs": {"half": flags}})
