"""Standard layers: convolution, linear, batch norm, pooling and containers.

These layers deliberately follow the PyTorch constructor signatures used in
the TT-SNN paper's codebase (``Conv2d(in, out, kernel_size, stride, padding,
bias)`` etc.) so the model definitions in :mod:`repro.models` read like the
original architectures.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import functional as F
from repro.autograd.conv import conv2d, conv2d_channels_last, _pair, conv2d_output_shape
from repro.autograd.tensor import Function, Tensor, _channel_sums, apply_op
from repro.nn import init
from repro.nn.module import (
    Module,
    Parameter,
    StatelessModule,
    fold_time,
    repeat_time,
    sequence_forward,
    unfold_time,
)

__all__ = [
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "BatchNormSequenceFunction",
    "BatchNormProjectionFunction",
    "batch_norm_sequence",
    "AvgPool2d",
    "MaxPool2d",
    "AdaptiveAvgPool2d",
    "Dropout",
    "Flatten",
    "Identity",
    "ReLU",
    "Sequential",
]

IntOrPair = Union[int, Tuple[int, int]]


class Conv2d(StatelessModule):
    """2-D convolution layer (supports asymmetric kernels, e.g. 3x1 / 1x3).

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Int or ``(kh, kw)`` pair.  TT sub-convolutions use ``(1, 1)``,
        ``(3, 1)`` and ``(1, 3)``.
    stride, padding:
        Int or pair.  ``padding="same"`` selects ``(kh // 2, kw // 2)``.
    bias:
        Whether to add a learnable bias (the paper's convolutions are
        bias-free because batch norm follows).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntOrPair,
        stride: IntOrPair = 1,
        padding: Union[IntOrPair, str] = 0,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        if padding == "same":
            padding = (self.kernel_size[0] // 2, self.kernel_size[1] // 2)
        self.padding = _pair(padding)

        weight_shape = (out_channels, in_channels) + self.kernel_size
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng=rng))
        if bias:
            self.bias = Parameter(init.zeros((out_channels,)))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def forward_channels_last(self, x: Tensor) -> Tensor:
        """Apply the convolution to a folded channels-last ``(M, H, W, C)`` batch."""
        return conv2d_channels_last(x, self.weight, self.bias,
                                    stride=self.stride, padding=self.padding)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Fused path over a channels-last ``(T, N, H, W, C)`` sequence."""
        timesteps = x_seq.shape[0]
        return unfold_time(self.forward_channels_last(fold_time(x_seq)), timesteps)

    def output_shape(self, input_hw: Tuple[int, int]) -> Tuple[int, int]:
        """Spatial output size for an ``(H, W)`` input."""
        return conv2d_output_shape(input_hw, self.kernel_size, self.stride, self.padding)

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, bias={self.bias is not None}"
        )


class Linear(StatelessModule):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng))
        if bias:
            self.bias = Parameter(init.zeros((out_features,)))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return f"{self.in_features}, {self.out_features}, bias={self.bias is not None}"


class BatchNormSequenceFunction(Function):
    """Per-timestep batch normalisation over a ``(T, N, H, W, C)`` sequence.

    The fused step-mode engine normalises the whole sequence as ONE autograd
    node with the analytic batch-norm backward, instead of the ~8 tape ops
    per timestep the composed expression would create.  Statistics are per
    timestep over ``(N, H, W)``, exactly matching ``T`` single-step batch-norm
    calls; ``gamma_scale`` folds the tdBN threshold rescaling ``alpha * V_th``
    into the affine transform.

    The kernel views the sequence as ``(T, M, C)`` with ``M = N*H*W`` rows.
    Every reduction is a per-(timestep, channel) sum taken by
    :func:`_channel_sums` (a GEMV), never ``ndarray.mean/sum`` over the
    leading axes.  The backward takes two such sums, ``sum(g)`` and
    ``sum(g * xhat)``: the weight and bias gradients follow from them, and
    because ``grad_xhat = g * scale`` is a per-channel rescale so do
    ``mean(grad_xhat)`` and ``mean(grad_xhat * xhat)``.  ``dx`` is then
    ``g * a + xhat * b + c`` with per-(t, c) coefficients.
    """

    def __init__(self, eps: float, training: bool,
                 running_mean: Optional[np.ndarray] = None,
                 running_var: Optional[np.ndarray] = None,
                 gamma_scale: float = 1.0, repeats: int = 1):
        self.eps = eps
        self.training = training
        self.running_mean = running_mean
        self.running_var = running_var
        self.gamma_scale = gamma_scale
        self.repeats = repeats                         # copies of the sequence in time
        self.batch_mean: Optional[np.ndarray] = None   # (T, C), read by the layer
        self.batch_var: Optional[np.ndarray] = None
        self._xhat: Optional[np.ndarray] = None        # (T, M, C)
        self._inv_std: Optional[np.ndarray] = None     # (T, C) in training, (C,) in eval
        self._weight: Optional[np.ndarray] = None
        self._affine = False

    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        x = arrays[0]
        steps, channels = x.shape[0], x.shape[-1]
        rows = x.reshape(steps, -1, channels)
        xhat = np.empty(rows.shape, x.dtype)
        if self.training:
            count = rows.shape[1]
            mean = _channel_sums(rows) / count
            np.subtract(rows, mean[:, None, :], out=xhat)
            squared = np.empty(rows.shape, x.dtype)
            np.multiply(xhat, xhat, out=squared)
            var = _channel_sums(squared) / count
            self.batch_mean = mean
            self.batch_var = var
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std[:, None, :]
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            np.subtract(rows, self.running_mean, out=xhat)
            xhat *= inv_std
        self._xhat = xhat
        self._inv_std = inv_std
        if len(arrays) == 1:
            return xhat.reshape(x.shape)
        self._affine = True
        weight, bias = arrays[1], arrays[2]
        self._weight = weight
        out = np.empty(rows.shape, x.dtype)
        np.multiply(xhat, self.gamma_scale * weight, out=out)
        out += bias
        return out.reshape(x.shape)

    def update_running_stats(self, running_mean: np.ndarray, running_var: np.ndarray,
                             momentum: float) -> None:
        """Apply the ``T`` sequential momentum updates to the running buffers.

        Exactly what ``T`` single-step batch-norm calls would do; called by
        the ``bn_seq`` kernel.  A sequence that stands for ``repeats`` copies
        of itself in time (a direct-coded stem) updates once per copy.
        """
        # (1 - m) * running + m * batch[t], in place: the same three roundings.
        scaled_mean = momentum * self.batch_mean
        scaled_var = momentum * self.batch_var
        for _ in range(self.repeats):
            for t in range(scaled_mean.shape[0]):
                running_mean *= 1 - momentum
                running_mean += scaled_mean[t]
                running_var *= 1 - momentum
                running_var += scaled_var[t]

    def forward_inference(self, *arrays: np.ndarray) -> np.ndarray:
        """Eval-mode fast path: fold mean/var/affine into one scale-and-shift.

        Used by compiled no-grad plans; equal to :meth:`forward` up to float
        rounding (~1e-7 relative — the factored form multiplies per-channel
        constants first).  Training mode needs exact batch statistics and
        falls back to the full forward.
        """
        if self.training:
            return self.forward(*arrays)
        x = arrays[0]
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        if len(arrays) == 3:
            weight, bias = arrays[1], arrays[2]
            scale = inv_std * (self.gamma_scale * weight)
            shift = bias - self.running_mean * scale
        else:
            scale = inv_std
            shift = -self.running_mean * inv_std
        out = np.empty(x.shape, x.dtype)
        np.multiply(x, scale, out=out)
        out += shift
        return out

    def backward(self, grad_output: np.ndarray):
        xhat = self._xhat
        steps, channels = grad_output.shape[0], grad_output.shape[-1]
        grad = grad_output.reshape(steps, -1, channels)
        count = grad.shape[1]
        scale = self.gamma_scale * self._weight if self._affine else 1.0
        coeff = self._inv_std * scale
        if self.training:
            coeff = coeff[:, None, :]
        # Shaped as the input, so the returned gradient owns its storage and
        # the tape adopts it without a copy; the kernel works on a row view.
        grad_in = np.empty(grad_output.shape, grad.dtype)
        grad_x = grad_in.reshape(grad.shape)
        np.multiply(grad, coeff, out=grad_x)
        if self._affine or self.training:
            sum_grad = _channel_sums(grad)
            product = np.empty(grad.shape, grad.dtype)
            np.multiply(grad, xhat, out=product)
            sum_proj = _channel_sums(product)
        if self.training:
            # dx = inv_std * (gxh - mean(gxh) - xhat * mean(gxh * xhat)) with
            # gxh = g * scale: the analytic gradient of normalising with batch
            # statistics that themselves depend on x, means per timestep.
            np.multiply(xhat, coeff * (sum_proj / count)[:, None, :], out=product)
            grad_x -= product
            grad_x -= coeff * (sum_grad / count)[:, None, :]
        if self._affine:
            return grad_in, self.gamma_scale * sum_proj.sum(axis=0), sum_grad.sum(axis=0)
        return (grad_in,)


class BatchNormProjectionFunction(BatchNormSequenceFunction):
    """Per-timestep batch norm of a 1x1 projection, computed in rank space.

    Inputs are ``h (T, N, H, W, r)``, the ``(O, r, 1, 1)`` weight of the 1x1
    convolution that projects ``h`` to ``O`` channels and, when affine, the
    norm's ``gamma`` and ``beta``.  The output equals
    :class:`BatchNormSequenceFunction` applied to ``y = h @ W`` (``W`` the
    ``(r, O)`` kernel matrix), but ``y`` never exists unnormalised: the
    batch statistics of ``y`` follow from those of ``h``,
    ``mean_y = mean_h @ W`` and ``var_y = diag(W^T cov_h W)`` with the
    per-timestep ``r x r`` covariance ``cov_h`` (float64; it is tiny), and
    the normalised output is one GEMM, ``(h - mean_h) @ (W diag(a)) + beta``
    with ``a = gamma * inv_std``.

    The kernel keeps ``h - mean_h`` as the first ``r`` columns of a
    ``(T, M, r + 1)`` array whose last column is ones, so ``beta`` rides in
    the forward GEMM as one more kernel row and ``sum(g)`` in the backward's
    ``[h - mean_h, 1]^T g`` GEMM, whose other rows ``P`` also give the
    weight gradient.  ``dh`` is one ``g @ (diag(a) W^T)`` GEMM plus an
    ``(r + 1) x r`` correction; every other term is ``r``- or ``O``-sized.
    Neither pass allocates a ``(T, M, O)`` temporary, and the op saves the
    ``(T, M, r + 1)`` array where the composed pair saved ``xhat``.  In eval
    mode the op is the folded affine ``h @ (W diag(a)) + beta - mean * a``
    over the running statistics, with ``h`` in place of ``h - mean_h``.
    """

    def forward(self, *arrays: np.ndarray) -> np.ndarray:
        h, weight = arrays[0], arrays[1]
        self._affine = len(arrays) == 4
        steps, rank = h.shape[0], h.shape[-1]
        out_c = weight.shape[0]
        rows = h.reshape(steps, -1, rank)
        count = rows.shape[1]
        # C-ordered float64 (r, O) kernel matrix: the small algebra runs in
        # float64 and the GEMM operands are cast back to the input's dtype.
        w = np.array(weight.reshape(out_c, rank).T, dtype=np.float64, order="C")
        gain = self.gamma_scale * (arrays[2].astype(np.float64) if self._affine else 1.0)
        ones = np.empty((steps, count, rank + 1), h.dtype)
        ones[..., rank] = 1.0
        centred = ones[..., :rank]
        kernel = np.empty((steps, rank + 1, out_c))
        if self.training:
            mean_h = _channel_sums(rows) / count                        # (T, r)
            np.subtract(rows, mean_h[:, None, :], out=centred)
            wide = centred.astype(np.float64)
            cov = np.matmul(wide.transpose(0, 2, 1), wide) / count      # (T, r, r)
            var = np.einsum("tjo,jo->to", cov @ w, w)                   # (T, O)
            self.batch_mean = (mean_h.astype(np.float64) @ w).astype(h.dtype)
            self.batch_var = var.astype(h.dtype)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            self._cov = cov
            np.multiply(w, (gain * inv_std)[:, None, :], out=kernel[:, :rank])
            kernel[:, rank] = arrays[3] if self._affine else 0.0
        else:
            np.copyto(centred, rows)
            inv_std = 1.0 / np.sqrt(self.running_var.astype(np.float64) + self.eps)
            scale = gain * inv_std
            kernel[:, :rank] = w * scale
            kernel[:, rank] = -self.running_mean * scale
            if self._affine:
                kernel[:, rank] += arrays[3]
        self._w = w
        self._gain = gain
        self._inv_std = inv_std
        self._ones = ones
        out = np.matmul(ones, kernel.astype(h.dtype))
        return out.reshape(h.shape[:-1] + (out_c,))

    def forward_inference(self, *arrays: np.ndarray) -> np.ndarray:
        """No-grad entry: the eval :meth:`forward` already is the folded affine."""
        return self.forward(*arrays)

    def backward(self, grad_output: np.ndarray):
        w, inv_std, ones = self._w, self._inv_std, self._ones
        rank, out_c = w.shape
        steps, count = ones.shape[0], ones.shape[1]
        dtype = grad_output.dtype
        coeff = self._gain * inv_std                                    # (T, O) or (O,)
        grad = grad_output.reshape(steps, count, out_c)
        if self.training:
            # [h - mean_h, 1]^T g: P (T, r, O) over sum(g) (T, O).
            reduced = np.matmul(ones.transpose(0, 2, 1), grad).astype(np.float64)
            proj, sum_grad = reduced[:, :rank], reduced[:, rank]
            # sum(g * xhat) per (t, o) from P: xhat = (h - mean_h) @ W * inv_std.
            sum_proj = inv_std * np.einsum("tjo,jo->to", proj, w)
            shrink = coeff * inv_std * sum_proj / count                 # (T, O)
            # dy = coeff * (g - mean(g) - xhat * mean(g * xhat)) pulled back
            # through W: g @ (diag(coeff) W^T) less [h - mean_h, 1] @ correction.
            correction = np.empty((steps, rank + 1, rank))
            np.matmul(w * shrink[:, None, :], w.T, out=correction[:, :rank])
            np.matmul(coeff * sum_grad / count, w.T, out=correction[:, rank])
            grad_w = (proj * coeff[:, None, :]).sum(axis=0) \
                - count * (self._cov @ (w * shrink[:, None, :])).sum(axis=0)
            sum_grad = sum_grad.sum(axis=0)
            sum_proj = sum_proj.sum(axis=0)
        else:
            # One affine map for all timesteps: reduce over every row at once.
            reduced = (ones.reshape(-1, rank + 1).T @ grad.reshape(-1, out_c)).astype(np.float64)
            proj, sum_grad = reduced[:rank], reduced[rank]
            sum_proj = inv_std * (np.einsum("jo,jo->o", proj, w) - self.running_mean * sum_grad)
            grad_w = proj * coeff
        back = (w * coeff[..., None, :]).swapaxes(-1, -2)              # (T, O, r) or (O, r)
        grad_h = np.matmul(grad, back.astype(dtype))
        if self.training:
            grad_h -= np.matmul(ones, correction.astype(dtype))
        grad_in = grad_h.reshape(grad_output.shape[:-1] + (rank,))
        grad_weight = grad_w.T.astype(dtype).reshape(out_c, rank, 1, 1)
        if self._affine:
            return (grad_in, grad_weight, (self.gamma_scale * sum_proj).astype(dtype),
                    sum_grad.astype(dtype))
        return grad_in, grad_weight


class BatchNorm2d(Module):
    """Batch normalisation over ``(N, C, H, W)`` activations.

    Tracks running statistics with momentum (PyTorch convention: the running
    mean is updated as ``(1 - momentum) * running + momentum * batch``).  The
    spiking-specific variants (tdBN / TEBN) in :mod:`repro.snn.norm` subclass
    or wrap this layer; tdBN only sets ``gamma_scale``, a constant factor on
    the learned gain.
    """

    gamma_scale = 1.0

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 affine: bool = True, gamma_init: float = 1.0):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        if affine:
            self.weight = Parameter(np.full((num_features,), gamma_init, dtype=np.float32))
            self.bias = Parameter(init.zeros((num_features,)))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", Tensor(np.zeros(num_features, dtype=np.float32)))
        self.register_buffer("running_var", Tensor(np.ones(num_features, dtype=np.float32)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"{type(self).__name__} expects (N, C, H, W), got shape {x.shape}")
        axes = (0, 2, 3)
        if self.training:
            # Side-effect op: a replayed step repeats the running-stat
            # momentum update from the live input, not the baked values.
            apply_op("bn_stats", (x,), {
                "running_mean": self.running_mean.data,
                "running_var": self.running_var.data,
                "momentum": self.momentum, "axes": axes,
            })
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
        else:
            mean = Tensor(self.running_mean.data.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.data.reshape(1, -1, 1, 1))
        normalised = (x - mean) / (var + self.eps).sqrt()
        if self.affine:
            gamma = self.weight.reshape(1, -1, 1, 1)
            if self.gamma_scale != 1.0:
                gamma = gamma * self.gamma_scale
            beta = self.bias.reshape(1, -1, 1, 1)
            normalised = normalised * gamma + beta
        return normalised

    def forward_sequence(self, x_seq: Tensor, repeats: int = 1) -> Tensor:
        """Normalise a channels-last ``(T, N, H, W, C)`` sequence per timestep.

        Equivalent to calling :meth:`forward` once per timestep — statistics
        are computed per timestep over ``(N, H, W)`` and the running buffers
        receive the same ``T`` sequential momentum updates — but the whole
        sequence runs as one fused autograd node
        (:class:`BatchNormSequenceFunction`) instead of ``T`` separate
        multi-op graphs.  The channels-last layout is the fused engine's
        convention (see :mod:`repro.nn.module`).  ``repeats`` declares the
        sequence ``repeats`` copies of itself in time: the output is the same,
        the running buffers get ``repeats * T`` updates.
        """
        return batch_norm_sequence(
            x_seq,
            self.weight if self.affine else None,
            self.bias if self.affine else None,
            eps=self.eps,
            momentum=self.momentum,
            training=self.training,
            running_mean=self.running_mean.data,
            running_var=self.running_var.data,
            gamma_scale=self.gamma_scale,
            repeats=repeats,
        )

    def forward_repeated(self, x_step: Tensor, timesteps: int) -> Tensor:
        """Normalise one ``(1, N, H, W, C)`` step that repeats ``timesteps`` times.

        Returns the ``(T, N, H, W, C)`` sequence equal to :meth:`forward_sequence`
        on ``T`` copies of the step: the statistics of every copy are those
        of the one step, so the normalisation runs once, the running buffers
        get their ``T`` updates and :func:`~repro.nn.module.repeat_time`
        copies the result (after the norm, so the eval-BN fold still finds
        the convolution right before it).
        """
        return repeat_time(self.forward_sequence(x_step, repeats=timesteps), timesteps)

    def forward_projected(self, h_seq: Tensor, weight: Tensor,
                          stride: IntOrPair = 1) -> Tensor:
        """Normalise the 1x1 convolution of ``h_seq`` by ``weight``, in rank space.

        Equal to :meth:`forward_sequence` on ``conv2d(h_seq, weight, stride)``
        for a channels-last ``(T, N, H, W, r)`` sequence and an ``(O, r, 1, 1)``
        weight, running buffers included, but computed by one
        :class:`BatchNormProjectionFunction` node that never materialises the
        unnormalised projection.  A strided 1x1 convolution reads every
        ``stride``-th pixel, so ``h_seq`` is subsampled first.
        """
        sh, sw = _pair(stride)
        if (sh, sw) != (1, 1):
            h_seq = h_seq[:, :, ::sh, ::sw]
        if weight.shape[0] != self.num_features:
            raise ValueError(
                f"projection weight {weight.shape} has {weight.shape[0]} output channels, "
                f"but the norm layer has {self.num_features}"
            )
        inputs = (h_seq, weight) + ((self.weight, self.bias) if self.affine else ())
        return apply_op("bn_proj_seq", inputs, {
            "cls": BatchNormProjectionFunction,
            "ctor": dict(eps=self.eps, training=self.training,
                         running_mean=self.running_mean.data,
                         running_var=self.running_var.data,
                         gamma_scale=self.gamma_scale),
            "momentum": self.momentum,
        })

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}, momentum={self.momentum}"


def batch_norm_sequence(
    x_seq: Tensor,
    weight: Optional[Tensor],
    bias: Optional[Tensor],
    eps: float,
    momentum: float,
    training: bool,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    gamma_scale: float = 1.0,
    repeats: int = 1,
) -> Tensor:
    """Fused per-timestep batch norm over a channels-last ``(T, N, H, W, C)`` sequence.

    Wires :class:`BatchNormSequenceFunction` into the autograd graph and
    replays the ``T`` sequential momentum updates on the running buffers
    (in place), exactly as ``T`` single-step calls would — ``repeats`` times
    over when the sequence stands for that many copies of itself in time.
    """
    if x_seq.ndim != 5:
        raise ValueError(f"expected a 5-D time-major sequence, got shape {x_seq.shape}")
    if x_seq.shape[-1] != running_mean.shape[0]:
        raise ValueError(
            f"sequence shape {x_seq.shape} has {x_seq.shape[-1]} channels on the "
            f"(T, N, H, W, C) channel axis, but the norm layer has {running_mean.shape[0]}"
        )
    inputs = (x_seq,) if weight is None else (x_seq, weight, bias)
    return apply_op("bn_seq", inputs, {
        "cls": BatchNormSequenceFunction,
        "ctor": dict(eps=eps, training=training, running_mean=running_mean,
                     running_var=running_var, gamma_scale=gamma_scale,
                     repeats=repeats),
        "momentum": momentum,
    })


class AvgPool2d(StatelessModule):
    """Average pooling layer."""

    def __init__(self, kernel_size: IntOrPair, stride: Optional[IntOrPair] = None, padding: IntOrPair = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, self.padding)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Fused path over a channels-last ``(T, N, H, W, C)`` sequence."""
        timesteps = x_seq.shape[0]
        folded = fold_time(x_seq)
        return unfold_time(F.avg_pool2d_cl(folded, self.kernel_size, self.stride, self.padding),
                           timesteps)


class MaxPool2d(StatelessModule):
    """Max pooling layer."""

    def __init__(self, kernel_size: IntOrPair, stride: Optional[IntOrPair] = None, padding: IntOrPair = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Fused path over a channels-last ``(T, N, H, W, C)`` sequence."""
        timesteps = x_seq.shape[0]
        folded = fold_time(x_seq)
        return unfold_time(F.max_pool2d_cl(folded, self.kernel_size, self.stride, self.padding),
                           timesteps)


class AdaptiveAvgPool2d(StatelessModule):
    """Adaptive average pooling to a fixed output size (typically 1x1)."""

    def __init__(self, output_size: IntOrPair = 1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Fused path over a channels-last ``(T, N, H, W, C)`` sequence."""
        timesteps = x_seq.shape[0]
        return unfold_time(F.adaptive_avg_pool2d_cl(fold_time(x_seq), self.output_size),
                           timesteps)


class Dropout(StatelessModule):
    """Inverted dropout (active only in training mode).

    In fused step mode the mask is drawn once over the folded ``(T*N, ...)``
    batch instead of once per timestep; both are valid i.i.d. dropout but the
    realisations differ, so dropout layers are excluded from the bit-level
    single/fused equivalence guarantee.
    """

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self._rng = rng or init.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, rng=self._rng)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class Flatten(StatelessModule):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Identity(StatelessModule):
    """No-op layer (used for non-downsampling residual shortcuts)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class ReLU(StatelessModule):
    """ReLU activation (kept for ANN baselines; SNN paths use LIF neurons)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        if len(modules) == 1 and isinstance(modules[0], (list, tuple)):
            modules = tuple(modules[0])
        self._order = []
        for index, module in enumerate(modules):
            self.add_module(str(index), module)
            self._order.append(str(index))

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Propagate a ``(T, N, ...)`` sequence layer by layer through the children."""
        for name in self._order:
            x_seq = sequence_forward(self._modules[name], x_seq)
        return x_seq
