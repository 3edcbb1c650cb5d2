"""The ``cross_conv`` op against the composed ``conv2 + conv3`` it replaces.

PTT's middle (Eq. 5) is a vertical ``(K, 1)`` plus a horizontal ``(1, K)``
convolution of one input; :func:`~repro.autograd.conv.cross_conv` runs it as
one gather and one GEMM, and passes the rows of HTT's half timesteps through.
The reference here composes the two channels-last convolutions per full
timestep and stacks the half timesteps' input unchanged, as the fused HTT
path did before the op existed.
"""

import numpy as np
import pytest

from repro.autograd.conv import conv2d_channels_last, cross_conv
from repro.autograd.tensor import Tensor
from repro.nn.module import fold_time, unfold_time

SCHEDULES = ("FFFF", "FFFHHH", "FHFH", "HFFH")


def _composed(x, w2, w3, half):
    """``conv2 + conv3`` per full timestep, half timesteps passed through."""
    kh, kw = w2.shape[2], w3.shape[3]

    def cross(h):
        return (conv2d_channels_last(h, w2, None, 1, (kh // 2, 0))
                + conv2d_channels_last(h, w3, None, 1, (0, kw // 2)))

    if half is None:
        return cross(x)
    steps = unfold_time(x, len(half))
    return fold_time(Tensor.stack([steps[t] if flag else cross(steps[t])
                                   for t, flag in enumerate(half)], axis=0))


def _run(fn, arrays, upstream, half):
    x, w2, w3 = (Tensor(a, requires_grad=True) for a in arrays)
    out = fn(x, w2, w3, half)
    (out * Tensor(upstream)).sum().backward()
    return [out.data, x.grad, w2.grad, w3.grad]


def _case(schedule, rank, dtype, batch=2, size=(5, 4), kernel=3, seed=0):
    rng = np.random.default_rng(seed)
    half = None if schedule is None else [flag == "H" for flag in schedule]
    rows = (len(schedule) if schedule else 2) * batch
    arrays = [rng.standard_normal((rows,) + size + (rank,)),
              rng.standard_normal((rank, rank, kernel, 1)),
              rng.standard_normal((rank, rank, 1, kernel))]
    upstream = rng.standard_normal((rows,) + size + (rank,))
    arrays = [a.astype(dtype) for a in arrays]
    return arrays, upstream.astype(dtype), half


@pytest.mark.parametrize("rank", range(1, 9))
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_float64_matches_composed_cross(schedule, rank):
    arrays, upstream, half = _case(schedule, rank, np.float64)
    fused = _run(cross_conv, arrays, upstream, half)
    composed = _run(_composed, arrays, upstream, half)
    for name, got, want in zip(("out", "x", "w2", "w3"), fused, composed):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 3), (6, 6)])
@pytest.mark.parametrize("kernel", [3, 5])
def test_float64_edges_and_kernel_sizes(size, kernel):
    """Maps smaller than the kernel and 5-tap arms keep the composed value."""
    arrays, upstream, half = _case("FHF", 3, np.float64, size=size, kernel=kernel)
    for schedule_half in (half, None):
        fused = _run(cross_conv, arrays, upstream, schedule_half)
        composed = _run(_composed, arrays, upstream, schedule_half)
        for name, got, want in zip(("out", "x", "w2", "w3"), fused, composed):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("rank", range(1, 9))
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_float32_within_1e6_of_largest_magnitude(schedule, rank):
    """Summing the centre tap once changes float order, and only that."""
    arrays, upstream, half = _case(schedule, rank, np.float32)
    fused = _run(cross_conv, arrays, upstream, half)
    composed = _run(_composed, arrays, upstream, half)
    for name, got, want in zip(("out", "x", "w2", "w3"), fused, composed):
        assert got.dtype == np.float32
        scale = float(np.abs(want).max())
        assert float(np.abs(got - want).max()) <= 1e-6 * scale, name


def test_half_rows_pass_through_bitwise():
    arrays, upstream, half = _case("FHHF", 4, np.float32)
    out, grad_x, _, _ = _run(cross_conv, arrays, upstream, half)
    x_steps = arrays[0].reshape(4, 2, 5, 4, 4)
    np.testing.assert_array_equal(out.reshape(x_steps.shape)[1:3], x_steps[1:3])
    np.testing.assert_array_equal(grad_x.reshape(x_steps.shape)[1:3],
                                  upstream.reshape(x_steps.shape)[1:3])


def test_all_half_schedule_records_nothing():
    arrays, _, _ = _case("HH", 2, np.float32)
    x, w2, w3 = (Tensor(a, requires_grad=True) for a in arrays)
    assert cross_conv(x, w2, w3, [True, True]) is x
    x.sum().backward()
    assert w2.grad is None and w3.grad is None


def test_input_without_gradient_skips_its_gradient():
    arrays, upstream, half = _case("FH", 3, np.float64)
    x = Tensor(arrays[0])
    w2, w3 = (Tensor(a, requires_grad=True) for a in arrays[1:])
    (cross_conv(x, w2, w3, half) * Tensor(upstream)).sum().backward()
    reference = _run(_composed, arrays, upstream, half)
    np.testing.assert_allclose(w2.grad, reference[2], rtol=0, atol=1e-10)
    np.testing.assert_allclose(w3.grad, reference[3], rtol=0, atol=1e-10)
    assert x.grad is None


def test_rejects_what_is_not_a_cross():
    x = Tensor(np.zeros((4, 3, 3, 2), np.float32))
    with pytest.raises(ValueError, match="odd"):
        cross_conv(x, np.zeros((2, 2, 2, 1), np.float32), np.zeros((2, 2, 1, 2), np.float32))
    with pytest.raises(ValueError, match="channel count"):
        cross_conv(x, np.zeros((5, 2, 3, 1), np.float32), np.zeros((5, 2, 1, 3), np.float32),
                   half=[False, True])
    with pytest.raises(ValueError, match="timesteps"):
        cross_conv(x, np.zeros((2, 2, 3, 1), np.float32), np.zeros((2, 2, 1, 3), np.float32),
                   half=[False, True, False])
