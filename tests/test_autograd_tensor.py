"""Unit tests for the core autograd Tensor."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad, is_grad_enabled, as_tensor

from conftest import assert_grad_close, numerical_gradient


class TestTensorBasics:
    def test_construction_casts_to_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32
        assert t.shape == (3,)

    def test_requires_grad_flag(self):
        t = Tensor(np.ones(3), requires_grad=True)
        assert t.requires_grad
        assert t.grad is None

    def test_detach_breaks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d._prev == ()

    def test_zeros_ones_like_constructors(self):
        t = Tensor.zeros((2, 3))
        assert t.data.sum() == 0
        o = Tensor.ones((2, 3))
        assert o.data.sum() == 6
        z = Tensor.zeros_like(o)
        assert z.shape == (2, 3)

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestArithmetic:
    def test_add_backward(self, rng):
        a = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(5))
        np.testing.assert_allclose(b.grad, np.ones(5))

    def test_mul_backward(self, rng):
        a = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b.data, rtol=1e-6)
        np.testing.assert_allclose(b.grad, a.data, rtol=1e-6)

    def test_sub_and_neg(self, rng):
        a = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, -np.ones(4))

    def test_div_backward(self, rng):
        a = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1.0 / b.data, rtol=1e-6)
        np.testing.assert_allclose(b.grad, -a.data / b.data ** 2, rtol=1e-6)

    def test_pow_backward(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (a ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * a.data ** 2, rtol=1e-5)

    def test_scalar_broadcasting(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        (a * 2.5 + 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.5))

    def test_broadcast_gradient_is_reduced(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((1, 4)), requires_grad=True)
        (a + b).sum().backward()
        assert b.grad.shape == (1, 4)
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))

    def test_matmul_backward_matches_numeric(self, rng):
        a_val = rng.standard_normal((3, 4)).astype(np.float32)
        b_val = rng.standard_normal((4, 2)).astype(np.float32)
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        (a @ b).sum().backward()
        numeric = numerical_gradient(lambda x: float((x @ b_val).sum()), a_val.astype(np.float64))
        assert_grad_close(a.grad, numeric)


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3, 4)))

    def test_mean_backward(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 1.0 / 6.0))

    def test_var_matches_numpy(self, rng):
        x = rng.standard_normal((4, 5)).astype(np.float32)
        a = Tensor(x)
        np.testing.assert_allclose(a.var(axis=0).data, x.var(axis=0), rtol=1e-5)

    def test_max_backward_distributes_to_argmax(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_reshape_round_trip(self, rng):
        a = Tensor(rng.standard_normal((2, 6)).astype(np.float32), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (2, 6)

    def test_transpose_backward(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32), requires_grad=True)
        (a.transpose(2, 0, 1) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 2.0))

    def test_getitem_backward(self):
        a = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        a[2:4].sum().backward()
        np.testing.assert_allclose(a.grad, [0, 0, 1, 1, 0, 0])

    def test_stack_and_concatenate(self, rng):
        a = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        Tensor.stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        a.grad = None
        b.grad = None
        Tensor.concatenate([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_squeeze_unsqueeze(self):
        a = Tensor(np.ones((1, 3, 1)), requires_grad=True)
        out = a.squeeze()
        assert out.shape == (3,)
        out2 = out.unsqueeze(0)
        assert out2.shape == (1, 3)
        out2.sum().backward()
        assert a.grad.shape == (1, 3, 1)


class TestElementwiseMath:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid"])
    def test_unary_gradients_match_numeric(self, op, rng):
        x_val = (rng.random(6).astype(np.float32) + 0.5)
        x = Tensor(x_val.copy(), requires_grad=True)
        getattr(x, op)().sum().backward()

        def scalar_fn(arr):
            return float(getattr(np, op if op != "sigmoid" else "tanh")(arr).sum()) \
                if op != "sigmoid" else float((1 / (1 + np.exp(-arr))).sum())

        numeric = numerical_gradient(scalar_fn, x_val.astype(np.float64))
        assert_grad_close(x.grad, numeric)

    def test_relu_gradient_mask(self):
        x = Tensor(np.array([-1.0, 2.0, -3.0, 4.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 0, 1])

    def test_clip_gradient_mask(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0, 1, 0])

    def test_abs_gradient_sign(self):
        x = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        x.abs().sum().backward()
        np.testing.assert_allclose(x.grad, [-1, 1])


class TestGraphMechanics:
    def test_backward_requires_scalar_or_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            x.backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_gradient_accumulates_across_backwards_of_shared_leaf(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        z = x * 3.0
        (y.sum() + z.sum()).backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))

    def test_diamond_graph_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x          # x^2
        z = y + x          # x^2 + x -> dz/dx = 2x + 1 = 5
        z.backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_no_grad_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            x = Tensor(np.ones(3), requires_grad=True)
            assert not x.requires_grad
            y = x * 2
            assert y._prev == ()
        assert is_grad_enabled()

    def test_no_grad_is_thread_local_and_spares_parameters(self):
        """Concurrent no_grad blocks (serving threads) must not leave grad
        mode off for the process, and a Parameter stays trainable even when
        it is built inside no_grad."""
        import sys
        import threading

        from repro.nn.module import Parameter

        start = threading.Barrier(4)
        leaks = []

        def loop():
            start.wait()
            for _ in range(2000):
                with no_grad():
                    if is_grad_enabled():
                        leaks.append("grad mode on inside this thread's no_grad")

        threads = [threading.Thread(target=loop, daemon=True) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads' no_grad blocks
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not leaks
        assert is_grad_enabled()
        with no_grad():
            param = Parameter(np.ones(3))
        assert param.requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


# name -> (index into a (6, 4, 5, 3) array, whether it takes the np.add.at route)
INDEX_CASES = {
    "slice": (np.s_[1:5:2], False),
    "int": (2, False),
    "int-and-slice": ((1, np.s_[::2]), False),
    "unique-list": ([0, 2, 5], False),
    "negative-list": ([-1, -3, -6], False),
    "permutation": ([5, 3, 1, 0, 2, 4], False),
    "list-after-ellipsis": ((Ellipsis, [2, 0]), False),
    "list-with-repeats": ([0, 3, 0, 5, 3], True),
    "list-with-sign-alias": ([0, -6, 2], True),
    "bool-mask": (np.array([True, False, True, True, False, True]), False),
    "tuple-of-arrays": ((np.array([0, 5, 1]), np.array([2, 0, 3])), True),
    "tuple-of-arrays-with-repeats": ((np.array([1, 4, 1]), np.array([2, 0, -2])), True),
}


class TestIndexBackward:
    """The indexing backward scatters exactly like the ``np.add.at`` reference."""

    @staticmethod
    def _case(name):
        index, repeats = INDEX_CASES[name]
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 4, 5, 3)).astype(np.float32)
        grad = rng.standard_normal(x[index].shape).astype(np.float32)
        grad.flat[0] = -0.0
        want = np.zeros_like(x)
        np.add.at(want, index, grad)
        return x, index, repeats, grad, want

    @pytest.mark.parametrize("name", sorted(INDEX_CASES))
    def test_eager_backward_matches_add_at_bitwise(self, name):
        x, index, _, grad, want = self._case(name)
        leaf = Tensor(x, requires_grad=True)
        leaf[index].backward(grad)
        assert leaf.grad.dtype == want.dtype
        assert leaf.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(INDEX_CASES))
    def test_runtime_backward_matches_add_at_bitwise(self, name):
        from repro.runtime.ops import get_op

        x, index, _, grad, want = self._case(name)
        (got,) = get_op("getitem").backward(grad, [x], None, None, {"index": index}, [True])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(INDEX_CASES))
    def test_add_at_only_for_repeating_indices(self, name):
        from repro.autograd.tensor import _index_repeats

        _, index, repeats, _, _ = self._case(name)
        assert _index_repeats(index) == repeats
