"""Gradient correctness: every op against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    Tensor,
    check_gradients,
    concat,
    gather_rows,
    segment_mean,
    segment_softmax,
    segment_sum,
    softmax,
    stack,
    where,
)


def t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape) * scale, requires_grad=True)


class TestBinaryGrads:
    def test_add_broadcast(self):
        check_gradients(lambda a, b: (a + b).sum(), [t((3, 4)), t((4,), 1)])

    def test_sub(self):
        check_gradients(lambda a, b: (a - b).sum(), [t((2, 3)), t((2, 3), 1)])

    def test_mul_broadcast(self):
        check_gradients(lambda a, b: (a * b).sum(), [t((3, 4)), t((3, 1), 1)])

    def test_div(self):
        a, b = t((3,)), Tensor(np.array([2.0, 3.0, 4.0]), requires_grad=True)
        check_gradients(lambda a, b: (a / b).sum(), [a, b])

    def test_pow(self):
        x = Tensor(np.array([1.5, 2.0, 0.5]), requires_grad=True)
        check_gradients(lambda x: (x**3).sum(), [x])

    def test_neg(self):
        check_gradients(lambda a: (-a).sum(), [t((4,))])

    def test_matmul_2d(self):
        check_gradients(lambda a, b: (a @ b).sum(), [t((3, 4)), t((4, 2), 1)])

    def test_matmul_vec_mat(self):
        check_gradients(lambda a, b: (a @ b).sum(), [t((4,)), t((4, 2), 1)])

    def test_matmul_mat_vec(self):
        check_gradients(lambda a, b: (a @ b).sum(), [t((3, 4)), t((4,), 1)])

    def test_matmul_vec_vec(self):
        check_gradients(lambda a, b: a @ b, [t((5,)), t((5,), 1)])

    def test_matmul_batched(self):
        check_gradients(
            lambda a, b: (a @ b).sum(), [t((2, 3, 4)), t((2, 4, 2), 1)]
        )


class TestElementwiseGrads:
    def test_exp(self):
        check_gradients(lambda a: a.exp().sum(), [t((3, 3), scale=0.5)])

    def test_log(self):
        x = Tensor(np.array([0.5, 1.0, 2.0]), requires_grad=True)
        check_gradients(lambda x: x.log().sum(), [x])

    def test_sigmoid_tanh(self):
        check_gradients(lambda a: a.sigmoid().sum(), [t((4,))])
        check_gradients(lambda a: a.tanh().sum(), [t((4,), 1)])

    def test_relu_away_from_kink(self):
        x = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        check_gradients(lambda x: x.relu().sum(), [x])

    def test_leaky_relu(self):
        x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        check_gradients(lambda x: x.leaky_relu(0.2).sum(), [x])

    def test_abs_away_from_zero(self):
        x = Tensor(np.array([-2.0, 1.0]), requires_grad=True)
        check_gradients(lambda x: x.abs().sum(), [x])


class TestReductionGrads:
    def test_sum_axis(self):
        check_gradients(lambda a: a.sum(axis=0).sum(), [t((3, 4))])
        check_gradients(lambda a: a.sum(axis=1, keepdims=True).sum(), [t((3, 4))])

    def test_mean(self):
        check_gradients(lambda a: a.mean(), [t((3, 4))])
        check_gradients(lambda a: a.mean(axis=1).sum(), [t((3, 4))])

    def test_max_no_ties(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]]), requires_grad=True)
        check_gradients(lambda x: x.max(axis=1).sum(), [x])

    def test_max_tie_splits_gradient(self):
        x = Tensor(np.array([3.0, 3.0]), requires_grad=True)
        out = x.max()
        out.backward()
        assert np.allclose(x.grad, [0.5, 0.5])


class TestShapeGrads:
    def test_reshape_transpose(self):
        check_gradients(
            lambda a: a.reshape(4, 6).transpose().sum(axis=1).sum(), [t((2, 3, 4))]
        )

    def test_expand_squeeze(self):
        check_gradients(lambda a: a.expand_dims(1).squeeze(1).sum(), [t((3,))])

    def test_getitem_with_repeats(self):
        check_gradients(lambda a: a[np.array([0, 1, 1, 2])].sum(), [t((3, 2))])

    def test_getitem_slice(self):
        check_gradients(lambda a: a[:, 1:].sum(), [t((3, 4))])


class TestFunctionalGrads:
    def test_concat(self):
        check_gradients(
            lambda a, b: concat([a, b], axis=1).sum(), [t((2, 3)), t((2, 2), 1)]
        )

    def test_stack(self):
        check_gradients(lambda a, b: stack([a, b]).sum(), [t((3,)), t((3,), 1)])

    def test_gather_rows(self):
        check_gradients(
            lambda a: gather_rows(a, np.array([2, 0, 2, 1])).sum(), [t((3, 2))]
        )

    def test_segment_sum_mean(self):
        ids = np.array([0, 0, 2, 2, 2])
        check_gradients(lambda a: segment_sum(a, ids, 3).sum(), [t((5, 2))])
        check_gradients(lambda a: segment_mean(a, ids, 3).sum(), [t((5, 2))])

    def test_segment_softmax_weighted(self):
        ids = np.array([0, 0, 1, 1, 1])
        w = Tensor(np.arange(5.0))
        check_gradients(
            lambda s: (segment_softmax(s, ids, 2) * w).sum(), [t((5,))], atol=1e-4
        )

    def test_segment_softmax_multihead(self):
        ids = np.array([0, 0, 1])
        w = Tensor(np.arange(6.0).reshape(3, 2))
        check_gradients(
            lambda s: (segment_softmax(s, ids, 2) * w).sum(),
            [t((3, 2))],
            atol=1e-4,
        )

    def test_softmax(self):
        w = Tensor(np.arange(12.0).reshape(3, 4))
        check_gradients(lambda a: (softmax(a) * w).sum(), [t((3, 4))], atol=1e-4)

    def test_where(self):
        x = t((4,))
        cond = x.data > 0
        check_gradients(lambda a: where(cond, a * 2, a * 0.5).sum(), [x])


class TestBackwardSemantics:
    def test_gradient_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        (x * 3).backward()
        assert np.allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # used twice below
        (y + y).backward()
        assert np.allclose(x.grad, [8.0])

    def test_diamond_graph(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        (a + b).backward()
        assert np.allclose(x.grad, [7.0])

    def test_seed_gradient_shape_check(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward(np.ones(4))

    def test_no_grad_for_constant(self):
        a = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        (a * c).backward()
        assert c.grad is None

    def test_no_grad_records_no_tape(self):
        from repro.tensor import is_grad_enabled, no_grad

        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            out = (w @ w).relu() * 2.0
        assert is_grad_enabled()
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        assert np.array_equal(out.data, np.full((2, 2), 4.0))
        # Leaves keep their flag, and outside the block the tape records.
        assert w.requires_grad
        again = w @ w
        assert again.requires_grad and again._parents == (w, w)

    def test_backward_does_not_leak_reference_cycles(self):
        # Closures must not capture their output tensor: a dropped graph is
        # reclaimed by refcounting (the training-loop performance fix).
        import gc
        import weakref

        x = Tensor(np.ones(10), requires_grad=True)
        out = (x * 2).relu().sum()
        ref = weakref.ref(out)
        gc.disable()
        try:
            del out
            assert ref() is None
        finally:
            gc.enable()


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(2, 5),
    cols=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_property_mlp_chain_gradients(rows, cols, seed):
    """Random small matmul/sigmoid chains always pass the gradient check."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
    w = Tensor(rng.normal(size=(cols, 3)), requires_grad=True)
    check_gradients(lambda a, w: (a @ w).sigmoid().sum(), [a, w])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 8),
    segments=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_property_segment_softmax_normalised(n, segments, seed):
    """Segment softmax always produces per-segment distributions."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, segments, size=n)
    out = segment_softmax(Tensor(rng.normal(size=n)), ids, segments)
    sums = np.zeros(segments)
    np.add.at(sums, ids, out.data)
    present = np.bincount(ids, minlength=segments) > 0
    assert np.allclose(sums[present], 1.0)
    assert np.all(out.data >= 0)


class TestReflectedOperatorGrads:
    def test_rsub_gradient(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (5.0 - x).sum().backward()
        assert np.allclose(x.grad, [-1.0, -1.0])

    def test_rtruediv_gradient(self):
        x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        (8.0 / x).sum().backward()
        assert np.allclose(x.grad, [-2.0, -0.5])

    def test_radd_rmul_gradients(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        (2.0 + x).backward()
        (2.0 * x).backward()
        assert np.allclose(x.grad, [3.0])  # 1 + 2


class TestSqueezeTranspose:
    def test_squeeze_all_singletons(self):
        x = Tensor(np.zeros((1, 3, 1)), requires_grad=True)
        out = x.squeeze()
        assert out.shape == (3,)
        out.sum().backward()
        assert x.grad.shape == (1, 3, 1)

    def test_transpose_tuple_argument(self):
        x = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        assert x.transpose((2, 0, 1)).shape == (4, 2, 3)
