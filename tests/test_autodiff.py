import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffcac import autodiff as ad
from ffcac.autodiff import Tensor
from ffcac.errors import DimensionError, UsageError

from tests.helpers import grad_check

PRIMITIVE_TOL = 1e-6


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.values, a)


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.values, [[3.0], [7.0]])


def test_matmul_zero():
    out = ad.matmul(Tensor(np.zeros((3, 4))), Tensor(np.ones((4, 2))))
    assert np.all(out.values == 0.0)


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_batched_matmul_is_one_product_per_batch_index():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
    out = ad.matmul(Tensor(a), Tensor(b))
    for i in range(3):
        assert np.allclose(out.values[i], a[i] @ b[i], atol=1e-14)


def test_batched_matmul_batch_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))


def test_matmul_rejects_mixed_ranks():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))


def test_transpose_axes_permutes():
    x = np.arange(24.0).reshape(2, 3, 4)
    out = ad.transpose(Tensor(x), (2, 0, 1))
    assert np.array_equal(out.values, x.transpose(2, 0, 1))
    with pytest.raises(DimensionError):
        ad.transpose(Tensor(x), (0, 0, 1))
    with pytest.raises(DimensionError):
        ad.transpose(Tensor(x))  # no axes: rank 2 only


def test_softmax_uniform_logits():
    out = ad.softmax(Tensor([[0.0, 0.0, 0.0]]), axis=1)
    assert np.allclose(out.values, 1.0 / 3.0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_softmax_rows_sum_to_one(seed, n, m):
    rng = np.random.default_rng(seed)
    out = ad.softmax(Tensor(rng.normal(scale=5.0, size=(n, m))), axis=1)
    assert np.all(out.values >= 0.0)
    assert np.max(np.abs(out.values.sum(axis=1) - 1.0)) <= 1e-12


def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(Tensor([[3.5, 3.5, 3.5, 3.5]]), axis=1)
    assert np.allclose(out.values, 0.0)


def test_layer_norm_rejects_bad_eps():
    with pytest.raises(UsageError):
        ad.layer_norm(Tensor([[1.0, 2.0]]), axis=1, eps=0.0)


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 2.0]))
    assert np.array_equal(out.values, [0.0, 2.0])


def test_axis_out_of_range():
    with pytest.raises(DimensionError):
        ad.mean(Tensor(np.zeros((2, 3))), axis=2)
    with pytest.raises(DimensionError):
        ad.softmax(Tensor(np.zeros((2, 3))), axis=-3)


def test_concat_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)


def test_backward_of_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(ad.sum_(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    ad.backward(ad.sum_(x * x))
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(UsageError):
        ad.backward(x * x)


def test_backward_accumulates_over_reuse():
    x = Tensor([2.0], requires_grad=True)
    ad.backward(ad.sum_(x * x + x))  # d/dx (x^2 + x) = 2x + 1
    assert np.allclose(x.grad, [5.0])


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    one = ad.softmax(ad.matmul(Tensor(a), ad.gelu(Tensor(b))), axis=1).values
    two = ad.softmax(ad.matmul(Tensor(a), ad.gelu(Tensor(b))), axis=1).values
    assert np.array_equal(one, two)


def test_backward_keeps_no_grad_on_interior_nodes():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x * x
    ad.backward(ad.sum_(y))
    assert y.grad is None
    assert np.allclose(x.grad, [2.0, 4.0])


def test_no_grad_builds_no_graph():
    # an op records only when an input requires a gradient
    x = Tensor([1.0])
    y = x * x
    assert not y.requires_grad and y._parents == () and y._backward is None


# ---------------------------------------------------------------------------
# gradient checks vs central finite differences


def _check_unary(op, low=-2.0, high=2.0, shape=(3, 4), seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(low, high, shape), requires_grad=True)
    out_shape = op(Tensor(x.values)).shape  # a frozen copy records nothing
    weights = Tensor(rng.normal(size=out_shape))

    def make_loss():
        return ad.sum_(op(x) * weights)

    err = grad_check(make_loss, [x])
    assert err <= PRIMITIVE_TOL, f"{op}: rel err {err}"


@pytest.mark.parametrize(
    "op",
    [
        ad.relu,
        ad.gelu,
        ad.exp,
        lambda t: ad.scale(t, 1.7),
        lambda t: ad.softmax(t, axis=1),
        lambda t: ad.layer_norm(t, axis=1),
        lambda t: ad.power(t + Tensor(np.full((3, 4), 3.0)), 0.5),
        lambda t: ad.mean(t, axis=0),
        lambda t: ad.mean(t),
        lambda t: ad.sum_(t, axis=1, keepdims=True),
        lambda t: ad.transpose(t),
        lambda t: ad.reshape(t, (4, 3)),
        lambda t: ad.slice_axis(t, 1, 1, 3),
    ],
)
def test_unary_gradients(op):
    _check_unary(op, seed=11)


def test_log_gradient_positive_domain():
    _check_unary(ad.log, low=0.1, high=2.0, seed=5)


def test_binary_gradients():
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(0.5, 2, (3, 4)), requires_grad=True)
    weights = Tensor(rng.normal(size=(3, 4)))
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        err = grad_check(lambda op=op: ad.sum_(op(a, b) * weights), [a, b])
        assert err <= PRIMITIVE_TOL, f"{op}: rel err {err}"


def test_broadcast_add_gradient():
    rng = np.random.default_rng(9)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    bias = Tensor(rng.uniform(-2, 2, (4,)), requires_grad=True)
    weights = Tensor(rng.normal(size=(3, 4)))
    err = grad_check(lambda: ad.sum_((a + bias) * weights), [a, bias])
    assert err <= PRIMITIVE_TOL


def test_matmul_gradient():
    rng = np.random.default_rng(13)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    weights = Tensor(rng.normal(size=(3, 2)))
    err = grad_check(lambda: ad.sum_(ad.matmul(a, b) * weights), [a, b])
    assert err <= PRIMITIVE_TOL


def test_concat_gradient():
    rng = np.random.default_rng(17)
    parts = [Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True) for _ in range(3)]
    weights = Tensor(rng.normal(size=(6, 3)))
    err = grad_check(lambda: ad.sum_(ad.concat(parts, axis=0) * weights), parts)
    assert err <= PRIMITIVE_TOL


def test_two_layer_mlp_gradient():
    """Random 2-layer MLP: analytic vs central differences at 1e-6."""
    rng = np.random.default_rng(42)
    x = Tensor(rng.uniform(-2, 2, (5, 6)))
    w1 = Tensor(rng.uniform(-1, 1, (6, 8)), requires_grad=True)
    b1 = Tensor(rng.uniform(-1, 1, (8,)), requires_grad=True)
    w2 = Tensor(rng.uniform(-1, 1, (8, 3)), requires_grad=True)
    b2 = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
    weights = Tensor(rng.normal(size=(5, 3)))

    def make_loss():
        h = ad.gelu(ad.matmul(x, w1) + b1)
        return ad.sum_((ad.matmul(h, w2) + b2) * weights)

    err = grad_check(make_loss, [w1, b1, w2, b2])
    assert err <= PRIMITIVE_TOL, f"rel err {err}"


# ---------------------------------------------------------------------------
# SGD


def test_sgd_no_gradient_no_decay_keeps_param():
    p = np.array([1.0])
    ad.sgd_step([p], [np.array([0.0])], lr=0.5, weight_decay=0.0)
    assert np.array_equal(p, [1.0])


def test_sgd_basic_step():
    p = np.array([0.0])
    ad.sgd_step([p], [np.array([1.0])], lr=0.001, weight_decay=0.0)
    assert np.allclose(p, [-0.001])


def test_sgd_weight_decay():
    p = np.array([1.0])
    ad.sgd_step([p], [np.array([0.0])], lr=0.1, weight_decay=0.5)
    assert np.allclose(p, [0.95])


def test_sgd_shape_mismatch():
    p = np.array([1.0, 2.0])
    with pytest.raises(DimensionError):
        ad.sgd_step([p], [np.zeros(3)], lr=0.1)


def test_sgd_rejects_nonpositive_lr():
    p = np.array([1.0])
    with pytest.raises(UsageError):
        ad.sgd_step([p], [np.zeros(1)], lr=0.0)


def test_batched_matmul_gradient():
    rng = np.random.default_rng(31)
    a = Tensor(rng.uniform(-2, 2, (3, 2, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (3, 4, 5)), requires_grad=True)
    weights = rng.normal(size=(3, 2, 5))
    err = grad_check(lambda: ad.sum_(ad.matmul(a, b) * weights), [a, b])
    assert err <= PRIMITIVE_TOL


def test_transpose_axes_gradient():
    rng = np.random.default_rng(32)
    x = Tensor(rng.uniform(-2, 2, (2, 3, 4, 5)), requires_grad=True)
    weights = rng.normal(size=(2, 4, 5, 3))
    err = grad_check(lambda: ad.sum_(ad.transpose(x, (0, 2, 3, 1)) * weights), [x])
    assert err <= PRIMITIVE_TOL


def test_in_place_softmax_kernel_equals_its_one_expression_form():
    """The hand-written extractor backward and the tape ops share this
    kernel; its in-place form must give the bits of the plain expression,
    whose row sum is a product with a ones vector."""
    x = np.random.default_rng(47).normal(scale=2.0, size=(2, 7, 9))
    e = np.exp(x - x.max(axis=2, keepdims=True))
    row_sums = (e.reshape(-1, 9) @ np.ones(9)).reshape(2, 7, 1)
    assert np.array_equal(ad.softmax_forward(x, 2), e / row_sums)


# The kernels sum their short axes as products with a ones vector and run
# GELU in place; each must match its textbook numpy form, on a contiguous
# input, a transposed (non-contiguous) one, an axis that is neither first
# nor last (summed by .sum) and an axis of length 1, and write into no input.
LAYOUTS = {
    "contiguous": ((4, 6, 9), None, -1),
    "transposed": ((4, 9, 6), (0, 2, 1), -1),
    "middle-axis": ((4, 6, 9), None, 1),
    "first-axis": ((4, 6, 9), None, 0),
    "length-1": ((4, 6, 1), None, -1),
}
KERNEL_RTOL = 1e-12


def _kernel_inputs(layout: str, count: int, seed: int = 71):
    shape, axes, axis = LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(scale=2.0, size=shape) for _ in range(count)]
    if axes is not None:
        arrays = [a.transpose(axes) for a in arrays]
        assert not arrays[0].flags.c_contiguous
    return arrays, axis


def _unwritten(arrays, call):
    before = [a.copy() for a in arrays]
    result = call()
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))
    return result


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("keepdims", [False, True])
def test_sum_axis_matches_numpy_sum(layout, keepdims):
    (x,), axis = _kernel_inputs(layout, 1)
    got = _unwritten([x], lambda: ad.sum_axis(x, axis, keepdims=keepdims))
    want = x.sum(axis=axis, keepdims=keepdims)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=KERNEL_RTOL)


def test_sum_axis_of_an_empty_axis_is_zero():
    assert np.array_equal(ad.sum_axis(np.zeros((3, 0)), -1), np.zeros(3))
    assert np.array_equal(ad.sum_axis(np.zeros((0, 3)), 0, keepdims=True), np.zeros((1, 3)))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_softmax_kernels_match_the_textbook_form(layout):
    (x, g), axis = _kernel_inputs(layout, 2)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    want = e / e.sum(axis=axis, keepdims=True)
    out = _unwritten([x], lambda: ad.softmax_forward(x, axis))
    np.testing.assert_allclose(out, want, rtol=KERNEL_RTOL)
    grad = _unwritten([g, out], lambda: ad.softmax_backward(g, out, axis))
    np.testing.assert_allclose(grad, out * (g - (g * out).sum(axis=axis, keepdims=True)),
                               rtol=KERNEL_RTOL)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_layer_norm_kernels_match_the_textbook_form(layout):
    (x, g), axis = _kernel_inputs(layout, 2)
    eps = 1e-5
    want_inv = 1.0 / np.sqrt(x.var(axis=axis, keepdims=True) + eps)
    want = (x - x.mean(axis=axis, keepdims=True)) * want_inv
    out, inv = _unwritten([x], lambda: ad.layer_norm_forward(x, axis, eps))
    np.testing.assert_allclose(inv, want_inv, rtol=KERNEL_RTOL)
    np.testing.assert_allclose(out, want, rtol=KERNEL_RTOL)
    grad = _unwritten([g, out, inv], lambda: ad.layer_norm_backward(g, out, inv, axis))
    want_grad = inv * (g - g.mean(axis=axis, keepdims=True)
                       - out * (g * out).mean(axis=axis, keepdims=True))
    np.testing.assert_allclose(grad, want_grad, rtol=KERNEL_RTOL)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_gelu_kernels_match_the_textbook_form(layout):
    (x, g), _ = _kernel_inputs(layout, 2)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * x**3))
    out, got_t = _unwritten([x], lambda: ad.gelu_forward(x))
    np.testing.assert_allclose(got_t, t, rtol=KERNEL_RTOL)
    np.testing.assert_allclose(out, 0.5 * x * (1.0 + t), rtol=KERNEL_RTOL)
    grad = _unwritten([g, x, got_t], lambda: ad.gelu_backward(g, x, got_t))
    dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * c * (1.0 + 3.0 * 0.044715 * x**2)
    np.testing.assert_allclose(grad, g * dgelu, rtol=KERNEL_RTOL)
