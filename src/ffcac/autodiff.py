"""Dense float64 tensors with reverse-mode automatic differentiation.

Each operation on tensors appends to an implicit computation record: the
output keeps links to its inputs plus a closure computing input gradients
from the output gradient. ``backward()`` on a scalar topologically sorts
that record and sweeps it once in reverse, accumulating ``.grad`` on every
``requires_grad`` leaf. The record is rebuilt on every forward pass and
released by the sweep. An op records only when an input requires a
gradient, so a forward pass on plain arrays, which ops take as constants,
keeps no record; a training step wraps its arrays in fresh leaf tensors.

Everything is double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, UsageError

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_3AC = 3.0 * _GELU_A * _GELU_C


class Tensor:
    """A dense float64 array with an optional gradient slot.

    ``values`` is always a contiguous ndarray; ``grad`` is None until a
    backward pass deposits an array of identical shape.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and ndarrays are promoted to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def record(values, parents, backward) -> Tensor:
    """Build an op output; record parents only when one requires a gradient.
    ``backward(g)`` returns one gradient per parent, in ``parents`` order."""
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = sum_axis(g, 0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _check_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for rank-{ndim} tensor")
    return axis % ndim


# ---------------------------------------------------------------------------
# plain-array kernels, shared by the ops below and the extractor's
# hand-written layers (encoder.py). Each writes only into arrays it made.
#
# The extractor's axes are short (32-64 features, 33 tokens), and there a
# numpy reduction costs 2-4x a BLAS product with a ones vector, so the
# kernels sum through ``sum_axis``. The product adds in BLAS's order, not
# numpy's pairwise one, so the last bits differ from ``.sum``.


def sum_axis(x: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """``x.sum(axis=axis, keepdims=keepdims)``; over the last axis as
    ``x.reshape(-1, n) @ ones(n)`` and over the first as
    ``ones(n) @ x.reshape(n, -1)``. Any other axis, or an empty one, is
    summed by ``.sum``."""
    axis = _check_axis(axis, x.ndim)
    n = x.shape[axis]
    if axis == x.ndim - 1 and n:
        s = x.reshape(-1, n) @ np.ones(n, dtype=x.dtype)
    elif axis == 0 and n:
        s = np.ones(n, dtype=x.dtype) @ x.reshape(n, -1)
    else:
        return x.sum(axis=axis, keepdims=keepdims)
    return s.reshape(x.shape[:axis] + ((1,) if keepdims else ()) + x.shape[axis + 1:])


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of ``x`` and the tanh term its backward needs:
    t = tanh(C*x*(1 + A*x^2)) and 0.5*x*(1 + t), each pass in place."""
    t = x * x
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = t + 1.0
    out *= x
    out *= 0.5
    return out, t


def gelu_backward(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """0.5*g*((1 + t) + x*(1 - t^2)*(C + 3AC*x^2)), each pass in place."""
    u = x * x
    u *= _GELU_3AC
    u += _GELU_C
    s = t * t
    np.subtract(1.0, s, out=s)
    s *= x
    s *= u
    np.add(t, 1.0, out=u)
    u += s
    u *= g
    u *= 0.5
    return u


def softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    # in place: on an attention batch one array instead of three halves the time
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= sum_axis(out, axis, keepdims=True)
    return out


def softmax_backward(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    """out * (g - sum(g * out)), in one array."""
    r = g * out
    np.subtract(g, sum_axis(r, axis, keepdims=True), out=r)
    r *= out
    return r


def layer_norm_forward(x: np.ndarray, axis: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero mean, unit variance along ``axis``; also the inverse std."""
    n = x.shape[axis]
    xc = x - sum_axis(x, axis, keepdims=True) / n
    var = sum_axis(xc * xc, axis, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xc *= inv
    return xc, inv


def layer_norm_backward(g: np.ndarray, out: np.ndarray, inv: np.ndarray, axis: int) -> np.ndarray:
    """inv * (g - mean(g) - out * mean(g * out)), in two arrays."""
    n = g.shape[axis]
    r = g * out
    gym = sum_axis(r, axis, keepdims=True) / n
    np.multiply(out, gym, out=r)
    d = g - sum_axis(g, axis, keepdims=True) / n
    d -= r
    d *= inv
    return d


# ---------------------------------------------------------------------------
# elementwise suite


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.values + b.values
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.values - b.values
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.values * b.values
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        return (_unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape))

    return record(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.values / b.values
    except ValueError:
        raise DimensionError(f"div: shapes {a.shape} and {b.shape} do not broadcast") from None

    def backward(g):
        ga = _unbroadcast(g / b.values, a.shape)
        gb = _unbroadcast(-g * a.values / (b.values * b.values), b.shape)
        return ga, gb

    return record(out, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    a = _as_tensor(a)
    c = float(c)

    def backward(g):
        return (g * c,)

    return record(a.values * c, (a,), backward)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    mask = a.values > 0.0

    def backward(g):
        return (g * mask,)

    return record(np.where(mask, a.values, 0.0), (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3)))."""
    a = _as_tensor(a)
    out, t = gelu_forward(a.values)
    return record(out, (a,), lambda g: (gelu_backward(g, a.values, t),))


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.values)

    def backward(g):
        return (g * out,)

    return record(out, (a,), backward)


def log(a: Tensor) -> Tensor:
    """Natural log; caller guarantees positive inputs."""
    a = _as_tensor(a)

    def backward(g):
        return (g / a.values,)

    return record(np.log(a.values), (a,), backward)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise x**p for a fixed scalar exponent."""
    a = _as_tensor(a)
    p = float(p)

    def backward(g):
        return (g * p * a.values ** (p - 1.0),)

    return record(a.values**p, (a,), backward)


# ---------------------------------------------------------------------------
# structural ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 operands, or of two rank-3 stacks of
    matrices with equal batch size (one product per leading index)."""
    a, b = _as_tensor(a), _as_tensor(b)
    rank = a.values.ndim
    if (rank not in (2, 3) or b.values.ndim != rank or a.shape[-1] != b.shape[-2]
            or (rank == 3 and a.shape[0] != b.shape[0])):
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    def backward(g):
        return g @ np.swapaxes(b.values, -1, -2), np.swapaxes(a.values, -1, -2) @ g

    return record(a.values @ b.values, (a, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; without ``axes``, reverse the two axes of a matrix."""
    a = _as_tensor(a)
    if axes is None:
        if a.values.ndim != 2:
            raise DimensionError(f"transpose: expected rank-2 tensor, got shape {a.shape}")
        axes = (1, 0)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.values.ndim)):
        raise DimensionError(f"transpose: axes {axes} do not permute the axes of {a.shape}")
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inverse),)

    return record(a.values.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape

    def backward(g):
        return (g.reshape(old),)

    try:
        out = a.values.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {old} as {tuple(shape)}") from None
    return record(out, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat of zero tensors")
    axis = _check_axis(axis, tensors[0].values.ndim)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors))
        )

    try:
        out = np.concatenate([t.values for t in tensors], axis=axis)
    except ValueError:
        raise DimensionError(
            "concat: shapes " + ", ".join(str(t.shape) for t in tensors) + " disagree"
        ) from None
    return record(out, tuple(tensors), backward)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    a = _as_tensor(a)
    axis = _check_axis(axis, a.values.ndim)
    if not 0 <= start <= stop <= a.shape[axis]:
        raise DimensionError(f"slice [{start}:{stop}] out of range for axis {axis} of {a.shape}")
    idx = tuple(slice(start, stop) if d == axis else slice(None) for d in range(a.values.ndim))

    def backward(g):
        full = np.zeros(a.shape)
        full[idx] = g
        return (full,)

    return record(a.values[idx], (a,), backward)


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is not None:
        axis = _check_axis(axis, a.values.ndim)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return record(a.values.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is not None:
        axis = _check_axis(axis, a.values.ndim)
    n = a.values.size if axis is None else a.shape[axis]

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / n, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return record(a.values.mean(axis=axis, keepdims=keepdims), (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    axis = _check_axis(axis, a.values.ndim)
    out = softmax_forward(a.values, axis)
    return record(out, (a,), lambda g: (softmax_backward(g, out, axis),))


def layer_norm(a: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    """Normalize to zero mean, unit variance along ``axis`` (no affine)."""
    if eps <= 0:
        raise UsageError(f"layer_norm eps must be > 0, got {eps}")
    a = _as_tensor(a)
    axis = _check_axis(axis, a.values.ndim)
    out, inv = layer_norm_forward(a.values, axis, eps)
    return record(out, (a,), lambda g: (layer_norm_backward(g, out, inv, axis),))


# ---------------------------------------------------------------------------
# backward sweep and parameter update


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; accumulates into the ``.grad`` of
    every leaf tensor with ``requires_grad`` (interior nodes keep none).

    Gradients add onto any existing ``.grad`` arrays, so a second sweep
    over the same leaves sums the two; a training step uses fresh leaves.
    The sweep releases the record: each node it passes drops its parents
    and its backward closure, and with them the arrays they hold.
    """
    if loss.values.size != 1:
        raise UsageError(f"backward root must be scalar, got shape {loss.shape}")

    # iterative post-order DFS: inputs of every node precede it
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        parents, node_backward = node._parents, node._backward
        node._parents, node._backward = (), None
        if g is None:
            continue
        if node.requires_grad and node_backward is None:
            # leaf parameter
            node.grad = g if node.grad is None else node.grad + g
            continue
        if node_backward is None:
            continue
        parent_grads = node_backward(g)
        for p, pg in zip(parents, parent_grads):
            if not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


def sgd_step(arrays, grads, lr: float, weight_decay: float = 0.0) -> None:
    """In-place SGD on arrays: p <- p - lr*(g + wd*p); a None gradient is zero."""
    if lr <= 0:
        raise UsageError(f"learning rate must be > 0, got {lr}")
    for p, g in zip(arrays, grads):
        if g is None:
            g = np.zeros_like(p)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise DimensionError(f"sgd_step: param shape {p.shape} vs grad shape {g.shape}")
        p -= lr * (g + weight_decay * p)
