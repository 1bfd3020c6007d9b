"""Dense tensors with reverse-mode automatic differentiation.

The primitive set is fixed and small: exactly what a compact
encoder-decoder transformer plus its training losses need. Every
primitive records its inputs so that ``backward`` can traverse the
computation in reverse, visiting each application once and summing
gradients where a tensor feeds several consumers.

Two precision modes exist: ``single`` (float32, the training default)
and ``double`` (float64, used to verify analytic gradients against
finite differences). ``precision(...)`` switches the dtype used when
tensors are created; a computation should stay in one mode throughout.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_MODES = {"single": np.float32, "double": np.float64}
_state = {"mode": "single"}


def set_precision(mode: str) -> None:
    if mode not in _MODES:
        raise ContractError(f"unknown precision mode {mode!r}; expected 'single' or 'double'")
    _state["mode"] = mode


def active_dtype():
    return _MODES[_state["mode"]]


@contextmanager
def precision(mode: str):
    """Temporarily switch the dtype new tensors are created with."""
    previous = _state["mode"]
    set_precision(mode)
    try:
        yield
    finally:
        _state["mode"] = previous


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by primitive '{op}'")


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation.

    ``data`` is row-major IEEE-754 (float32 or float64 depending on the
    active precision mode at creation). ``grad`` stays ``None`` until a
    backward pass populates it and then always matches ``data``'s shape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=active_dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        _check_finite(self.data, "leaf")

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; constants are wrapped as non-differentiable leaves.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, scalar):
        if isinstance(scalar, Tensor):
            raise ContractError("tensor/tensor division is not a primitive; divide by a scalar")
        return mul(self, 1.0 / float(scalar))

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = tuple(parents)
    out._backward = backward_fn if out.requires_grad else None
    out._op = op
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be a scalar. Gradients accumulate additively when a
    tensor is consumed more than once.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    # Iterative topological order over the requires_grad subgraph.
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if not np.all(np.isfinite(g)):
                raise NumericError(f"NaN/Inf gradient produced by primitive '{node._op}'")
            if parent.grad is None:
                # nothing writes a gradient in place, so a view is copied only
                # for a leaf, whose grad outlives the pass, or when strided: the
                # copy is C-ordered, and later reductions must sum in that order
                shared = g.base is not None or g is node.grad
                copy = shared and (not parent._parents or not g.flags.c_contiguous)
                parent.grad = g.copy() if copy else g
            else:
                parent.grad = parent.grad + g


# --------------------------------------------------------------------------
# Primitives
# --------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), bw, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _make(data, (a, b), bw, "mul")


def matmul(a, b) -> Tensor:
    """Matrix product with broadcastable batch dimensions (operands must be >= 2-D)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul dimension mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(data, (a, b), bw, "matmul")


def affine(x, w, b) -> Tensor:
    """x @ w + b over the last axis; b broadcasts over all leading axes."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"affine dimension mismatch: {x.data.shape} @ {w.data.shape}")
    data = x.data @ w.data + b.data

    def bw(g):
        gx = g @ w.data.T
        gw = x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        gb = g.reshape(-1, g.shape[-1]).sum(axis=0)
        return gx, gw, _unbroadcast(gb, b.data.shape)

    return _make(data, (x, w, b), bw, "affine")


def relu(x) -> Tensor:
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def bw(g):
        return (g * (x.data > 0.0),)

    return _make(data, (x,), bw, "relu")


def softmax(x, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, stabilized by subtracting the slice maximum."""
    x = as_tensor(x)
    if not (-x.ndim <= axis < x.ndim):
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.data.shape}")
    if x.data.shape[axis] == 0:
        raise ShapeError(f"softmax over empty axis {axis} of shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return ((g - inner) * y,)

    return _make(y, (x,), bw, "softmax")


def log(x, floor: float = 0.0) -> Tensor:
    """Natural log. With ``floor`` > 0, inputs are clamped from below and the
    gradient is zero at clamped entries."""
    x = as_tensor(x)
    if floor > 0.0:
        clamped = np.maximum(x.data, floor)
        data = np.log(clamped)

        def bw(g):
            return (np.where(x.data > floor, g / clamped, 0.0),)

    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            data = np.log(x.data)

        def bw(g):
            return (g / x.data,)

    return _make(data, (x,), bw, "log")


def layer_norm(x, gain, bias, epsilon: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.data.shape} and {bias.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = centered * inv_std
    data = gain.data * xhat + bias.data

    def bw(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = (dxhat - m1 - xhat * m2) * inv_std
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return _make(data, (x, gain, bias), bw, "layer_norm")


def embedding(table, ids) -> Tensor:
    """Gather rows of ``table`` (V, d) by an integer id array of any shape."""
    from .errors import VocabularyError

    table = as_tensor(table)
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise VocabularyError(
            f"token id out of range [0, {table.data.shape[0]}): min={ids.min()}, max={ids.max()}"
        )
    data = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (gt,)

    return _make(data, (table,), bw, "embedding")


def pick(x, ids) -> Tensor:
    """One entry per slice of the last axis: ``out[i] = x[i, ids[i]]`` over
    all leading indices ``i``. ``ids`` must have ``x``'s shape minus its
    last axis."""
    x = as_tensor(x)
    ids = np.asarray(ids)
    n = x.data.shape[-1]
    if ids.shape != x.data.shape[:-1]:
        raise ShapeError(f"pick ids shape {ids.shape} does not match {x.data.shape[:-1]}")
    # take_along_axis would wrap negative ids silently
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ContractError(f"pick id outside [0, {n}): min={ids.min()}, max={ids.max()}")
    index = ids[..., None]
    data = np.take_along_axis(x.data, index, axis=-1)[..., 0]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, index, g[..., None], axis=-1)
        return (gx,)

    return _make(data, (x,), bw, "pick")


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), bw, "concat")


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along ``axis``."""
    x = as_tensor(x)
    if not (-x.ndim <= axis < x.ndim):
        raise ShapeError(f"narrow axis {axis} invalid for shape {x.data.shape}")
    axis = axis % x.ndim
    if start < 0 or start + length > x.data.shape[axis]:
        raise ShapeError(
            f"narrow [{start}:{start + length}] out of bounds for axis {axis} of shape {x.data.shape}"
        )
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    data = x.data[index]

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return _make(data, (x,), bw, "narrow")


def reshape(x, shape) -> Tensor:
    """The same entries in row-major order under a new shape of equal size."""
    x = as_tensor(x)
    shape = tuple(shape)
    if math.prod(shape) != x.data.size or any(n < 0 for n in shape):
        raise ShapeError(f"cannot reshape {x.data.shape} to {shape}")
    data = x.data.reshape(shape)

    def bw(g):
        return (g.reshape(x.data.shape),)

    return _make(data, (x,), bw, "reshape")


def transpose(x, axes) -> Tensor:
    """Permute the axes: output axis i is input axis ``axes[i]``."""
    x = as_tensor(x)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation of {x.ndim} axes")
    data = np.transpose(x.data, axes)

    def bw(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _make(data, (x,), bw, "transpose")


def tsum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    return _make(np.asarray(data), (x,), bw, "sum")


def tmean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    data = x.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = x.data.size
    else:
        count = x.data.shape[axis]

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, x.data.shape).copy(),)

    return _make(np.asarray(data), (x,), bw, "mean")


def mean_square(a, b) -> Tensor:
    """Per-slice mean over the last axis of the squared difference of a and b."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mean_square shape mismatch: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    d = a.data.shape[-1]
    data = (diff * diff).mean(axis=-1)

    def bw(g):
        scaled = (2.0 / d) * diff * np.expand_dims(g, -1)
        return scaled, -scaled

    return _make(data, (a, b), bw, "mean_square")


def dropout(x, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability ``rate`` and rescale
    survivors by 1/(1-rate). Call only at train time."""
    x = as_tensor(x)
    if rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ContractError(f"dropout rate must be < 1, got {rate}")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    mask = keep * (1.0 / (1.0 - rate))
    data = x.data * mask

    def bw(g):
        return (g * mask,)

    return _make(data, (x,), bw, "dropout")


PRIMITIVES = (
    "add",
    "mul",
    "matmul",
    "affine",
    "relu",
    "softmax",
    "log",
    "layer_norm",
    "embedding",
    "pick",
    "concat",
    "narrow",
    "reshape",
    "transpose",
    "sum",
    "mean",
    "mean_square",
    "dropout",
)
