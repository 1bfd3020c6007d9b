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

Distributions are carried as log-probabilities from ``log_softmax``, so a
probability that underflows to zero still has a finite log, and no log is
clamped; ``log`` of an ``exp`` node gives its input back.

Primitives do not scan their outputs for NaN/Inf; ``check_finite`` runs
at boundaries instead: on ``Tensor(...)`` leaves (not on the constants
``as_tensor`` wraps) and where callers ask (the model's logits, the
training loss). A failed check names the first primitive of the graph
with a non-finite output.

Within ``graph_free()`` (entered by ``ParameterSet.inference``) a
primitive keeps its inputs only when its output needs a gradient, so an
inference pass frees each intermediate as soon as its consumers have run.
A check that fails there cannot walk back to the first bad primitive;
``names_failures`` runs such a call again with the graph recorded, which
costs nothing until a check fails.
"""

from __future__ import annotations

import functools
import math
import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_MODES = {"single": np.float32, "double": np.float64}
_state = {"mode": "single"}
# OpenBLAS runs a product of at most this many multiply-adds in a small-matrix
# kernel, which rounds differently from its blocked kernel; `affine` keeps such
# products per sequence, and a decode step's per row, so a desk decode row rounds
# alike stepped alone or beside a few others, as release-gate criterion 12 needs
_SMALL_GEMM = 100**3
LAYER_NORM_EPSILON = 1e-5


def active_dtype():
    return _MODES[_state["mode"]]


@contextmanager
def precision(mode: str):
    """Temporarily switch the dtype new tensors are created with."""
    if mode not in _MODES:
        raise ContractError(f"unknown precision mode {mode!r}; expected 'single' or 'double'")
    previous = _state["mode"]
    _state["mode"] = mode
    try:
        yield
    finally:
        _state["mode"] = previous


class _Recording(threading.local):
    """Per thread: whether a primitive whose output needs no gradient keeps
    its inputs (not within ``graph_free``), and whether a rerun of
    ``names_failures`` records every graph regardless."""

    keep_inputs = True
    naming = False


_recording = _Recording()


class _UnrecordedNumericError(NumericError):
    """A failed check whose first non-finite primitive was not recorded."""


@contextmanager
def graph_free():
    """Within this thread, primitives whose output needs no gradient record
    no inputs, so nothing they computed outlives its last consumer."""
    previous = _recording.keep_inputs
    _recording.keep_inputs = False
    try:
        yield
    finally:
        _recording.keep_inputs = previous


def names_failures(fn):
    """Decorate a call that may run ``graph_free``: when a check in it fails
    where no graph was recorded, run it again recording every graph, so the
    ``NumericError`` names the first primitive with a non-finite output.
    The call must be safe to repeat up to the failure."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _UnrecordedNumericError:
            _recording.naming = True
            try:
                fn(*args, **kwargs)
            finally:
                _recording.naming = False
            raise

    return call


def check_finite(x: Tensor) -> Tensor:
    """Return ``x`` if all its values are finite, else raise ``NumericError``
    naming the first primitive of ``x``'s graph, inputs before outputs, with a
    non-finite output (a non-finite parameter is named by its consumer)."""
    if np.isfinite(x.data).all():
        return x
    nodes = _topological_order(x, grad_only=False)
    first = next((n for n in nodes if n._op != "leaf" and not np.isfinite(n.data).all()), x)
    if first._op != "leaf" and not first._parents:
        raise _UnrecordedNumericError(f"non-finite values produced by primitive '{first._op}' "
                                      "or one before it, in a pass that recorded no graph")
    raise NumericError(f"non-finite values produced by primitive '{first._op}'")


class Tensor:
    """A dense array plus the bookkeeping needed for backpropagation.

    ``data`` is row-major IEEE-754 (float32 or float64 depending on the
    active precision mode at creation). ``grad`` stays ``None`` until a
    backward pass populates it and then always matches ``data``'s shape; on
    an interior node the pass sets it back to ``None`` once propagated.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, *, check: bool = True):
        self.data = np.asarray(data, dtype=active_dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        if check:
            check_finite(self)

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    """``value`` if it is a Tensor, else a constant leaf. Constants skip the
    finiteness check of ``Tensor(...)``; the checks downstream see their effect."""
    return value if isinstance(value, Tensor) else Tensor(value, check=False)


def _make(data: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = tuple(parents) if out.requires_grad or _recording.keep_inputs or _recording.naming else ()
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


def _topological_order(root: Tensor, grad_only: bool) -> list:
    """The nodes ``root`` depends on, each after its inputs, found
    iteratively; with ``grad_only``, only through requires_grad nodes."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited or (grad_only and not node.requires_grad):
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    ``loss`` must be a scalar. Gradients accumulate additively when a
    tensor is consumed more than once. An interior node's ``grad`` is
    released once it has been handed to the node's inputs, so the pass
    holds only the gradients still to be propagated, and afterwards every
    interior ``grad`` is None. A second pass over the same graph therefore
    adds one more pass's gradients to the leaves, as a pass over a new
    graph would.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    loss.grad = np.ones_like(loss.data)
    for node in reversed(_topological_order(loss, grad_only=True)):
        if node._backward is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                # nothing writes a gradient in place, so a shared array is
                # copied only for a leaf, whose grad outlives the pass
                shared = g.base is not None or g is node.grad
                parent.grad = g.copy() if shared and not parent._parents else g
            else:
                parent.grad = parent.grad + g
        if node._parents:
            node.grad = None


# --------------------------------------------------------------------------
# Primitives
# --------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def bw(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make(data, (a, b), bw, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make(data, (a, b), bw, "mul")


def affine(x, w, b) -> Tensor:
    """x @ w + b over the last axis; b broadcasts over all leading axes."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    shape, k = x.data.shape, w.data.shape[0]
    if shape[-1] != k:
        raise ShapeError(f"affine dimension mismatch: {x.data.shape} @ {w.data.shape}")
    # one GEMM over all positions beats one per sequence, except for small
    # per-sequence products; a decode step (one position per row) is judged
    # by the product over all of its rows instead
    m = shape[-2] if shape[-2] > 1 else x.data.size // k
    flat = len(shape) > 2 and m > 1 and m * k * w.data.shape[-1] > _SMALL_GEMM
    if flat:
        data = (x.data.reshape(-1, k) @ w.data).reshape(*shape[:-1], -1)
    else:
        data = x.data @ w.data
    data += b.data  # in place: the same sums, without a second (rows, n) array

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ w.data.T).reshape(shape) if flat else g @ w.data.T
        return gx, x.data.reshape(-1, k).T @ g2, _unbroadcast(g2.sum(axis=0), b.data.shape)

    return _make(data, (x, w, b), bw, "affine")


def relu(x) -> Tensor:
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def bw(g):
        return (g * (x.data > 0.0),)

    return _make(data, (x,), bw, "relu")


def log_softmax(x) -> Tensor:
    """Log of the softmax over the last axis, ``x - max - log(sum(exp(x - max)))``:
    no exp overflows, and it is finite wherever ``x`` is."""
    x = as_tensor(x)
    if x.ndim == 0 or x.data.shape[-1] == 0:
        raise ShapeError(f"log_softmax needs a non-empty last axis, got shape {x.data.shape}")
    y = x.data - x.data.max(axis=-1, keepdims=True)
    y -= np.log(np.exp(y).sum(axis=-1, keepdims=True))

    def bw(g):
        gx = np.exp(y)  # g - softmax * sum(g), the softmax recomputed rather than kept
        gx *= -g.sum(axis=-1, keepdims=True)
        gx += g
        return (gx,)

    return _make(y, (x,), bw, "log_softmax")


def exp(x) -> Tensor:
    """``e ** x``; the node keeps ``x`` even in ``graph_free``, for ``log`` to return."""
    x = as_tensor(x)
    data = np.exp(x.data)

    def bw(g):
        return (g * data,)

    out = _make(data, (x,), bw, "exp")
    out._parents = (x,)
    return out


def log(x) -> Tensor:
    """Natural log of ``x``; of an ``exp`` node, that node's input itself."""
    x = as_tensor(x)
    if x._op == "exp":
        return x._parents[0]

    def bw(g):
        return (g / x.data,)

    return _make(np.log(x.data), (x,), bw, "log")


def dot(a, b) -> Tensor:
    """Per-slice dot product over the last axis of two equal-shaped tensors,
    ``(a * b).sum(-1)``, without their product as a stored array."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"dot shape mismatch: {a.data.shape} vs {b.data.shape}")
    data = np.einsum("...k,...k->...", a.data, b.data)

    def bw(g):
        g = g[..., None]
        return g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None

    return _make(np.asarray(data), (a, b), bw, "dot")


def attention(q, k, v, additive_mask, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node: queries (B, T, d)
    attend to keys and values (B or 1, S, d) through an additive mask that
    broadcasts to (B, T, S), or none; head h reads features [h*d/H, (h+1)*d/H)
    and the heads are joined back to (B, T, d). Outputs and gradients are
    bitwise those of the chain of primitives this node replaced."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or k.ndim != 3 or k.data.shape != v.data.shape:
        raise ShapeError(f"attention needs (B, T, d) queries and equal (B, S, d) keys and values, "
                         f"got {q.data.shape}, {k.data.shape} and {v.data.shape}")
    (b, t, d), (b_kv, s, d_kv) = q.data.shape, k.data.shape
    if d_kv != d or b_kv not in (1, b) or s == 0 or num_heads < 1 or d % num_heads:
        raise ShapeError(f"attention over {num_heads} heads cannot take queries {q.data.shape} "
                         f"and keys and values {k.data.shape}")
    mask = None if additive_mask is None else np.asarray(additive_mask, dtype=active_dtype())
    fits = mask is None or mask.ndim <= 3 and all(m in (1, n) for m, n in zip(mask.shape[::-1], (s, t, b)))
    if not fits:
        raise ShapeError(f"attention mask {mask.shape} does not broadcast to {(b, t, s)}")
    h, dh = num_heads, d // num_heads

    def heads(x, rows, n):  # (rows, n, d) -> a (rows, H, n, dh) view
        return np.transpose(x.reshape(rows, n, h, dh), (0, 2, 1, 3))

    qh, kh, vh = heads(q.data, b, t), heads(k.data, b_kv, s), heads(v.data, b_kv, s)
    kt = np.transpose(kh, (0, 1, 3, 2))
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=active_dtype())
    scores = (qh @ kt) * scale
    if mask is not None:
        scores = scores + mask[..., None, :, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    data = np.transpose(p @ vh, (0, 2, 1, 3)).reshape(b, t, d)

    def bw(g):
        gctx = np.transpose(g.reshape(b, t, h, dh), (0, 2, 1, 3))
        gp = gctx @ np.swapaxes(vh, -1, -2)
        gvh = _unbroadcast(np.swapaxes(p, -1, -2) @ gctx, vh.shape)
        gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * scale
        gqh = gs @ kh
        gkh = _unbroadcast(np.swapaxes(gs, -1, -2) @ qh, kh.shape)
        gq = np.transpose(gqh, (0, 2, 1, 3)).reshape(b, t, d)
        gk = np.transpose(gkh, (0, 2, 1, 3)).reshape(b_kv, s, d)
        gv = np.transpose(gvh, (0, 2, 1, 3)).reshape(b_kv, s, d)
        return gq, gk, gv

    return _make(data, (q, k, v), bw, "attention")


def layer_norm(x, gain, bias) -> Tensor:
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
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPSILON)
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


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum(axis=axis)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape),)

    return _make(np.asarray(data), (x,), bw, "sum")


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
        return scaled if a.requires_grad else None, -scaled if b.requires_grad else None

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
    "affine",
    "relu",
    "log_softmax",
    "exp",
    "log",
    "dot",
    "attention",
    "layer_norm",
    "embedding",
    "pick",
    "concat",
    "sum",
    "mean_square",
    "dropout",
)
