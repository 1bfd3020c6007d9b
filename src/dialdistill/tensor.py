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

Distributions are carried as log-probabilities from ``head``, the output
head's product and log-softmax as one node, so a probability that
underflows to zero still has a finite log, and no log is clamped; ``log``
of an ``exp`` node gives its input back. With ``cross_entropy``, a step holds
one (rows, V) array each way: the log-probabilities and one gradient.

Primitives do not scan their outputs for NaN/Inf; ``check_finite`` runs
at boundaries instead: on ``Tensor(...)`` leaves (not on the constants
``as_tensor`` wraps) and where callers ask (the model's log-probabilities,
the training loss). A failed check names the first primitive of the graph
with a non-finite output.

Within ``graph_free()``, a switch of the calling thread alone, no output
needs a gradient and no primitive keeps its inputs, so an inference pass
frees each intermediate as soon as its consumers have run. A check that
fails there cannot walk back to the first bad primitive; ``names_failures``
runs its call graph-free and, only once a check fails, runs it again with
the graph recorded. Outside it, a tensor needs a gradient when one of its
inputs does, and a leaf's ``requires_grad`` says whether it is learned.

Within ``helper(executor)``, also a switch of the calling thread, ``fork``
runs two large independent passes at once, one on the executor's thread,
and ``backward`` then runs their two graphs at once too; ``backward`` also
hands large parameter gradients to the executor while it goes on down the
input gradients, unless the executor still holds work from ``submit``. The
arithmetic is that of one thread.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from concurrent import futures
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ShapeError, VocabularyError

_MODES = {"single": np.float32, "double": np.float64}
_state = {"mode": "single"}
# OpenBLAS runs a product of at most this many multiply-adds in a small-matrix
# kernel, which rounds differently from its blocked kernel; `affine` keeps such
# products per sequence, and a decode step's per row, so a desk decode row rounds
# alike stepped alone or beside a few others, as release-gate criterion 12 needs
_SMALL_GEMM = 100**3
# `fork` runs two passes at once only when their largest products exceed this
# many multiply-adds; smaller passes spend their time in Python, under the GIL,
# and a forked desk teacher step is no faster
_FORK_GEMM = 64 * _SMALL_GEMM
# `backward` may compute an `affine` node's weight and bias gradients on the
# helper only when its product exceeds this many multiply-adds, as every
# paper-width one does; a smaller one, such as a desk FFN's, is quicker here
_DEFER_GEMM = 16 * _SMALL_GEMM
_CHUNK = 1 << 16  # entries in a row chunk that `head` walks
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
    """Per thread: whether primitives record a graph for ``backward`` (not
    within ``graph_free``), whether a rerun of ``names_failures`` keeps
    every input regardless, the executor that ``fork`` and ``backward``
    may run a branch on, and a weak reference to the latest future that
    ``submit`` gave it."""

    grad = True
    naming = False
    helper = None
    submitted = None


_recording = _Recording()


class _UnrecordedNumericError(NumericError):
    """A failed check whose first non-finite primitive was not recorded."""


@contextmanager
def graph_free():
    """Within this thread, no output needs a gradient and primitives record
    no inputs, so nothing they computed outlives its last consumer."""
    previous = _recording.grad
    _recording.grad = False
    try:
        yield
    finally:
        _recording.grad = previous


@contextmanager
def helper(executor):
    """Within this thread, ``fork`` and ``backward`` may run a branch on
    ``executor``, a pool of one thread that the caller owns and shuts down.
    The helper's own thread has none, so it never waits on itself."""
    previous = _recording.helper
    _recording.helper = executor
    try:
        yield
    finally:
        _recording.helper = previous


def submit(fn, *args):
    """``fn(*args)`` on this thread's helper, as a future. Until it ends,
    ``backward`` hands the helper no gradient, which would wait behind it
    and keep its node's gradient alive."""
    future = _recording.helper.submit(fn, *args)
    _recording.submitted = weakref.ref(future)  # its result lives only as long as its caller keeps it
    return future


def fork(first, second, multiply_adds: int):
    """``both(first, second)`` when a graph is recorded and the calls'
    largest products exceed ``_FORK_GEMM`` multiply-adds (``multiply_adds``,
    counted by the caller); else the two in turn, here. Both outputs of a
    fork are marked, so ``backward`` runs their graphs at once as well.

    The calls must build their graphs from leaves and constants alone and
    draw from no shared random stream. Gradients then equal those of the
    calls in turn if every leaf that both read takes one gradient from each,
    into a ``grad`` that is zero or absent: two adds commute."""
    if _recording.helper is None or not _recording.grad or multiply_adds <= _FORK_GEMM:
        return first(), second()
    a, b = both(first, second)
    a._branch = b._branch = True
    return a, b


def both(first, second):
    """``(first(), second())``, with ``second`` run on this thread's helper
    while ``first`` runs here, or here after ``first`` if the helper has not
    started it by then; without a helper, the two in turn."""
    pool = _recording.helper
    if pool is None:
        return first(), second()
    pending = pool.submit(second)
    try:
        a = first()
    finally:
        if not pending.cancel():
            futures.wait((pending,))
    return a, second() if pending.cancelled() else pending.result()


def names_failures(fn):
    """Decorate an inference call: run it ``graph_free``, and when a check in
    it fails where no graph was recorded, run it again keeping every input,
    so the ``NumericError`` names the first primitive with a non-finite
    output. The call must be safe to repeat up to the failure."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        with graph_free():
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
    backward pass or an optimizer sets it, and then matches ``data``'s shape;
    on an interior node the pass sets it back to ``None`` once propagated.
    ``_branch`` marks an output of ``fork``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_branch")

    def __init__(self, data, requires_grad: bool = False, *, check: bool = True):
        self.data = np.asarray(data, dtype=active_dtype())
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._branch = False
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
    out.requires_grad = _recording.grad and any(p.requires_grad for p in parents)
    out._parents = tuple(parents) if _recording.grad or _recording.naming else ()
    out._backward = backward_fn if out.requires_grad else None
    out._op = op
    out._branch = False
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
    tensor is consumed more than once, in place into a leaf's ``grad`` (for
    a parameter, its slice of ``Adam.grad``). An interior node's ``grad`` is
    released once it has been handed to the node's inputs, so the pass
    holds only the gradients still to be propagated, and afterwards every
    interior ``grad`` is None. A second pass over the same graph therefore
    adds one more pass's gradients to the leaves, as a pass over a new
    graph would.

    With a helper on this thread, the weight and bias gradients of an
    ``affine`` product over ``_DEFER_GEMM`` multiply-adds are computed and
    added on the helper while this thread goes on (``_LeafAdds``), once the
    helper has ended its work from ``submit``; all such adds end before
    the pass goes on to a ``fork``'s graphs, and before it returns. When the
    graph holds a ``fork``'s outputs, everything downstream of them runs
    first; then their two graphs run through ``both``, each node in the order
    a pass on one thread gives it, and the adds into shared leaves take
    turns. A helper's error is raised here, after both have stopped.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    loss.grad = np.ones_like(loss.data)
    order = _topological_order(loss, grad_only=True)[::-1]
    pool = _recording.helper
    branches = _branches(order) if pool is not None else []
    inside = {id(n) for branch in branches for n in branch}
    lock = threading.Lock()
    adds = _LeafAdds(lock, pool)
    try:
        _propagate([n for n in order if id(n) not in inside], adds)
    finally:
        adds.join()
    if branches:
        first, second = branches
        both(lambda: _propagate(first, _LeafAdds(lock)), lambda: _propagate(second, _LeafAdds(lock)))


def _branches(order) -> list:
    """The interior nodes of each of a ``fork``'s two outputs' graphs, in
    ``order``, when the two can run at once: they share no node, and nothing
    outside them reads a node inside but their outputs. Else none."""
    roots = [n for n in order if n._branch]
    if len(roots) != 2:
        return []
    members = [{id(n) for n in _topological_order(root, grad_only=True) if n._parents} for root in roots]
    inside = set().union(*members)
    outputs = {id(root) for root in roots}
    if len(inside) < sum(map(len, members)) or any(
            id(p) in inside and id(p) not in outputs
            for n in order if id(n) not in inside for p in n._parents):
        return []
    return [[n for n in order if id(n) in ids] for ids in members]


class _LeafAdds:
    """The adds of one backward pass into leaves, each under ``lock``, as a
    branch on another thread may share a leaf. Given a ``pool``, a deferred
    gradient (a call that computes it) is computed and added there while
    the pass goes on, unless an earlier one still waits unstarted, or the
    pool has not ended the work ``submit`` gave it: then it is computed
    here, so a busy pool gets no backlog. An add into a leaf whose add on
    the pool has not ended follows it there, so every leaf takes its adds
    in the order of a pass on one thread."""

    def __init__(self, lock, pool=None):
        self.lock, self.pool = lock, pool
        self.tasks = []  # (future, [leaf, gradient]) per add handed to the pool, in order
        self.last = {}  # id(leaf) -> the future of its latest add on the pool

    def __call__(self, leaf, g) -> None:
        last = self.last.get(id(leaf))
        # an array into a leaf with no add on the pool is added at once, unchecked
        if last is not None and not last.done() or callable(g) and self.pool is not None and self._free():
            item = [leaf, g]
            self.tasks.append((self.pool.submit(self._run, item), item))
            self.last[id(leaf)] = self.tasks[-1][0]
        else:
            self.add(leaf, g)

    def _free(self) -> bool:
        """Whether the pool has started this pass's latest add, or ended `submit`'s work."""
        ahead = self.tasks[-1][0] if self.tasks else _recording.submitted and _recording.submitted()
        return ahead is None or ahead.done() or bool(self.tasks) and ahead.running()

    def _run(self, item) -> None:
        leaf, g = item
        item.clear()  # an add that ran keeps no gradient alive
        self.add(leaf, g)

    def add(self, leaf, g) -> None:
        g = g() if callable(g) else g
        with self.lock:
            if leaf.grad is None:
                # a leaf's grad is written in place and outlives the pass,
                # so a shared array is copied
                leaf.grad = g.copy() if g.base is not None else g
            else:
                leaf.grad += g

    def join(self) -> None:
        """Wait for the adds on the pool, those it has not started cancelled;
        then raise a pool's error, or run the cancelled adds here, in order."""
        rest = [item for task, item in reversed(self.tasks) if task.cancel()][::-1]
        started = [task for task, _ in self.tasks if not task.cancelled()]
        futures.wait(started)  # a cancelled task counts as done only once the pool reaches it
        for task in started:
            task.result()
        for leaf, g in rest:
            self.add(leaf, g)


def _propagate(nodes, adds) -> None:
    """Hand each node's gradient to its inputs, node by node, and to a leaf
    through ``adds``, which may compute there a gradient that a primitive
    returned as a call."""
    for node in nodes:
        if node._backward is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if callable(g) and parent._parents:
                g = g()
            if parent._parents:
                parent.grad = g if parent.grad is None else parent.grad + g
            else:
                adds(parent, g.copy() if g is node.grad else g)
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


def affine(x, w, b, relu: bool = False) -> Tensor:
    """x @ w + b over the last axis; b broadcasts over all leading axes. With
    ``relu``, max(0, ·) of that, in place, so no pre-activation is kept."""
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
    if relu:
        np.maximum(data, 0.0, out=data)

    def bw(g):
        if relu:
            g = g * (data > 0.0)  # an output is positive where its input was
        g2 = g.reshape(-1, g.shape[-1])
        gx = None
        if x.requires_grad:
            gx = (g2 @ w.data.T).reshape(shape) if flat else g @ w.data.T
        gw, gb = lambda: x.data.reshape(-1, k).T @ g2, lambda: _unbroadcast(g2.sum(axis=0), b.data.shape)
        # a large product's as calls, which `backward` may run on the helper
        return (gx, gw, gb) if x.data.size * g2.shape[1] > _DEFER_GEMM else (gx, gw(), gb())

    return _make(data, (x, w, b), bw, "affine")


def head(x, w, b) -> Tensor:
    """The output head as one node: ``z - max - log(sum(exp(z - max)))`` over
    the last axis of the logits ``z = affine(x, w, b)``, written over them in
    row chunks, finite wherever ``z`` is; no logits are kept. Backward
    recomputes each chunk's softmax and writes the logits' gradient over the
    one it is given, unless that is a view, which another node may share."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    logits = affine(x, w, b)
    data, product_bw = logits.data, logits._backward
    if data.shape[-1] == 0:
        raise ShapeError(f"head needs a non-empty output axis, got shape {data.shape}")
    for y in _row_chunks(data):
        y -= y.max(axis=-1, keepdims=True)
        y -= np.log(np.exp(y).sum(axis=-1, keepdims=True))

    def bw(g):
        if g.base is not None or not (g.flags.writeable and g.flags.c_contiguous):
            g = g.copy()
        for y, gy in zip(_row_chunks(data), _row_chunks(g)):
            e = np.exp(y)  # g - softmax * sum(g), the softmax recomputed rather than kept
            e *= -gy.sum(axis=-1, keepdims=True)
            gy += e
        return product_bw(g.astype(data.dtype, copy=False))  # in the logits' dtype

    return _make(data, (x, w, b), bw, "head")


def _row_chunks(a: np.ndarray) -> list:
    """Views of a C-contiguous array's rows, in chunks of about ``_CHUNK`` entries."""
    rows, step = a.reshape(-1, a.shape[-1]), max(1, _CHUNK // a.shape[-1])
    return [rows[i:i + step] for i in range(0, len(rows), step)]


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


def cross_entropy(log_probs, ids, mask, soft=None) -> Tensor:
    """A loss's two sums over (..., V) log-probabilities as one (2,) node, 0
    for ids or a constant soft target of None: ``-sum(mask * log_probs[ids])``
    and ``-sum(mask * (soft * log_probs).sum(-1))``, each rounding as ``pick``
    or a per-slice dot, then ``mul``, ``sum`` and ``mul``. The node keeps
    ``soft``; backward makes one (..., V) gradient and adds the NLL's into it."""
    x = as_tensor(log_probs)
    weights, neg = (np.asarray(a, dtype=active_dtype()) for a in (mask, -1.0))  # as `as_tensor` reads them
    if weights.shape != x.data.shape[:-1]:
        raise ShapeError(f"mask shape {weights.shape} does not match distributions {x.data.shape[:-1]}")
    sums = [np.zeros((), np.result_type(x.data, weights))] * 2
    if ids is not None:
        index = _index(x, ids)
        sums[0] = (np.take_along_axis(x.data, index, axis=-1)[..., 0] * weights).sum() * neg
    if soft is not None:
        soft = np.asarray(soft, dtype=active_dtype())
        if soft.shape != x.data.shape:
            raise ShapeError(f"soft target shape {soft.shape} does not match {x.data.shape}")
        sums[1] = (np.einsum("...k,...k->...", x.data, soft) * weights).sum() * neg

    def bw(g):
        g_nll, g_soft = (g[i] * neg * weights for i in (0, 1))  # as `mul`, `sum` and `mul` hand it on
        gx = np.zeros_like(x.data) if soft is None else soft * g_soft[..., None]
        if ids is not None:
            np.put_along_axis(gx, index, np.take_along_axis(gx, index, axis=-1) + g_nll[..., None], axis=-1)
        return (gx,)

    return _make(np.array(sums, dtype=np.result_type(*sums)), (x,), bw, "cross_entropy")


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
    p = (qh @ kt).astype(np.result_type(q.data, k.data, scale), copy=False)
    p *= scale
    if mask is not None:
        p += mask[..., None, :, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    data = np.transpose(p @ vh, (0, 2, 1, 3)).reshape(b, t, d)

    def bw(g):
        gctx = np.transpose(g.reshape(b, t, h, dh), (0, 2, 1, 3))
        # the gradient of p, then of the scores, in place
        gs = (gctx @ np.swapaxes(vh, -1, -2)).astype(np.result_type(g, v.data, p), copy=False)
        gvh = _unbroadcast(np.swapaxes(p, -1, -2) @ gctx, vh.shape)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gqh = gs @ kh
        gkh = _unbroadcast(np.swapaxes(gs, -1, -2) @ qh, kh.shape)
        gq = np.transpose(gqh, (0, 2, 1, 3)).reshape(b, t, d)
        gk = np.transpose(gkh, (0, 2, 1, 3)).reshape(b_kv, s, d)
        gv = np.transpose(gvh, (0, 2, 1, 3)).reshape(b_kv, s, d)
        return gq, gk, gv

    return _make(data, (q, k, v), bw, "attention")


def layer_norm(x, gain, bias, s, rate: float = 0.0, rng=None) -> Tensor:
    """A residual and its norm as one node: ``x + dropout(s, rate, rng)``
    normalized over the last axis to zero mean / unit variance, then scaled
    and shifted. The node keeps the keep mask, the normalized values and
    1/σ, but neither the dropout output nor the sum."""
    x, gain, bias, s = as_tensor(x), as_tensor(gain), as_tensor(bias), as_tensor(s)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/bias must have shape ({d},), got {gain.data.shape} and {bias.data.shape}"
        )
    if s.data.shape != x.data.shape:
        raise ShapeError(f"layer_norm residual branch {s.data.shape} does not match {x.data.shape}")
    keep = _keep_mask(s.data.shape, rate, rng) if rate > 0.0 else None
    xhat = x.data + (s.data if keep is None else _dropped(s.data, keep, rate))
    xhat -= xhat.mean(axis=-1, keepdims=True)  # centered in place
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPSILON)
    xhat *= inv_std  # the centered values, normalized in place
    data = gain.data * xhat
    data += bias.data

    def bw(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = (dxhat - m1 - xhat * m2) * inv_std
        ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        gbias = g.reshape(-1, d).sum(axis=0)
        # x and s take distinct arrays, as a leaf keeps its first add's array and
        # adds into it; two views of one, which `head` does not write over
        return (gx.view(), ggain, gbias, gx.view()) if keep is None else (gx, ggain, gbias, _dropped(gx, keep, rate))

    return _make(data, (x, gain, bias, s), bw, "layer_norm")


def embedding(table, ids, positions, rate: float = 0.0, rng=None) -> Tensor:
    """The input end of a pass as one node: rows of ``table`` (V, d) gathered
    by an integer id array (..., T), plus the constant ``positions`` (T, d),
    then dropout at ``rate`` drawn from ``rng``. The node keeps the ids and
    the keep mask, but neither the gathered rows nor their sum."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    n, d = table.data.shape
    if not np.issubdtype(ids.dtype, np.integer):
        raise VocabularyError(f"token ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise VocabularyError(f"token id out of range [0, {n}): min={ids.min()}, max={ids.max()}")
    if positions.shape != ids.shape[-1:] + (d,):
        raise ShapeError(f"embedding positions {positions.shape} do not match ids {ids.shape} at width {d}")
    data = table.data[ids]
    data += positions
    keep = _keep_mask(data.shape, rate, rng) if rate > 0.0 else None
    if keep is not None:
        data = _dropped(data, keep, rate)

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), (g if keep is None else _dropped(g, keep, rate)).reshape(-1, d))
        return (gt,)

    return _make(data, (table,), bw, "embedding")


def pick(x, ids) -> Tensor:
    """One entry per slice of the last axis: ``out[i] = x[i, ids[i]]`` over
    all leading indices ``i``. ``ids`` must have ``x``'s shape minus its
    last axis."""
    x = as_tensor(x)
    index = _index(x, ids)
    data = np.take_along_axis(x.data, index, axis=-1)[..., 0]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, index, g[..., None], axis=-1)
        return (gx,)

    return _make(data, (x,), bw, "pick")


def _index(x: Tensor, ids) -> np.ndarray:
    """``ids[..., None]`` for ``take_along_axis`` over ``x``'s last axis, once
    checked: integers in range (it would wrap a negative id), shaped as x less that axis."""
    ids, n = np.asarray(ids), x.data.shape[-1]
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"ids must be integers, got dtype {ids.dtype}")
    if ids.shape != x.data.shape[:-1]:
        raise ShapeError(f"ids shape {ids.shape} does not match {x.data.shape[:-1]}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ContractError(f"id outside [0, {n}): min={ids.min()}, max={ids.max()}")
    return ids[..., None]


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(tensors), bw, "concat")


def tsum(x) -> Tensor:
    x = as_tensor(x)
    data = x.data.sum()

    def bw(g):
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


def _keep_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Dropout's keep mask, one byte an entry: True with probability 1 - rate."""
    if rate >= 1.0:
        raise ContractError(f"dropout rate must be < 1, got {rate}")
    return rng.random(shape) >= rate


def _dropped(a: np.ndarray, keep: np.ndarray, rate: float) -> np.ndarray:
    """``a`` masked by ``keep`` and scaled by 1/(1-rate), as a new array; for
    a keep of 0 or 1, ``a·keep·s`` rounds exactly as ``a·(keep·s)``."""
    out = a * keep
    out *= 1.0 / (1.0 - rate)
    return out


PRIMITIVES = (
    "add",
    "mul",
    "affine",
    "head",
    "exp",
    "log",
    "cross_entropy",
    "attention",
    "layer_norm",
    "embedding",
    "pick",
    "concat",
    "sum",
    "mean_square",
)
