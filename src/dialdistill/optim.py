"""Adam with global gradient-norm clipping, in place over a ParameterSet's
flat ``values``.

Adam owns the one flat gradient buffer: each tensor's ``grad`` is its slice,
which ``backward`` adds into. A step reads the targets' slices where they lie,
in chunks of ``CHUNK`` elements, and, if their L2 norm exceeds ``clip_norm``,
scales them by ``clip_norm / norm``. The update then writes the flat moments
and ``values`` in place, with bias correction and the fixed constants
``BETA1``, ``BETA2`` and ``EPSILON``, and zeroes the gradient chunk by chunk.
A step over more than ``SPLIT_SIZE`` elements shares the norm and the update
with the thread's ``tensor.helper``, one half of the chunks each; each chunk's
arithmetic is that of one thread, and the norm adds the chunks' sums in chunk
order, as one thread does.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# elements per pass of the update: its dozen passes then stay in cache
CHUNK = 1 << 16
# a step over more targets' elements than this runs half of its work on the helper
SPLIT_SIZE = 16 * CHUNK


def _halves(slices) -> tuple:
    """``slices`` cut where the two parts' elements come closest to equal, when
    they total more than ``SPLIT_SIZE``; else all of them and none."""
    ends = np.cumsum([s.stop - s.start for s in slices])
    if not slices or ends[-1] <= SPLIT_SIZE:
        return slices, []
    cut = int(np.argmin(np.abs(ends - ends[-1] / 2))) + 1
    return slices[:cut], slices[cut:]


class Adam:
    """Owns flat moments ``m``, ``v`` and gradient ``grad``, laid out like
    ``values``; the moments of tensors that are not update targets stay zero.
    A gradient a tensor already holds is copied into its slice."""

    def __init__(self, params, learning_rate: float = 0.001, clip_norm: float = 2.0):
        self.params = params
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m, self.v, self.grad = (np.zeros_like(params.values) for _ in range(3))
        for name, t in params.items():
            view = self.grad[params.span(name)].reshape(t.data.shape)
            if t.grad is not None:
                view[...] = t.grad
            t.grad = view
        self.targets = [(n, t, t.grad, params.span(n)) for n, t in params.update_targets()]
        runs = []  # [start, stop) of adjacent targets
        for *_, span in self.targets:
            if runs and runs[-1][1] == span.start:
                runs[-1][1] = span.stop
            else:
                runs.append([span.start, span.stop])
        self._chunks = _halves([slice(lo, min(lo + CHUNK, b)) for a, b in runs for lo in range(a, b, CHUNK)])
        # float64 room per thread for a chunk squared, or the update's two chunks
        self._scratch = [np.empty(2 * CHUNK, dtype=np.float64) for _ in range(1 + bool(self._chunks[1]))]

    def step(self) -> float:
        """Apply one update and zero the targets' ``grad``; returns the pre-clip
        global gradient norm. A non-finite gradient, or a target whose ``grad``
        is no longer its slice of ``grad``, aborts the step before any parameter
        or moment changes."""
        for name, t, view, _ in self.targets:
            if t.grad is not view:
                raise ContractError(f"the gradient of {name!r} is no longer its slice of Adam.grad; step aborted")
        total = 0.0
        for sums in self._on_both(self._square_sums):
            for square_sum in sums:
                total += square_sum  # in chunk order
        norm = math.sqrt(total)
        if not math.isfinite(norm):
            # a non-finite entry stays so when clipped; finite squares can overflow
            for name, _, _, span in self.targets:
                if not np.isfinite(self.grad[span]).all():
                    raise NumericError(f"non-finite gradient for {name!r}; step aborted")
        scale = self.clip_norm / norm if 0 < self.clip_norm < norm else None
        self.step_count += 1
        self._on_both(lambda chunks, wide: self._update(chunks, wide, scale))
        return norm

    def _on_both(self, work) -> tuple:
        """``work(half, scratch)`` for each half of the chunks that is not
        empty, the second on the helper, each with its own scratch; their results."""
        first, second = self._chunks
        if not second:
            return (work(first, self._scratch[0]),)
        return T.both(lambda: work(first, self._scratch[0]), lambda: work(second, self._scratch[1]))

    def _square_sums(self, chunks, wide) -> list:
        """Each chunk's squared gradient summed in float64, equal to
        ``(grad.astype(np.float64) ** 2).sum()``."""
        return [float(np.square(self.grad[c], out=wide[: c.stop - c.start], dtype=np.float64).sum()) for c in chunks]

    def _update(self, chunks, wide, scale) -> None:
        """Clip by ``scale``, update and zero each chunk in turn."""
        buf = wide.view(self.m.dtype)
        bc1, bc2 = 1.0 - BETA1**self.step_count, 1.0 - BETA2**self.step_count
        for c in chunks:
            m, v, g = self.m[c], self.v[c], self.grad[c]
            s, u = buf[: c.stop - c.start], buf[CHUNK : CHUNK + c.stop - c.start]
            if scale is not None:
                g *= scale
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=s)
            v *= BETA2
            v += np.multiply(np.multiply(g, g, out=s), 1.0 - BETA2, out=s)
            # values -= lr * (m / bc1) / (sqrt(v / bc2) + EPSILON), in that order
            np.sqrt(np.divide(v, bc2, out=s), out=s)
            s += EPSILON
            np.multiply(np.divide(m, bc1, out=u), self.learning_rate, out=u)
            self.params.values[c] -= np.divide(u, s, out=u)
            g.fill(0)
