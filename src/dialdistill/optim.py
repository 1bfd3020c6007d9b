"""Adam with global gradient-norm clipping, in place over a ParameterSet's
flat ``values``.

Adam owns the one flat gradient buffer: each tensor's ``grad`` is its slice,
which ``backward`` adds into. A step reads the targets' slices where they lie
and, if their L2 norm exceeds ``clip_norm``, scales them by ``clip_norm / norm``.
The update then writes the flat moments and ``values`` in place, with bias
correction and the fixed constants ``BETA1``, ``BETA2`` and ``EPSILON``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# elements per pass of the update: its dozen passes then stay in cache
CHUNK = 1 << 16


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
        self._runs = []  # [start, stop) of adjacent targets
        for *_, span in self.targets:
            if self._runs and self._runs[-1][1] == span.start:
                self._runs[-1][1] = span.stop
            else:
                self._runs.append([span.start, span.stop])
        # float64: one target's squared gradient, or the update's two chunks
        largest = max((span.stop - span.start for *_, span in self.targets), default=0)
        self._scratch = np.empty(max(largest, 2 * CHUNK), dtype=np.float64)

    def step(self) -> float:
        """Apply one update and zero ``grad``; returns the pre-clip global
        gradient norm. A non-finite gradient, or a target whose ``grad`` is no
        longer its slice of ``grad``, aborts the step before any parameter or
        moment changes."""
        total = 0.0
        for name, t, view, span in self.targets:
            if t.grad is not view:
                raise ContractError(f"the gradient of {name!r} is no longer its slice of Adam.grad; step aborted")
            # a float64 sum per target, equal to (grad.astype(np.float64) ** 2).sum()
            wide = self._scratch[: span.stop - span.start]
            total += float(np.square(self.grad[span], out=wide, dtype=np.float64).sum())
        norm = math.sqrt(total)
        if not math.isfinite(norm):
            # a non-finite entry stays so when clipped; finite squares can overflow
            for name, _, _, span in self.targets:
                if not np.isfinite(self.grad[span]).all():
                    raise NumericError(f"non-finite gradient for {name!r}; step aborted")
        if 0 < self.clip_norm < norm:
            self.grad *= self.clip_norm / norm

        self.step_count += 1
        bc1, bc2 = 1.0 - BETA1**self.step_count, 1.0 - BETA2**self.step_count
        chunks = self._scratch.view(self.m.dtype)
        for a, b in self._runs:
            for lo in range(a, b, CHUNK):
                hi = min(lo + CHUNK, b)
                m, v, g = self.m[lo:hi], self.v[lo:hi], self.grad[lo:hi]
                s, u = chunks[: hi - lo], chunks[CHUNK : CHUNK + hi - lo]
                m *= BETA1
                m += np.multiply(g, 1.0 - BETA1, out=s)
                v *= BETA2
                v += np.multiply(np.multiply(g, g, out=s), 1.0 - BETA2, out=s)
                # values -= lr * (m / bc1) / (sqrt(v / bc2) + EPSILON), in that order
                np.sqrt(np.divide(v, bc2, out=s), out=s)
                s += EPSILON
                np.multiply(np.divide(m, bc1, out=u), self.learning_rate, out=u)
                self.params.values[lo:hi] -= np.divide(u, s, out=u)
        self.grad.fill(0)
        return norm
