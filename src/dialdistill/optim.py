"""Adam with global gradient-norm clipping.

Clipping happens first, through :func:`clip_gradients`: if the L2 norm
over all update targets exceeds ``clip_norm``, every gradient is scaled
in place by ``clip_norm / norm``. The Adam update then runs with bias
correction and the fixed constants ``BETA1`` = 0.9, ``BETA2`` = 0.999
and ``EPSILON`` = 1e-8; only the learning rate and the clip norm are
set per optimizer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Owns moment state for a fixed list of (name, tensor) targets.

    Tensors whose ``grad`` is None are treated as having exactly zero
    gradient: their moments stay zero and their values do not move.
    """

    def __init__(self, targets, learning_rate: float = 0.001, clip_norm: float = 2.0):
        self.targets = list(targets)
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self.step_count = 0
        self._m = {}
        self._v = {}

    def step(self) -> float:
        """Apply one update; returns the pre-clip global gradient norm. The
        targets' ``grad`` arrays are left clipped. A non-finite gradient
        aborts the step before any parameter or moment changes."""
        norm = clip_gradients([t for _, t in self.targets], self.clip_norm)
        if not math.isfinite(norm):
            # clipping keeps non-finite entries non-finite (inf * 0 is NaN);
            # a finite set of float64 gradients can also overflow the norm
            for name, t in self.targets:
                if t.grad is not None and not np.all(np.isfinite(t.grad)):
                    raise NumericError(f"non-finite gradient for {name!r}; step aborted")

        self.step_count += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1 ** self.step_count
        bc2 = 1.0 - b2 ** self.step_count
        for name, t in self.targets:
            if t.grad is None:
                continue
            g = t.grad
            if name not in self._m:
                self._m[name], self._v[name] = np.zeros_like(t.data), np.zeros_like(t.data)
            # the moments update in place; t.data is rebound instead, since a
            # caller may hold the old array (as perturbation_analysis does)
            m, v = self._m[name], self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            t.data = t.data - self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
        return norm


def clip_gradients(tensors, clip_norm: float) -> float:
    """Global-norm clip (in place); returns the pre-clip norm."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if clip_norm > 0 and norm > clip_norm:
        factor = clip_norm / norm
        for t in tensors:
            if t.grad is not None:
                t.grad = t.grad * factor
    return norm
