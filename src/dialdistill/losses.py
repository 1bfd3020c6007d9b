"""Training objectives.

Three ingredients combine into the student's total loss:

* masked negative log-likelihood of the gold response;
* prediction imitation — soft cross-entropy between the teacher's output
  distributions (held constant) and the student's;
* representation imitation — per-(timestep, layer) mean-squared error
  between decoder hidden states, gated to exactly zero whenever the MSE
  falls below the threshold ``alpha``.

total = nll + lambda1 * (prediction + representation) [+ lambda_lm * lm_term]

All components are optimized as per-token means over the batch. With
``lambda1 == 0`` and no language-model teacher the total is the plain
NLL through the identical code path.

The NLL and the teacher's and language model's soft targets, mixed into
one, are one ``T.cross_entropy`` node over the head's log-probabilities;
each soft term's own value is logged off the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .model import DecodeOutput


def _term(sums: T.Tensor, i: int) -> T.Tensor:
    """Sum ``i`` of a ``T.cross_entropy`` node: 0 the NLL, 1 the soft target's."""
    return T.pick(sums, np.asarray(i))


def nll_sum(log_probs: T.Tensor, targets: np.ndarray, mask: np.ndarray) -> T.Tensor:
    """Sum over unmasked positions of -log p(gold token).

    ``log_probs`` is (B, T, |V|) on the autodiff graph; ``targets``
    and ``mask`` are plain integer/float arrays of shape (B, T). A target
    id outside ``[0, |V|)`` raises :class:`ContractError`.
    """
    return _term(T.cross_entropy(log_probs, targets, mask), 0)


def prediction_imitation_sum(
    teacher_probs: np.ndarray, student_probs: T.Tensor, mask: np.ndarray
) -> T.Tensor:
    """-sum_i sum_k q_teacher(k) log p_student(k) over unmasked positions,
    on ``T.log(student_probs)``: one ``cross_entropy`` node.

    The teacher distributions are constants: no gradient flows into them.
    """
    return _term(T.cross_entropy(T.log(student_probs), None, mask, teacher_probs), 1)


def _mixed(parts: list) -> np.ndarray:
    """``w1 * q1 + w2 * q2 + ...`` over (weight, soft target) ``parts`` as
    one new array, each later part weighted and added a row chunk at a time."""
    mixed = np.multiply(parts[0][1], parts[0][0])
    for weight, q in parts[1:]:
        for rows, q_rows in zip(T._row_chunks(mixed), T._row_chunks(np.asarray(q))):
            rows += q_rows * weight
    return mixed


def representation_imitation_sum(
    teacher_hiddens: list,
    student_hiddens: list,
    alpha: float,
    mask: np.ndarray,
) -> T.Tensor:
    """Thresholded MSE over decoder hidden states, summed over unmasked
    (timestep, layer) pairs.

    For each pair, phi = mean over features of the squared difference;
    the contribution is phi when phi >= alpha and exactly 0 otherwise
    (a hard gate: below-threshold pairs contribute no gradient either).
    Teacher hidden states are constants.
    """
    if alpha < 0:
        raise ContractError(f"alpha must be >= 0, got {alpha}")
    if len(teacher_hiddens) != len(student_hiddens):
        raise ContractError(
            f"layer count mismatch: teacher {len(teacher_hiddens)} vs "
            f"student {len(student_hiddens)}; configs must match"
        )
    total = None
    for ht, hs in zip(teacher_hiddens, student_hiddens):
        ht = np.asarray(ht)
        if ht.shape != hs.data.shape:
            raise ShapeError(f"hidden-state shape mismatch: {ht.shape} vs {hs.data.shape}")
        phi = T.mean_square(hs, ht)  # (B, T)
        gate = ((phi.data >= alpha) & (mask > 0)).astype(phi.data.dtype)
        layer_sum = T.tsum(T.mul(phi, gate))
        total = layer_sum if total is None else T.add(total, layer_sum)
    if total is None:
        raise ContractError("no hidden-state layers given")
    return total


@dataclass
class LossBreakdown:
    """Per-token mean values of every loss component for one batch."""

    nll: float
    il_prediction: float
    il_representation: float
    total: float
    token_count: float
    lm_prediction: float = None

    def as_log_record(self, step: int) -> dict:
        rec = {
            "step": step,
            "nll": self.nll,
            "il_prediction": self.il_prediction,
            "il_representation": self.il_representation,
            "total": self.total,
        }
        if self.lm_prediction is not None:
            rec["lm_prediction"] = self.lm_prediction
        return rec


def total_loss(
    student_probs,
    student_hiddens: list,
    targets: np.ndarray,
    mask: np.ndarray,
    teacher_probs: np.ndarray = None,
    teacher_hiddens: list = None,
    lambda1: float = 0.0,
    alpha: float = 0.01,
    lm_probs: np.ndarray = None,
    lambda_lm: float = 0.5,
):
    """Assemble the combined objective; returns (scalar graph node, LossBreakdown).

    ``student_probs`` is the student's ``DecodeOutput``, read with no exp, or
    its ``probabilities``, whose ``T.log`` is the same log-probabilities. The
    weighted teacher and language-model soft targets are one mixed target
    (Hinton et al. 2015); each soft term's value is logged off the graph.

    Imitation terms are included only when ``lambda1 > 0`` and teacher
    outputs are present, so a ``lambda1 == 0`` run is computationally
    identical to a plain NLL baseline.
    """
    if lambda1 < 0:
        raise ContractError(f"lambda1 must be >= 0, got {lambda1}")
    count = float(mask.sum())
    if count == 0.0:
        return T.Tensor(0.0), LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
    inv = 1.0 / count

    log_probs = student_probs.log_probs if isinstance(student_probs, DecodeOutput) else T.log(student_probs)
    use_teacher = lambda1 > 0.0 and teacher_probs is not None
    use_lm = lm_probs is not None and lambda_lm > 0.0
    parts = [(lambda1, teacher_probs)] * use_teacher + [(lambda_lm, lm_probs)] * use_lm
    sums = T.cross_entropy(log_probs, targets, mask, _mixed(parts) if parts else None)
    nll_mean = T.mul(_term(sums, 0), inv)
    loss = nll_mean
    fpi_value = 0.0
    iri_value = 0.0
    lm_value = None

    def value(q):  # a soft-target term's mean, off the graph
        return float(T.cross_entropy(log_probs.data, None, mask, q).data[1]) * inv

    if use_teacher:
        iri_mean = T.mul(representation_imitation_sum(teacher_hiddens, student_hiddens, alpha, mask), inv)
        loss = T.add(loss, T.mul(iri_mean, lambda1))
        iri_value = float(iri_mean.data)
        fpi_value = value(teacher_probs)
    if use_lm:
        lm_value = value(lm_probs)
    if parts:
        loss = T.add(loss, T.mul(_term(sums, 1), inv))

    breakdown = LossBreakdown(nll=float(nll_mean.data), il_prediction=fpi_value, il_representation=iri_value,
                              total=float(loss.data), token_count=count, lm_prediction=lm_value)
    return loss, breakdown
