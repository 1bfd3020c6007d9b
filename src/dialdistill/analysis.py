"""Post-training analyses: parameter-noise robustness curves and the
teacher/student agreement measure used to judge distillation quality.
"""

from __future__ import annotations

import json

import numpy as np

from . import tensor as T
from .corpus import atomic_write, batchify
from .errors import ContractError
from .metrics import corpus_ppl
from .training import forward_batch

BATCH_SIZE = 32  # examples scored per forward pass


def perturbation_analysis(
    model,
    examples,
    sigmas,
    samples_per_sigma: int = 5,
    seed: int = 0,
) -> list:
    """Perplexity under element-wise Gaussian parameter noise.

    For each sigma, draws ``samples_per_sigma`` independent
    perturbations of every trainable tensor, scores the corpus, and
    restores the original parameters bitwise. Sigma 0 is evaluated once
    without touching the parameters, so it reproduces the base
    perplexity exactly. Returns one record per sigma:
    {"sigma", "mean_ppl", "std_ppl"}.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas:
        raise ContractError("need at least one sigma")
    if not np.isfinite(sigmas).all():
        raise ContractError(f"sigmas must be finite, got {sigmas}")
    if sigmas[0] != 0.0:
        raise ContractError(f"sigma grid must start at 0, got {sigmas[0]}")
    if any(b < a for a, b in zip(sigmas, sigmas[1:])):
        raise ContractError(f"sigmas must be sorted ascending, got {sigmas}")
    if samples_per_sigma < 1:
        raise ContractError(f"samples_per_sigma must be >= 1, got {samples_per_sigma}")

    params = model.params
    trainable = [t for name, t in params.items() if params.is_trainable(name)]
    originals = params.values.copy()
    records = []
    try:
        for i, sigma in enumerate(sigmas):
            if sigma == 0.0:
                base = corpus_ppl(model, examples, BATCH_SIZE).value
                records.append({"sigma": 0.0, "mean_ppl": base, "std_ppl": 0.0})
                continue
            ppls = []
            for sample in range(samples_per_sigma):
                rng = np.random.default_rng([seed, 13, i, sample])
                for tensor in trainable:
                    tensor.data[...] += rng.normal(0.0, sigma, size=tensor.data.shape)
                ppls.append(corpus_ppl(model, examples, BATCH_SIZE).value)
                params.values[...] = originals
            records.append(
                {
                    "sigma": sigma,
                    "mean_ppl": float(np.mean(ppls)),
                    "std_ppl": float(np.std(ppls)),
                }
            )
    finally:
        params.values[...] = originals
    return records


def write_perturbation_series(records: list, path) -> None:
    """One JSON object per line: sigma, mean_ppl, std_ppl."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


@T.names_failures
def mean_teacher_student_kl(teacher, student, examples) -> float:
    """Mean per-position KL (nats) from the student's next-token
    distribution to the teacher's, teacher-forced on gold targets.

    The teacher sees whatever its variant demands (futures included);
    the student scores the same prefixes from history alone. Masked
    padding positions are excluded.
    """
    total = 0.0
    count = 0.0
    for batch in batchify(examples, BATCH_SIZE, seed=None):
        log_q = forward_batch(teacher, batch).log_probs.data
        log_p = forward_batch(student, batch).log_probs.data
        per_position = (np.exp(log_q) * (log_q - log_p)).sum(axis=-1)
        mask = np.asarray(batch.target_mask, dtype=np.float64)
        total += float((per_position * mask).sum())
        count += float(mask.sum())
    if count == 0:
        raise ContractError("no unmasked positions to compare")
    return total / count
