"""Output oracles and digests.

Each check returns a reason string on failure (None when the output is
correct). The decode oracle re-scores outputs with one teacher-forced
``model.forward`` and so does not depend on how ``decode`` produces
them: a cached or batched decoder is checked by the same code.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from dialdistill.corpus import BOS_ID, EOS_ID, PAD_ID
from dialdistill.metrics import SCALAR_METRICS

# float32 forward passes over different prefix lengths round differently;
# a wrong token or score misses by far more than this (log-space, per token)
LOGP_TOL = 1e-3


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def loss_trace(log: list):
    totals = [rec["total"] for rec in log]
    if not all(math.isfinite(t) for t in totals):
        return "non-finite loss"
    k = max(1, len(totals) // 3)
    if len(totals) >= 2 and not np.mean(totals[-k:]) < np.mean(totals[:k]):
        return f"loss did not fall: first {np.mean(totals[:k]):.4f}, last {np.mean(totals[-k:]):.4f}"
    return None


def _logp(model, history, ids) -> np.ndarray:
    """(len(ids), V) teacher-forced log-probs, pad and bos excluded as in decoding."""
    with model.params.inference():
        out = model.forward(np.array([history]), np.array([[BOS_ID] + ids[:-1]]))
    logp = np.log(out.probabilities.data[0].astype(np.float64))
    logp[:, [PAD_ID, BOS_ID]] = -np.inf
    return logp


def rescore(model, history, result, argmax: bool):
    """Reason the DecodeResult is wrong, or None. ``argmax`` also requires
    every token to be its position's argmax (greedy)."""
    ids = list(result.token_ids)
    if not ids:
        return "no token emitted"
    if EOS_ID in ids[:-1]:
        return "tokens after end-of-sequence"
    if result.truncated != (ids[-1] != EOS_ID):
        return "truncated flag disagrees with the tokens"
    logp = _logp(model, history, ids)
    picked = logp[np.arange(len(ids)), ids]
    if abs(float(picked.sum()) - result.score) > LOGP_TOL * len(ids):
        return f"score {result.score:.6f} != summed log-probs {float(picked.sum()):.6f}"
    gap = logp.max(axis=1) - picked
    if argmax and np.any(gap > LOGP_TOL):
        return f"token at position {int(np.argmax(gap))} is not the argmax"
    return None


def decode_outputs(model, histories, greedy, beam, beam_index) -> list:
    """Greedy tokens are their position's argmax and scores equal the
    summed log-probs; beam ``j`` ran on ``histories[beam_index[j]]`` with
    greedy's cap there and never scores below it (criterion 12).
    Returns (layer, reason) per failure."""
    failures = []
    for i, res in enumerate(greedy):
        reason = res and rescore(model, histories[i], res, argmax=True)
        if reason:
            failures.append(("decoding", f"greedy history {i}: {reason}"))
    for i, res in zip(beam_index, beam):
        if res is None:
            continue
        g = greedy[i]
        reason = rescore(model, histories[i], res, argmax=False)
        if reason is None and g is not None and res.score < g.score - LOGP_TOL * len(g.token_ids):
            reason = f"beam score {res.score:.6f} below greedy {g.score:.6f}"
        if reason:
            failures.append(("decoding", f"beam history {i}: {reason}"))
    return failures


def report(path):
    """(scalar metrics, reason or None) of an ``evaluate`` report."""
    data = json.loads(path.read_text(encoding="utf-8"))
    scalars = {k: data.get(k) for k in SCALAR_METRICS}
    bad = [k for k, v in scalars.items() if not isinstance(v, (int, float)) or not math.isfinite(v)]
    return scalars, (f"non-finite report metrics {bad}" if bad else None)


def _lines(path):
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def partition(split_path, parts_dir):
    """(flagged indices, reason or None): the two part files hold every
    record of the split exactly once, each in split order."""
    records = _lines(split_path)
    uninformative = _lines(parts_dir / "uninformative.jsonl")
    informative = _lines(parts_dir / "informative.jsonl")
    flagged, u, i = [], 0, 0
    for index, rec in enumerate(records):
        if u < len(uninformative) and uninformative[u] == rec:
            flagged.append(index)
            u += 1
        elif i < len(informative) and informative[i] == rec:
            i += 1
        else:
            return flagged, f"split record {index} is in neither part"
    if u != len(uninformative) or i != len(informative):
        return flagged, "parts hold records beyond the split"
    return flagged, None
