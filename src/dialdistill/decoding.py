"""Response generation: greedy and beam search over a trained
history-only checkpoint.

Both strategies maximize the cumulative log-probability of the emitted
tokens. Beam search prunes by raw cumulative score; the optional length
penalty (score / length**penalty) is applied only when picking the
final hypothesis. Pad and begin-of-sequence ids are never emitted. With
``beam_width == 1`` and no penalty, beam search reproduces greedy
decoding token for token, tie-breaks included.

Histories are decoded ``CHUNK`` at a time, right-padded with the pad id
and encoded once; a single history is a batch of one. Decoding is
incremental: each step feeds the decoder only every row's newest token,
against a :class:`~dialdistill.model.DecodeState` caching the keys and
values of earlier positions and of the encoded histories. Greedy search
steps one row per history; beam search steps every active hypothesis of
every history still searching, and reorders the cached rows by each kept
hypothesis's parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .corpus import BOS_ID, EOS_ID, PAD_ID, _pad_rows
from .errors import ContractError
from .model import DecodeState, TransformerModel, key_padding_mask

STRATEGIES = ("greedy", "beam")
CHUNK = 32  # histories decoded together: the paper's batch size


@dataclass(frozen=True)
class DecodeConfig:
    strategy: str = "greedy"
    beam_width: int = 1
    max_length: int = 25  # response-length upper bound
    length_penalty: float = 0.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.beam_width < 1:
            raise ContractError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.max_length < 1:
            raise ContractError(f"max_length must be >= 1, got {self.max_length}")
        if not math.isfinite(self.length_penalty):
            raise ContractError(f"length_penalty must be finite, got {self.length_penalty}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class DecodeResult:
    """One generated sequence. ``token_ids`` includes the terminal
    end-of-sequence id when one was emitted; ``score`` is the raw
    cumulative log-probability of every emitted token."""

    token_ids: list
    score: float
    normalized_score: float
    truncated: bool


def _batch(model: TransformerModel, histories) -> np.ndarray:
    """``histories``, each one non-empty token sequence, right-padded with
    the pad id into one (N, T) array, once the model can decode."""
    if model.config.variant != "conventional":
        raise ContractError(
            "generation needs a history-only (conventional) checkpoint; "
            f"got variant {model.config.variant!r}"
        )
    rows = [np.atleast_2d(np.asarray(h)) for h in histories]
    for row in rows:
        if row.size == 0 or row.shape[0] != 1:
            raise ContractError(f"a history must be one non-empty token sequence, got shape {row.shape}")
    return _pad_rows([row[0] for row in rows])


def _normalize(score: float, length: int, penalty: float) -> float:
    if penalty == 0.0 or length == 0:
        return score
    return score / (length ** penalty)


def _step_logprobs(model, last_ids: np.ndarray, memory, memory_mask, state: DecodeState) -> np.ndarray:
    """Next-token log-probabilities for each row's newest token (A, 1),
    with pad and bos excluded from selection."""
    out = model.decode(last_ids, history_memory=memory, history_mask=memory_mask, state=state)
    logp = out.log_probs.data[:, -1, :].copy()
    logp[:, [PAD_ID, BOS_ID]] = -np.inf
    return logp


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` of ``np.argsort(-scores, kind="stable")`` for a 1-D
    ``scores``: best first, ties by lower index, without sorting them all."""
    k = min(k, scores.size)
    candidates = np.flatnonzero(scores >= np.partition(scores, -k)[-k])
    return candidates[np.argsort(-scores[candidates], kind="stable")][:k]


def _result(ids, score: float, penalty: float) -> DecodeResult:
    return DecodeResult(list(ids), score, _normalize(score, len(ids), penalty), not ids or ids[-1] != EOS_ID)


def _greedy(model: TransformerModel, history: np.ndarray, config: DecodeConfig) -> list:
    """Argmax token per step for every row until each has emitted
    end-of-sequence or the length cap is reached. A finished row is still
    stepped with the others, and its later tokens are dropped."""
    memory, mask, state = model.encode(history), key_padding_mask(history), DecodeState()
    live = list(range(len(history)))
    last, tokens, scores = np.full((len(live), 1), BOS_ID), [[] for _ in live], [0.0] * len(live)
    for _ in range(config.max_length):
        logp = _step_logprobs(model, last, memory, mask, state)
        ids = np.argmax(logp, axis=1)
        last, ids = ids[:, None], ids.tolist()
        for r in live:  # plain Python: a numpy call on these few values costs more than its work
            tokens[r].append(ids[r])
            scores[r] += float(logp[r, ids[r]])
        live = [r for r in live if ids[r] != EOS_ID]
        if not live:
            break
    return [_result(ids, score, config.length_penalty) for ids, score in zip(tokens, scores)]


def _beam(model: TransformerModel, history: np.ndarray, config: DecodeConfig) -> list:
    """Beam search over log-probabilities, each history on its own.

    Each step expands every active hypothesis over the vocabulary and
    keeps the ``beam_width`` best extensions of each history overall
    (deterministic tie-break: earlier hypothesis, then lower token id).
    Extensions ending in end-of-sequence move to the history's completed
    pool, which is never pruned. A history's search stops when its best
    completed raw score cannot be beaten by any of its active hypotheses
    (log-probabilities never raise a score) or at ``max_length``; its rows
    then leave the batch.
    """
    memory, mask, state = model.encode(history), key_padding_mask(history), DecodeState()
    active, completed = [[((), 0.0)] for _ in history], [[] for _ in history]  # (token tuple, raw score)s
    searching = list(range(len(history)))  # in row order
    for _ in range(config.max_length):
        last_ids = np.array([[ids[-1] if ids else BOS_ID] for h in searching for ids, _ in active[h]])
        logp = _step_logprobs(model, last_ids, memory, mask, state)  # (rows, V)
        parents, still, first = [], [], 0
        for h in searching:
            hyps = active[h]
            flat = (np.array([s for _, s in hyps])[:, None] + logp[first : first + len(hyps)]).reshape(-1)
            # ties keep (hypothesis index, token id) order, matching greedy's
            # lowest-id argmax at width 1
            kept, rows = [], []
            for f in top_k(flat, config.beam_width):
                a, k = divmod(int(f), logp.shape[1])
                hyp = (hyps[a][0] + (k,), float(flat[f]))
                if not np.isfinite(hyp[1]):
                    continue
                if k == EOS_ID:
                    completed[h].append(hyp)
                else:
                    kept.append(hyp)
                    rows.append(first + a)
            first += len(hyps)
            active[h] = kept
            if kept and not (completed[h] and max(s for _, s in completed[h]) >= max(s for _, s in kept)):
                still.append(h)
                parents += rows
        searching = still
        if not searching:
            break
        state.select_rows(parents)

    def rank(hyp):
        return -_normalize(hyp[1], len(hyp[0]), config.length_penalty), len(hyp[0]), hyp[0]

    return [
        _result(*min(done or left, key=rank), config.length_penalty)
        for done, left in zip(completed, active)
    ]


@T.names_failures
def decode_many(model: TransformerModel, histories: list, config: DecodeConfig = DecodeConfig()) -> list:
    """One :class:`DecodeResult` per history, in order, by ``config.strategy``.
    Histories run ``CHUNK`` at a time: padded, encoded once and decoded
    together."""
    search = _beam if config.strategy == "beam" else _greedy
    results = []
    with model.params.inference():
        for start in range(0, len(histories), CHUNK):
            results += search(model, _batch(model, histories[start : start + CHUNK]), config)
    return results


def greedy_decode(model: TransformerModel, history_ids, config: DecodeConfig = DecodeConfig()) -> DecodeResult:
    """Argmax token per step until end-of-sequence or the length cap."""
    return decode_many(model, [history_ids], replace(config, strategy="greedy"))[0]


def beam_decode(model: TransformerModel, history_ids, config=DecodeConfig(strategy="beam")) -> DecodeResult:
    """Beam search of ``config.beam_width`` over one history (see ``_beam``)."""
    return decode_many(model, [history_ids], replace(config, strategy="beam"))[0]


def decode(model: TransformerModel, history_ids, config: DecodeConfig = DecodeConfig()) -> DecodeResult:
    return decode_many(model, [history_ids], config)[0]
