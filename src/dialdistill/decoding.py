"""Response generation: greedy and beam search over a trained
history-only checkpoint.

Both strategies maximize the cumulative log-probability of the emitted
tokens. Beam search prunes by raw cumulative score; the optional length
penalty (score / length**penalty) is applied only when picking the
final hypothesis. Pad and begin-of-sequence ids are never emitted. With
``beam_width == 1`` and no penalty, beam search reproduces greedy
decoding token for token, tie-breaks included.

Decoding is incremental: each step feeds the decoder only every row's
newest token, against a :class:`~dialdistill.model.DecodeState` caching
the keys and values of earlier positions and of the encoded history.
Beam search reorders the cached rows by each kept hypothesis's parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BOS_ID, EOS_ID, PAD_ID
from .errors import ContractError
from .model import DecodeState, TransformerModel, key_padding_mask

_LOG_FLOOR = 1e-12

STRATEGIES = ("greedy", "beam")


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

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "DecodeConfig":
        return cls(**d)


@dataclass
class DecodeResult:
    """One generated sequence. ``token_ids`` includes the terminal
    end-of-sequence id when one was emitted; ``score`` is the raw
    cumulative log-probability of every emitted token."""

    token_ids: list
    score: float
    normalized_score: float
    truncated: bool


def _history(model: TransformerModel, history_ids) -> np.ndarray:
    """``history_ids`` as a (1, T) array, once both it and the model can decode."""
    if model.config.variant != "conventional":
        raise ContractError(
            "generation needs a history-only (conventional) checkpoint; "
            f"got variant {model.config.variant!r}"
        )
    history = np.atleast_2d(np.asarray(history_ids))
    if history.size == 0:
        raise ContractError("cannot decode from an empty history")
    return history


def _normalize(score: float, length: int, penalty: float) -> float:
    if penalty == 0.0 or length == 0:
        return score
    return score / (length ** penalty)


def _step_logprobs(model, last_ids: np.ndarray, memory, memory_mask, state: DecodeState) -> np.ndarray:
    """Next-token log-probabilities for each row's newest token (A, 1),
    with pad and bos excluded from selection."""
    out = model.decode(last_ids, history_memory=memory, history_mask=memory_mask, state=state)
    logp = np.log(np.maximum(out.probabilities.data[:, -1, :], _LOG_FLOOR))
    logp[:, PAD_ID] = -np.inf
    logp[:, BOS_ID] = -np.inf
    return logp


def greedy_decode(
    model: TransformerModel, history_ids, config: DecodeConfig = DecodeConfig(), pad_id: int = PAD_ID
) -> DecodeResult:
    """Argmax token per step until end-of-sequence or the length cap."""
    history = _history(model, history_ids)
    with model.params.inference():
        memory = model.encode(history, pad_id)
        mask = key_padding_mask(history, pad_id)
        state = DecodeState()
        k = BOS_ID
        tokens = []
        score = 0.0
        while len(tokens) < config.max_length:
            logp = _step_logprobs(model, np.array([[k]]), memory, mask, state)[0]
            k = int(np.argmax(logp))
            tokens.append(k)
            score += float(logp[k])
            if k == EOS_ID:
                break
    truncated = not tokens or tokens[-1] != EOS_ID
    return DecodeResult(
        token_ids=tokens,
        score=score,
        normalized_score=_normalize(score, len(tokens), config.length_penalty),
        truncated=truncated,
    )


def beam_decode(
    model: TransformerModel, history_ids, config: DecodeConfig = DecodeConfig(strategy="beam"), pad_id: int = PAD_ID
) -> DecodeResult:
    """Beam search over log-probabilities.

    Each step expands every active hypothesis over the vocabulary and
    keeps the ``beam_width`` best extensions overall (deterministic
    tie-break: earlier hypothesis, then lower token id). Extensions
    ending in end-of-sequence move to a completed pool that is never
    pruned. The search stops when the best completed raw score cannot be
    beaten by any active hypothesis (log-probabilities never raise a
    score) or at ``max_length``.
    """
    history = _history(model, history_ids)
    with model.params.inference():
        memory = model.encode(history, pad_id)
        mask = key_padding_mask(history, pad_id)
        state = DecodeState()
        active = [((), 0.0)]  # (token tuple, raw score)
        completed = []
        for _ in range(config.max_length):
            last_ids = np.array([[ids[-1] if ids else BOS_ID] for ids, _ in active], dtype=np.int64)
            logp = _step_logprobs(model, last_ids, memory, mask, state)  # (A, V)
            scores = np.array([s for _, s in active])[:, None] + logp
            flat = scores.reshape(-1)
            # stable sort on -score keeps (hypothesis index, token id) order
            # for ties, matching greedy's lowest-id argmax at width 1
            order = np.argsort(-flat, kind="stable")[: config.beam_width]
            next_active = []
            parents = []
            vocab = logp.shape[1]
            for f in order:
                a, k = divmod(int(f), vocab)
                hyp = (active[a][0] + (k,), float(flat[f]))
                if not np.isfinite(hyp[1]):
                    continue
                if k == EOS_ID:
                    completed.append(hyp)
                else:
                    next_active.append(hyp)
                    parents.append(a)
            active = next_active
            state.select_rows(parents)
            if not active:
                break
            if completed:
                best_done = max(s for _, s in completed)
                best_active = max(s for _, s in active)
                if best_done >= best_active:
                    break

    pool = completed if completed else active
    truncated = not completed
    ranked = sorted(
        pool,
        key=lambda h: (-_normalize(h[1], len(h[0]), config.length_penalty), len(h[0]), h[0]),
    )
    ids, raw = ranked[0]
    return DecodeResult(
        token_ids=list(ids),
        score=raw,
        normalized_score=_normalize(raw, len(ids), config.length_penalty),
        truncated=truncated,
    )


def decode(
    model: TransformerModel, history_ids, config: DecodeConfig = DecodeConfig(), pad_id: int = PAD_ID
) -> DecodeResult:
    if config.strategy == "beam":
        return beam_decode(model, history_ids, config, pad_id)
    return greedy_decode(model, history_ids, config, pad_id)
