"""Corpus preparation: tokenization, windowing, filtering, vocabulary,
and deterministic batching.

Two input formats are supported:

* format A — one dialogue per line, turns separated by the literal
  delimiter ``__eou__``;
* format B — one JSON object per line with a ``"turns"`` field holding
  an array of strings.

A dialogue becomes training material by sliding a window of seven
consecutive turns over it (stride 1 by default): the first
``HISTORY_TURNS`` (3) turns are the history, the next turn the
response, the last ``FUTURE_TURNS`` (3) turns the future conversation.
Length filtering then keeps examples whose response is 5–25 tokens and
whose concatenated history and future are 25–80 tokens each (the
inclusive ``RESPONSE_LENGTH`` and ``CONTEXT_LENGTH`` bounds).
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import DataError, VocabularyError

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3
RESERVED = ("<pad>", "<unk>", "<bos>", "<eos>")

TURN_DELIMITER = "__eou__"

HISTORY_TURNS = 3
FUTURE_TURNS = 3
RESPONSE_LENGTH = (5, 25)  # tokens, inclusive
CONTEXT_LENGTH = (25, 80)  # tokens of the history and of the future, inclusive

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text: str) -> list:
    """Lowercase and split into word and single-punctuation tokens.

    Idempotent on its own space-joined output.
    """
    return _TOKEN_RE.findall(text.lower())


# --------------------------------------------------------------------------
# Reading dialogues
# --------------------------------------------------------------------------


def read_lines(path):
    """Yield the lines of a UTF-8 text file; ``DataError`` naming the
    path when its bytes are not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def atomic_write(path, mode: str = "w"):
    """A file handle (UTF-8 text, or bytes for ``"wb"``) whose contents
    replace ``path`` only once all of them are written and synced, so a
    reader sees the old file or the new one. The data goes to a temporary
    file beside ``path``, which an error, or an interrupt, removes."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_dialogues_format_a(path) -> list:
    """One dialogue per line; turns separated by ``__eou__``."""
    dialogues = []
    for line in read_lines(path):
        turns = [t.strip() for t in line.split(TURN_DELIMITER)]
        turns = [t for t in turns if t]
        if turns:
            dialogues.append(turns)
    return dialogues


def read_dialogues_format_b(path) -> list:
    """JSON-lines records with a "turns" array of strings."""
    dialogues = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON record: {exc}") from exc
        if not isinstance(record, dict) or "turns" not in record:
            raise DataError(f"{path}:{lineno}: record lacks a 'turns' field")
        turns = record["turns"]
        if not isinstance(turns, list) or not all(isinstance(t, str) for t in turns):
            raise DataError(f"{path}:{lineno}: 'turns' must be an array of strings")
        turns = [t.strip() for t in turns if t.strip()]
        if turns:
            dialogues.append(turns)
    return dialogues


def read_dialogues(path) -> list:
    """Load dialogues as lists of raw turn strings; the first non-blank line
    picks the format (a JSON object for format B, else format A)."""
    first = next((line.strip() for line in read_lines(path) if line.strip()), "")
    return read_dialogues_format_b(path) if first.startswith("{") else read_dialogues_format_a(path)


# --------------------------------------------------------------------------
# Windowing and filtering
# --------------------------------------------------------------------------


@dataclass
class DialogueExample:
    """One (history, response, future) window of tokenized turns."""

    history: list  # list of turns, each a list of tokens
    response: list  # one turn: list of tokens
    future: list  # list of turns
    dialogue_index: int = 0
    window_offset: int = 0

    @property
    def history_tokens(self) -> list:
        return [tok for turn in self.history for tok in turn]

    @property
    def future_tokens(self) -> list:
        return [tok for turn in self.future for tok in turn]


def window_dialogue(turns: list, stride: int = 1, dialogue_index: int = 0) -> list:
    """Slide a (history, response, future)-turn window over one tokenized dialogue."""
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    width = HISTORY_TURNS + 1 + FUTURE_TURNS
    out = []
    for start in range(0, len(turns) - width + 1, stride):
        chunk = turns[start : start + width]
        out.append(
            DialogueExample(
                history=chunk[:HISTORY_TURNS],
                response=chunk[HISTORY_TURNS],
                future=chunk[HISTORY_TURNS + 1 :],
                dialogue_index=dialogue_index,
                window_offset=start,
            )
        )
    return out


def window_dialogues(dialogues: list, stride: int = 1) -> list:
    """Window every dialogue; ordering is (dialogue index, window offset)."""
    out = []
    for idx, turns in enumerate(dialogues):
        out.extend(window_dialogue(turns, stride, dialogue_index=idx))
    return out


def length_filter(examples: list) -> list:
    """Keep exactly the examples within all three inclusive length bounds."""
    (r_min, r_max), (c_min, c_max) = RESPONSE_LENGTH, CONTEXT_LENGTH
    return [
        ex
        for ex in examples
        if r_min <= len(ex.response) <= r_max
        and c_min <= len(ex.history_tokens) <= c_max
        and c_min <= len(ex.future_tokens) <= c_max
    ]


# --------------------------------------------------------------------------
# Vocabulary
# --------------------------------------------------------------------------


class Vocabulary:
    """token <-> id maps with four reserved ids (pad, unk, bos, eos)."""

    def __init__(self, tokens: list):
        self._id_to_token = list(RESERVED) + list(tokens)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def encode(self, tokens: list) -> list:
        return [self._token_to_id.get(t, UNK_ID) for t in tokens]

    def decode(self, ids) -> list:
        """The tokens of ``ids`` up to the first EOS, without pad and bos; an
        id outside ``[0, len(self))`` is a ``VocabularyError``."""
        out = []
        for i in ids:
            i = int(i)
            if i == EOS_ID:
                break
            if i in (PAD_ID, BOS_ID):
                continue
            if not 0 <= i < len(self._id_to_token):
                raise VocabularyError(f"token id {i} outside [0, {len(self._id_to_token)})")
            out.append(self._id_to_token[i])
        return out

    def content_tokens(self) -> list:
        return self._id_to_token[len(RESERVED):]

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            for tok in self.content_tokens():
                fh.write(tok + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls([line.rstrip("\n") for line in read_lines(path) if line.rstrip("\n")])


def build_vocabulary(token_sequences, max_size: int) -> Vocabulary:
    """Most frequent tokens up to ``max_size - 4``; ties break lexicographically."""
    if max_size < len(RESERVED):
        raise DataError(f"max_size must be >= {len(RESERVED)}, got {max_size}")
    counts = Counter()
    for seq in token_sequences:
        counts.update(seq)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(RESERVED)]]
    return Vocabulary(keep)


def corpus_token_stream(examples: list):
    """All token sequences of the examples (history turns, response, future turns)."""
    for ex in examples:
        for turn in ex.history:
            yield turn
        yield ex.response
        for turn in ex.future:
            yield turn


# --------------------------------------------------------------------------
# Encoding and batching
# --------------------------------------------------------------------------


@dataclass
class EncodedExample:
    history: list  # flat id list
    response: list  # id list, no bos/eos
    future: list  # flat id list


def encode_example(ex: DialogueExample, vocab: Vocabulary) -> EncodedExample:
    return EncodedExample(
        history=vocab.encode(ex.history_tokens),
        response=vocab.encode(ex.response),
        future=vocab.encode(ex.future_tokens),
    )


@dataclass
class Batch:
    """Padded id matrices plus masks for one optimizer step.

    ``response_in`` starts with the begin-of-sequence id;
    ``response_target`` ends each row with end-of-sequence. The float
    ``target_mask`` is 1 on real target positions (end-of-sequence
    included) and 0 on padding.
    """

    history: np.ndarray  # (B, Th) int
    response_in: np.ndarray  # (B, Tr) int
    response_target: np.ndarray  # (B, Tr) int
    target_mask: np.ndarray  # (B, Tr) float
    future: np.ndarray = None  # (B, Tf) int, always built by batchify; the scenario-based variant reads it
    index: np.ndarray = None  # (B,) each row's position in the list batchify was given

    @property
    def size(self) -> int:
        return self.history.shape[0]

    @property
    def token_count(self) -> float:
        return float(self.target_mask.sum())


def _pad_rows(rows: list, field: str) -> np.ndarray:
    """One field's id lists or integer arrays, padded; a float or bool id,
    which the int64 array would truncate, raises ``VocabularyError``."""
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, r in enumerate(rows):
        if not isinstance(r, np.ndarray) or r.dtype.kind not in "iu":
            bad = [t for t in r if type(t) is not int and not isinstance(t, np.integer)]  # a bool is no id
            if bad:
                raise VocabularyError(f"{field} token ids must be integers, got {bad[0]!r}")
        out[i, : len(r)] = r
    return out


def make_batch(examples: list, include_future: bool = True) -> Batch:
    """Pad a list of EncodedExamples to a single Batch."""
    if not examples:
        raise DataError("cannot build a batch from zero examples")
    hist = _pad_rows([e.history for e in examples], "history")
    resp_in = _pad_rows([[BOS_ID] + e.response for e in examples], "response")
    resp_tgt = _pad_rows([e.response + [EOS_ID] for e in examples], "response")
    lengths = np.array([len(e.response) + 1 for e in examples], dtype=np.int64)
    mask = (np.arange(resp_tgt.shape[1])[None, :] < lengths[:, None]).astype(T.active_dtype())
    future = _pad_rows([e.future for e in examples], "future") if include_future else None
    return Batch(history=hist, response_in=resp_in, response_target=resp_tgt,
                 target_mask=mask, future=future)


def batchify(examples: list, batch_size: int, seed=None) -> list:
    """Deterministically shuffled batches (unshuffled when seed is None).

    The final short batch is kept, so every example appears exactly once.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(examples))
    if seed is not None:
        order = np.random.default_rng(seed).permutation(len(examples))
    out = []
    for start in range(0, len(examples), batch_size):
        index = order[start : start + batch_size]
        out.append(make_batch([examples[i] for i in index]))
        out[-1].index = index
    return out


def split_examples(examples: list, val_fraction: float, test_fraction: float, seed: int):
    """Deterministic train/validation/test split by shuffled index."""
    if not (val_fraction >= 0 and test_fraction >= 0 and val_fraction + test_fraction < 1.0):
        raise DataError(
            "split fractions must be non-negative and sum to < 1, got "
            f"val_fraction={val_fraction}, test_fraction={test_fraction}"
        )
    order = np.random.default_rng(seed).permutation(len(examples))
    n_val = int(round(len(examples) * val_fraction))
    n_test = int(round(len(examples) * test_fraction))
    val_idx = order[:n_val]
    test_idx = order[n_val : n_val + n_test]
    train_idx = order[n_val + n_test :]
    pick = lambda idx: [examples[i] for i in sorted(idx)]
    return pick(train_idx), pick(val_idx), pick(test_idx)
