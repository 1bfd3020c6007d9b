"""Synthetic dialogue corpora with a controllable future-information signal.

The marker corpus makes the response's final token a pure function of a
marker hidden in the future conversation: history turns are random
filler, the future contains exactly one marker token ``m{k}`` at a
random position, and the response ends with the paired answer token
``a{k}``. A model that sees the future can read the marker; a
history-only model faces an 1/num_markers guessing game on that
position.

The response opens by echoing the last ``echo_len`` history tokens, so a
model must encode the history well to predict the opening — that part
rewards reusing a trained encoder. The tokens between echo and answer
are unpredictable random filler. The corpora double as quick overfit
material.
"""

from __future__ import annotations

import numpy as np

from .corpus import DialogueExample, Vocabulary
from .errors import DataError

FILLERS = [f"f{i}" for i in range(10)]


def marker_token(k: int) -> str:
    return f"m{k}"


def answer_token(k: int) -> str:
    return f"a{k}"


def future_marker_corpus(
    n_examples: int,
    seed: int,
    num_markers: int = 8,
    turn_len: int = 4,
    response_len: int = 5,
    echo_len: int = 2,
) -> list:
    """Build ``n_examples`` DialogueExamples with exactly balanced marker
    classes (class of example i is i mod num_markers before shuffling)."""
    if n_examples < 1:
        raise DataError("n_examples must be >= 1")
    if not 0 <= echo_len <= response_len - 1:
        raise DataError(f"echo_len must be in [0, response_len - 1], got {echo_len}")
    rng = np.random.default_rng(seed)
    classes = np.arange(n_examples) % num_markers
    rng.shuffle(classes)
    examples = []
    for i, k in enumerate(classes):
        k = int(k)
        history = [list(rng.choice(FILLERS, size=turn_len)) for _ in range(3)]
        echo = [t for turn in history for t in turn][-echo_len:] if echo_len else []
        fill = list(rng.choice(FILLERS, size=response_len - 1 - echo_len))
        response = echo + fill + [answer_token(k)]
        future = [list(rng.choice(FILLERS, size=turn_len)) for _ in range(3)]
        turn = int(rng.integers(0, 3))
        pos = int(rng.integers(0, turn_len))
        future[turn][pos] = marker_token(k)
        examples.append(
            DialogueExample(
                history=history, response=response, future=future, dialogue_index=i
            )
        )
    return examples


def marker_vocabulary(num_markers: int = 8) -> Vocabulary:
    """Fixed vocabulary covering every filler, marker, and answer token."""
    tokens = sorted(FILLERS) + sorted(marker_token(k) for k in range(num_markers))
    tokens += sorted(answer_token(k) for k in range(num_markers))
    return Vocabulary(tokens)
