"""Flagging uninformative training examples.

An example teaches the model a many-to-one mapping when its response is
(near-)equivalent to another example's response while the histories
differ — or, symmetrically, when an equivalent future follows two
different responses. Three equivalence notions are supported:

- ``exact-match``: byte-identical token sequences;
- ``word-overlap``: token-set overlap strictly above 80%, ratio
  |intersection| / max(|A|, |B|);
- ``sentence-cluster``: same cluster from a single-pass cosine
  clustering of frequency-weighted sentence embeddings (threshold 0.8
  for single-turn responses, 0.98 for multi-turn histories/futures).

An example is Uninformative when, for the history->response or the
response->future pair, some other example has an equivalent second
element but a non-equivalent first element.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .embeddings import WordEmbeddings, cosine
from .errors import ContractError

STRATEGIES = ("exact-match", "word-overlap", "sentence-cluster")

OVERLAP_THRESHOLD = 0.8  # strict: ratio must exceed this
SINGLE_TURN_THRESHOLD = 0.8
MULTI_TURN_THRESHOLD = 0.98
WEIGHT_SMOOTHING = 1e-3


def overlap_ratio(tokens_a, tokens_b) -> float:
    """|token-set intersection| / max set size; 0 when either is empty."""
    sa, sb = set(tokens_a), set(tokens_b)
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / max(len(sa), len(sb))


def overlap_equivalent(tokens_a, tokens_b) -> bool:
    return overlap_ratio(tokens_a, tokens_b) > OVERLAP_THRESHOLD


def token_frequencies(token_lists) -> Counter:
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    return counts


def sentence_embedding(
    tokens,
    embeddings: WordEmbeddings,
    counts: Counter,
    total: int,
    smoothing: float = WEIGHT_SMOOTHING,
) -> np.ndarray:
    """Weighted sum of word vectors; rarer words weigh more. The weight
    of token w is a / (a + relative-frequency(w)). Tokens absent from
    the table contribute nothing."""
    out = np.zeros(embeddings.dim)
    if total <= 0:
        return out
    for t in tokens:
        vec = embeddings.vector(t)
        if vec is None:
            continue
        weight = smoothing / (smoothing + counts.get(t, 0) / total)
        out += weight * vec
    return out


def single_pass_cluster(
    sentences,
    embeddings: WordEmbeddings,
    threshold: float,
    counts: Counter = None,
    total: int = None,
) -> list:
    """Greedy one-pass clustering of token-list sentences.

    Each sentence joins the first cluster whose centroid (running mean
    of member embeddings) has cosine similarity >= threshold, otherwise
    it founds a new cluster. Returns one cluster id per sentence.
    """
    if not 0.0 < threshold <= 1.0:
        raise ContractError(f"cluster threshold must be in (0, 1], got {threshold}")
    sentences = [list(s) for s in sentences]
    if counts is None:
        counts = token_frequencies(sentences)
        total = sum(counts.values())
    if total is None:
        total = sum(counts.values())

    sums = []  # running vector sum per cluster
    sizes = []
    labels = []
    for tokens in sentences:
        vec = sentence_embedding(tokens, embeddings, counts, total)
        chosen = -1
        for c, (s, n) in enumerate(zip(sums, sizes)):
            if cosine(s / n, vec) >= threshold:
                chosen = c
                break
        if chosen < 0:
            sums.append(vec.copy())
            sizes.append(1)
            labels.append(len(sums) - 1)
        else:
            sums[chosen] += vec
            sizes[chosen] += 1
            labels.append(chosen)
    return labels


def _flatten_turns(turns) -> list:
    return [t for turn in turns for t in turn]


def _exact_keys(elements):
    """Hashable identity per element; elements are turn lists or flat
    token lists."""
    keys = []
    for e in elements:
        if e and isinstance(e[0], list):
            keys.append(tuple(tuple(turn) for turn in e))
        else:
            keys.append(tuple(e))
    return keys


def _overlap_pairs(sequences):
    """Yield each pair (j, i), j < i, of overlap-equivalent sequences by a
    prefix-filtered self-join. Tokens are ordered by (document frequency,
    token) and a set indexes its first len - floor(0.8 len) + 1: a ratio
    above 0.8 leaves the two prefixes a common token (the +1 guards the
    rounding of 0.8 len). ``overlap_equivalent`` confirms every candidate."""
    sets = [frozenset(s) for s in sequences]
    df = Counter(t for s in sets for t in s)
    index = {}  # token -> windows whose prefix holds it
    for i, s in enumerate(sets):
        keep = len(s) - int(OVERLAP_THRESHOLD * len(s)) + 1
        candidates = set()
        for t in sorted(s, key=lambda t: (df[t], t))[:keep]:
            candidates.update(index.setdefault(t, []))
            index[t].append(i)
        yield from ((j, i) for j in candidates if overlap_equivalent(sets[j], s))


def _flag_by_keys(first_keys, second_keys) -> set:
    """Group on second key; members with >= 2 distinct first keys in
    their group are flagged. Equivalent to the pairwise rule when the
    relations are true equivalences, but linear-time."""
    groups = {}
    for i, k in enumerate(second_keys):
        groups.setdefault(k, []).append(i)
    flagged = set()
    for members in groups.values():
        if len({first_keys[i] for i in members}) > 1:
            flagged.update(members)
    return flagged


def classify_uninformative(examples, strategy: str, embeddings: WordEmbeddings = None):
    """Partition examples into (uninformative indices, other indices).

    The word-overlap relation is not transitive, so it is applied per
    pair: both windows of each pair ``_overlap_pairs`` joins on the second
    elements are flagged when their first elements are not equivalent.
    """
    if strategy not in STRATEGIES:
        raise ContractError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "sentence-cluster" and embeddings is None:
        raise ContractError("sentence-cluster strategy needs a word embedding table")

    examples = list(examples)
    n = len(examples)
    histories = [e.history for e in examples]
    responses = [e.response for e in examples]
    futures = [e.future for e in examples]

    flagged = set()
    if strategy == "exact-match":
        for firsts, seconds in ((histories, responses), (responses, futures)):
            flagged |= _flag_by_keys(_exact_keys(firsts), _exact_keys(seconds))
    elif strategy == "word-overlap":
        flat_h = [_flatten_turns(h) for h in histories]
        flat_f = [_flatten_turns(f) for f in futures]
        for firsts, seconds in ((flat_h, responses), (responses, flat_f)):
            for j, i in _overlap_pairs(seconds):
                if not overlap_equivalent(firsts[j], firsts[i]):
                    flagged.update((j, i))
    else:
        all_sentences = [_flatten_turns(h) for h in histories] + list(responses) + [
            _flatten_turns(f) for f in futures
        ]
        counts = token_frequencies(all_sentences)
        total = sum(counts.values())
        h_labels = single_pass_cluster(
            [_flatten_turns(h) for h in histories], embeddings, MULTI_TURN_THRESHOLD, counts, total
        )
        r_labels = single_pass_cluster(
            responses, embeddings, SINGLE_TURN_THRESHOLD, counts, total
        )
        f_labels = single_pass_cluster(
            [_flatten_turns(f) for f in futures], embeddings, MULTI_TURN_THRESHOLD, counts, total
        )
        for firsts, seconds in ((h_labels, r_labels), (r_labels, f_labels)):
            flagged |= _flag_by_keys(firsts, seconds)

    uninformative = sorted(flagged)
    other = [i for i in range(n) if i not in flagged]
    return uninformative, other
