"""Automatic evaluation metrics for generated dialogue responses.

Count-based diversity (distinct-n), distributional fit (n-gram KL in
bits, word-frequency cosine), corpus perplexity (arithmetic mean of
per-sentence perplexities), corpus BLEU, embedding-based relevance
(average / greedy / extrema) and history-response coherence.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .corpus import atomic_write, batchify
from .embeddings import WordEmbeddings, cosine
from .errors import ContractError, DataError
from .training import forward_batch

SCALAR_METRICS = (
    "dist1",
    "dist2",
    "dist3",
    "kl_unigram",
    "kl_bigram",
    "ppl",
    "bleu",
    "emb_average",
    "emb_greedy",
    "emb_extrema",
    "coherence",
)


def ngrams(tokens, n: int) -> list:
    if n < 1:
        raise ContractError(f"n-gram order must be >= 1, got {n}")
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def distinct_n(responses, n: int):
    """(distinct n-grams / total n-grams, defined?) across all
    responses. No n-grams at all -> (0.0, False)."""
    grams = [g for r in responses for g in ngrams(r, n)]
    if not grams:
        return 0.0, False
    return len(set(grams)) / len(grams), True


def kl_metric(reference_responses, generated_responses, n: int) -> float:
    """KL divergence (bits) from the generated n-gram distribution to
    the reference one, summed over reference n-gram types weighted by
    reference probability.

    When every reference n-gram also occurs in the generated set, both
    distributions are used raw, so a set evaluated against itself gives
    exactly 0. Otherwise one pseudo-count is spread across the reference
    n-gram vocabulary on the generated side to keep the value finite.
    """
    ref_counts = Counter(g for r in reference_responses for g in ngrams(r, n))
    gen_counts = Counter(g for r in generated_responses for g in ngrams(r, n))
    if not ref_counts:
        raise DataError(f"reference set has no {n}-grams")
    ref_total = sum(ref_counts.values())
    gen_total = sum(gen_counts.values())
    needs_smoothing = any(gen_counts[g] == 0 for g in ref_counts)
    pseudo = 1.0 / len(ref_counts) if needs_smoothing else 0.0
    gen_norm = gen_total + (1.0 if needs_smoothing else 0.0)
    total = 0.0
    for gram, count in ref_counts.items():
        p_ref = count / ref_total
        p_gen = (gen_counts[gram] + pseudo) / gen_norm
        total += p_ref * np.log2(p_ref / p_gen)
    return float(total)


@dataclass
class PplReport:
    value: float
    sentence_ppls: list
    excluded: int  # sentences with no unmasked target positions


def sentence_perplexities(model, batch) -> tuple:
    """Per-sentence exp(mean target NLL) for one teacher-forced batch.
    Rows whose target mask is all zero are excluded with a counter."""
    out = forward_batch(model, batch)
    rows, length = batch.response_target.shape
    log_p = out.log_probs.data[np.arange(rows)[:, None], np.arange(length)[None, :], batch.response_target]
    mask = np.asarray(batch.target_mask, dtype=np.float64)
    counts = mask.sum(axis=1)
    scored = counts > 0
    return np.exp(-(log_p * mask).sum(axis=1)[scored] / counts[scored]).tolist(), int((~scored).sum())


@T.names_failures
def corpus_ppl(model, examples, batch_size: int = 32) -> PplReport:
    """Arithmetic mean of per-sentence perplexities under teacher
    forcing. Future turns are fed only to future-conditioned variants."""
    ppls = []
    excluded = 0
    for batch in batchify(examples, batch_size, seed=None):
        batch_ppls, batch_excluded = sentence_perplexities(model, batch)
        ppls.extend(batch_ppls)
        excluded += batch_excluded
    if not ppls:
        raise DataError("no scorable sentences (all responses empty after masking)")
    return PplReport(value=float(np.mean(ppls)), sentence_ppls=ppls, excluded=excluded)


BLEU_EPSILON = 1e-9
BLEU_MAX_ORDER = 4


def bleu(references, candidates) -> float:
    """Corpus-level BLEU as a percentage.

    Modified n-gram precisions up to order 4 with per-corpus clipping,
    uniform weights over the orders that have any candidate n-grams
    (so short perfect matches still score 100), an epsilon floor on
    zero precisions, and the brevity penalty.
    """
    if len(references) != len(candidates):
        raise ContractError(
            f"need aligned pairs, got {len(references)} references / {len(candidates)} candidates"
        )
    if not references:
        raise DataError("cannot compute bleu on an empty corpus")
    matched = np.zeros(BLEU_MAX_ORDER)
    totals = np.zeros(BLEU_MAX_ORDER)
    ref_len = 0
    cand_len = 0
    for ref, cand in zip(references, candidates):
        ref_len += len(ref)
        cand_len += len(cand)
        for order in range(1, BLEU_MAX_ORDER + 1):
            ref_grams = Counter(ngrams(ref, order))
            cand_grams = Counter(ngrams(cand, order))
            totals[order - 1] += sum(cand_grams.values())
            matched[order - 1] += sum(
                min(count, ref_grams[gram]) for gram, count in cand_grams.items()
            )
    included = totals > 0
    if not included.any() or cand_len == 0:
        return 0.0
    precisions = np.where(matched[included] > 0, matched[included] / totals[included], BLEU_EPSILON)
    geo_mean = float(np.exp(np.mean(np.log(precisions))))
    brevity = 1.0 if cand_len > ref_len else float(np.exp(1.0 - ref_len / cand_len))
    return 100.0 * brevity * geo_mean


@dataclass
class EmbeddingMetrics:
    average: float
    greedy: float
    extrema: float
    skipped_pairs: int  # pairs where both sides had no known tokens


def _known_vectors(tokens, embeddings: WordEmbeddings) -> list:
    vecs = []
    for t in tokens:
        v = embeddings.vector(t)
        if v is not None:
            vecs.append(v)
    return vecs


def _extrema_vector(vectors) -> np.ndarray:
    stack = np.stack(vectors)
    idx = np.argmax(np.abs(stack), axis=0)
    return stack[idx, np.arange(stack.shape[1])]


def _unit_rows(vecs) -> np.ndarray:
    """``vecs`` stacked as float64 rows scaled to unit length; zero rows stay zero."""
    m = np.asarray(vecs, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0.0)


def _greedy_matching(a_vecs, b_vecs) -> float:
    """Each token's best cosine on the other side, averaged per side, then over both sides."""
    sims = _unit_rows(a_vecs) @ _unit_rows(b_vecs).T
    return 0.5 * (float(np.mean(sims.max(axis=1))) + float(np.mean(sims.max(axis=0))))


def _pair_scores(sides, lefts, rights, embeddings: WordEmbeddings, *scores) -> tuple:
    """For each ``score(left_vectors, right_vectors)``, its values over the aligned
    pairs of the token lists ``sides`` names, and the skipped pair count. Unknown
    tokens are dropped; a pair with none known is skipped, with one side none, scores 0."""
    if len(lefts) != len(rights):
        raise ContractError(f"need aligned pairs, got {len(lefts)} {sides[0]} / {len(rights)} {sides[1]}")
    values, skipped = [[] for _ in scores], 0
    for left, right in zip(lefts, rights):
        a, b = _known_vectors(left, embeddings), _known_vectors(right, embeddings)
        if not a and not b:
            skipped += 1
            continue
        for out, score in zip(values, scores):
            out.append(score(a, b) if a and b else 0.0)
    return values, skipped


def _mean_cosine(a_vecs, b_vecs) -> float:
    return cosine(np.mean(a_vecs, axis=0), np.mean(b_vecs, axis=0))


def embedding_metrics(references, candidates, embeddings: WordEmbeddings) -> EmbeddingMetrics:
    """Cosine relevance of candidate to reference under three sentence
    reductions: mean vector, symmetric greedy token matching, and
    per-dimension signed extrema, paired as ``_pair_scores`` pairs them."""
    (averages, greedys, extremas), skipped = _pair_scores(
        ("references", "candidates"), references, candidates, embeddings,
        _mean_cosine, _greedy_matching, lambda a, b: cosine(_extrema_vector(a), _extrema_vector(b)),
    )
    if not averages:
        return EmbeddingMetrics(0.0, 0.0, 0.0, skipped)
    return EmbeddingMetrics(
        average=float(np.mean(averages)),
        greedy=float(np.mean(greedys)),
        extrema=float(np.mean(extremas)),
        skipped_pairs=skipped,
    )


def coherence(histories, candidates, embeddings: WordEmbeddings) -> tuple:
    """Mean cosine between the average word vectors of the (flattened)
    history and the generated response, and the skipped pair count."""
    (values,), skipped = _pair_scores(("histories", "candidates"), histories, candidates, embeddings,
                                      _mean_cosine)
    return (float(np.mean(values)) if values else 0.0), skipped


def word_distribution_similarity(generated_responses, reference_responses, top_k: int = 2350) -> float:
    """Cosine between word-frequency vectors over the ``top_k`` most
    frequent reference words (ties broken lexicographically)."""
    if top_k < 1:
        raise ContractError(f"top_k must be >= 1, got {top_k}")
    ref_counts = Counter(t for r in reference_responses for t in r)
    gen_counts = Counter(t for r in generated_responses for t in r)
    if not ref_counts:
        return 0.0
    vocab = sorted(ref_counts, key=lambda w: (-ref_counts[w], w))[:top_k]
    ref_vec = np.array([ref_counts[w] for w in vocab], dtype=np.float64)
    gen_vec = np.array([gen_counts.get(w, 0) for w in vocab], dtype=np.float64)
    return cosine(ref_vec, gen_vec)


@dataclass
class MetricsReport:
    dist1: float = 0.0
    dist2: float = 0.0
    dist3: float = 0.0
    kl_unigram: float = 0.0
    kl_bigram: float = 0.0
    ppl: float = 0.0
    bleu: float = 0.0
    emb_average: float = 0.0
    emb_greedy: float = 0.0
    emb_extrema: float = 0.0
    coherence: float = 0.0
    generation: dict = field(default_factory=dict)
    corpus_id: str = ""
    model_id: str = ""
    flags: dict = field(default_factory=dict)
    run_config: dict = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_json() + "\n")

